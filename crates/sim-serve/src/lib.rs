//! Batch simulation daemon.
//!
//! A deterministic simulator spends most of a sweep re-deriving answers
//! it has already computed: the same (kernel, mode, fault seed)
//! tuple is requested by `all_experiments`, by `analyze`, by a
//! soak shard, and by a developer at a prompt — four cold runs of one
//! bit-reproducible result. `sim-serve` turns the simulator into a
//! long-lived service so that work is shared:
//!
//! - **Line protocol** ([`server`], [`client`], [`proto`]): one JSON
//!   object per line over TCP (`submit` / `status` / `result` /
//!   `cancel` / `stats` / `shutdown`). The format reuses the
//!   workspace's dependency-free JSON parser from `sim-trace`.
//! - **Job queue** ([`server`]): higher `priority` first, FIFO within a
//!   priority level; per-job timeouts; panic isolation per job;
//!   duplicate in-flight submissions coalesce onto one execution.
//! - **Result cache** ([`cache`]): content-addressed by the canonical
//!   config string the embedder derives from a job spec. A hit returns
//!   the stored payload *verbatim* — byte-identical to the run that
//!   populated it — from an in-memory LRU backed by an optional
//!   on-disk store.
//!
//! The crate is simulation-agnostic: the embedder implements
//! [`JobRunner`] (derive a canonical cache key from a spec; run a spec
//! to a payload string). The `bench` crate's `serve` binary wires this
//! to the slipstream engine, including snapshot warm-starts.
//!
//! ## Crash safety and chaos
//!
//! The daemon is built to preserve byte-parity under failure:
//!
//! - **Write-ahead journal** ([`wal`]): with [`ServeOptions::journal`]
//!   set, accepted jobs are journaled before their ack and replayed on
//!   restart, so `kill -9` mid-batch loses no acknowledged work.
//! - **Resilient client** ([`client`]): socket deadlines, transparent
//!   reconnect, seeded jittered exponential backoff, and idempotent
//!   resends keyed by the daemon's cache/coalescing.
//! - **Backpressure** ([`server`]): bounded queue with priority
//!   shedding and structured `busy` + `retry_after_ms` rejections,
//!   per-connection live-job limits, and a graceful `drain` verb.
//! - **Deterministic chaos proxy** ([`chaos`]): a seeded TCP proxy that
//!   resets, garbles, truncates, splits, and delays traffic on a
//!   schedule that is a pure function of its seed, for reproducible
//!   fault-injection soaks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod proto;
pub mod server;
pub mod wal;

pub use cache::ResultCache;
pub use chaos::{ChaosConfig, ChaosCounters, ChaosProxy, Dir, FaultAction};
pub use client::{Client, JobOutcome, RetryPolicy, ServeStats, SubmitAck};
pub use server::{JobControl, JobId, JobRunner, JobState, ServeOptions, Server};
pub use wal::{Replay, ReplayJob, Wal, WalRecord};
