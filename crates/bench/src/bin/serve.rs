//! Batch simulation daemon: serve slipstream runs over the sim-serve
//! line protocol.
//!
//! Starts a [`sim_serve::Server`] with the slipstream
//! [`bench::serve::BenchRunner`] and blocks until a client sends the
//! `shutdown` verb — or `drain`, which finishes running jobs, leaves
//! queued ones journaled for the next incarnation, and exits. Clients —
//! the `all_experiments`, `analyze`, `soak`, and `serve_batch`
//! binaries, or anything speaking NDJSON over TCP — submit job specs
//! and read back bit-identical result payloads, with repeated configs
//! answered from the content-addressed result cache and warm-started
//! sweeps forked from shared engine snapshots.
//!
//! Environment:
//! * `SERVE_ADDR` — listen address (default `127.0.0.1:0`; the chosen
//!   port is printed on startup).
//! * `SERVE_WORKERS` — daemon worker threads (default 2, clamped by
//!   the host like every pool consumer).
//! * `SERVE_CACHE_CAP` — in-memory result-cache entries (default 256).
//! * `SERVE_CACHE_DIR` — optional directory for the on-disk cache
//!   tier; cached results then survive daemon restarts.
//! * `SERVE_JOURNAL` — optional write-ahead journal path; accepted
//!   jobs then survive a `kill -9` and replay on the next start.
//! * `SERVE_JOURNAL_SYNC` — presence flag: `sync_data` every journal
//!   append (power-loss durability, at a syscall per submit).
//! * `SERVE_MAX_QUEUE` — queued-job bound (default 1024, 0 unbounded);
//!   overflow sheds lower-priority work or answers `busy` with a
//!   `retry_after_ms` hint.
//! * `SERVE_CONN_LIVE` — per-connection unfinished-job bound
//!   (default 0 = unbounded).

use bench::serve::BenchRunner;
use bench::{env, pool};
use sim_serve::{ServeOptions, Server};

fn main() {
    let addr = env::string_or("SERVE_ADDR", "127.0.0.1:0");
    let opts = ServeOptions {
        // Daemon workers are the process's job-level parallelism, so
        // they answer to the pool's worker bound (BENCH_WORKERS).
        workers: env::get_or("SERVE_WORKERS", 2).clamp(1, pool::worker_bound()),
        cache_cap: env::get_or("SERVE_CACHE_CAP", 256),
        cache_dir: env::path("SERVE_CACHE_DIR"),
        journal: env::path("SERVE_JOURNAL"),
        journal_sync: env::flag("SERVE_JOURNAL_SYNC"),
        max_queue: env::get_or("SERVE_MAX_QUEUE", 1024),
        max_live_per_conn: env::get_or("SERVE_CONN_LIVE", 0),
    };
    let server = Server::bind(&addr, Box::new(BenchRunner::new()), opts.clone())
        .unwrap_or_else(|e| panic!("bind {addr}: {e}"));
    println!(
        "sim-serve listening on {} ({} workers)",
        server.local_addr(),
        opts.workers
    );

    loop {
        if server.shutdown_requested() {
            println!("shutdown requested, draining");
            break;
        }
        if server.drain_requested() && server.drained() {
            println!("drain complete, exiting (queued work stays journaled)");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.shutdown();
}
