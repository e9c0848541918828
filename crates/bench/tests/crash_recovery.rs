//! Crash-recovery parity against the *real* daemon binary.
//!
//! Spawns the `serve` binary with a journal and a disk cache, SIGKILLs
//! it mid-batch, restarts it on the same state directory, and asserts
//! that every job acknowledged by the first incarnation completes under
//! its original id with a payload byte-identical to a direct in-process
//! run. This is the out-of-process twin of the in-process restart tests
//! in `sim-serve` — nothing simulated about the crash.
//!
//! Set `CHAOS_DIR` to relocate the daemon's state directory (CI points
//! it at an artifact path so the journal is uploaded when this fails).

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use bench::serve::SuiteRow;
use bench::{small_machine, STATIC_MODES};
use npb_kernels::Benchmark;
use omp_rt::RuntimeEnv;
use sim_serve::Client;
use slipstream::runner::{run_program, RunOptions};

/// Spec text for a tiny-preset run on the small machine (the
/// `serve_batch` vocabulary).
fn spec(bench: &str, mode: &str) -> String {
    format!(
        "{{\"kind\":\"run\",\"bench\":\"{bench}\",\"preset\":\"tiny\",\
         \"machine\":\"small\",\"mode\":\"{mode}\"}}"
    )
}

/// The direct-path twin of `spec`: run in-process and project to a row.
fn direct_payload(bench: Benchmark, label: &str) -> String {
    let (_, mode, sync) = *STATIC_MODES
        .iter()
        .find(|(l, _, _)| *l == label)
        .expect("known mode label");
    let mut o = RunOptions::new(mode).with_machine(small_machine());
    o.sync = sync;
    o.env = RuntimeEnv::default();
    let s = run_program(&bench.build_tiny(), &o).expect("direct run");
    SuiteRow::from_summary(&s).to_payload()
}

/// Launch the daemon binary against `state_dir` and return the child
/// plus the address it printed.
fn spawn_daemon(state_dir: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .env("SERVE_ADDR", "127.0.0.1:0")
        .env("SERVE_WORKERS", "1")
        .env("SERVE_CACHE_CAP", "64")
        .env("SERVE_CACHE_DIR", state_dir.join("cache"))
        .env("SERVE_JOURNAL", state_dir.join("jobs.wal"))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn serve binary");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("daemon banner");
    // "sim-serve listening on 127.0.0.1:PORT (N workers)"
    let addr = line
        .split_whitespace()
        .find(|w| w.contains(':') && w.starts_with("127.0.0.1"))
        .unwrap_or_else(|| panic!("no address in daemon banner {line:?}"))
        .to_string();
    // Keep draining the daemon's stdout so it never blocks on a full
    // pipe; the lines themselves are uninteresting here.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while let Ok(n) = reader.read_line(&mut sink) {
            if n == 0 {
                break;
            }
            sink.clear();
        }
    });
    (child, addr)
}

#[test]
fn sigkill_mid_batch_loses_no_acknowledged_work() {
    let base = std::env::var("CHAOS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    let state_dir = base.join(format!("crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir).expect("state dir");

    // One kernel under every static mode, single worker: when the first
    // job's result arrives, the rest of the batch is still queued.
    let batch: Vec<&str> = STATIC_MODES.iter().map(|(l, _, _)| *l).collect();

    let (mut child, addr) = spawn_daemon(&state_dir);
    let mut client = Client::connect(&addr).expect("connect first incarnation");
    let mut ids = Vec::new();
    for label in &batch {
        let ack = client
            .submit(&spec("cg", label), 0, None)
            .expect("submit to first incarnation");
        ids.push(ack.id);
    }
    let first = client.result(ids[0]).expect("first result");
    assert_eq!(first.state, "done", "{:?}", first.error);

    // SIGKILL mid-batch: no drain, no flush, no goodbye.
    child.kill().expect("SIGKILL daemon");
    let _ = child.wait();

    let (mut child, addr) = spawn_daemon(&state_dir);
    let mut client = Client::connect(&addr).expect("connect second incarnation");
    for (id, label) in ids.iter().zip(&batch) {
        let outcome = client.result(*id).expect("result after restart");
        assert_eq!(
            outcome.state, "done",
            "job {id} ({label}) after restart: {:?}",
            outcome.error
        );
        let payload = outcome.payload.expect("done payload");
        assert_eq!(
            payload,
            direct_payload(Benchmark::Cg, label),
            "job {id} ({label}): recovered payload must be byte-identical to the direct path"
        );
    }

    // The whole batch resubmitted is answered from the cache, byte-for-
    // byte, with nothing re-executed.
    for label in &batch {
        let (ack, payload) = client
            .run_to_payload(&spec("cg", label), 0, None)
            .expect("resubmit");
        assert!(ack.cached, "resubmit of {label} must be a cache hit");
        assert_eq!(payload, direct_payload(Benchmark::Cg, label));
    }

    client.shutdown().expect("clean shutdown");
    for _ in 0..100 {
        if let Ok(Some(_)) = child.try_wait() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&state_dir);
}
