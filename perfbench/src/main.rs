//! The repository's benchmark: three workloads over the slipstream
//! simulator, each generated from a seed, with end-to-end metrics from
//! untraced passes and per-layer metrics from traced passes.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-figs --seed 1 --seconds 35 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 1` the traced run also writes its spans, one JSON object
//! per line, under `$CARGO_TARGET_DIR/perfbench-spans/` (default
//! `target/`).
//!
//! The program limits glibc malloc to one arena before it starts any
//! thread, so that its peak resident set repeats between runs.
//!
//! `--selfcheck` corrupts one expected fingerprint, one served payload
//! and the generator's schedule in turn, and exits 0 only if the
//! benchmark reports each as a failure or as lateness. `--pin` prints
//! the pinned `paper-figs` fingerprints for the current code.

mod common;
mod ops;
mod paper;
mod serve;
mod sweep;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use common::{Corrupt, Ctx, Outcome};

/// Every run must end well within the harness's three-minute limit.
const WATCHDOG: Duration = Duration::from_secs(170);

const WORKLOADS: [&str; 3] = ["paper-figs", "fault-sweep-warm", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--selfcheck" => a.selfcheck = true,
            "--pin" => a.pin = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !a.selfcheck && !a.pin && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

fn run_workload(workload: &str, ctx: &Ctx) -> Outcome {
    match workload {
        "paper-figs" => paper::run(ctx),
        "fault-sweep-warm" => sweep::run(ctx),
        _ => serve::run(ctx),
    }
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Run each corruption and check the benchmark notices it.
fn selfcheck(work_dir: PathBuf) -> bool {
    let cases: [(&str, Corrupt, bool); 4] = [
        ("fault-sweep-warm", Corrupt::Fingerprint, false),
        ("paper-figs", Corrupt::Fingerprint, false),
        ("serve-mixed", Corrupt::Payload, false),
        ("serve-mixed", Corrupt::Stall, true),
    ];
    let mut all = true;
    for (workload, corrupt, trace) in cases {
        let ctx = Ctx {
            seed: 7,
            seconds: 1.0,
            trace,
            corrupt: Some(corrupt),
            limit_ms: f64::INFINITY,
            work_dir: work_dir.clone(),
        };
        let o = run_workload(workload, &ctx);
        let caught = if corrupt == Corrupt::Stall {
            let lag = o
                .metrics
                .iter()
                .find(|m| m.0 == "gen.lag_ms_p95")
                .map_or(0.0, |m| m.1);
            lag >= 100.0
        } else {
            o.failed >= 1
        };
        eprintln!(
            "selfcheck {workload} {corrupt:?}: {}",
            if caught { "caught" } else { "MISSED" }
        );
        all &= caught;
    }
    all
}

extern "C" {
    /// glibc's allocator tuning call.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` parameter.
const M_ARENA_MAX: i32 = -8;

/// Use one malloc arena for every thread. With glibc's default of one
/// arena per thread, the peak resident set of the serving workload moves
/// by a quarter between identical runs, depending on which arena each
/// daemon thread lands in.
fn one_malloc_arena() {
    // SAFETY: called first thing in `main`, before any other thread
    // exists; `mallopt` only sets an allocator parameter.
    if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
        eprintln!("perfbench: could not limit malloc to one arena");
    }
}

fn main() -> ExitCode {
    one_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}, giving up");
        std::process::exit(3);
    });
    if args.pin {
        paper::print_pins();
        return ExitCode::SUCCESS;
    }
    let work_dir = out_dir().join(format!("perfbench-work-{}", std::process::id()));
    if args.selfcheck {
        let ok = selfcheck(work_dir.clone());
        let _ = std::fs::remove_dir_all(&work_dir);
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let limit_ms = match common::limit_ms(&args.workload) {
        Ok(ms) => ms,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        corrupt: None,
        limit_ms,
        work_dir: work_dir.clone(),
    };
    let outcome = run_workload(&args.workload, &ctx);
    let _ = std::fs::remove_dir_all(&work_dir);
    if args.trace {
        let path = out_dir()
            .join("perfbench-spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer::write_jsonl(&path, &outcome.spans) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
        }
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
