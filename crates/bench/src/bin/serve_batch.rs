//! End-to-end smoke and warm-start benchmark for the sim-serve daemon.
//!
//! Drives one daemon through the full serving surface and asserts the
//! properties the design promises, failing loudly on any violation:
//!
//! 1. **Batch parity** — a (benchmark × mode) batch served through the
//!    daemon is byte-identical to direct in-process `run_program` runs.
//! 2. **Cache hit** — resubmitting a spec answers from the result cache
//!    (no re-execution) with a byte-identical payload.
//! 3. **Warm-start parity** — a job forked from a mid-run engine
//!    snapshot equals the straight cold run bit-for-bit.
//! 4. **Analyze parity** — a served `analyze` job formats exactly like
//!    the direct analyzer CLI path.
//! 5. **Warm vs cold sweep** — ≥8 post-warmup fault-injection jobs
//!    served from one shared snapshot against the honest cold baseline
//!    (every job re-simulates its warmup). Results must be
//!    bit-identical; the measured speedup is printed and, with
//!    `SERVE_BATCH_ASSERT_SPEEDUP` set, asserted ≥2x.
//!
//! Environment:
//! * `SERVE_ADDR` — use a running daemon instead of an in-process one.
//! * `SERVE_BATCH_JOBS` — sweep width (default 8).
//! * `SERVE_BATCH_ASSERT_SPEEDUP` — enforce the ≥2x warm-start gate
//!   (off by default: CI boxes share cores, so the hard assert is an
//!   opt-in for quiet machines; bit-identity is always enforced).
//! * `SERVE_STATS_OUT` — where to write the daemon stats JSON artifact
//!   (default `target/serve_stats.json`).

use std::time::Instant;

use bench::serve::{BenchRunner, SuiteRow};
use bench::{env, small_machine, STATIC_MODES};
use npb_kernels::Benchmark;
use omp_rt::RuntimeEnv;
use sim_serve::{Client, ServeOptions, Server};
use slipstream::runner::{run_program, RunOptions};

/// Spec text for a tiny-preset run on the small machine.
fn spec(bench: &str, mode: &str, extra: &str) -> String {
    format!(
        "{{\"kind\":\"run\",\"bench\":\"{bench}\",\"preset\":\"tiny\",\
         \"machine\":\"small\",\"mode\":\"{mode}\"{extra}}}"
    )
}

/// The direct-path twin of `spec`: run in-process and project to a row.
fn direct_row(bench: Benchmark, label: &str) -> SuiteRow {
    let (_, mode, sync) = *STATIC_MODES
        .iter()
        .find(|(l, _, _)| *l == label)
        .expect("known mode label");
    let mut o = RunOptions::new(mode).with_machine(small_machine());
    o.sync = sync;
    o.env = RuntimeEnv::default();
    let s = run_program(&bench.build_tiny(), &o).expect("direct run");
    SuiteRow::from_summary(&s)
}

fn main() {
    // Use an external daemon when pointed at one, else serve in-process.
    let external = env::string("SERVE_ADDR");
    let server = match &external {
        Some(_) => None,
        None => Some(
            Server::bind(
                "127.0.0.1:0",
                Box::new(BenchRunner::new()),
                ServeOptions::default(),
            )
            .expect("bind daemon"),
        ),
    };
    let addr = external.unwrap_or_else(|| server.as_ref().unwrap().local_addr().to_string());
    let mut client = Client::connect(&addr).expect("connect");
    println!("serve_batch driving daemon at {addr}");

    // 1. Batch parity: two kernels under all four static modes.
    let batch: Vec<(Benchmark, &str)> = [Benchmark::Cg, Benchmark::Mg]
        .into_iter()
        .flat_map(|bm| STATIC_MODES.iter().map(move |(l, _, _)| (bm, *l)))
        .collect();
    let mut acks = Vec::new();
    for (bm, label) in &batch {
        let ack = client
            .submit(&spec(bm.name(), label, ""), 0, None)
            .expect("submit");
        acks.push(ack);
    }
    let mut first_payload = None;
    for ((bm, label), ack) in batch.iter().zip(&acks) {
        let outcome = client.result(ack.id).expect("result");
        assert_eq!(
            outcome.state,
            "done",
            "{} {label}: {:?}",
            bm.name(),
            outcome.error
        );
        let payload = outcome.payload.expect("done payload");
        let want = direct_row(*bm, label).to_payload();
        assert_eq!(
            payload,
            want,
            "daemon payload for {} {label} must be byte-identical to the direct path",
            bm.name()
        );
        if first_payload.is_none() {
            first_payload = Some(payload);
        }
    }
    println!(
        "batch parity: {} jobs byte-identical to direct runs",
        batch.len()
    );

    // 2. Cache hit: the first spec again, answered without re-running.
    let (bm, label) = batch[0];
    let ack = client
        .submit(&spec(bm.name(), label, ""), 0, None)
        .expect("resubmit");
    assert!(ack.cached, "identical resubmit must be a cache hit");
    let outcome = client.result(ack.id).expect("cached result");
    assert_eq!(outcome.payload.as_deref(), first_payload.as_deref());
    println!("cache hit: byte-identical payload without re-execution");

    // 3. Warm-start parity: fork cg/slip-G0 from a snapshot at half the
    // run and compare against the straight run.
    let straight = direct_row(Benchmark::Cg, "slip-G0");
    let warm_extra = format!(",\"warm_cycles\":{}", straight.exec_cycles / 2);
    let (_, payload) = client
        .run_to_payload(&spec("cg", "slip-G0", &warm_extra), 0, None)
        .expect("warm job");
    assert_eq!(
        payload,
        straight.to_payload(),
        "snapshot warm-start must be bit-identical to the straight run"
    );
    println!(
        "warm-start parity: restore at cycle {} matches the straight run",
        straight.exec_cycles / 2
    );

    // 4. Analyze parity against the direct analyzer path.
    let (label_want, program) = bench::analysis_corpus()
        .into_iter()
        .find(|(l, _)| l == "cg-tiny")
        .expect("cg-tiny in corpus");
    let (text_want, json_want, denies_want) =
        bench::analyze_one(&label_want, &program, &omp_analyze::AnalyzeConfig::paper());
    let (_, payload) = client
        .run_to_payload("{\"kind\":\"analyze\",\"program\":\"cg-tiny\"}", 0, None)
        .expect("analyze job");
    let v = sim_trace::json::parse(&payload).expect("analyze payload");
    assert_eq!(
        v.get("text").and_then(|x| x.as_str()),
        Some(text_want.as_str())
    );
    assert_eq!(
        v.get("json_item").and_then(|x| x.as_str()),
        Some(json_want.as_str())
    );
    assert_eq!(
        v.get("denies").and_then(|x| x.as_num()).map(|n| n as u64),
        Some(denies_want)
    );
    println!("analyze parity: served report formats identically to the CLI path");

    // 5. Warm vs cold: a sweep of post-warmup fault-injection jobs.
    // Cold re-simulates the warmup prefix per job (warm_share:false);
    // warm forks every job from one shared snapshot. Identical
    // semantics, so the results must match bit-for-bit.
    let jobs: usize = env::get_or("SERVE_BATCH_JOBS", 8).max(2);
    let warm_at = straight.exec_cycles * 9 / 10;
    let sweep = |share: bool, client: &mut Client| -> (Vec<String>, f64) {
        let t0 = Instant::now();
        let mut ids = Vec::new();
        for seed in 1..=jobs as u64 {
            let extra = format!(
                ",\"warm_cycles\":{warm_at},\"warm_share\":{share},\"nocache\":true,\
                 \"fault_seed\":{seed},\"fault_team\":4,\"fault_events\":4"
            );
            ids.push(
                client
                    .submit(&spec("cg", "slip-G0", &extra), 0, None)
                    .expect("sweep submit")
                    .id,
            );
        }
        let mut prints = Vec::new();
        for id in ids {
            let outcome = client.result(id).expect("sweep result");
            assert_eq!(outcome.state, "done", "sweep job: {:?}", outcome.error);
            let row = SuiteRow::from_payload(&outcome.payload.unwrap()).unwrap();
            prints.push(row.fingerprint);
        }
        (prints, t0.elapsed().as_secs_f64())
    };
    let (cold_fps, cold_s) = sweep(false, &mut client);
    let (warm_fps, warm_s) = sweep(true, &mut client);
    assert_eq!(
        cold_fps, warm_fps,
        "warm-started sweep must be bit-identical to the cold baseline"
    );
    let speedup = cold_s / warm_s.max(1e-9);
    println!(
        "warm-start sweep: {jobs} jobs forked at cycle {warm_at}: \
         cold {cold_s:.3}s, warm {warm_s:.3}s — {speedup:.1}x"
    );
    if env::flag("SERVE_BATCH_ASSERT_SPEEDUP") {
        assert!(
            speedup >= 2.0,
            "warm-start sweep must be at least 2x faster than cold ({speedup:.2}x)"
        );
    }

    // Daemon stats artifact.
    let (stats, raw) = client.stats().expect("stats");
    assert!(stats.cache_hits >= 1, "the smoke run produced a cache hit");
    assert_eq!(stats.failed, 0, "no job may fail in the smoke run");
    let out = env::string_or("SERVE_STATS_OUT", "target/serve_stats.json");
    std::fs::create_dir_all(
        std::path::Path::new(&out)
            .parent()
            .unwrap_or_else(|| panic!("SERVE_STATS_OUT has no parent: {out}")),
    )
    .ok();
    std::fs::write(&out, format!("{raw}\n")).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "stats: {} submitted, {} hits, {} misses, {} coalesced -> {out}",
        stats.submitted, stats.cache_hits, stats.cache_misses, stats.coalesced
    );

    if let Some(server) = server {
        server.shutdown();
    }
    println!("serve_batch: all checks passed");
}
