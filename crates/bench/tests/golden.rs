//! Golden-determinism regression test.
//!
//! The simulator's contract across performance work is bit-identical
//! output: the same program, machine, and mode must produce the same
//! `exec_cycles` and the same statistics, cycle for cycle. This test
//! runs the tiny preset of every kernel under the four static modes and
//! compares a full stats fingerprint against a checked-in golden file
//! captured from the pre-optimization engine.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p bench --test golden
//! ```

use bench::{small_machine, summary_fingerprint, STATIC_MODES};
use npb_kernels::Benchmark;
use omp_rt::RuntimeEnv;
use slipstream::faults::FaultPlan;
use slipstream::runner::{run_program, RunOptions};
use slipstream::{HealthPolicy, OsNoise};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_tiny.txt");

fn current_fingerprints() -> String {
    let machine = small_machine();
    let mut lines = Vec::new();
    for bm in Benchmark::ALL {
        let program = bm.build_tiny();
        for (label, mode, sync) in STATIC_MODES {
            let mut o = RunOptions::new(mode).with_machine(machine.clone());
            o.sync = sync;
            o.env = RuntimeEnv::default();
            let s = run_program(&program, &o).expect("simulation failed");
            lines.push(format!(
                "{} {} {}",
                bm.name(),
                label,
                summary_fingerprint(&s)
            ));
        }
    }
    lines.join("\n") + "\n"
}

#[test]
fn golden_determinism_tiny_presets() {
    let actual = current_fingerprints();
    if bench::env::flag("GOLDEN_BLESS") {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; regenerate with GOLDEN_BLESS=1");
    for (a, e) in actual.lines().zip(expected.lines()) {
        let key: Vec<&str> = a.split_whitespace().take(2).collect();
        assert_eq!(
            a,
            e,
            "stats fingerprint for {} diverged from the pre-optimization golden capture",
            key.join(" ")
        );
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "golden file row count changed"
    );
}

#[test]
fn golden_trace_parity() {
    // Tracing is observation-only: a run with event tracing enabled must
    // produce a stats fingerprint bit-identical to the untraced run for
    // every benchmark and mode. This is the contract that lets trace
    // sessions be trusted as pictures of the untraced execution.
    let machine = small_machine();
    for bm in [Benchmark::Cg, Benchmark::Mg] {
        let program = bm.build_tiny();
        for (label, mode, sync) in STATIC_MODES {
            let mut o = RunOptions::new(mode).with_machine(machine.clone());
            o.sync = sync;
            o.env = RuntimeEnv::default();
            let plain = run_program(&program, &o).expect("untraced run");
            let o = o.with_trace(sim_trace::TraceConfig::on());
            let traced = run_program(&program, &o).expect("traced run");
            assert!(traced.raw.trace.is_some());
            assert_eq!(
                summary_fingerprint(&plain),
                summary_fingerprint(&traced),
                "tracing perturbed the {} {label} simulation",
                bm.name()
            );
        }
    }
}

#[test]
fn golden_runs_are_repeatable_in_process() {
    // Two in-process runs of the same configuration must agree exactly
    // (guards against any hidden global state in the fast paths). Beyond
    // the plain runs, every kernel and mode is repeated under the OS-noise
    // model (interrupts fire on `now >= next_interrupt` mid-loop, the
    // sharpest test of the batched stepper's bail checks) and under
    // seeded fault storms with the adaptive health controller and
    // breaker (divergence recovery reseeds a running A-stream from
    // outside, the most interleaving-sensitive path in the engine).
    let machine = small_machine();
    let noise = OsNoise {
        quantum_cycles: 10_000,
        slice_cycles: 500,
        seed: 7,
    };
    for bm in Benchmark::ALL {
        let program = bm.build_tiny();
        for (label, mode, sync) in STATIC_MODES {
            let mut o = RunOptions::new(mode).with_machine(machine.clone());
            o.sync = sync;
            o.env = RuntimeEnv::default();
            let mut inputs = vec![
                ("plain".to_string(), o.clone()),
                ("os-noise".to_string(), o.clone().with_os_noise(noise)),
            ];
            for seed in [1, 7, 23] {
                let storm = o
                    .clone()
                    .with_faults(FaultPlan::random(seed, 4, 6))
                    .with_health(HealthPolicy::adaptive());
                inputs.push((format!("storm seed {seed}"), storm));
            }
            for (input, o) in inputs {
                let a = run_program(&program, &o).expect("run 1");
                let b = run_program(&program, &o).expect("run 2");
                assert_eq!(
                    summary_fingerprint(&a),
                    summary_fingerprint(&b),
                    "repeat {} {label} {input} runs diverged",
                    bm.name()
                );
                assert_eq!(
                    a.raw.pair_ledgers,
                    b.raw.pair_ledgers,
                    "repeat {} {label} {input} ledgers diverged",
                    bm.name()
                );
            }
        }
    }
}
