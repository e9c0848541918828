//! The gate's report cache: a cached report is the fresh report, keys
//! never alias across programs or analyzer configs, the gate decision is
//! the same on a hit as on a miss, the cache stays bounded, and
//! concurrent misses on one key analyze once.
//!
//! The cache and its counters are process-wide, so every test here holds
//! `SERIAL` and reads counter deltas.

use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use npb_kernels::Benchmark;
use omp_analyze::{analyze, AnalysisReport, AnalyzeConfig};
use omp_ir::node::Node;
use omp_ir::{BinOp, Expr, ProgramBuilder};
use slipstream::gate::{analysis, analyze_config, cache_stats, gate_program, CACHE_CAPACITY};
use slipstream::runner::{run_program, RunOptions};
use slipstream::{AStreamPolicy, ExecMode, GateMode, Hazard, MachineConfig, Program, SlipSync};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn small_machine() -> MachineConfig {
    let mut m = MachineConfig::paper();
    m.num_cmps = 4;
    m
}

fn config(sync: Option<SlipSync>) -> AnalyzeConfig {
    analyze_config(&small_machine(), &AStreamPolicy::paper(), sync)
}

/// The sync overrides of the four static modes (single, double, slip-L1,
/// slip-G0); the mode itself does not enter the analyzer config.
const STATIC_SYNCS: [Option<SlipSync>; 4] = [None, None, Some(SlipSync::L1), Some(SlipSync::G0)];

/// Disjoint per-iteration accesses, `len` elements: clean.
fn clean_program(name: &str, len: i64) -> Program {
    let mut b = ProgramBuilder::new(name);
    let a = b.shared_array("a", len as u64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, len, move |body| {
            body.load(a, Expr::v(i));
            body.compute(2);
            body.store(a, Expr::v(i));
        });
    });
    b.build()
}

/// Every iteration stores element 0 unprotected: a write-write race.
fn racy_program(name: &str) -> Program {
    let mut b = ProgramBuilder::new(name);
    let a = b.shared_array("a", 256, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 256, move |body| {
            body.store(a, Expr::c(0));
        });
    });
    b.build()
}

/// Two phases of 32 lines each and no region `SLIPSTREAM` clause, so the
/// config's default sync decides the A-stream window: one token spans
/// both phases and overflows a 48-line L2, zero tokens do not.
fn lead_bound_program() -> Program {
    let mut b = ProgramBuilder::new("gate-cache-lead");
    let a = b.shared_array("a", 256, 8);
    let c = b.shared_array("c", 256, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 256, move |body| {
            body.store(a, Expr::v(i));
        });
        r.par_for(None, i, 0, 256, move |body| {
            body.store(c, Expr::v(i));
        });
    });
    b.build()
}

/// Add one cycle to the first `Compute` node of the tree.
fn bump_first_compute(node: &mut Node) -> bool {
    match node {
        Node::Compute(e) => {
            *e = Expr::Bin(BinOp::Add, Box::new(e.clone()), Box::new(Expr::c(1)));
            true
        }
        Node::Seq(items) | Node::Sections(items) => items.iter_mut().any(bump_first_compute),
        Node::For { body, .. }
        | Node::Parallel { body, .. }
        | Node::ParFor { body, .. }
        | Node::Single(body)
        | Node::Master(body)
        | Node::Critical { body, .. } => bump_first_compute(body),
        _ => false,
    }
}

#[test]
fn cached_reports_are_byte_identical_to_fresh_analysis() {
    let _g = serial();
    for bm in Benchmark::ALL {
        let p = bm.build_tiny();
        for sync in STATIC_SYNCS {
            let cfg = config(sync);
            let fresh = analyze(&p, &cfg).to_json();
            // Whatever the first lookup was, the second is a hit.
            let first = gate_program(&p, GateMode::Warn, &cfg).unwrap().unwrap();
            let before = cache_stats();
            let second = gate_program(&p, GateMode::Warn, &cfg).unwrap().unwrap();
            let after = cache_stats();
            assert_eq!(after.hits, before.hits + 1, "{} {sync:?}", bm.name());
            assert_eq!(after.misses, before.misses, "{} {sync:?}", bm.name());
            assert_eq!(first.to_json(), fresh, "{} {sync:?}", bm.name());
            assert_eq!(second.to_json(), fresh, "{} {sync:?}", bm.name());
        }
    }
}

#[test]
fn l1_and_g0_configs_do_not_alias() {
    let _g = serial();
    let p = lead_bound_program();
    let mut l1 = config(Some(SlipSync::L1));
    let mut g0 = config(Some(SlipSync::G0));
    l1.l2_lines = 48;
    g0.l2_lines = 48;
    let stale = |r: &AnalysisReport| r.findings.iter().any(|f| f.hazard == Hazard::StalePrefetch);
    // Fill both keys, then read each back as a hit.
    for _ in 0..2 {
        let r_l1 = analysis(&p, &l1);
        let r_g0 = analysis(&p, &g0);
        assert!(stale(&r_l1), "{}", r_l1.render_text());
        assert!(!stale(&r_g0), "{}", r_g0.render_text());
        assert_eq!(r_l1, analyze(&p, &l1));
        assert_eq!(r_g0, analyze(&p, &g0));
    }
}

#[test]
fn one_node_mutation_misses() {
    let _g = serial();
    let cfg = config(None);
    let p = Benchmark::Cg.build_tiny();
    analysis(&p, &cfg);
    let mut mutated = p.clone();
    assert!(bump_first_compute(&mut mutated.body));
    assert_ne!(mutated, p);

    let before = cache_stats();
    let report = analysis(&mutated, &cfg);
    let after = cache_stats();
    assert_eq!(after.misses, before.misses + 1);
    assert_eq!(report, analyze(&mutated, &cfg));

    // The unmutated program is still a hit.
    analysis(&p, &cfg);
    assert_eq!(cache_stats().hits, after.hits + 1);
}

#[test]
fn deny_refuses_racy_program_on_miss_and_hit() {
    let _g = serial();
    let p = racy_program("gate-cache-racy");
    let cfg = config(Some(SlipSync::G0));
    let before = cache_stats();
    let miss = gate_program(&p, GateMode::Deny, &cfg).unwrap_err();
    let mid = cache_stats();
    let hit = gate_program(&p, GateMode::Deny, &cfg).unwrap_err();
    let after = cache_stats();
    assert_eq!(mid.misses, before.misses + 1);
    assert_eq!(after.hits, mid.hits + 1);
    assert_eq!(miss, hit);
    assert!(
        hit.contains("refusing to run") && hit.contains("race-ww"),
        "{hit}"
    );

    // The same holds end to end, and Warn still runs it from the cache.
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::G0);
    let err = run_program(&p, &opts.clone().with_gate(GateMode::Deny)).unwrap_err();
    assert_eq!(err, miss);
    let warned = run_program(&p, &opts.with_gate(GateMode::Warn)).unwrap();
    assert_eq!(warned.analysis, Some(analyze(&p, &cfg)));
}

#[test]
fn cache_stays_bounded_and_evicts_least_recently_used() {
    let _g = serial();
    let cfg = config(None);
    let programs: Vec<Program> = (0..CACHE_CAPACITY + 8)
        .map(|k| clean_program("gate-cache-bound", 8 + k as i64))
        .collect();
    let before = cache_stats();
    for p in &programs {
        analysis(p, &cfg);
        assert!(cache_stats().entries <= CACHE_CAPACITY);
    }
    let filled = cache_stats();
    assert_eq!(filled.misses, before.misses + programs.len() as u64);
    assert_eq!(filled.entries, CACHE_CAPACITY);

    // The newest program is still held; the oldest was evicted.
    analysis(programs.last().unwrap(), &cfg);
    assert_eq!(cache_stats().hits, filled.hits + 1);
    analysis(&programs[0], &cfg);
    assert_eq!(cache_stats().misses, filled.misses + 1);
    assert_eq!(cache_stats().entries, CACHE_CAPACITY);
}

#[test]
fn concurrent_misses_on_one_key_analyze_once() {
    let _g = serial();
    let p = clean_program("gate-cache-concurrent", 4096);
    let cfg = config(Some(SlipSync::L1));
    let start = Barrier::new(4);
    let before = cache_stats();
    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    gate_program(&p, GateMode::Warn, &cfg).unwrap().unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = cache_stats();
    assert_eq!(after.misses, before.misses + 1);
    assert_eq!(after.hits, before.hits + 3);
    let fresh = analyze(&p, &cfg);
    assert!(reports.iter().all(|r| *r == fresh));
}
