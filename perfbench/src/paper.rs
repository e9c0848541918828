//! `paper-figs`: the paper's Figure 2 set (five NPB kernels under
//! single, double, slip-L1 and slip-G0) and Figure 4 set (BT, CG, MG and
//! SP under single and slip-G0 with dynamic schedules), 28 `run_program`
//! calls in a seeded order on the 16-CMP paper machine with default run
//! options. Each run's stats fingerprint must equal the value pinned in
//! `data/paper_fingerprints.txt`.

use std::sync::Arc;
use std::time::Instant;

use bench::{dynamic_program, DYNAMIC_MODES, STATIC_MODES};
use dsm_sim::AddressMap;
use npb_kernels::Benchmark;
use slipstream::{compile, stats_fingerprint, FaultPlan, MachineConfig};

use crate::common::{self, Corrupt, Ctx, EndToEnd, Outcome, Pass, ServeLayer};
use crate::ops::{self, Counters, Sim};
use crate::tracer::Tracer;

const PINS: &str = include_str!("../data/paper_fingerprints.txt");

/// One figure run: `fig2 bt single`, ...
struct Op {
    key: String,
    sim: Sim,
}

/// Build the 28 runs in canonical order, compiling each program once the
/// way a figure harness does before it runs the modes.
fn build_ops() -> Vec<Op> {
    let machine = MachineConfig::paper();
    let map = AddressMap::new(&machine);
    let mut out = Vec::new();
    let mut add = |fig: &str, bm: Benchmark, program: Arc<omp_ir::Program>, modes: &[_]| {
        compile(&program, &map).expect("figure programs compile");
        for &(label, mode, sync) in modes {
            out.push(Op {
                key: format!("{fig} {} {label}", bm.name()),
                sim: Sim {
                    program: program.clone(),
                    machine: machine.clone(),
                    mode,
                    sync,
                    faults: FaultPlan::none(),
                },
            });
        }
    };
    for bm in Benchmark::ALL {
        add("fig2", bm, Arc::new(bm.build_paper(None)), &STATIC_MODES);
    }
    for bm in Benchmark::ALL
        .into_iter()
        .filter(|b| b.in_dynamic_experiment())
    {
        let program = Arc::new(dynamic_program(bm, machine.num_cmps as u64));
        add("fig4", bm, program, &DYNAMIC_MODES);
    }
    out
}

fn pinned(key: &str) -> Option<&'static str> {
    PINS.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
}

/// Print the pin file for the current code (used to re-pin after a
/// deliberate change of simulated results).
pub fn print_pins() {
    for op in build_ops() {
        let (s, _) = ops::run(&op.sim, None, 0).expect("figure run");
        println!("{} {}", op.key, stats_fingerprint(&s));
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (mut setup, ops_list) = common::timed_setup(build_ops);
    let mut order: Vec<usize> = (0..ops_list.len()).collect();
    common::Rng::new(ctx.seed, 0xF16).shuffle(&mut order);

    let mut expected: Vec<Option<String>> = ops_list
        .iter()
        .map(|op| pinned(&op.key).map(str::to_string))
        .collect();
    if ctx.corrupt == Some(Corrupt::Fingerprint) {
        if let Some(fp) = expected[order[0]].as_mut() {
            fp.push_str(" 1");
        }
    }

    let (mut attempted, mut failed, mut within) = (0u64, 0u64, 0u64);
    let mut job_ms = Vec::new();
    let passes = common::schedule(ctx, 1, |traced| {
        let tracer = traced.then(Tracer::new);
        let mut counters = Counters::default();
        let mut lat = Vec::with_capacity(order.len());
        let mut results = Vec::with_capacity(order.len());
        let t0 = Instant::now();
        for (run_id, &i) in order.iter().enumerate() {
            let s0 = Instant::now();
            let r = ops::run(&ops_list[i].sim, tracer.as_ref(), run_id as u64);
            lat.push(s0.elapsed().as_secs_f64() * 1e3);
            results.push((i, r));
        }
        let wall = t0.elapsed();
        // Checks run after the timed window.
        for ((i, r), &ms) in results.into_iter().zip(&lat) {
            let ok = match r {
                Ok((s, work)) => {
                    counters.add_work(&work);
                    counters.add_result(&s.raw);
                    let same = expected[i].as_deref() == Some(stats_fingerprint(&s).as_str());
                    if !same {
                        eprintln!(
                            "paper-figs: {} differs from its pinned fingerprint",
                            ops_list[i].key
                        );
                    }
                    same
                }
                Err(e) => {
                    eprintln!("paper-figs: {} failed: {e}", ops_list[i].key);
                    false
                }
            };
            attempted += 1;
            failed += u64::from(!ok);
            if !traced {
                within += u64::from(ok && ms <= ctx.limit_ms);
            }
        }
        if !traced {
            job_ms.push(lat);
        }
        Pass {
            traced,
            wall,
            counters: Some(counters),
            spans: tracer.map(|t| t.take()).unwrap_or_default(),
        }
    });
    failed += common::drifted("paper-figs", &passes);
    setup.extend(common::timed_setup(build_ops).0);

    let metrics = if ctx.trace {
        common::layer_metrics(
            &passes,
            common::overhead_frac(&passes),
            ServeLayer::default(),
        )
    } else {
        EndToEnd {
            pass_s: common::untraced_pass_s(&passes),
            job_ms,
            within_limit: within,
            setup_s: common::median(&setup),
        }
        .metrics()
    };
    Outcome::new(attempted, failed, metrics, passes)
}
