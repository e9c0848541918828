//! `fault-sweep-warm`: the tiny preset on the 4-CMP small machine. For
//! each kernel under slip-L1 and slip-G0, one `checkpoint_program` at a
//! seeded cycle, then many `resume_program` continuations, each with a
//! seeded fault plan whose events all fire after the checkpoint. Every
//! continuation must equal an uninterrupted `run_program` of its plan.
//! The latency metrics time rounds: one checkpoint, or one continuation,
//! of every fork.

use std::sync::Arc;
use std::time::Instant;

use bench::small_machine;
use dsm_sim::{AddressMap, Cycle};
use npb_kernels::Benchmark;
use omp_rt::mode::{ExecMode, SlipSync};
use slipstream::runner::Checkpoint;
use slipstream::{compile, stats_fingerprint, FaultEvent, FaultKind, FaultPlan, FaultSite};

use crate::common::{self, Corrupt, Ctx, EndToEnd, Outcome, Pass, Rng, ServeLayer};
use crate::ops::{self, Counters, Sim};
use crate::tracer::Tracer;

/// Continuations per (kernel, mode) checkpoint.
pub const CONTINUATIONS: usize = 48;

const MODES: [(&str, SlipSync); 2] = [("slip-L1", SlipSync::L1), ("slip-G0", SlipSync::G0)];
const SITES: [FaultSite; 4] = [
    FaultSite::ABarrier,
    FaultSite::TokenInsert,
    FaultSite::Publish,
    FaultSite::AStore,
];

/// One checkpoint and its continuations.
struct Fork {
    key: String,
    base: Sim,
    at_cycle: Cycle,
    plans: Vec<FaultPlan>,
}

impl Fork {
    fn with_plan(&self, plan: &FaultPlan) -> Sim {
        Sim {
            faults: plan.clone(),
            ..self.base.clone()
        }
    }
}

fn probe_kind(site: FaultSite) -> FaultKind {
    *FaultKind::ALL
        .iter()
        .find(|k| k.site() == site)
        .expect("every site has a fault kind")
}

/// The smallest hook sequence number at `site` that no pair reaches
/// before `at`, so an event placed there or later fires after the
/// checkpoint.
fn first_seq_after(
    base: &Sim,
    cp: &slipstream::CompiledProgram,
    site: FaultSite,
    at: Cycle,
) -> u64 {
    let team = base.machine.num_cmps as u64;
    let plan_at = |seq: u64| FaultPlan {
        events: (0..team)
            .map(|tid| FaultEvent {
                kind: probe_kind(site),
                tid,
                seq,
                arg: 1_000,
            })
            .collect(),
    };
    let mut hi = 1u64;
    while ops::fires_before(base, cp, plan_at(hi), at) {
        hi *= 2;
    }
    // Invariant: `hi` does not fire; find the first seq that does not.
    let mut lo = 0u64;
    if !ops::fires_before(base, cp, plan_at(lo), at) {
        return 0;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if ops::fires_before(base, cp, plan_at(mid), at) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Generate every fork from the seed: run order, checkpoint cycles and
/// fault plans.
fn build_forks(seed: u64) -> Vec<Fork> {
    let machine = small_machine();
    let map = AddressMap::new(&machine);
    let mut rng = Rng::new(seed, 0x5EE9);
    let mut forks = Vec::new();
    for bm in Benchmark::ALL {
        let program = Arc::new(bm.build_tiny());
        let cp = compile(&program, &map).expect("tiny programs compile");
        for (label, sync) in MODES {
            let base = Sim {
                program: program.clone(),
                machine: machine.clone(),
                mode: ExecMode::Slipstream,
                sync: Some(sync),
                faults: FaultPlan::none(),
            };
            let (clean, _) = ops::run(&base, None, 0).expect("fault-free run");
            let at_cycle = clean.exec_cycles * (45 + rng.below(10)) / 100;
            let floors: Vec<u64> = SITES
                .iter()
                .map(|&s| first_seq_after(&base, &cp, s, at_cycle))
                .collect();
            let team = machine.num_cmps as u64;
            let plans = (0..CONTINUATIONS)
                .map(|_| {
                    let mut plan = FaultPlan::none();
                    for _ in 0..1 + rng.below(3) {
                        let kind = FaultKind::ALL[rng.below(FaultKind::ALL.len() as u64) as usize];
                        let site = SITES
                            .iter()
                            .position(|&s| s == kind.site())
                            .expect("known site");
                        let ev = FaultEvent {
                            kind,
                            tid: rng.below(team),
                            seq: floors[site] + rng.below(4),
                            arg: if kind == FaultKind::StallBurst {
                                1_000 + rng.below(200_000)
                            } else {
                                0
                            },
                        };
                        let taken = plan.events.iter().any(|e| {
                            (e.kind.site(), e.tid, e.seq) == (ev.kind.site(), ev.tid, ev.seq)
                        });
                        if !taken {
                            plan.events.push(ev);
                        }
                    }
                    plan
                })
                .collect();
            forks.push(Fork {
                key: format!("{} {label}", bm.name()),
                base,
                at_cycle,
                plans,
            });
        }
    }
    rng.shuffle(&mut forks);
    forks
}

/// Checkpoints and continuations of one pass, checked after it.
struct Produced {
    /// Hash of each fork's snapshot bytes; `None` if it failed.
    snaps: Vec<Option<u64>>,
    /// Fingerprint of each continuation, by fork then plan.
    prints: Vec<Option<String>>,
    /// Host milliseconds of each round.
    round_ms: Vec<f64>,
}

/// One timed pass. A job is one round over every fork, the way a fault
/// sweep steps one plan index across its whole kernel set: round 0 takes
/// each fork's checkpoint, round `k` resumes plan `k - 1` of each fork.
fn one_pass(forks: &[Fork], t: Option<&Tracer>, counters: &mut Counters) -> Produced {
    let mut run_id = 0u64;
    let mut round_ms = Vec::with_capacity(CONTINUATIONS + 1);
    let s0 = Instant::now();
    let checkpoints: Vec<Option<Checkpoint>> = forks
        .iter()
        .map(|fork| {
            let cp = ops::checkpoint(&fork.base, fork.at_cycle, t, run_id);
            run_id += 1;
            match cp {
                Ok((cp, work)) => {
                    counters.add_work(&work);
                    Some(cp)
                }
                Err(e) => {
                    eprintln!("fault-sweep-warm: checkpoint {} failed: {e}", fork.key);
                    None
                }
            }
        })
        .collect();
    round_ms.push(s0.elapsed().as_secs_f64() * 1e3);
    let mut prints = vec![None; forks.len() * CONTINUATIONS];
    for k in 0..CONTINUATIONS {
        let s0 = Instant::now();
        for (f, (fork, cp)) in forks.iter().zip(&checkpoints).enumerate() {
            let Some(cp) = cp else { continue };
            let r = ops::resume(&fork.with_plan(&fork.plans[k]), &cp.bytes, t, run_id);
            run_id += 1;
            prints[f * CONTINUATIONS + k] = match r {
                Ok((s, work)) => {
                    counters.add_work(&work);
                    counters.add_result(&s.raw);
                    Some(stats_fingerprint(&s))
                }
                Err(e) => {
                    eprintln!("fault-sweep-warm: resume {} failed: {e}", fork.key);
                    None
                }
            };
        }
        round_ms.push(s0.elapsed().as_secs_f64() * 1e3);
    }
    let snaps = checkpoints
        .iter()
        .map(|cp| cp.as_ref().map(|cp| snap::fnv1a(&cp.bytes)))
        .collect();
    Produced {
        snaps,
        prints,
        round_ms,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let setup = || {
        let map = AddressMap::new(&small_machine());
        Benchmark::ALL.map(|bm| compile(&bm.build_tiny(), &map).expect("tiny programs compile"))
    };
    let (mut setup_times, _) = common::timed_setup(setup);
    let forks = build_forks(ctx.seed);
    // References, outside the timed window: an uninterrupted run of each
    // continuation's plan. Checkpoints must repeat the first pass's bytes.
    let mut reference: Vec<Option<String>> = forks
        .iter()
        .flat_map(|f| f.plans.iter().map(move |p| f.with_plan(p)))
        .map(|sim| {
            ops::run(&sim, None, 0)
                .ok()
                .map(|(s, _)| stats_fingerprint(&s))
        })
        .collect();
    if ctx.corrupt == Some(Corrupt::Fingerprint) {
        if let Some(fp) = reference[0].as_mut() {
            fp.push_str(" 1");
        }
    }
    let mut first_snaps: Option<Vec<Option<u64>>> = None;

    let (mut attempted, mut failed, mut within) = (0u64, 0u64, 0u64);
    let mut job_ms = Vec::new();
    let passes = common::schedule(ctx, 2, |traced| {
        let tracer = traced.then(Tracer::new);
        let mut counters = Counters::default();
        let t0 = Instant::now();
        let p = one_pass(&forks, tracer.as_ref(), &mut counters);
        let wall = t0.elapsed();

        let want_snaps = first_snaps.get_or_insert_with(|| p.snaps.clone());
        let snap_ok: Vec<bool> = p
            .snaps
            .iter()
            .zip(want_snaps.iter())
            .map(|(h, want)| h.is_some() && h == want)
            .collect();
        let print_ok: Vec<bool> = p
            .prints
            .iter()
            .zip(&reference)
            .map(|(fp, want)| fp.is_some() && fp == want)
            .collect();
        let bad = snap_ok.iter().chain(&print_ok).filter(|ok| !**ok).count() as u64;
        if bad > 0 {
            eprintln!("fault-sweep-warm: {bad} operation(s) differ from their reference");
        }
        attempted += (snap_ok.len() + print_ok.len()) as u64;
        failed += bad;
        if !traced {
            for (k, &ms) in p.round_ms.iter().enumerate() {
                let round_ok = if k == 0 {
                    snap_ok.iter().all(|&ok| ok)
                } else {
                    print_ok
                        .iter()
                        .skip(k - 1)
                        .step_by(CONTINUATIONS)
                        .all(|&ok| ok)
                };
                within += u64::from(round_ok && ms <= ctx.limit_ms);
            }
            job_ms.push(p.round_ms.clone());
        }
        Pass {
            traced,
            wall,
            counters: Some(counters),
            spans: tracer.map(|t| t.take()).unwrap_or_default(),
        }
    });
    failed += common::drifted("fault-sweep-warm", &passes);
    setup_times.extend(common::timed_setup(setup).0);

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
            setup_s: common::median(&setup_times),
        }
        .metrics()
    };
    Outcome::new(attempted, failed, metrics, passes)
}
