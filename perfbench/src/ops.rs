//! The three simulation operations the direct workloads time —
//! `run_program`, `checkpoint_program` and `resume_program` — in two
//! forms: the library call itself (untraced), and the same call rebuilt
//! out of its public parts with a span around each layer (traced). The
//! rebuilt form must reproduce the library call's fingerprint exactly;
//! the workloads check that it does.
//!
//! Also here: the deterministic work counters the benchmark reports next
//! to its timings, summed from each run's [`RunResult`].

use std::sync::Arc;

use dsm_sim::{AddressMap, Cycle, FillClass, MachineConfig, ReqKind};
use omp_ir::directive::EnvSlipstream;
use omp_ir::node::{Program, SlipSyncType};
use omp_rt::mode::{ExecMode, SlipSync};
use slipstream::gate::{analyze_config, gate_program};
use slipstream::runner::{
    checkpoint_compiled, checkpoint_program, resume_program, run_program, Checkpoint,
};
use slipstream::{
    compile, CompiledProgram, Engine, EngineConfig, FaultPlan, RunOptions, RunResult, RunSummary,
};

use crate::tracer::Tracer;

/// Span names: one root span per operation, named after the library call
/// it rebuilds, and one span per layer call inside it.
pub const RUN_PROGRAM: &str = "run_program";
pub const CHECKPOINT_PROGRAM: &str = "checkpoint_program";
pub const RESUME_PROGRAM: &str = "resume_program";
pub const ANALYZE: &str = "omp-analyze";
pub const COMPILE: &str = "slipstream.compile";
pub const EXEC_INIT: &str = "slipstream.exec.init";
pub const EXEC_RUN: &str = "slipstream.exec.run";
pub const EXEC_FINISH: &str = "slipstream.exec.finish";
pub const SNAP_ENCODE: &str = "snap.encode";
pub const SNAP_DECODE: &str = "snap.decode";

/// One simulation: a program under a machine, mode and fault plan, with
/// every other run option at its default.
#[derive(Clone)]
pub struct Sim {
    pub program: Arc<Program>,
    pub machine: MachineConfig,
    pub mode: ExecMode,
    pub sync: Option<SlipSync>,
    pub faults: FaultPlan,
}

impl Sim {
    /// The run options the library calls take.
    pub fn options(&self) -> RunOptions {
        let mut o = RunOptions::new(self.mode)
            .with_machine(self.machine.clone())
            .with_faults(self.faults.clone());
        o.sync = self.sync;
        o
    }

    /// The engine configuration `run_program` derives from
    /// [`Sim::options`] (the runner's own derivation is private).
    pub fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::new(self.machine.clone(), self.mode);
        cfg.faults = self.faults.clone();
        if let Some(sync) = self.sync {
            cfg.env.slipstream = Some(EnvSlipstream::Enabled {
                sync: if sync.global {
                    SlipSyncType::GlobalSync
                } else {
                    SlipSyncType::LocalSync
                },
                tokens: sync.tokens,
            });
        }
        cfg
    }

    /// The mode label `run_program` gives the summary.
    fn label(&self) -> String {
        match (self.mode, self.sync) {
            (ExecMode::Slipstream, Some(s)) => format!("slip-{}", s.label()),
            (ExecMode::Slipstream, None) => "slip-G0".to_string(),
            (m, _) => m.label().to_string(),
        }
    }

    fn summarize(&self, raw: RunResult) -> RunSummary {
        RunSummary {
            name: self.program.name.clone(),
            label: self.label(),
            exec_cycles: raw.exec_cycles,
            r_breakdown: raw.r_breakdown,
            a_breakdown: raw.a_breakdown,
            fills: raw.fill_counts,
            raw,
            analysis: None,
        }
    }

    /// Gate the program the way the default run options do.
    fn gate(&self, t: &Tracer, run: u64) -> Result<OpWork, String> {
        let o = self.options();
        let acfg = analyze_config(&o.machine, &o.policy, o.sync);
        let report = t.span(ANALYZE, run, || gate_program(&self.program, o.gate, &acfg))?;
        Ok(OpWork {
            analyze_calls: u64::from(report.is_some()),
            visits: report.map_or(0, |r| r.visits),
            ..OpWork::default()
        })
    }

    fn compile(&self, t: &Tracer, run: u64) -> Result<slipstream::CompiledProgram, String> {
        let map = AddressMap::new(&self.machine);
        t.span(COMPILE, run, || compile(&self.program, &map))
            .map_err(|e| e.to_string())
    }
}

/// Layer work an operation did that its summary does not carry. The
/// untraced `checkpoint_program` does not return its analysis report,
/// so its `visits` stay 0; only traced passes count them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpWork {
    pub analyze_calls: u64,
    pub visits: u64,
    pub compiles: u64,
    pub encodes: u64,
    pub decodes: u64,
    pub snap_bytes: u64,
}

/// `run_program`.
pub fn run(sim: &Sim, t: Option<&Tracer>, run: u64) -> Result<(RunSummary, OpWork), String> {
    let Some(t) = t else {
        let s = run_program(&sim.program, &sim.options())?;
        let visits = s.analysis.as_ref().map_or(0, |a| a.visits);
        let work = OpWork {
            analyze_calls: u64::from(s.analysis.is_some()),
            visits,
            compiles: 1,
            ..OpWork::default()
        };
        return Ok((s, work));
    };
    t.span(RUN_PROGRAM, run, || {
        let gate = sim.gate(t, run)?;
        let cp = sim.compile(t, run)?;
        let mut engine = t.span(EXEC_INIT, run, || Engine::new(&cp, sim.engine_config()));
        t.span(EXEC_RUN, run, || engine.run_until(Cycle::MAX))?;
        let raw = t.span(EXEC_FINISH, run, || engine.finish_run())?;
        Ok((
            sim.summarize(raw),
            OpWork {
                compiles: 1,
                ..gate
            },
        ))
    })
}

/// `checkpoint_program` at `at_cycle`.
pub fn checkpoint(
    sim: &Sim,
    at_cycle: Cycle,
    t: Option<&Tracer>,
    run: u64,
) -> Result<(Checkpoint, OpWork), String> {
    let Some(t) = t else {
        let o = sim.options();
        let cp = checkpoint_program(&sim.program, &o, at_cycle)?;
        let work = OpWork {
            analyze_calls: u64::from(o.gate != omp_analyze::GateMode::Allow),
            compiles: 1,
            encodes: 1,
            snap_bytes: cp.bytes.len() as u64,
            ..OpWork::default()
        };
        return Ok((cp, work));
    };
    t.span(CHECKPOINT_PROGRAM, run, || {
        let gate = sim.gate(t, run)?;
        let cp = sim.compile(t, run)?;
        let mut engine = t.span(EXEC_INIT, run, || Engine::new(&cp, sim.engine_config()));
        let finished = t.span(EXEC_RUN, run, || engine.run_until(at_cycle))?;
        let bytes = t.span(SNAP_ENCODE, run, || engine.snapshot());
        let work = OpWork {
            compiles: 1,
            encodes: 1,
            snap_bytes: bytes.len() as u64,
            ..gate
        };
        Ok((Checkpoint { bytes, finished }, work))
    })
}

/// `resume_program` from `snapshot`.
pub fn resume(
    sim: &Sim,
    snapshot: &[u8],
    t: Option<&Tracer>,
    run: u64,
) -> Result<(RunSummary, OpWork), String> {
    let work = OpWork {
        compiles: 1,
        decodes: 1,
        snap_bytes: snapshot.len() as u64,
        ..OpWork::default()
    };
    let Some(t) = t else {
        return Ok((
            resume_program(&sim.program, &sim.options(), snapshot)?,
            work,
        ));
    };
    t.span(RESUME_PROGRAM, run, || {
        let cp = sim.compile(t, run)?;
        let mut engine = t.span(SNAP_DECODE, run, || {
            Engine::restore(&cp, sim.engine_config(), snapshot)
        })?;
        t.span(EXEC_RUN, run, || engine.run_until(Cycle::MAX))?;
        let raw = t.span(EXEC_FINISH, run, || engine.finish_run())?;
        Ok((sim.summarize(raw), work))
    })
}

/// True if some event of `plan` fires before `at` when `sim` runs under
/// it. Restoring a checkpoint under a different plan is refused exactly
/// when a fault of the snapshotting plan already fired, which answers the
/// question from outside the engine.
pub fn fires_before(sim: &Sim, cp: &CompiledProgram, plan: FaultPlan, at: Cycle) -> bool {
    let under = Sim {
        faults: plan,
        ..sim.clone()
    };
    let snap = checkpoint_compiled(cp, &under.options(), at).expect("probe checkpoint");
    let clean = Sim {
        faults: FaultPlan::none(),
        ..sim.clone()
    };
    match Engine::restore(cp, clean.engine_config(), &snap.bytes) {
        Ok(_) => false,
        Err(e) => {
            assert!(e.contains("cannot swap"), "unexpected restore error: {e}");
            true
        }
    }
}

/// The deterministic work counters of a pass. Every field must repeat
/// exactly between passes over the same inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub ops: u64,
    pub work: OpWork,
    pub sim_cycles: u64,
    pub accesses: u64,
    pub recoveries: u64,
    pub faults_fired: u64,
    pub demotions: u64,
    pub stores_converted: u64,
    pub sched_grabs: u64,
    pub a_fills: u64,
    pub a_fills_used: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub net_messages: u64,
    pub invalidations_sent: u64,
    pub contention_cycles: u64,
}

impl Counters {
    pub fn add_work(&mut self, w: &OpWork) {
        self.ops += 1;
        self.work.analyze_calls += w.analyze_calls;
        self.work.visits += w.visits;
        self.work.compiles += w.compiles;
        self.work.encodes += w.encodes;
        self.work.decodes += w.decodes;
        self.work.snap_bytes += w.snap_bytes;
    }

    pub fn add_result(&mut self, r: &RunResult) {
        self.sim_cycles += r.exec_cycles;
        for c in &r.cpu_stats {
            self.accesses += c.loads + c.stores;
            self.l1_hits += c.l1_hits;
            self.l2_hits += c.l2_hits;
            self.l2_misses += c.l2_misses;
            self.faults_fired += c.faults_injected;
        }
        self.recoveries += r.recoveries;
        self.demotions += r.demotions;
        self.stores_converted += r.stores_converted;
        self.sched_grabs += r.sched_grabs;
        for kind in [ReqKind::Read, ReqKind::ReadEx] {
            let f = &r.fill_counts;
            let used = f.get(kind, FillClass::ATimely) + f.get(kind, FillClass::ALate);
            self.a_fills_used += used;
            self.a_fills += used + f.get(kind, FillClass::AOnly);
        }
        let m = &r.machine;
        self.net_messages += m.network_messages;
        self.invalidations_sent += m.invalidations_sent;
        self.contention_cycles += m.network_contention + m.memory_contention + m.bus_contention;
    }

    /// The count rows of the per-layer table, by metric name.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let frac = if self.a_fills == 0 {
            0.0
        } else {
            self.a_fills_used as f64 / self.a_fills as f64
        };
        vec![
            ("omp-analyze.calls", self.work.analyze_calls as f64, "count"),
            ("omp-analyze.visits", self.work.visits as f64, "count"),
            (
                "slipstream.compile.calls",
                self.work.compiles as f64,
                "count",
            ),
            (
                "slipstream.exec.sim_cycles",
                self.sim_cycles as f64,
                "cycles",
            ),
            ("slipstream.exec.accesses", self.accesses as f64, "count"),
            ("slipstream.ctl.recoveries", self.recoveries as f64, "count"),
            (
                "slipstream.ctl.faults_fired",
                self.faults_fired as f64,
                "count",
            ),
            ("slipstream.ctl.demotions", self.demotions as f64, "count"),
            (
                "slipstream.ctl.stores_converted",
                self.stores_converted as f64,
                "count",
            ),
            (
                "slipstream.ctl.sched_grabs",
                self.sched_grabs as f64,
                "count",
            ),
            ("slipstream.ctl.prefetch_useful_frac", frac, "frac"),
            ("dsm-sim.l1_hits", self.l1_hits as f64, "count"),
            ("dsm-sim.l2_hits", self.l2_hits as f64, "count"),
            ("dsm-sim.l2_misses", self.l2_misses as f64, "count"),
            ("dsm-sim.net_messages", self.net_messages as f64, "count"),
            (
                "dsm-sim.invalidations_sent",
                self.invalidations_sent as f64,
                "count",
            ),
            (
                "dsm-sim.contention_cycles",
                self.contention_cycles as f64,
                "cycles",
            ),
            ("snap.bytes", self.work.snap_bytes as f64, "bytes"),
            ("snap.encodes", self.work.encodes as f64, "count"),
            ("snap.decodes", self.work.decodes as f64, "count"),
        ]
    }
}
