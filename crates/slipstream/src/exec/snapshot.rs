use super::{CpuState, Engine, EngineConfig, Frame, Status};
use crate::compile::{CompiledProgram, NodeId};
use dsm_sim::{Barrier, CpuId, EventQueue, Lock, TimeClass};
use omp_ir::expr::{BinOp, Expr, TableId, VarId};
use omp_ir::node::{ArrayId, Reduction, ReductionOp, SlipSyncType, SlipstreamClause};
use omp_ir::trace::OpCounts;
use omp_ir::wsloop::Chunk;
use omp_rt::constructs::ConstructArena;
use omp_rt::mode::{RegionSlip, SlipSync};
use omp_rt::schedule::ResolvedSchedule;
use sim_trace::Tracer;

// ---------------------------------------------------------------------------
// Engine checkpoint/restore.
//
// A snapshot captures the complete mutable simulation state mid-run so a
// sweep sharing a warmup prefix can fork from it instead of re-simulating.
// Everything config-derived (compiled program, machine layout, address
// map, latencies) is rebuilt by `Engine::new` on restore and validated
// against an identity hash stored in the snapshot; cycle/event budgets
// are deliberately excluded from that hash because they only bound the
// run and never change its results.

/// Version of the engine snapshot payload format. Bumped on any change
/// to the serialized layout; [`Engine::restore`] rejects other versions.
pub const SNAPSHOT_VERSION: u32 = 2;

fn snap_expr(w: &mut snap::Writer, e: &Expr) {
    match e {
        Expr::Const(v) => {
            w.u8(0);
            w.i64(*v);
        }
        Expr::Var(v) => {
            w.u8(1);
            w.u32(v.0);
        }
        Expr::ThreadId => w.u8(2),
        Expr::NumThreads => w.u8(3),
        Expr::Bin(op, a, b) => {
            w.u8(4);
            w.u8(match op {
                BinOp::Add => 0,
                BinOp::Sub => 1,
                BinOp::Mul => 2,
                BinOp::Div => 3,
                BinOp::Mod => 4,
                BinOp::Min => 5,
                BinOp::Max => 6,
            });
            snap_expr(w, a);
            snap_expr(w, b);
        }
        Expr::Table(t, idx) => {
            w.u8(5);
            w.u32(t.0);
            snap_expr(w, idx);
        }
    }
}

fn restore_expr(r: &mut snap::Reader) -> Result<Expr, snap::SnapError> {
    Ok(match r.u8()? {
        0 => Expr::Const(r.i64()?),
        1 => Expr::Var(VarId(r.u32()?)),
        2 => Expr::ThreadId,
        3 => Expr::NumThreads,
        4 => {
            let op = match r.u8()? {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::Div,
                4 => BinOp::Mod,
                5 => BinOp::Min,
                6 => BinOp::Max,
                _ => return Err(snap::SnapError::Corrupt { what: "BinOp" }),
            };
            let a = restore_expr(r)?;
            let b = restore_expr(r)?;
            Expr::Bin(op, Box::new(a), Box::new(b))
        }
        5 => {
            let t = TableId(r.u32()?);
            Expr::Table(t, Box::new(restore_expr(r)?))
        }
        _ => return Err(snap::SnapError::Corrupt { what: "Expr" }),
    })
}

fn snap_reduction(w: &mut snap::Writer, red: &Reduction) {
    w.u8(match red.op {
        ReductionOp::Sum => 0,
        ReductionOp::Max => 1,
        ReductionOp::Min => 2,
    });
    w.u32(red.target.0);
    snap_expr(w, &red.index);
}

fn restore_reduction(r: &mut snap::Reader) -> Result<Reduction, snap::SnapError> {
    let op = match r.u8()? {
        0 => ReductionOp::Sum,
        1 => ReductionOp::Max,
        2 => ReductionOp::Min,
        _ => {
            return Err(snap::SnapError::Corrupt {
                what: "ReductionOp",
            })
        }
    };
    Ok(Reduction {
        op,
        target: ArrayId(r.u32()?),
        index: restore_expr(r)?,
    })
}

fn snap_sched(w: &mut snap::Writer, s: ResolvedSchedule) {
    match s {
        ResolvedSchedule::StaticBlock => w.u8(0),
        ResolvedSchedule::StaticChunked(c) => {
            w.u8(1);
            w.u64(c);
        }
        ResolvedSchedule::Dynamic(c) => {
            w.u8(2);
            w.u64(c);
        }
        ResolvedSchedule::Guided(c) => {
            w.u8(3);
            w.u64(c);
        }
        ResolvedSchedule::Affinity(c) => {
            w.u8(4);
            w.u64(c);
        }
    }
}

fn restore_sched(r: &mut snap::Reader) -> Result<ResolvedSchedule, snap::SnapError> {
    Ok(match r.u8()? {
        0 => ResolvedSchedule::StaticBlock,
        1 => ResolvedSchedule::StaticChunked(r.u64()?),
        2 => ResolvedSchedule::Dynamic(r.u64()?),
        3 => ResolvedSchedule::Guided(r.u64()?),
        4 => ResolvedSchedule::Affinity(r.u64()?),
        _ => {
            return Err(snap::SnapError::Corrupt {
                what: "ResolvedSchedule",
            })
        }
    })
}

fn snap_chunk(w: &mut snap::Writer, c: &Chunk) {
    w.i64(c.lo);
    w.i64(c.hi);
}

fn restore_chunk(r: &mut snap::Reader) -> Result<Chunk, snap::SnapError> {
    Ok(Chunk {
        lo: r.i64()?,
        hi: r.i64()?,
    })
}

fn snap_time_class(w: &mut snap::Writer, tc: TimeClass) {
    w.u8(tc.index() as u8);
}

fn restore_time_class(r: &mut snap::Reader) -> Result<TimeClass, snap::SnapError> {
    dsm_sim::TIME_CLASSES
        .get(r.u8()? as usize)
        .copied()
        .ok_or(snap::SnapError::Corrupt { what: "TimeClass" })
}

impl Frame {
    fn snapshot(&self, w: &mut snap::Writer) {
        match self {
            Frame::Seq { node, idx } => {
                w.u8(0);
                w.u32(node.0);
                w.usize(*idx);
            }
            Frame::For {
                var,
                cur,
                end,
                step,
                body,
            } => {
                w.u8(1);
                w.u32(var.0);
                w.i64(*cur);
                w.i64(*end);
                w.u64(*step);
                w.u32(body.0);
            }
            Frame::ChunkIter {
                var,
                chunks,
                ci,
                cur,
                body,
            } => {
                w.u8(2);
                w.u32(var.0);
                w.seq(chunks, snap_chunk);
                w.usize(*ci);
                w.i64(*cur);
                w.u32(body.0);
            }
            Frame::LoopEnd { node, stage } => {
                w.u8(3);
                w.u32(node.0);
                w.u8(*stage);
            }
            Frame::Bar { internal, stage } => {
                w.u8(4);
                w.bool(*internal);
                w.u8(*stage);
            }
            Frame::SingleP { node, enc, stage } => {
                w.u8(5);
                w.u32(node.0);
                w.usize(*enc);
                w.u8(*stage);
            }
            Frame::SectionsP {
                node,
                enc,
                stage,
                claimed,
            } => {
                w.u8(6);
                w.u32(node.0);
                w.usize(*enc);
                w.u8(*stage);
                w.usize(*claimed);
            }
            Frame::DynP {
                node,
                enc,
                sched,
                lo,
                hi,
                stage,
                chunk,
            } => {
                w.u8(7);
                w.u32(node.0);
                w.usize(*enc);
                snap_sched(w, *sched);
                w.i64(*lo);
                w.i64(*hi);
                w.u8(*stage);
                snap_chunk(w, chunk);
            }
            Frame::CritP { lock, body, stage } => {
                w.u8(8);
                w.usize(*lock);
                w.u32(body.0);
                w.u8(*stage);
            }
            Frame::RedP { red, stage } => {
                w.u8(9);
                snap_reduction(w, red);
                w.u8(*stage);
            }
            Frame::RegionP { node, stage } => {
                w.u8(10);
                w.u32(node.0);
                w.u8(*stage);
            }
            Frame::RegionEndP { stage } => {
                w.u8(11);
                w.u8(*stage);
            }
            Frame::PoolWait => w.u8(12),
            Frame::IoP {
                input,
                bytes,
                stage,
            } => {
                w.u8(13);
                w.bool(*input);
                w.u64(*bytes);
                w.u8(*stage);
            }
        }
    }

    fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(match r.u8()? {
            0 => Frame::Seq {
                node: NodeId(r.u32()?),
                idx: r.usize()?,
            },
            1 => Frame::For {
                var: VarId(r.u32()?),
                cur: r.i64()?,
                end: r.i64()?,
                step: r.u64()?,
                body: NodeId(r.u32()?),
            },
            2 => Frame::ChunkIter {
                var: VarId(r.u32()?),
                chunks: r.seq(restore_chunk)?,
                ci: r.usize()?,
                cur: r.i64()?,
                body: NodeId(r.u32()?),
            },
            3 => Frame::LoopEnd {
                node: NodeId(r.u32()?),
                stage: r.u8()?,
            },
            4 => Frame::Bar {
                internal: r.bool()?,
                stage: r.u8()?,
            },
            5 => Frame::SingleP {
                node: NodeId(r.u32()?),
                enc: r.usize()?,
                stage: r.u8()?,
            },
            6 => Frame::SectionsP {
                node: NodeId(r.u32()?),
                enc: r.usize()?,
                stage: r.u8()?,
                claimed: r.usize()?,
            },
            7 => Frame::DynP {
                node: NodeId(r.u32()?),
                enc: r.usize()?,
                sched: restore_sched(r)?,
                lo: r.i64()?,
                hi: r.i64()?,
                stage: r.u8()?,
                chunk: restore_chunk(r)?,
            },
            8 => Frame::CritP {
                lock: r.usize()?,
                body: NodeId(r.u32()?),
                stage: r.u8()?,
            },
            9 => Frame::RedP {
                red: restore_reduction(r)?,
                stage: r.u8()?,
            },
            10 => Frame::RegionP {
                node: NodeId(r.u32()?),
                stage: r.u8()?,
            },
            11 => Frame::RegionEndP { stage: r.u8()? },
            12 => Frame::PoolWait,
            13 => Frame::IoP {
                input: r.bool()?,
                bytes: r.u64()?,
                stage: r.u8()?,
            },
            _ => return Err(snap::SnapError::Corrupt { what: "Frame" }),
        })
    }
}

impl CpuState {
    /// Serialize the mutable per-processor state. Identity fields
    /// (assignment, role, tid) are layout-derived and kept from the
    /// freshly built engine on restore.
    fn snapshot(&self, w: &mut snap::Writer) {
        self.timeline.snapshot(w);
        w.seq(&self.frames, |w, f| f.snapshot(w));
        w.seq(&self.vars, |w, v| w.i64(*v));
        w.u8(match self.status {
            Status::Ready => 0,
            Status::Parked => 1,
            Status::PoolIdle => 2,
            Status::Done => 3,
        });
        w.u64(self.next_wake);
        snap_time_class(w, self.park_class);
        w.opt(&self.pending_class, |w, &tc| snap_time_class(w, tc));
        w.usize(self.singles_seen);
        w.usize(self.sections_seen);
        w.usize(self.dynloops_seen);
        w.u64(self.jobs_taken);
        w.u64(self.next_interrupt);
        w.u64(self.interrupts);
        for v in [
            self.user.loads,
            self.user.stores,
            self.user.atomics,
            self.user.compute_cycles,
            self.user.io_in,
            self.user.io_out,
        ] {
            w.u64(v);
        }
        w.u64(self.stores_converted);
        w.u64(self.stores_skipped);
        w.opt(&self.watchdog_deadline, |w, &c| w.u64(c));
        w.u64(self.watchdog_gen);
        w.opt(&self.token_wait_deadline, |w, &c| w.u64(c));
    }

    fn restore_into(&mut self, r: &mut snap::Reader) -> Result<(), snap::SnapError> {
        self.timeline.restore_into(r)?;
        self.frames = r.seq(Frame::restore)?;
        self.vars = r.seq(|r| r.i64())?;
        self.status = match r.u8()? {
            0 => Status::Ready,
            1 => Status::Parked,
            2 => Status::PoolIdle,
            3 => Status::Done,
            _ => return Err(snap::SnapError::Corrupt { what: "Status" }),
        };
        self.next_wake = r.u64()?;
        self.park_class = restore_time_class(r)?;
        self.pending_class = r.opt(restore_time_class)?;
        self.singles_seen = r.usize()?;
        self.sections_seen = r.usize()?;
        self.dynloops_seen = r.usize()?;
        self.jobs_taken = r.u64()?;
        self.next_interrupt = r.u64()?;
        self.interrupts = r.u64()?;
        self.user = OpCounts {
            loads: r.u64()?,
            stores: r.u64()?,
            atomics: r.u64()?,
            compute_cycles: r.u64()?,
            io_in: r.u64()?,
            io_out: r.u64()?,
        };
        self.stores_converted = r.u64()?;
        self.stores_skipped = r.u64()?;
        self.watchdog_deadline = r.opt(|r| r.u64())?;
        self.watchdog_gen = r.u64()?;
        self.token_wait_deadline = r.opt(|r| r.u64())?;
        Ok(())
    }
}

fn snap_slip_clause(w: &mut snap::Writer, cl: &SlipstreamClause) {
    w.u8(match cl.sync {
        SlipSyncType::GlobalSync => 0,
        SlipSyncType::LocalSync => 1,
        SlipSyncType::RuntimeSync => 2,
        SlipSyncType::None => 3,
    });
    w.u64(cl.tokens);
}

fn restore_slip_clause(r: &mut snap::Reader) -> Result<SlipstreamClause, snap::SnapError> {
    let sync = match r.u8()? {
        0 => SlipSyncType::GlobalSync,
        1 => SlipSyncType::LocalSync,
        2 => SlipSyncType::RuntimeSync,
        3 => SlipSyncType::None,
        _ => {
            return Err(snap::SnapError::Corrupt {
                what: "SlipSyncType",
            })
        }
    };
    Ok(SlipstreamClause {
        sync,
        tokens: r.u64()?,
    })
}

impl<'p> Engine<'p> {
    /// Hash of everything that must match between the snapshotting engine
    /// and a restoring one: the compiled program and every configuration
    /// field that shapes simulation state. The cycle/event budgets are
    /// excluded — they only bound the run. The fault plan is excluded too
    /// (it has its own swap rule; see [`Engine::restore`]).
    fn identity_hash(&self) -> u64 {
        use std::fmt::Write as _;
        let c = &self.cfg;
        let mut s = String::new();
        let _ = write!(
            s,
            "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.cp,
            c.machine,
            c.mode,
            c.env,
            c.policy,
            c.static_sched_cycles,
            c.dynamic_sched_cycles,
            c.io_fixed_cycles,
            c.io_cycles_per_8_bytes,
            c.recovery,
            c.health,
            c.os_noise,
            c.trace,
            c.mutation,
        );
        snap::fnv1a(s.as_bytes())
    }

    /// Hash of the (post-conversion) fault plan, for the swap rule.
    fn fault_plan_hash(&self) -> u64 {
        snap::fnv1a(format!("{:?}", self.cfg.faults).as_bytes())
    }

    /// Serialize the complete mutable engine state into a versioned,
    /// checksummed snapshot. Call at a [`Engine::run_until`] boundary;
    /// a restored engine continued to completion produces results
    /// bit-identical to the uninterrupted run.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = snap::Writer::new();
        w.u64(self.identity_hash());
        w.u64(self.fault_plan_hash());
        w.seq(&self.fault_fired, |w, b| w.bool(*b));
        let (events, next_seq) = self.q.export();
        w.seq(&events, |w, &(t, s, c)| {
            w.u64(t);
            w.u64(s);
            w.usize(c.0);
        });
        w.u64(next_seq);
        self.ms.snapshot(&mut w);
        w.seq(&self.cpus, |w, c| c.snapshot(w));
        w.seq(&self.pairs, |w, p| p.snapshot(w));
        self.construct_barrier.snapshot(&mut w);
        self.region_barrier.snapshot(&mut w);
        w.seq(&self.critical_locks, |w, l| l.snapshot(w));
        self.reduction_lock.snapshot(&mut w);
        w.seq(&self.sched_locks, |w, l| l.snapshot(w));
        w.u64s(&self.sched_counter_lines);
        w.seq(&self.affinity_locks, |w, ls| {
            w.seq(ls, |w, l| l.snapshot(w))
        });
        w.u64s(&self.single_lines);
        w.u64s(&self.sections_lines);
        self.arena.snapshot(&mut w);
        w.opt(&self.global_slip, snap_slip_clause);
        match self.region_slip {
            RegionSlip::Off => w.u8(0),
            RegionSlip::On(s) => {
                w.u8(1);
                w.bool(s.global);
                w.u64(s.tokens);
            }
        }
        w.opt(&self.current_region, |w, n| w.u32(n.0));
        w.u64(self.job_gen);
        w.u64(self.job_flag);
        w.u64s(&self.alloc_next);
        w.u64(self.alloc_base_line);
        w.bool(self.master_done);
        w.u64(self.events);
        w.u64(self.sched_grabs_total);
        w.u64(self.sched_steals_total);
        self.breaker.snapshot(&mut w);
        w.u64(self.regions_dispatched);
        self.tracer.snapshot(&mut w);
        snap::seal(SNAPSHOT_VERSION, &w.into_bytes())
    }

    /// Rebuild an engine from a snapshot taken by [`Engine::snapshot`].
    ///
    /// `cp` and `cfg` must describe the same simulation the snapshot was
    /// taken from (validated by the stored identity hash), with two
    /// allowed differences: the cycle/event budgets, and the fault plan —
    /// which may be *swapped* for a different one only while no fault of
    /// the stored plan has fired yet (so a fault-free warmup can fork
    /// into many differently-faulted continuations).
    pub fn restore(
        cp: &'p CompiledProgram,
        cfg: EngineConfig,
        bytes: &[u8],
    ) -> Result<Self, String> {
        let payload = snap::open(bytes, SNAPSHOT_VERSION).map_err(|e| format!("snapshot: {e}"))?;
        let mut eng = Engine::new(cp, cfg);
        let mut r = snap::Reader::new(payload);
        eng.restore_fields(&mut r)
            .map_err(|e| format!("snapshot: {e}"))?;
        r.expect_end().map_err(|e| format!("snapshot: {e}"))?;
        Ok(eng)
    }

    fn restore_fields(&mut self, r: &mut snap::Reader) -> Result<(), String> {
        let stored_identity = r.u64()?;
        if stored_identity != self.identity_hash() {
            return Err(
                "identity mismatch: snapshot was taken under a different program or \
                 configuration"
                    .into(),
            );
        }
        let stored_plan = r.u64()?;
        let fired = r.seq(|r| r.bool())?;
        if stored_plan == self.fault_plan_hash() {
            if fired.len() != self.fault_fired.len() {
                return Err("fault-fired ledger length mismatch".into());
            }
            self.fault_fired = fired;
        } else if fired.iter().any(|&f| f) {
            return Err(
                "cannot swap the fault plan: a fault of the stored plan already fired \
                 before the checkpoint"
                    .into(),
            );
        }
        let events = r.seq(|r| Ok((r.u64()?, r.u64()?, CpuId(r.usize()?))))?;
        let next_seq = r.u64()?;
        // The checksum stops accidents, not crafted input: an event for a
        // processor this machine does not have would index out of bounds
        // in the event loop.
        if let Some(&(_, _, cpu)) = events.iter().find(|e| e.2 .0 >= self.cpus.len()) {
            return Err(format!(
                "event for cpu {} on a {}-processor machine",
                cpu.0,
                self.cpus.len()
            ));
        }
        self.q = EventQueue::import(&events, next_seq);
        self.ms.restore_into(r)?;
        let ncpus = r.usize()?;
        if ncpus != self.cpus.len() {
            return Err("processor count mismatch".into());
        }
        for c in self.cpus.iter_mut() {
            c.restore_into(r)?;
        }
        let npairs = r.usize()?;
        if npairs != self.pairs.len() {
            return Err("pair count mismatch".into());
        }
        for p in self.pairs.iter_mut() {
            p.restore_into(r)?;
        }
        self.construct_barrier = Barrier::restore(r)?;
        self.region_barrier = Barrier::restore(r)?;
        self.critical_locks = r.seq(Lock::restore)?;
        self.reduction_lock = Lock::restore(r)?;
        self.sched_locks = r.seq(Lock::restore)?;
        self.sched_counter_lines = r.u64s()?;
        self.affinity_locks = r.seq(|r| r.seq(Lock::restore))?;
        self.single_lines = r.u64s()?;
        self.sections_lines = r.u64s()?;
        self.arena = ConstructArena::restore(r)?;
        self.global_slip = r.opt(restore_slip_clause)?;
        self.region_slip = match r.u8()? {
            0 => RegionSlip::Off,
            1 => RegionSlip::On(SlipSync {
                global: r.bool()?,
                tokens: r.u64()?,
            }),
            _ => return Err("corrupt RegionSlip".into()),
        };
        self.current_region = r.opt(|r| Ok(NodeId(r.u32()?)))?;
        self.job_gen = r.u64()?;
        self.job_flag = r.u64()?;
        self.alloc_next = r.u64s()?;
        self.alloc_base_line = r.u64()?;
        self.master_done = r.bool()?;
        self.events = r.u64()?;
        self.sched_grabs_total = r.u64()?;
        self.sched_steals_total = r.u64()?;
        self.breaker.restore_into(r)?;
        self.regions_dispatched = r.u64()?;
        self.tracer = Tracer::restore(r)?;
        Ok(())
    }
}
