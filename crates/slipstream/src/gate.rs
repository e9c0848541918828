//! Pre-run safety gating: bridge the engine's configuration to the
//! `omp-analyze` static analyzer and decide whether a program may run.
//!
//! The analyzer models the same machine and A-stream policy the engine
//! will use: the team size comes from the CMP count, the L2 capacity
//! from the cache configuration, and the skip model from the
//! [`AStreamPolicy`] rows. Gating is observation-only by default
//! ([`GateMode::Warn`]): the report is attached to the run summary but
//! the simulation proceeds exactly as before, bit-identical to an
//! ungated run. [`GateMode::Deny`] refuses to run programs with
//! deny-severity findings (data races, unbalanced synchronization).
//!
//! A report depends only on the program and the [`AnalyzeConfig`], so
//! each distinct pair is analyzed once per process: [`analysis`] keeps
//! the reports in a bounded cache keyed by the full pair (a hash picks
//! the candidates, equality confirms the hit). Runs of one program under
//! several modes, and warm re-runs, reuse the first report.

use std::collections::VecDeque;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::policy::{AAction, AStreamPolicy};
use dsm_sim::MachineConfig;
use omp_analyze::{analyze, AnalysisReport, AnalyzeConfig, GateMode, SkipModel};
use omp_ir::node::Program;
use omp_rt::mode::SlipSync;

/// Most (program, config) reports the cache holds; the least recently
/// used entry is dropped to make room, so a daemon fed a stream of
/// distinct inline programs stays bounded.
pub const CACHE_CAPACITY: usize = 64;

/// One cached analysis. The report is filled outside the cache lock by
/// the first caller; concurrent callers for the same key wait on the
/// `OnceLock` instead of analyzing again.
struct Entry {
    hash: u64,
    program: Program,
    cfg: AnalyzeConfig,
    report: OnceLock<AnalysisReport>,
}

struct Cache {
    /// Least recently used first.
    entries: VecDeque<Arc<Entry>>,
    hits: u64,
    misses: u64,
}

static CACHE: Mutex<Cache> = Mutex::new(Cache {
    entries: VecDeque::new(),
    hits: 0,
    misses: 0,
});

/// Counters of the process-wide report cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by an existing entry.
    pub hits: u64,
    /// Lookups that created an entry (each analyzes once).
    pub misses: u64,
    /// Entries held now (at most [`CACHE_CAPACITY`]).
    pub entries: usize,
}

/// Snapshot of the report cache's counters.
pub fn cache_stats() -> CacheStats {
    let c = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
    CacheStats {
        hits: c.hits,
        misses: c.misses,
        entries: c.entries.len(),
    }
}

/// The analyzer's report for `program` under `cfg`, computed at most once
/// per distinct pair while the pair stays cached. Identical to a fresh
/// [`analyze`] call.
pub fn analysis(program: &Program, cfg: &AnalyzeConfig) -> AnalysisReport {
    let mut h = DefaultHasher::new();
    (program, cfg).hash(&mut h);
    let hash = h.finish();
    let entry = {
        // Nothing under the lock can panic between updates (analysis runs
        // after it is released), so a poisoned cache is still consistent.
        let mut c = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
        let found = c
            .entries
            .iter()
            .position(|e| e.hash == hash && e.cfg == *cfg && e.program == *program);
        let entry = match found {
            Some(i) => {
                c.hits += 1;
                c.entries.remove(i).expect("position is in range")
            }
            None => {
                c.misses += 1;
                if c.entries.len() == CACHE_CAPACITY {
                    c.entries.pop_front();
                }
                Arc::new(Entry {
                    hash,
                    program: program.clone(),
                    cfg: cfg.clone(),
                    report: OnceLock::new(),
                })
            }
        };
        c.entries.push_back(Arc::clone(&entry));
        entry
    };
    entry.report.get_or_init(|| analyze(program, cfg)).clone()
}

/// Derive the analyzer's construct skip model from the engine's
/// [`AStreamPolicy`] so both tools agree on what the A-stream executes.
pub fn skip_model(policy: &AStreamPolicy) -> SkipModel {
    SkipModel {
        skip_single: policy.single == AAction::Skip,
        skip_critical: policy.critical == AAction::Skip,
        execute_master: policy.master == AAction::Execute,
        execute_atomic: policy.atomic == AAction::Execute,
        convert_shared_stores: policy.convert_shared_stores,
    }
}

/// Build an [`AnalyzeConfig`] matching a machine + policy + optional
/// synchronization override (the same precedence [`run_program`]
/// (crate::runner::run_program) applies).
pub fn analyze_config(
    machine: &MachineConfig,
    policy: &AStreamPolicy,
    sync: Option<SlipSync>,
) -> AnalyzeConfig {
    let mut cfg = AnalyzeConfig::paper()
        .with_threads(machine.num_cmps as u64)
        .with_l2_lines(machine.l2.size_bytes / machine.l2.line_bytes);
    cfg.line_bytes = machine.l2.line_bytes;
    cfg.skip = skip_model(policy);
    if let Some(s) = sync {
        cfg.default_sync = if s.global {
            omp_ir::node::SlipSyncType::GlobalSync
        } else {
            omp_ir::node::SlipSyncType::LocalSync
        };
        cfg.default_tokens = s.tokens;
    }
    cfg
}

/// Run the analyzer according to `gate`.
///
/// Returns `Ok(None)` for [`GateMode::Allow`] (analysis skipped),
/// `Ok(Some(report))` when analysis ran and the program may proceed, and
/// `Err` with the rendered report when [`GateMode::Deny`] blocks the
/// run. The report comes from [`analysis`], so a cached report gates
/// exactly as a fresh one would.
pub fn gate_program(
    program: &Program,
    gate: GateMode,
    cfg: &AnalyzeConfig,
) -> Result<Option<AnalysisReport>, String> {
    if gate == GateMode::Allow {
        return Ok(None);
    }
    let report = analysis(program, cfg);
    if gate == GateMode::Deny && report.deny_count() > 0 {
        return Err(format!(
            "slipstream gate: refusing to run `{}` with {} deny-severity finding(s)\n{}",
            program.name,
            report.deny_count(),
            report.render_text()
        ));
    }
    Ok(Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policy_maps_to_paper_skip_model() {
        assert_eq!(skip_model(&AStreamPolicy::paper()), SkipModel::paper());
        let ablated = skip_model(&AStreamPolicy::paper().without_store_conversion());
        assert!(!ablated.convert_shared_stores);
        let crit = skip_model(&AStreamPolicy::paper().with_critical_execution());
        assert!(!crit.skip_critical);
    }

    #[test]
    fn config_tracks_machine_shape() {
        let m = MachineConfig::paper();
        let cfg = analyze_config(&m, &AStreamPolicy::paper(), None);
        assert_eq!(cfg.num_threads, m.num_cmps as u64);
        assert_eq!(cfg.l2_lines, m.l2.size_bytes / m.l2.line_bytes);
        let cfg = analyze_config(&m, &AStreamPolicy::paper(), Some(SlipSync::L1));
        assert_eq!(cfg.default_sync, omp_ir::node::SlipSyncType::LocalSync);
        assert_eq!(cfg.default_tokens, 1);
    }
}
