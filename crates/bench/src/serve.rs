//! Slipstream job runner and client plumbing for the `sim-serve`
//! daemon.
//!
//! The daemon itself (queue, cache, protocol) is simulation-agnostic;
//! this module supplies the slipstream half: a [`BenchRunner`] that
//! turns job specs into engine runs (with snapshot warm-starts shared
//! across a sweep), the canonical config-string derivation that keys
//! the result cache, and [`SuiteRow`] — the exact-integer result
//! payload that lets a client reproduce figure tables byte-for-byte
//! without access to the engine.
//!
//! ## Job specs
//!
//! A `run` spec names a program either by benchmark + preset or as
//! inline program JSON, plus the run configuration:
//!
//! ```json
//! {"kind":"run","bench":"cg","preset":"paper","machine":"paper",
//!  "mode":"slip-G0","trace":false,
//!  "fault_seed":0,"fault_team":0,"fault_events":0,
//!  "warm_cycles":0,"warm_share":true,"nocache":false}
//! ```
//!
//! Every field except the program source is optional; defaults are
//! filled before the canonical config string is derived, so two specs
//! that mean the same simulation always share a cache key. With
//! `warm_cycles > 0` the runner forks the run from a fault-free engine
//! snapshot taken at that cycle boundary (shared across jobs when
//! `warm_share`, re-simulated per job otherwise — the honest baseline
//! for warm-vs-cold comparisons). `nocache` opts a job out of the
//! result cache (used by benchmarks that must measure execution).
//!
//! An `analyze` spec names a program from the analyzer corpus:
//!
//! ```json
//! {"kind":"analyze","program":"cg-tiny","threads":16}
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dsm_sim::{FillCounts, MachineConfig, ReqKind, TimeBreakdown, FILL_CLASSES, TIME_CLASSES};
use npb_kernels::Benchmark;
use omp_ir::node::Program;
use omp_rt::mode::{ExecMode, SlipSync};
use omp_rt::RuntimeEnv;
use sim_serve::server::{JobControl, JobRunner};
use sim_trace::json::JsonValue;
use slipstream::faults::FaultPlan;
use slipstream::runner::{checkpoint_program, resume_program, run_program, RunOptions};
use slipstream::RunSummary;

use crate::{dynamic_program, small_machine, summary_fingerprint};

/// Canonical config-string version prefix. Bump when the spec
/// vocabulary changes meaning, so stale disk-cache entries from an
/// older daemon can never alias a new config.
pub const SPEC_VERSION: &str = "v2";

/// One run result as exact integers — everything the figure tables and
/// `RunRecord`s derive from a [`RunSummary`], in a form that survives a
/// JSON round trip bit-for-bit (counters stay `u64`; fractions are
/// recomputed client-side by the same code the direct path uses).
#[derive(Clone, Debug)]
pub struct SuiteRow {
    /// Program name.
    pub name: String,
    /// Mode label (`single`, `double`, `slip-L1`, `slip-G0`, ...).
    pub label: String,
    /// Execution cycles.
    pub exec_cycles: u64,
    /// R/solo-stream time breakdown.
    pub r_breakdown: TimeBreakdown,
    /// A-stream time breakdown.
    pub a_breakdown: TimeBreakdown,
    /// Shared-fill classification counts.
    pub fills: FillCounts,
    /// A-stream store conversions.
    pub stores_converted: u64,
    /// Dynamic-scheduler chunk grabs.
    pub sched_grabs: u64,
    /// The run's stats fingerprint (bit-identity witness).
    pub fingerprint: String,
}

impl SuiteRow {
    /// Project a [`RunSummary`] down to its row.
    pub fn from_summary(s: &RunSummary) -> SuiteRow {
        SuiteRow {
            name: s.name.clone(),
            label: s.label.clone(),
            exec_cycles: s.exec_cycles,
            r_breakdown: s.r_breakdown,
            a_breakdown: s.a_breakdown,
            fills: s.fills,
            stores_converted: s.raw.stores_converted,
            sched_grabs: s.raw.sched_grabs,
            fingerprint: summary_fingerprint(s),
        }
    }

    /// Serialize to the daemon payload format.
    pub fn to_payload(&self) -> String {
        let ints = |vals: &[u64]| {
            vals.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let tb = |b: &TimeBreakdown| ints(&TIME_CLASSES.map(|c| b.get(c)));
        let fills = |kind: ReqKind| ints(&FILL_CLASSES.map(|c| self.fills.get(kind, c)));
        format!(
            "{{\"name\":\"{}\",\"label\":\"{}\",\"exec_cycles\":{},\
             \"r_breakdown\":[{}],\"a_breakdown\":[{}],\
             \"fills_read\":[{}],\"fills_readex\":[{}],\
             \"stores_converted\":{},\"sched_grabs\":{},\"fingerprint\":\"{}\"}}",
            crate::json_escape(&self.name),
            crate::json_escape(&self.label),
            self.exec_cycles,
            tb(&self.r_breakdown),
            tb(&self.a_breakdown),
            fills(ReqKind::Read),
            fills(ReqKind::ReadEx),
            self.stores_converted,
            self.sched_grabs,
            crate::json_escape(&self.fingerprint),
        )
    }

    /// Parse a daemon payload back into a row.
    pub fn from_payload(text: &str) -> Result<SuiteRow, String> {
        let v = sim_trace::json::parse(text).map_err(|e| format!("payload: {e}"))?;
        let s = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(|x| x.to_string())
                .ok_or_else(|| format!("payload missing string {k:?}"))
        };
        let n = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_num())
                .map(|x| x as u64)
                .ok_or_else(|| format!("payload missing number {k:?}"))
        };
        let arr = |k: &str, want: usize| -> Result<Vec<u64>, String> {
            let items = v
                .get(k)
                .and_then(|x| x.as_arr())
                .ok_or_else(|| format!("payload missing array {k:?}"))?;
            if items.len() != want {
                return Err(format!(
                    "payload {k:?} has {} cells, want {want}",
                    items.len()
                ));
            }
            items
                .iter()
                .map(|x| {
                    x.as_num()
                        .map(|f| f as u64)
                        .ok_or_else(|| format!("payload {k:?} has a non-number cell"))
                })
                .collect()
        };
        let breakdown = |cells: Vec<u64>| {
            let mut b = TimeBreakdown::new();
            for (c, v) in TIME_CLASSES.iter().zip(cells) {
                b.add(*c, v);
            }
            b
        };
        Ok(SuiteRow {
            name: s("name")?,
            label: s("label")?,
            exec_cycles: n("exec_cycles")?,
            r_breakdown: breakdown(arr("r_breakdown", TIME_CLASSES.len())?),
            a_breakdown: breakdown(arr("a_breakdown", TIME_CLASSES.len())?),
            fills: FillCounts::from_cells(
                &arr("fills_read", FILL_CLASSES.len())?,
                &arr("fills_readex", FILL_CLASSES.len())?,
            ),
            stores_converted: n("stores_converted")?,
            sched_grabs: n("sched_grabs")?,
            fingerprint: s("fingerprint")?,
        })
    }
}

/// Parse a mode label (`single`, `double`, `slip-G0`, `slip-L1`, ...)
/// into run options' mode + sync.
pub fn parse_mode(label: &str) -> Result<(ExecMode, Option<SlipSync>), String> {
    match label {
        "single" => return Ok((ExecMode::Single, None)),
        "double" => return Ok((ExecMode::Double, None)),
        _ => {}
    }
    let spec = label
        .strip_prefix("slip-")
        .ok_or_else(|| format!("unknown mode label {label:?}"))?;
    let (global, tokens) = match spec.split_at(1) {
        ("G", t) => (true, t),
        ("L", t) => (false, t),
        _ => return Err(format!("unknown slip sync {spec:?}")),
    };
    let tokens: u64 = tokens
        .parse()
        .map_err(|_| format!("bad token count in mode label {label:?}"))?;
    Ok((ExecMode::Slipstream, Some(SlipSync { global, tokens })))
}

fn spec_str<'a>(spec: &'a JsonValue, key: &str, default: &'a str) -> &'a str {
    spec.get(key).and_then(|v| v.as_str()).unwrap_or(default)
}

fn spec_u64(spec: &JsonValue, key: &str, default: u64) -> u64 {
    spec.get(key)
        .and_then(|v| v.as_num())
        .map_or(default, |n| n as u64)
}

fn spec_bool(spec: &JsonValue, key: &str, default: bool) -> bool {
    spec.get(key).and_then(|v| v.as_bool()).unwrap_or(default)
}

/// A fully-defaulted `run` spec: the canonical form behind the cache
/// key.
struct RunSpec {
    prog: ProgSource,
    preset: String,
    machine: String,
    mode: String,
    trace: bool,
    fault_seed: u64,
    fault_team: u64,
    fault_events: u64,
    warm_cycles: u64,
    warm_share: bool,
    nocache: bool,
}

enum ProgSource {
    Bench(Benchmark),
    Inline(String),
}

impl RunSpec {
    fn parse(spec: &JsonValue) -> Result<RunSpec, String> {
        let prog = if let Some(json) = spec.get("program_json").and_then(|v| v.as_str()) {
            ProgSource::Inline(json.to_string())
        } else {
            let name = spec
                .get("bench")
                .and_then(|v| v.as_str())
                .ok_or("run spec needs \"bench\" or \"program_json\"")?;
            let bm = Benchmark::ALL
                .iter()
                .find(|b| b.name() == name)
                .copied()
                .ok_or_else(|| format!("unknown benchmark {name:?}"))?;
            ProgSource::Bench(bm)
        };
        Ok(RunSpec {
            prog,
            preset: spec_str(spec, "preset", "paper").to_string(),
            machine: spec_str(spec, "machine", "paper").to_string(),
            mode: spec_str(spec, "mode", "single").to_string(),
            trace: spec_bool(spec, "trace", false),
            fault_seed: spec_u64(spec, "fault_seed", 0),
            fault_team: spec_u64(spec, "fault_team", 0),
            fault_events: spec_u64(spec, "fault_events", 0),
            warm_cycles: spec_u64(spec, "warm_cycles", 0),
            warm_share: spec_bool(spec, "warm_share", true),
            nocache: spec_bool(spec, "nocache", false),
        })
    }

    fn prog_token(&self) -> String {
        match &self.prog {
            ProgSource::Bench(bm) => bm.name().to_string(),
            // Content address inline programs: equal JSON, equal key.
            ProgSource::Inline(json) => {
                format!("inline-{:016x}", sim_serve::cache::key_hash(json))
            }
        }
    }

    /// The canonical config string. Field order is fixed and every
    /// field is present, so any single semantic change (preset, mode,
    /// trace flag, fault plan, warm boundary) changes the key. Fields
    /// outside the vocabulary (such as the retired `workers`) are
    /// ignored, so they never split the cache.
    fn canonical_key(&self) -> String {
        format!(
            "{SPEC_VERSION}|kind=run|prog={}|preset={}|machine={}|mode={}|trace={}|fault={}/{}/{}|\
             warm={}|share={}",
            self.prog_token(),
            self.preset,
            self.machine,
            self.mode,
            u8::from(self.trace),
            self.fault_seed,
            self.fault_team,
            self.fault_events,
            self.warm_cycles,
            u8::from(self.warm_share),
        )
    }

    /// Key of the shared fault-free warmup snapshot this spec forks
    /// from: the config key minus the fault plan and sharing knobs.
    fn warm_key(&self) -> String {
        format!(
            "{SPEC_VERSION}|warm|prog={}|preset={}|machine={}|mode={}|trace={}|warm={}",
            self.prog_token(),
            self.preset,
            self.machine,
            self.mode,
            u8::from(self.trace),
            self.warm_cycles,
        )
    }

    fn build_program(&self) -> Result<Program, String> {
        match (&self.prog, self.preset.as_str()) {
            (ProgSource::Inline(json), _) => {
                omp_ir::program_from_json(json).map_err(|e| format!("program_json: {e}"))
            }
            (ProgSource::Bench(bm), "tiny") => Ok(bm.build_tiny()),
            (ProgSource::Bench(bm), "paper") => Ok(bm.build_paper(None)),
            (ProgSource::Bench(bm), "dynamic") => {
                Ok(dynamic_program(*bm, self.build_machine()?.num_cmps as u64))
            }
            (_, other) => Err(format!("unknown preset {other:?}")),
        }
    }

    fn build_machine(&self) -> Result<MachineConfig, String> {
        match self.machine.as_str() {
            "paper" => Ok(MachineConfig::paper()),
            "small" => Ok(small_machine()),
            other => Err(format!("unknown machine {other:?}")),
        }
    }

    fn fault_plan(&self) -> FaultPlan {
        if self.fault_events == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::random(
                self.fault_seed,
                self.fault_team.max(1),
                self.fault_events as usize,
            )
        }
    }

    fn build_opts(&self, faults: FaultPlan) -> Result<RunOptions, String> {
        let (mode, sync) = parse_mode(&self.mode)?;
        let mut o = RunOptions::new(mode)
            .with_machine(self.build_machine()?)
            .with_faults(faults);
        o.sync = sync;
        o.env = RuntimeEnv::default();
        if self.trace {
            o = o.with_trace(sim_trace::TraceConfig::on());
        }
        Ok(o)
    }
}

/// The slipstream [`JobRunner`]: executes `run` and `analyze` specs.
/// Holds the shared warm-start snapshot store.
#[derive(Default)]
pub struct BenchRunner {
    snapshots: Mutex<HashMap<String, Arc<Vec<u8>>>>,
}

impl BenchRunner {
    /// A runner with an empty snapshot store.
    pub fn new() -> BenchRunner {
        BenchRunner::default()
    }

    fn run_job(&self, spec: &RunSpec) -> Result<String, String> {
        let program = spec.build_program()?;
        let summary = if spec.warm_cycles > 0 {
            let snapshot = if spec.warm_share {
                let cached = self
                    .snapshots
                    .lock()
                    .unwrap()
                    .get(&spec.warm_key())
                    .cloned();
                match cached {
                    Some(bytes) => bytes,
                    None => {
                        let cp = checkpoint_program(
                            &program,
                            &spec.build_opts(FaultPlan::none())?,
                            spec.warm_cycles,
                        )?;
                        let bytes = Arc::new(cp.bytes);
                        self.snapshots
                            .lock()
                            .unwrap()
                            .insert(spec.warm_key(), bytes.clone());
                        bytes
                    }
                }
            } else {
                // The cold baseline: re-simulate the warmup prefix.
                Arc::new(
                    checkpoint_program(
                        &program,
                        &spec.build_opts(FaultPlan::none())?,
                        spec.warm_cycles,
                    )?
                    .bytes,
                )
            };
            resume_program(&program, &spec.build_opts(spec.fault_plan())?, &snapshot)?
        } else {
            run_program(&program, &spec.build_opts(spec.fault_plan())?)?
        };
        Ok(SuiteRow::from_summary(&summary).to_payload())
    }

    fn analyze_job(&self, spec: &JsonValue) -> Result<String, String> {
        let name = spec
            .get("program")
            .and_then(|v| v.as_str())
            .ok_or("analyze spec needs \"program\"")?;
        let (_, program) = crate::analysis_corpus()
            .into_iter()
            .find(|(label, _)| label == name)
            .ok_or_else(|| format!("unknown corpus program {name:?}"))?;
        let mut cfg = omp_analyze::AnalyzeConfig::paper();
        if let Some(t) = spec.get("threads").and_then(|v| v.as_num()) {
            cfg = cfg.with_threads(t as u64);
        }
        if let Some(b) = spec.get("budget").and_then(|v| v.as_num()) {
            cfg = cfg.with_budget(b as u64);
        }
        let (text, json_item, denies) = crate::analyze_one(name, &program, &cfg);
        Ok(format!(
            "{{\"text\":\"{}\",\"json_item\":\"{}\",\"denies\":{}}}",
            crate::json_escape(&text),
            crate::json_escape(&json_item),
            denies,
        ))
    }
}

fn analyze_key(spec: &JsonValue) -> Result<String, String> {
    let name = spec
        .get("program")
        .and_then(|v| v.as_str())
        .ok_or("analyze spec needs \"program\"")?;
    let knob = |key: &str| {
        spec.get(key)
            .and_then(|v| v.as_num())
            .map_or_else(|| "default".to_string(), |n| (n as u64).to_string())
    };
    Ok(format!(
        "{SPEC_VERSION}|kind=analyze|program={name}|threads={}|budget={}",
        knob("threads"),
        knob("budget"),
    ))
}

impl JobRunner for BenchRunner {
    fn config_key(&self, spec: &JsonValue) -> Result<Option<String>, String> {
        match spec_str(spec, "kind", "run") {
            "run" => {
                let parsed = RunSpec::parse(spec)?;
                if parsed.nocache {
                    return Ok(None);
                }
                Ok(Some(parsed.canonical_key()))
            }
            "analyze" => Ok(Some(analyze_key(spec)?)),
            other => Err(format!("unknown job kind {other:?}")),
        }
    }

    fn run(&self, spec: &JsonValue, _ctl: &JobControl) -> Result<String, String> {
        match spec_str(spec, "kind", "run") {
            "run" => self.run_job(&RunSpec::parse(spec)?),
            "analyze" => self.analyze_job(spec),
            other => Err(format!("unknown job kind {other:?}")),
        }
    }
}

/// Build the spec JSON for one suite run (the client side of the
/// vocabulary [`RunSpec::parse`] accepts).
pub fn run_spec_json(bench: Benchmark, preset: &str, mode: &str) -> String {
    format!(
        "{{\"kind\":\"run\",\"bench\":\"{}\",\"preset\":\"{}\",\"machine\":\"paper\",\
         \"mode\":\"{}\"}}",
        bench.name(),
        preset,
        mode,
    )
}

/// Run a whole suite through a daemon: one submit per (benchmark, mode)
/// — duplicates hit the daemon's cache — then wait for every result.
/// Returns rows grouped per benchmark in mode order, exactly like the
/// direct suites.
pub fn suite_via_daemon(
    addr: &str,
    programs: &[Benchmark],
    preset: &str,
    modes: &[(&str, ExecMode, Option<SlipSync>)],
) -> Result<Vec<(Benchmark, Vec<SuiteRow>)>, String> {
    let mut client = sim_serve::Client::connect(addr)?;
    let mut ids = Vec::new();
    for bm in programs {
        for (label, _, _) in modes {
            let ack = client.submit(&run_spec_json(*bm, preset, label), 0, None)?;
            ids.push(ack.id);
        }
    }
    let mut ids = ids.into_iter();
    let mut out = Vec::new();
    for bm in programs {
        let mut rows = Vec::new();
        for _ in modes {
            let id = ids.next().expect("one id per submit");
            let outcome = client.result(id)?;
            let payload = match (outcome.state.as_str(), outcome.payload) {
                ("done", Some(p)) => p,
                (state, _) => {
                    return Err(format!(
                        "job {id} for {} ended {state}{}",
                        bm.name(),
                        outcome.error.map(|e| format!(": {e}")).unwrap_or_default()
                    ))
                }
            };
            rows.push(SuiteRow::from_payload(&payload)?);
        }
        out.push((*bm, rows));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_trace::json::parse;

    #[test]
    fn payload_round_trips_exactly() {
        let program = Benchmark::Cg.build_tiny();
        let mut o = RunOptions::new(ExecMode::Slipstream).with_machine(small_machine());
        o.sync = Some(SlipSync::G0);
        let s = run_program(&program, &o).unwrap();
        let row = SuiteRow::from_summary(&s);
        let back = SuiteRow::from_payload(&row.to_payload()).unwrap();
        assert_eq!(row.to_payload(), back.to_payload());
        assert_eq!(row.fingerprint, back.fingerprint);
        assert_eq!(back.fingerprint, summary_fingerprint(&s));
        assert_eq!(back.exec_cycles, s.exec_cycles);
    }

    #[test]
    fn canonical_key_is_total_and_field_sensitive() {
        let base = parse("{\"kind\":\"run\",\"bench\":\"cg\"}").unwrap();
        let key = RunSpec::parse(&base).unwrap().canonical_key();
        // Defaults are filled in: an explicit spec of the defaults has
        // the same key.
        let explicit = parse(
            "{\"kind\":\"run\",\"bench\":\"cg\",\"preset\":\"paper\",\"machine\":\"paper\",\
             \"mode\":\"single\",\"trace\":false,\"fault_seed\":0,\
             \"fault_team\":0,\"fault_events\":0,\"warm_cycles\":0}",
        )
        .unwrap();
        assert_eq!(key, RunSpec::parse(&explicit).unwrap().canonical_key());
        // Any single field change changes the key.
        for variant in [
            "{\"kind\":\"run\",\"bench\":\"mg\"}",
            "{\"kind\":\"run\",\"bench\":\"cg\",\"preset\":\"tiny\"}",
            "{\"kind\":\"run\",\"bench\":\"cg\",\"machine\":\"small\"}",
            "{\"kind\":\"run\",\"bench\":\"cg\",\"mode\":\"slip-G0\"}",
            "{\"kind\":\"run\",\"bench\":\"cg\",\"trace\":true}",
            "{\"kind\":\"run\",\"bench\":\"cg\",\"fault_seed\":1,\"fault_events\":2}",
            "{\"kind\":\"run\",\"bench\":\"cg\",\"warm_cycles\":1000}",
        ] {
            let v = parse(variant).unwrap();
            assert_ne!(
                key,
                RunSpec::parse(&v).unwrap().canonical_key(),
                "{variant} must change the cache key"
            );
        }
        // `workers` left the vocabulary: a spec that still carries it
        // coalesces with one that does not instead of splitting the cache.
        let legacy = parse("{\"kind\":\"run\",\"bench\":\"cg\",\"workers\":4}").unwrap();
        assert_eq!(key, RunSpec::parse(&legacy).unwrap().canonical_key());
        // nocache opts out entirely.
        let v = parse("{\"kind\":\"run\",\"bench\":\"cg\",\"nocache\":true}").unwrap();
        assert!(BenchRunner::new().config_key(&v).unwrap().is_none());
    }

    #[test]
    fn mode_labels_parse() {
        assert_eq!(parse_mode("single").unwrap(), (ExecMode::Single, None));
        assert_eq!(parse_mode("double").unwrap(), (ExecMode::Double, None));
        assert_eq!(
            parse_mode("slip-G0").unwrap(),
            (ExecMode::Slipstream, Some(SlipSync::G0))
        );
        assert_eq!(
            parse_mode("slip-L1").unwrap(),
            (ExecMode::Slipstream, Some(SlipSync::L1))
        );
        assert!(parse_mode("slip-X3").is_err());
        assert!(parse_mode("triple").is_err());
    }
}
