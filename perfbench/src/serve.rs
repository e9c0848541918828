//! `serve-mixed`: an open loop of jobs against an in-process
//! `sim_serve::Server` running `bench::serve::BenchRunner` with one job
//! worker, a journal and an in-memory result cache, fresh for every
//! pass. Jobs arrive at [`RATE_PER_S`] with seeded exponential gaps. The
//! mix is tiny-preset specs on the small machine: repeats of earlier
//! specs (cache hits), fresh fault-seeded specs (misses) and warm-forked
//! fault-seeded specs that share a snapshot, in the proportions of
//! [`DECK`]; each pass serves the same jobs in its own seeded order.
//! Every payload must equal, byte for byte, the
//! row the same simulation gives when run directly in process.
//!
//! Two client threads with one connection each: the generator submits
//! on schedule (and fetches cache hits itself), the collector waits for
//! the other results in submission order, which is the order a single
//! FIFO worker finishes them.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bench::serve::{parse_mode, BenchRunner, SuiteRow};
use bench::small_machine;
use dsm_sim::{AddressMap, Cycle};
use npb_kernels::Benchmark;
use sim_serve::{Client, JobControl, JobRunner, ServeOptions, Server};
use sim_trace::json::JsonValue;
use slipstream::{compile, CompiledProgram, FaultPlan};

use crate::common::{self, Corrupt, Ctx, EndToEnd, Metric, Outcome, Pass, Rng, ServeLayer};
use crate::ops::{self, Counters, Sim};
use crate::tracer::{self, Tracer};

/// Arrival rate of the open loop, jobs per second.
pub const RATE_PER_S: f64 = 100.0;
/// Jobs in one pass: 2.5 s at [`RATE_PER_S`], so that a run holds a
/// dozen passes (see `EndToEnd::metrics`) while each pass's p95 still
/// has a dozen jobs beyond it.
pub const PASS_JOBS: usize = 250;
const MODES: [&str; 4] = ["single", "double", "slip-L1", "slip-G0"];
const FAULT_TEAM: u64 = 4;
const SUBMIT: &str = "sim-serve.submit";
const RESULT: &str = "sim-serve.result";
const JOB: &str = "sim-serve.job";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Warm,
}

/// One distinct simulation the job list asks for.
#[derive(Clone)]
struct Spec {
    bench: Benchmark,
    mode: &'static str,
    fault_seed: u64,
    fault_events: u64,
    warm_cycles: Cycle,
}

impl Spec {
    fn json(&self) -> String {
        format!(
            "{{\"kind\":\"run\",\"bench\":\"{}\",\"preset\":\"tiny\",\"machine\":\"small\",\
             \"mode\":\"{}\",\"fault_seed\":{},\"fault_team\":{FAULT_TEAM},\"fault_events\":{},\
             \"warm_cycles\":{}}}",
            self.bench.name(),
            self.mode,
            self.fault_seed,
            self.fault_events,
            self.warm_cycles,
        )
    }

    fn from_json(v: &JsonValue) -> Option<Spec> {
        let num = |k: &str| v.get(k).and_then(|x| x.as_num()).map(|n| n as u64);
        let bench = v.get("bench")?.as_str()?;
        let mode = v.get("mode")?.as_str()?;
        Some(Spec {
            bench: *Benchmark::ALL.iter().find(|b| b.name() == bench)?,
            mode: MODES.iter().find(|m| **m == mode)?,
            fault_seed: num("fault_seed")?,
            fault_events: num("fault_events")?,
            warm_cycles: num("warm_cycles")?,
        })
    }

    fn sim(&self, faults: FaultPlan) -> Sim {
        let (mode, sync) = parse_mode(self.mode).expect("known mode label");
        Sim {
            program: Arc::new(self.bench.build_tiny()),
            machine: small_machine(),
            mode,
            sync,
            faults,
        }
    }

    fn plan(&self) -> FaultPlan {
        FaultPlan::random(self.fault_seed, FAULT_TEAM, self.fault_events as usize)
    }

    /// Key of the fault-free warm-up snapshot this spec forks from.
    fn warm_key(&self) -> (Benchmark, &'static str, Cycle) {
        (self.bench, self.mode, self.warm_cycles)
    }
}

/// Shared fault-free warm-up snapshots, by (kernel, mode, boundary).
type Snapshots = Mutex<HashMap<(Benchmark, &'static str, Cycle), Arc<Vec<u8>>>>;

/// Run `spec` the way the daemon's runner does, through the operations
/// of [`ops`]: fork from the shared warm-up snapshot, or run cold.
fn simulate(
    spec: &Spec,
    snapshots: &Snapshots,
    t: Option<&Tracer>,
    run: u64,
    counters: &mut Counters,
) -> Result<String, String> {
    let (s, work) = if spec.warm_cycles > 0 {
        let cached = snapshots
            .lock()
            .expect("snapshot store")
            .get(&spec.warm_key())
            .cloned();
        let bytes = match cached {
            Some(b) => b,
            None => {
                let (cp, work) =
                    ops::checkpoint(&spec.sim(FaultPlan::none()), spec.warm_cycles, t, run)?;
                counters.add_work(&work);
                let b = Arc::new(cp.bytes);
                snapshots
                    .lock()
                    .expect("snapshot store")
                    .insert(spec.warm_key(), b.clone());
                b
            }
        };
        ops::resume(&spec.sim(spec.plan()), &bytes, t, run)?
    } else {
        ops::run(&spec.sim(spec.plan()), t, run)?
    };
    counters.add_work(&work);
    counters.add_result(&s.raw);
    Ok(SuiteRow::from_summary(&s).to_payload())
}

/// The daemon's runner rebuilt from public parts, with spans around each
/// layer call; used by traced passes in place of [`BenchRunner`].
struct TracedRunner {
    keys: BenchRunner,
    tracer: Arc<Tracer>,
    snapshots: Snapshots,
    counters: Arc<Mutex<Counters>>,
    next_run: AtomicU64,
}

impl JobRunner for TracedRunner {
    fn config_key(&self, spec: &JsonValue) -> Result<Option<String>, String> {
        self.keys.config_key(spec)
    }

    fn run(&self, spec: &JsonValue, _ctl: &JobControl) -> Result<String, String> {
        let run = self.next_run.fetch_add(1, Ordering::Relaxed);
        self.tracer.span(JOB, run, || {
            let spec = Spec::from_json(spec).ok_or("spec outside the benchmark's vocabulary")?;
            // One job worker: the lock is never contended.
            let mut counters = self.counters.lock().expect("counters");
            simulate(
                &spec,
                &self.snapshots,
                Some(&self.tracer),
                run,
                &mut counters,
            )
        })
    }
}

/// The job mix, one deck of 82 run jobs. It is the run-job stream of
/// the repository's serving smoke test (the CI `serve-smoke` job):
/// `serve_batch` submits 8 batch runs, 1 resubmit (a hit), 1 warm start,
/// 8 cold and 8 warm fault-sweep runs, then `all_experiments` goes
/// through one daemon twice (28 misses, then the same 28 as hits). Every
/// fresh spec here carries a seeded fault plan, because only 20
/// fault-free tiny specs exist and their repeats would be cache hits.
const DECK: [(Kind, usize); 3] = [(Kind::Hit, 29), (Kind::Miss, 44), (Kind::Warm, 9)];
/// Most fault events per job, as the smoke test's fault sweep asks.
const FAULT_EVENTS: u64 = 4;

/// A fault seed for `spec` whose plan fires no event before
/// `spec.warm_cycles`, so that a warm fork loses none of its faults:
/// seeds are drawn until the plan-swap probe accepts one.
fn seed_after_warmup(spec: &Spec, cp: &CompiledProgram, rng: &mut Rng) -> u64 {
    let base = spec.sim(FaultPlan::none());
    (0..10_000)
        .map(|_| rng.next() >> 12)
        .find(|&seed| {
            let plan = FaultPlan::random(seed, FAULT_TEAM, FAULT_EVENTS as usize);
            !ops::fires_before(&base, cp, plan, spec.warm_cycles)
        })
        .expect("some fault plan fires after the warm-up")
}

/// Generate the specs and the job list (the spec each job submits) from
/// the seed.
fn build_jobs(seed: u64) -> (Vec<Spec>, Vec<usize>) {
    let mut rng = Rng::new(seed, 0x5E7E);
    let map = AddressMap::new(&small_machine());
    let compiled: HashMap<Benchmark, CompiledProgram> = Benchmark::ALL
        .iter()
        .map(|&bm| {
            (
                bm,
                compile(&bm.build_tiny(), &map).expect("tiny programs compile"),
            )
        })
        .collect();
    // Each (kernel, mode) gets one warm-up boundary inside its run.
    let mut warm_at: HashMap<(Benchmark, &'static str), Cycle> = HashMap::new();
    for bm in Benchmark::ALL {
        for mode in MODES {
            let probe = Spec {
                bench: bm,
                mode,
                fault_seed: 0,
                fault_events: 0,
                warm_cycles: 0,
            };
            let (s, _) = ops::run(&probe.sim(FaultPlan::none()), None, 0).expect("fault-free run");
            warm_at.insert((bm, mode), s.exec_cycles * (45 + rng.below(10)) / 100);
        }
    }
    let pairs: Vec<(Benchmark, &'static str)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| MODES.map(|m| (b, m)))
        .collect();
    let mut pair_deck: Vec<(Benchmark, &'static str)> = Vec::new();
    let mut kind_deck: Vec<Kind> = Vec::new();
    let mut specs: Vec<Spec> = Vec::new();
    let mut jobs = Vec::with_capacity(PASS_JOBS);
    for _ in 0..PASS_JOBS {
        if kind_deck.is_empty() {
            kind_deck = DECK
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
                .collect();
            rng.shuffle(&mut kind_deck);
        }
        let mut kind = kind_deck.pop().expect("refilled");
        if kind == Kind::Hit && specs.is_empty() {
            kind = Kind::Miss;
        }
        let spec = if kind == Kind::Hit {
            rng.below(specs.len() as u64) as usize
        } else {
            if pair_deck.is_empty() {
                pair_deck = pairs.clone();
                rng.shuffle(&mut pair_deck);
            }
            let (bench, mode) = pair_deck.pop().expect("refilled");
            let mut spec = Spec {
                bench,
                mode,
                fault_seed: 0,
                fault_events: FAULT_EVENTS,
                warm_cycles: if kind == Kind::Warm {
                    warm_at[&(bench, mode)]
                } else {
                    0
                },
            };
            spec.fault_seed = if kind == Kind::Warm {
                seed_after_warmup(&spec, &compiled[&bench], &mut rng)
            } else {
                rng.next() >> 12
            };
            specs.push(spec);
            specs.len() - 1
        };
        jobs.push(spec);
    }
    (specs, jobs)
}

/// Due times of pass `pass`, after the pass starts: seeded exponential
/// gaps, drawn afresh for every pass and scaled so that each pass lasts
/// exactly `PASS_JOBS / RATE_PER_S` seconds.
fn arrivals(seed: u64, pass: usize) -> Vec<Duration> {
    let mut rng = Rng::new(seed, 0xA77 + pass as u64);
    let mut at = 0.0f64;
    let mut due = Vec::with_capacity(PASS_JOBS);
    for _ in 0..PASS_JOBS {
        due.push(at);
        at += -(1.0 - rng.unit()).ln() / RATE_PER_S;
    }
    let scale = PASS_JOBS as f64 / RATE_PER_S / at;
    due.into_iter()
        .map(|d| Duration::from_secs_f64(d * scale))
        .collect()
}

/// How one job went.
struct Done {
    ms: f64,
    cached: bool,
    /// The job finished and its payload equals the direct row.
    ok: bool,
}

/// What one open-loop pass saw beyond its [`Pass`] record.
struct Served {
    done: Vec<Done>,
    lag_ms: Vec<f64>,
    stats: sim_serve::ServeStats,
    journal_bytes: u64,
}

fn serve_options(dir: &Path) -> ServeOptions {
    ServeOptions {
        workers: 1,
        cache_cap: 4 * PASS_JOBS,
        cache_dir: None,
        journal: Some(dir.join("journal.wal")),
        journal_sync: false,
        max_queue: 0,
        max_live_per_conn: 0,
    }
}

/// An empty directory for one daemon's journal.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("work dir {}: {e}", dir.display()))
}

/// Bind a daemon journaling under `dir` and connect both clients.
fn bind(dir: &Path, runner: Box<dyn JobRunner>) -> Result<(Server, Client, Client), String> {
    let server = Server::bind("127.0.0.1:0", runner, serve_options(dir))?;
    let addr = server.local_addr().to_string();
    let gen = Client::connect(&addr)?;
    let col = Client::connect(&addr)?;
    Ok((server, gen, col))
}

fn one_pass(
    ctx: &Ctx,
    index: usize,
    traced: bool,
    specs: &[Spec],
    jobs: &[usize],
    direct: &[Option<String>],
) -> Result<(Pass, Served), String> {
    let dir = ctx.work_dir.join(format!("pass-{index}"));
    let tracer = Arc::new(Tracer::new());
    let counters = Arc::new(Mutex::new(Counters::default()));
    let runner: Box<dyn JobRunner> = if traced {
        Box::new(TracedRunner {
            keys: BenchRunner::new(),
            tracer: tracer.clone(),
            snapshots: Mutex::new(HashMap::new()),
            counters: counters.clone(),
            next_run: AtomicU64::new(0),
        })
    } else {
        Box::new(BenchRunner::new())
    };
    fresh_dir(&dir)?;
    let (server, mut gen, mut col) = bind(&dir, runner)?;
    let t = traced.then_some(&*tracer);
    let json: Vec<String> = specs.iter().map(Spec::json).collect();
    let stall_at = (ctx.corrupt == Some(Corrupt::Stall) && index == 0).then_some(jobs.len() / 4);

    let due_after = arrivals(ctx.seed, index);
    // Every pass serves the same jobs, each pass in its own seeded order,
    // so that the runs of adjacent slow jobs in one order do not set the
    // tail of every pass. Reordering keeps each spec's number of jobs,
    // so the distinct specs (misses), repeats (hits) and work counters
    // stay the same.
    let mut jobs = jobs.to_vec();
    Rng::new(ctx.seed, 0x0DE + index as u64).shuffle(&mut jobs);
    let start = Instant::now() + Duration::from_millis(20);
    let mut lag_ms = Vec::with_capacity(jobs.len());
    let mut got: Vec<Option<(f64, bool, Option<String>)>> = (0..jobs.len()).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, u64)>();
    let collected = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Vec::new();
            for (i, id) in rx {
                let r = tracer::maybe_span(t, RESULT, i as u64, || col.result(id));
                out.push((i, Instant::now(), r));
            }
            (out, col)
        });
        for (i, (&spec, &after)) in jobs.iter().zip(&due_after).enumerate() {
            if stall_at == Some(i) {
                std::thread::sleep(Duration::from_millis(1500));
            }
            let due = start + after;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let ack = tracer::maybe_span(t, SUBMIT, i as u64, || gen.submit(&json[spec], 0, None));
            match ack {
                Ok(ack) if ack.cached => {
                    let r = tracer::maybe_span(t, RESULT, i as u64, || gen.result(ack.id));
                    got[i] = Some((ms_since(due), true, payload(r)));
                }
                Ok(ack) => tx.send((i, ack.id)).expect("collector alive"),
                Err(e) => {
                    eprintln!("serve-mixed: submit failed: {e}");
                    got[i] = Some((ms_since(due), false, None));
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let (results, col) = collected;
    let wall = start.elapsed();
    for (i, at, r) in results {
        let ms = at.duration_since(start + due_after[i]).as_secs_f64() * 1e3;
        got[i] = Some((ms, false, payload(r)));
    }
    let (stats, _) = gen.stats()?;
    let journal_bytes = std::fs::metadata(dir.join("journal.wal")).map_or(0, |m| m.len());
    drop((gen, col));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    // Check every payload against its direct row, outside the timed window.
    let done = got
        .into_iter()
        .zip(&jobs)
        .enumerate()
        .map(|(i, (g, &spec))| {
            let (ms, cached, mut payload) = g.expect("every job answered");
            if ctx.corrupt == Some(Corrupt::Payload) && index == 0 && i == 0 {
                payload = payload.map(flip_first_byte);
            }
            let ok = payload.is_some() && payload == direct[spec];
            if !ok {
                eprintln!("serve-mixed: job {i} of pass {index} differs from its direct row");
            }
            Done { ms, cached, ok }
        })
        .collect();
    let counters = *counters.lock().expect("counters");
    let pass = Pass {
        traced,
        wall,
        counters: traced.then_some(counters),
        spans: tracer.take(),
    };
    Ok((
        pass,
        Served {
            done,
            lag_ms,
            stats,
            journal_bytes,
        },
    ))
}

fn ms_since(due: Instant) -> f64 {
    due.elapsed().as_secs_f64() * 1e3
}

/// The payload of a finished job; `None` for any other ending.
fn payload(r: Result<sim_serve::JobOutcome, String>) -> Option<String> {
    match r {
        Ok(o) if o.state == "done" => o.payload,
        Ok(o) => {
            eprintln!("serve-mixed: job {} ended {}: {:?}", o.id, o.state, o.error);
            None
        }
        Err(e) => {
            eprintln!("serve-mixed: result failed: {e}");
            None
        }
    }
}

fn flip_first_byte(p: String) -> String {
    let mut bytes = p.into_bytes();
    if let Some(b) = bytes.first_mut() {
        *b ^= 1;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Seconds to bind a daemon, open its journal and connect both clients,
/// [`common::SETUP_REPS`] times.
fn setup_times(ctx: &Ctx) -> Vec<f64> {
    let mut setup = Vec::new();
    for rep in 0..common::SETUP_REPS {
        let dir = ctx.work_dir.join(format!("setup-{rep}"));
        fresh_dir(&dir).expect("work dir");
        let t0 = Instant::now();
        let (server, a, b) = bind(&dir, Box::new(BenchRunner::new())).expect("daemon binds");
        setup.push(t0.elapsed().as_secs_f64());
        drop((a, b));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    setup
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut setup = setup_times(ctx);
    let (specs, jobs) = build_jobs(ctx.seed);
    // The direct in-process row of every spec, outside the timed window.
    let snapshots = Mutex::new(HashMap::new());
    let mut scratch = Counters::default();
    let direct: Vec<Option<String>> = specs
        .iter()
        .map(|s| simulate(s, &snapshots, None, 0, &mut scratch).ok())
        .collect();
    drop(snapshots);

    let mut served: Vec<Served> = Vec::new();
    let passes = common::schedule(ctx, 2, |traced| {
        let (pass, sp) =
            one_pass(ctx, served.len(), traced, &specs, &jobs, &direct).expect("serving pass");
        served.push(sp);
        pass
    });

    let (mut attempted, mut failed, mut within) = (0u64, 0u64, 0u64);
    let mut job_ms = Vec::new();
    for (pass, sp) in passes.iter().zip(&served) {
        for d in &sp.done {
            attempted += 1;
            failed += u64::from(!d.ok);
            if !pass.traced {
                within += u64::from(d.ok && d.ms <= ctx.limit_ms);
            }
        }
        if !pass.traced {
            job_ms.push(sp.done.iter().map(|d| d.ms).collect());
        }
    }
    failed += common::drifted("serve-mixed", &passes);
    setup.extend(setup_times(ctx));

    let metrics = if ctx.trace {
        layer_rows(&passes, &served)
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

/// The per-layer rows of a traced serving run.
fn layer_rows(passes: &[Pass], served: &[Served]) -> Vec<Metric> {
    let lat = |traced: bool, pick: &dyn Fn(&Done) -> bool| -> Vec<f64> {
        passes
            .iter()
            .zip(served)
            .filter(|(p, _)| p.traced == traced)
            .flat_map(|(_, sp)| sp.done.iter().filter(|d| pick(d)).map(|d| d.ms))
            .collect()
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let overhead = mean(lat(true, &|_| true)) / mean(lat(false, &|_| true)) - 1.0;
    let traced: Vec<&Served> = passes
        .iter()
        .zip(served)
        .filter(|(p, _)| p.traced)
        .map(|(_, sp)| sp)
        .collect();
    let stat = |f: &dyn Fn(&Served) -> f64| {
        common::median(&traced.iter().map(|sp| f(sp)).collect::<Vec<_>>())
    };
    let ack: Vec<f64> = passes
        .iter()
        .filter(|p| p.traced)
        .flat_map(|p| tracer::durations_ms(&p.spans, SUBMIT))
        .collect();
    let serve = ServeLayer {
        ack_ms_p50: common::median(&ack),
        hit_ms_p50: common::median(&lat(true, &|d| d.cached)),
        miss_ms_p50: common::median(&lat(true, &|d| !d.cached)),
        cache_hit_frac: stat(&|sp| sp.stats.cache_hits as f64 / sp.stats.submitted.max(1) as f64),
        coalesced: stat(&|sp| sp.stats.coalesced as f64),
        busy_rejects: stat(&|sp| sp.stats.busy_rejected as f64),
        journal_bytes: stat(&|sp| sp.journal_bytes as f64),
        gen_lag_ms_p95: common::quantile(
            &served
                .iter()
                .flat_map(|sp| sp.lag_ms.iter().copied())
                .collect::<Vec<_>>(),
            0.95,
        ),
    };
    common::layer_metrics(passes, overhead, serve)
}
