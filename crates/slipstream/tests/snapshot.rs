//! Snapshot decoding of crafted input: a checksummed envelope only stops
//! accidents, so `resume_program` must reject semantically invalid
//! payloads with an error instead of panicking in the event loop.

use dsm_sim::MachineConfig;
use npb_kernels::Benchmark;
use omp_rt::{ExecMode, SlipSync};
use slipstream::runner::{checkpoint_program, resume_program, RunOptions};
use slipstream::SNAPSHOT_VERSION;

fn tiny_opts() -> RunOptions {
    let mut machine = MachineConfig::paper();
    machine.num_cmps = 4;
    RunOptions::new(ExecMode::Slipstream)
        .with_machine(machine)
        .with_sync(SlipSync::G0)
}

/// A real mid-run checkpoint's payload (envelope stripped).
fn checkpoint_payload(program: &omp_ir::Program, opts: &RunOptions) -> Vec<u8> {
    let cp = checkpoint_program(program, opts, 20_000).expect("checkpoint");
    assert!(!cp.finished, "the checkpoint must land mid-run");
    snap::open(&cp.bytes, SNAPSHOT_VERSION)
        .expect("own snapshot opens")
        .to_vec()
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// Byte offset of the first queued event's CPU id. The payload opens
/// with the identity hash, the fault-plan hash, the fault-fired ledger
/// (length + one byte per fault), then the event queue (length +
/// `(time, seq, cpu)` per event).
fn first_event_cpu_offset(payload: &[u8]) -> usize {
    let fired = read_u64(payload, 16) as usize;
    let events_at = 24 + fired;
    assert!(read_u64(payload, events_at) > 0, "queue must hold an event");
    events_at + 8 + 16
}

#[test]
fn out_of_range_event_cpu_is_an_error_not_a_panic() {
    let program = Benchmark::Cg.build_tiny();
    let opts = tiny_opts();
    let payload = checkpoint_payload(&program, &opts);
    let at = first_event_cpu_offset(&payload);
    let ncpus = opts.machine.num_cpus() as u64;
    assert!(read_u64(&payload, at) < ncpus, "offset must hit a CPU id");
    for bad in [ncpus, 999] {
        let mut crafted = payload.clone();
        crafted[at..at + 8].copy_from_slice(&bad.to_le_bytes());
        let sealed = snap::seal(SNAPSHOT_VERSION, &crafted);
        let outcome =
            std::panic::catch_unwind(|| resume_program(&program, &opts, &sealed).map(|_| ()));
        let err = outcome
            .unwrap_or_else(|_| panic!("cpu {bad}: resume panicked"))
            .expect_err("an event for a missing processor must be refused");
        assert!(
            err.contains(&format!("cpu {bad}")),
            "unexpected error: {err}"
        );
    }
    // The untouched payload still resumes.
    let sealed = snap::seal(SNAPSHOT_VERSION, &payload);
    resume_program(&program, &opts, &sealed).expect("valid snapshot resumes");
}

#[test]
fn version_one_snapshots_are_refused() {
    let program = Benchmark::Cg.build_tiny();
    let opts = tiny_opts();
    let payload = checkpoint_payload(&program, &opts);
    let old = snap::seal(1, &payload);
    let err = resume_program(&program, &opts, &old).expect_err("version 1 must be refused");
    assert!(err.contains("version"), "unexpected error: {err}");
}
