//! Fault-injection contracts (DESIGN.md §10).
//!
//! Two properties anchor the chaos subsystem:
//!
//! 1. **Seeded determinism** — a `FaultPlan` is part of the run
//!    configuration, so two runs with the same plan produce
//!    byte-identical trace and metrics JSON, exactly like the
//!    fault-free determinism contract in `trace_determinism.rs`.
//! 2. **Correctness under degradation** — killing any single
//!    aggregator at any collective write round must leave the file
//!    image byte-identical to the fault-free run: the survivors adopt
//!    the dead aggregator's file domain and replay its cursor state.

use mpiio::File;
use proptest::prelude::*;
use simfs::{FileSystem, FsConfig};
use simmpi::{Communicator, Info};
use simnet::{run_cluster, ClusterConfig, FaultPlan, IoBuffer, Mapping, SimTime};
use simtrace::{chrome_trace_json, metrics_json, TraceSink};
use std::sync::Arc;
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

// ---------------------------------------------------------------------
// Seeded determinism through the full workload runner.
// ---------------------------------------------------------------------

fn traced_fault_run(mode: IoMode, plan: FaultPlan) -> (String, String) {
    let sink = TraceSink::enabled();
    let mut cfg = RunConfig::paper(mode);
    // A small collective buffer forces several exchange rounds per call
    // so round-indexed faults (crashes) have rounds to land in.
    cfg.info.set("cb_nodes", 4i64);
    cfg.info.set("cb_buffer_size", 128i64);
    cfg.trace = sink.clone();
    cfg.faults = Some(Arc::new(plan));
    run_workload(TileIo::tiny(16), cfg);
    let trace = sink.finish();
    (chrome_trace_json(&trace), metrics_json(&trace))
}

/// The kitchen-sink plan: lossy jittery network, slow then flaky OSTs,
/// one straggler rank, one mid-call aggregator crash.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(0x5EED)
        .msg_drop(0.05, None, None)
        .msg_delay_jitter(0.3, 0.5)
        .ost_slow(None, 2.0, SimTime::ZERO, SimTime::millis(20.0))
        .ost_fail_after(0, 8, 2)
        .rank_stall(1, "write_all", SimTime::millis(5.0))
        .aggregator_crash(0, 1)
}

fn assert_fault_reproducible(mode: IoMode) -> String {
    let (trace_a, metrics_a) = traced_fault_run(mode, chaos_plan());
    let (trace_b, metrics_b) = traced_fault_run(mode, chaos_plan());
    assert!(
        trace_a.len() > 1000,
        "a 16-rank faulted collective write should produce a substantial trace"
    );
    assert_eq!(trace_a, trace_b, "trace JSON must be byte-identical");
    assert_eq!(metrics_a, metrics_b, "metrics JSON must be byte-identical");
    trace_a
}

#[test]
fn chaos_collective_runs_are_reproducible() {
    let trace = assert_fault_reproducible(IoMode::Collective);
    // The crash rule fires mid-call, so the failover must be priced on
    // the timeline where critical-path attribution can see it.
    assert!(
        trace.contains("\"recovery\""),
        "aggregator crash must surface a recovery span"
    );
}

#[test]
fn chaos_parcoll_runs_are_reproducible() {
    // ParColl layers subgroup regrouping and the dead-set exchange on
    // top of the same fault substrate — still byte-reproducible.
    assert_fault_reproducible(IoMode::Parcoll { groups: 4 });
}

// ---------------------------------------------------------------------
// Degraded-mode correctness: single-aggregator crash at any round.
// ---------------------------------------------------------------------

const RANKS: usize = 8;
const PER_CALL: usize = 512; // bytes per rank per collective call
const CALLS: usize = 2;

fn fill(rank: usize, call: usize, n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (rank as u8) ^ (call as u8).wrapping_mul(0x3D) ^ (i as u8).wrapping_mul(0x9E))
        .collect()
}

/// Run an 8-rank collective write (4 aggregators, several rounds per
/// call) with an optional aggregator crash, and return the whole file
/// image as read back from the simulated file system.
fn file_image(crash: Option<(usize, u64)>) -> Vec<u8> {
    let fs = FileSystem::new(FsConfig::tiny());
    let fs2 = fs.clone();
    let mut cluster = ClusterConfig::cray_xt(RANKS, Mapping::Block);
    if let Some((rank, round)) = crash {
        let plan = Arc::new(FaultPlan::new(0xFEED).aggregator_crash(rank, round));
        fs.install_faults(&plan);
        cluster.faults = Some(plan);
    }
    let outs = run_cluster(cluster, move |ep| {
        let comm = Communicator::world(&ep);
        let info = Info::new().with("cb_nodes", 4).with("cb_buffer_size", 256);
        let mut fh = File::open(&comm, &fs2, "/img", &info);
        for call in 0..CALLS {
            let off = ((call * RANKS + comm.rank()) * PER_CALL) as u64;
            fh.write_at_all(off, &IoBuffer::from_vec(fill(comm.rank(), call, PER_CALL)));
        }
        comm.barrier();
        let img = (comm.rank() == 0).then(|| {
            let (buf, _) = fh.handle().read_at(0, CALLS * RANKS * PER_CALL, ep.now());
            buf.as_slice().unwrap().to_vec()
        });
        fh.close();
        img
    });
    outs.into_iter().flatten().next().expect("rank 0 image")
}

fn expected_image() -> Vec<u8> {
    let mut img = Vec::with_capacity(CALLS * RANKS * PER_CALL);
    for call in 0..CALLS {
        for rank in 0..RANKS {
            img.extend_from_slice(&fill(rank, call, PER_CALL));
        }
    }
    img
}

#[test]
fn fault_free_harness_writes_expected_image() {
    assert_eq!(file_image(None), expected_image());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crash any one of the four aggregators (ranks 0,2,4,6 under block
    /// mapping) at an arbitrary write round. Each call runs 4 rounds
    /// (1 KiB domain / 256 B buffer), so rounds 0..8 span both calls:
    /// setup-time pre-marks (round already passed at entry) and
    /// mid-call failovers both occur across the sampled space. Rounds
    /// past the end degenerate to the fault-free run — also correct.
    #[test]
    fn single_aggregator_crash_preserves_file_image(agg in 0usize..4, round in 0u64..9) {
        let img = file_image(Some((agg * 2, round)));
        prop_assert_eq!(img, expected_image());
    }
}

// ---------------------------------------------------------------------
// Compound failures: crashes during recovery, crashes during repair.
// ---------------------------------------------------------------------

/// Like [`file_image`] but with an arbitrary plan and optional piece
/// checksums.
fn file_image_plan(plan: FaultPlan, checksums: bool) -> Vec<u8> {
    let mut fs_cfg = FsConfig::tiny();
    fs_cfg.integrity = checksums;
    let fs = FileSystem::new(fs_cfg);
    let fs2 = fs.clone();
    let mut cluster = ClusterConfig::cray_xt(RANKS, Mapping::Block);
    let plan = Arc::new(plan);
    fs.install_faults(&plan);
    cluster.faults = Some(plan);
    let outs = run_cluster(cluster, move |ep| {
        let comm = Communicator::world(&ep);
        let mut info = Info::new().with("cb_nodes", 4).with("cb_buffer_size", 256);
        if checksums {
            info = info.with("integrity_checksums", "enable");
        }
        let mut fh = File::open(&comm, &fs2, "/img", &info);
        for call in 0..CALLS {
            let off = ((call * RANKS + comm.rank()) * PER_CALL) as u64;
            fh.write_at_all(off, &IoBuffer::from_vec(fill(comm.rank(), call, PER_CALL)));
        }
        comm.barrier();
        let img = (comm.rank() == 0).then(|| {
            let (buf, _) = fh.handle().read_at(0, CALLS * RANKS * PER_CALL, ep.now());
            buf.as_slice().unwrap().to_vec()
        });
        fh.close();
        img
    });
    outs.into_iter().flatten().next().expect("rank 0 image")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crash an aggregator, then crash the rank that adopted its domain
    /// (the next surviving aggregator, wrapping). The adopted domain
    /// must re-home onto a third rank with its replay cursors intact.
    /// `gap == 0` is the simultaneous case: both die in one detection
    /// round and successor selection must skip the fresh corpse.
    #[test]
    fn successor_crash_during_recovery_preserves_file_image(
        agg in 0usize..4,
        round in 0u64..7,
        gap in 0u64..3,
    ) {
        let successor = (agg + 1) % 4;
        let plan = FaultPlan::new(0xFEED)
            .aggregator_crash(agg * 2, round)
            .aggregator_crash(successor * 2, round + gap);
        let img = file_image_plan(plan, false);
        prop_assert_eq!(img, expected_image());
    }

    /// Aggregator crashes while the exchange is also repairing corrupted
    /// pieces: the failover re-dissemination, the adopted-window
    /// exchanges, and the torn-write heal all run under the checksum
    /// protocol, over every (crash round, corruption seed) pair.
    #[test]
    fn crash_while_repairing_preserves_file_image(
        agg in 0usize..4,
        round in 0u64..9,
        torn in any::<bool>(),
        seed in 0u64..1u64 << 40,
    ) {
        let plan = FaultPlan::new(seed).msg_corrupt(0.4, None, None);
        let plan = if torn && round >= 1 {
            plan.torn_write(agg * 2, round)
        } else {
            plan.aggregator_crash(agg * 2, round)
        };
        let img = file_image_plan(plan, true);
        prop_assert_eq!(img, expected_image());
    }
}
