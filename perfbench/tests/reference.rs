//! Reference self-test and worker-count determinism at paper scale.
//!
//! At the Jaguar seed every workload must reproduce its committed figure
//! row, so a drift in a workload's definition fails here. Its virtual
//! results must also be bitwise identical at 1 and 2 fiber-executor
//! workers. Each test runs paper-scale clusters (up to ~5 GB peak for
//! `btio_iview`), so the tests take turns.

use perfbench::workload::{run, Workload, JAGUAR_SEED};
use std::sync::Mutex;
use std::time::Instant;

/// The worker count is process-wide and the workloads are large: one
/// test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn check(w: Workload) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sink = simtrace::TraceSink::disabled();
    simnet::set_workers(2);
    // At the Jaguar seed `run` checks the committed rows itself.
    let two = run(w, JAGUAR_SEED, &sink, Instant::now());
    assert!(!w.references().is_empty());
    assert!(two.errors.is_empty(), "{}: {:?}", w.name(), two.errors);
    simnet::set_workers(1);
    let one = run(w, JAGUAR_SEED, &sink, Instant::now());
    assert!(one.errors.is_empty(), "{}: {:?}", w.name(), one.errors);
    assert_eq!(
        one.digest,
        two.digest,
        "{}: virtual results differ between 1 and 2 workers",
        w.name()
    );
}

#[test]
fn tile_wall_reproduces_fig1_at_any_worker_count() {
    check(Workload::TileWall);
}

#[test]
fn btio_iview_reproduces_fig10_at_any_worker_count() {
    check(Workload::BtioIview);
}

#[test]
fn restart_reproduces_read_sweep_at_any_worker_count() {
    check(Workload::Restart);
}

#[test]
fn seeds_change_virtual_results() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    simnet::set_workers(2);
    let sink = simtrace::TraceSink::disabled();
    let a = run(Workload::TileWall, JAGUAR_SEED, &sink, Instant::now());
    let b = run(Workload::TileWall, 7, &sink, Instant::now());
    assert_ne!(a.digest, b.digest, "FsConfig.seed must reach the OSTs");
}
