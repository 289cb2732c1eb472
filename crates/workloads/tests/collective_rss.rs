//! Collective-state RSS gate (DESIGN.md §9.2).
//!
//! A rank's collective-I/O state must scale with its own bytes plus P,
//! not with the job's: a synthetic collective read may not materialize
//! its read-back buffer, and the default intermediate file view may not
//! give every rank a copy of every rank's extent list. Both regressions
//! are invisible in virtual time and only show as host memory, so this
//! gate reads the process's peak resident set (`VmHWM` in
//! `/proc/self/status`) around each phase.
//!
//! `VmHWM` is process-wide, which is why this file holds a single test
//! and CI runs it as its own step:
//!
//! ```text
//! cargo test --release -p workloads --test collective_rss
//! ```

use mpiio::{AccessPlan, FileView};
use workloads::btio::BtIo;
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;
use workloads::Workload;

/// The process's peak resident set, in bytes.
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .expect("VmHWM value")
        .parse()
        .expect("VmHWM number");
    kb * 1024
}

/// Peak-RSS growth across `f`. The high-water mark is first reset to
/// the current RSS (`clear_refs` 5) so each phase is measured on its
/// own; where the reset is refused the mark stays where it was, and the
/// growth reported is only ever an underestimate.
#[cfg(target_os = "linux")]
fn peak_rss_growth(f: impl FnOnce()) -> u64 {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let before = peak_rss_bytes();
    f();
    peak_rss_bytes().saturating_sub(before)
}

#[cfg(target_os = "linux")]
#[test]
fn collective_state_scales_with_own_bytes() {
    const MIB: u64 = 1 << 20;

    // Phase 1: a synthetic collective read-back of 1 GiB across 64 ranks
    // (16 MiB tiles). The read moves no real byte, so no rank may hold a
    // real buffer of its plan's size.
    let tiles = TileIo {
        ntx: 8,
        nty: 8,
        tile_x: 512,
        tile_y: 512,
        elem: 64,
    };
    let read_total = tiles.total_bytes();
    assert!(read_total >= 1 << 30);
    let mut cfg = RunConfig::paper(IoMode::Collective);
    cfg.read_back = true;
    let read_grew = peak_rss_growth(|| {
        let r = run_workload(tiles, cfg);
        assert!(r.read_mbps.is_some_and(|v| v > 0.0), "read-back ran");
    });

    // Phase 2: a BT-IO intermediate-view write at 144 ranks (class C
    // grid, one step; ParColl-12 cannot cut BT-IO's diagonal layout, so
    // it switches views). One copy of every rank's extents per rank is
    // the working set the default view must not build.
    let bt = BtIo::with_grid(144, 162, 1);
    let extents: u64 = (0..bt.nprocs())
        .map(|r| {
            let (disp, ft) = bt.view(r);
            let (off, bytes) = bt.call(r, 0);
            AccessPlan::from_view(&FileView::new(disp, &ft), off, bytes)
                .extents
                .len() as u64
        })
        .sum();
    // A `LogicalMap` holds 16 B per extent plus an 8 B prefix entry.
    let map_copies = bt.nprocs() as u64 * extents * 24;
    let iview_grew = peak_rss_growth(|| {
        let r = run_workload(bt, RunConfig::paper(IoMode::Parcoll { groups: 12 }));
        assert!(r.write_mbps > 0.0, "iview write ran");
    });

    // Far under either working set: what remains is fiber stacks, the
    // one shared copy of the gathered lists and per-rank plans.
    let budget = 192 * MIB;
    assert!(
        budget * 4 < read_total.min(map_copies),
        "budget must stay far under the working sets"
    );
    assert!(
        read_grew < budget,
        "peak RSS grew {} MiB during a synthetic {} MiB collective read",
        read_grew / MIB,
        read_total / MIB
    );
    assert!(
        iview_grew < budget,
        "peak RSS grew {} MiB during an intermediate-view write whose per-rank \
         map copies would total {} MiB",
        iview_grew / MIB,
        map_copies / MIB
    );
}
