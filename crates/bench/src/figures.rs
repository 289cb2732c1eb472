//! The figure registry: every figure of the paper's evaluation (§5), and
//! every ablation and sweep the repo regenerates, as one [`Figure`] entry
//! in [`FIGURES`].
//!
//! An entry names the figure (the `figures` binary argument and the
//! `bench_results/<name>.json` stem), titles its table and computes its
//! rows at either [`Scale`]. Each figure's paper-scale and quick
//! parameters are written once, inside its entry; `hostperf`, `hostprof`
//! and the CI regression loop reach a figure through [`figure`] instead
//! of repeating its parameters.
//!
//! The sweep functions below the registry run the relevant workload
//! through [`workloads::runner::run_workload`] and return [`Row`]s shaped
//! like the paper's series.

use crate::scale::Scale;
use crate::table::Row;
use parcoll::{ParcollConfig, PolicyCache};
use simnet::{CollectiveAlg, FaultPlan, Mapping, SimTime};
use simtrace::{rank_slack, what_if, TraceSink};
use std::sync::Arc;
use workloads::btio::BtIo;
use workloads::flashio::FlashIo;
use workloads::ior::Ior;
use workloads::runner::{run_workload, run_workload_with_net, IoMode, RunConfig};
use workloads::tileio::TileIo;

/// One regenerated figure.
pub struct Figure {
    /// Registry name: the `figures` argument and the
    /// `bench_results/<name>.json` stem.
    pub name: &'static str,
    /// Table title.
    pub title: &'static str,
    /// Table x-axis label.
    pub x_label: &'static str,
    /// Process counts the figure runs at, `(paper, quick)`: the x axis of
    /// a process-count sweep, or the one job size of the other figures.
    pub procs: (&'static [usize], &'static [usize]),
    /// Compute the figure's rows. Contracts a figure demonstrates (the
    /// autotune convergence bounds) are asserted here.
    pub rows: fn(Scale) -> Vec<Row>,
}

impl Figure {
    /// The process counts at `scale`.
    pub fn procs_at(&self, scale: Scale) -> &'static [usize] {
        scale.pick(self.procs.0, self.procs.1)
    }
}

/// Look a figure up by registry name.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Every figure, in the order `figures` runs them.
pub const FIGURES: &[Figure] = &[
    FIG1,
    FIG2,
    FIG6,
    FIG7,
    FIG8,
    FIG9,
    FIG10,
    FIG11,
    ABLATION_ALLTOALL,
    ABLATION_GROUPSIZE,
    ABLATION_IVIEW,
    ABLATION_ALIGNMENT,
    ABLATION_MAPPING,
    CRITICAL_PATH,
    FAULT_SWEEP,
    AUTOTUNE_SWEEP,
    READ_SWEEP,
];

/// Figure 1 — "The Collective Wall in Collective IO": the share of
/// MPI-Tile-IO collective-write time spent in global synchronization as
/// the process count grows under the baseline extended two-phase
/// protocol. The paper measures 72% at 512 processes.
const FIG1: Figure = Figure {
    name: "fig1_collective_wall",
    title: "Figure 1: the collective wall — % of MPI-Tile-IO time in global sync",
    x_label: "procs",
    procs: (&[16, 32, 64, 128, 256, 512], &[8, 16, 32]),
    rows: |s| collective_wall(FIG1.procs_at(s), s == Scale::Paper),
};

/// Figure 2 — "Collective I/O Time Breakdown": absolute per-rank seconds
/// in synchronization, point-to-point exchange and file I/O for
/// MPI-Tile-IO under the baseline protocol — Figure 1's runs, one series
/// per component. The paper's observation: "the processing time spent in
/// synchronization grows much faster compared to the time spent on
/// point-to-point communication and file I/O", overtaking them by 512
/// processes.
const FIG2: Figure = Figure {
    name: "fig2_breakdown",
    title: "Figure 2: collective I/O time breakdown (per-rank seconds, baseline)",
    x_label: "procs",
    procs: FIG1.procs,
    rows: |s| {
        let mut out = Vec::new();
        for r in (FIG1.rows)(s) {
            for (series, key) in [
                ("sync", "sync_s"),
                ("point-to-point", "p2p_s"),
                ("file I/O", "io_s"),
                ("local memcpy", "local_s"),
            ] {
                out.push(Row::new(series, r.x, r.extra[key], "s"));
            }
        }
        out
    },
};

/// Figure 6 — "Benefits of ParColl to IOR collective I/O": aggregate
/// write bandwidth of IOR (each process collectively writing a contiguous
/// 512 MB block in 4 MB transfers to a shared file) at 128 and 512
/// processes, baseline vs ParColl-N with a least group size of 8. The
/// paper reports 380 MB/s for the baseline at 512 processes and up to
/// 5301 MB/s (12.8x) for ParColl. 64 of the 128 transfers are issued:
/// steady state at half the host time.
const FIG6: Figure = Figure {
    name: "fig6_ior",
    title: "Figure 6: IOR collective write bandwidth, baseline vs ParColl-N",
    x_label: "procs",
    procs: (&[128, 512], &[32]),
    rows: |s| {
        ior_bandwidth(
            FIG6.procs_at(s),
            s.pick::<&[usize]>(&[2, 4, 8, 16, 32, 64], &[2, 4]),
            s.pick(512 << 20, 64 << 10),
            s.pick(4 << 20, 16 << 10),
            s.pick(Some(64), None),
        )
    },
};

/// Figure 7 — "Performance of MPI-Tile-IO": collective write and read
/// bandwidth at 512 processes as the number of ParColl subgroups varies.
/// The paper's best point is 64 subgroups (+210% write, +180% read over
/// the baseline); beyond it, over-partitioning collapses ("fine-grained
/// I/O relinquishes the benefits of aggregation").
const FIG7: Figure = Figure {
    name: "fig7_tileio_groups",
    title: "Figure 7: MPI-Tile-IO bandwidth vs number of subgroups (512 procs)",
    x_label: "groups",
    procs: (&[512], &[16]),
    rows: |s| {
        let groups: &[usize] = s.pick(&[1, 2, 4, 8, 16, 32, 64, 128, 256], &[1, 2, 4]);
        tileio_group_sweep(FIG7.procs_at(s)[0], groups, s == Scale::Paper)
    },
};

/// Figure 8 — "Reduction of Synchronization Cost": the synchronization
/// time of the Figure 7 sweep, in absolute seconds and as a share of the
/// total, versus the subgroup count. The paper: "the synchronization cost
/// is significantly reduced by both absolute value and relative ratio."
const FIG8: Figure = Figure {
    name: "fig8_sync_reduction",
    title: "Figure 8: synchronization cost vs subgroups (MPI-Tile-IO, 512 procs)",
    x_label: "groups",
    procs: FIG7.procs,
    rows: |s| {
        let groups: &[usize] = s.pick(&[1, 2, 4, 8, 16, 32, 64], &[1, 2, 4]);
        tileio_group_sweep(FIG8.procs_at(s)[0], groups, s == Scale::Paper)
            .into_iter()
            .map(|r| {
                Row::new("sync seconds (avg rank)", r.x, r.extra["sync_s_avg"], "s")
                    .with("sync_ratio", r.extra["sync_ratio"])
            })
            .collect()
    },
};

/// Figure 9 — "The Improved Scalability of MPI-Tile-IO": collective-write
/// bandwidth versus process count, baseline vs ParColl at its best group
/// count. The paper: at 1024 processes ParColl reaches 11.4 GB/s, 416% of
/// the baseline's 2.7 GB/s, with improvement "nearly proportional to the
/// number of processes".
const FIG9: Figure = Figure {
    name: "fig9_scalability",
    title: "Figure 9: MPI-Tile-IO write scalability, baseline vs ParColl(best)",
    x_label: "procs",
    procs: (&[64, 128, 256, 512, 1024], &[8, 16]),
    rows: |s| tileio_scalability(FIG9.procs_at(s), |p| (p / 8).min(64), s == Scale::Paper),
};

/// Figure 10 — "The Performance of BT-IO with ParColl": NAS BT-IO class C
/// (162³ grid, diagonal multi-partitioning, full MPI-IO mode) bandwidth
/// versus (square) process counts. BT-IO is the paper's pattern-(c)
/// workload: its file views spread across the whole record and require
/// ParColl's intermediate file views. "ParColl is beneficial ... for any
/// number of processes." 10 of the 40 write steps are issued (steady
/// state; quick scale shrinks the grid).
const FIG10: Figure = Figure {
    name: "fig10_btio",
    title: "Figure 10: BT-IO class C bandwidth, baseline vs ParColl",
    x_label: "procs",
    procs: (&[256, 324, 400, 484, 576], &[16, 36]),
    rows: |s| btio_bandwidth(FIG10.procs_at(s), s.pick(162, 24), s.pick(10, 2), 64),
};

/// Figure 11 — "The Performance of Flash IO": checkpoint-write bandwidth
/// of the Flash-IO kernel at 1024 processes under the default aggregator
/// selection and under an explicit 64-aggregator hint, baseline vs
/// ParColl-64, plus independent I/O ("Cray w/o Coll"). The paper: ParColl
/// improves the default case by 38.5%; without collective I/O the
/// checkpoint collapses to ~60 MB/s.
const FIG11: Figure = Figure {
    name: "fig11_flashio",
    title: "Figure 11: Flash-IO checkpoint bandwidth (1024 procs)",
    x_label: "procs",
    procs: (&[1024], &[16]),
    rows: |s| flashio_variants(FIG11.procs_at(s)[0], s.pick(80, 4), s.pick(64, 4)),
};

/// Ablation — collective algorithm replacement (paper §1's argument):
/// "It may be tempting to address this synchronization problem via a
/// simple replacement of these collective operations ... the real issue
/// here is the inherent need of synchronization inside the original
/// two-phase protocol."
///
/// The alltoall cost model is swapped from pairwise exchange to Bruck's
/// log-depth algorithm and the Figure 1 profile re-run: the wall barely
/// moves, because waiting and congestion — not the algorithmic latency —
/// dominate.
const ABLATION_ALLTOALL: Figure = Figure {
    name: "ablation_alltoall",
    title: "Ablation: swapping the alltoall algorithm does not break the wall",
    x_label: "procs",
    procs: (&[64, 256, 512], &[8, 16]),
    rows: |s| alltoall_ablation(ABLATION_ALLTOALL.procs_at(s), s == Scale::Paper),
};

/// Ablation — group-size sweep across process counts (the paper's §4
/// trade-off and its "future work" on adaptively choosing the best group
/// size): for each process count, sweep the subgroup count and report the
/// full curve, exposing where the balance between aggregation benefit and
/// synchronization cost lands.
const ABLATION_GROUPSIZE: Figure = Figure {
    name: "ablation_groupsize",
    title: "Ablation: best subgroup count per process count",
    x_label: "groups",
    procs: (&[128, 256, 512], &[16]),
    rows: |s| {
        let mut rows = Vec::new();
        for &p in ABLATION_GROUPSIZE.procs_at(s) {
            let groups: Vec<usize> =
                [1usize, 4, 16, 64, 128].into_iter().filter(|&g| g <= p / 2).collect();
            for mut r in tileio_group_sweep(p, &groups, s == Scale::Paper) {
                r.series = format!("{p} procs");
                rows.push(r);
            }
        }
        rows
    },
};

/// Ablation — intermediate-view strategies (paper §4.1): on the BT-IO
/// pattern, compare (a) ParColl with reordering intermediate views (the
/// default: the file is stored in logical order), (b) ParColl with
/// physical-layout-preserving scatter, and (c) ParColl with view
/// switching disabled (degenerates to one group). Shows both why view
/// switching is needed for pattern (c) and why the logical layout is the
/// only fast way to materialize it.
const ABLATION_IVIEW: Figure = Figure {
    name: "ablation_iview",
    title: "Ablation: intermediate-view strategies on BT-IO",
    x_label: "procs",
    procs: (&[256], &[16]),
    rows: |s| {
        iview_ablation(
            ABLATION_IVIEW.procs_at(s)[0],
            s.pick(162, 24),
            s.pick(4, 2),
            s.pick(32, 4),
        )
    },
};

/// Ablation — stripe-aligned file domains (`striping_unit` hint): the
/// Lustre-aware refinement that later shipped in Cray's MPI-IO. Aligning
/// aggregator domains to the 4 MB stripe keeps each stripe single-writer
/// and halves the chunk-request count at domain seams; the effect on this
/// model is visible in the request statistics and (mildly) in bandwidth.
const ABLATION_ALIGNMENT: Figure = Figure {
    name: "ablation_alignment",
    title: "Ablation: stripe-aligned collective file domains",
    x_label: "procs",
    procs: (&[256], &[16]),
    rows: |s| alignment_ablation(ABLATION_ALIGNMENT.procs_at(s)[0], s == Scale::Paper),
};

/// Ablation — process placement under NIC injection serialization: both
/// cores of a Cray XT PE share one SeaStar, so which ranks are co-located
/// matters once injection is a bottleneck. The paper's Figure 5 uses
/// block and cyclic mappings for aggregator distribution; this measures
/// the mapping's effect on the exchange phase directly by enabling the
/// per-node injection port in the network model.
const ABLATION_MAPPING: Figure = Figure {
    name: "ablation_mapping",
    title: "Ablation: rank placement x NIC injection serialization (tile-io, ParColl)",
    x_label: "procs",
    procs: (&[256], &[16]),
    rows: |s| mapping_ablation(ABLATION_MAPPING.procs_at(s)[0], s == Scale::Paper),
};

/// Happens-before critical-path breakdown for MPI-Tile-IO at a sweep of
/// process counts, under both I/O protocols: runs the workload traced,
/// reconstructs the event graph, extracts the path that bounds the
/// virtual wall, and reports where that path spends its time — the
/// collective wall as a *chain of stragglers* rather than an averaged
/// share.
///
/// Alongside the per-phase path breakdown it prints the what-if panel —
/// three "wall if sync were free" estimates (the Figure 1/2
/// uniform-share estimate, the dependency-aware per-rank bound, and the
/// path-only subtraction) whose spread is the point: averaged sync
/// share overstates what removing synchronization could recover.
const CRITICAL_PATH: Figure = Figure {
    name: "critical_path",
    title: "Critical path: tile-io wall, path breakdown and sync-free estimates",
    x_label: "procs",
    procs: (&[16, 64, 128], &[8, 16]),
    rows: |s| critical_path_sweep(CRITICAL_PATH.procs_at(s), s == Scale::Paper),
};

/// Degraded-mode bandwidth under seeded fault plans.
///
/// Not a paper figure: the paper's evaluation ran on a healthy machine.
/// This sweep prices the robustness machinery (DESIGN.md §10) instead —
/// how collective and ParColl write bandwidth degrade as the injected
/// fault intensity rises:
///
/// * message-drop probability (each drop costs a retry round-trip),
/// * a uniform OST service-time slowdown,
/// * a single aggregator crash with mid-call failover,
/// * silent-corruption probability with end-to-end checksums on
///   (DESIGN.md §14) — every flipped piece is detected and repaired with
///   priced retries, and the row carries the repair volume.
///
/// Every row is a fully deterministic virtual-time measurement: the same
/// seeded plan always yields the same bandwidth, so these rows are
/// regression-gateable like any figure.
///
/// The sweep prices the *write* path under faults; the read path's
/// degraded-mode contract — an aggregator crash mid-restart must still
/// deliver byte-exact data through the sieving/list-I/O machinery
/// (DESIGN.md §15) — is pinned by `workloads/tests/read_parity.rs`, and
/// the healthy-machine read bandwidth by the `read_sweep` figure.
const FAULT_SWEEP: Figure = Figure {
    name: "fault_sweep",
    title: "fault_sweep: write bandwidth vs injected fault intensity (MPI-Tile-IO)",
    x_label: "intensity",
    procs: (&[128], &[16]),
    rows: |s| fault_sweep(FAULT_SWEEP.procs_at(s)[0], s.pick(8, 4), s == Scale::Paper),
};

/// Autotune convergence: starting from the default ParColl
/// configuration, the `parcoll::autotune` feedback controller must reach
/// within 10% of the best static fig7-style configuration within 4
/// epochs, and must never end a sweep more than 5% below the default
/// static configuration.
///
/// Each epoch is one `run_workload` call (MPI-Tile-IO issues a single
/// collective write) threaded through a shared [`parcoll::PolicyCache`]:
/// the tuner state learned by one run is resumed by the next open, so
/// the sweep exercises exactly the repeated-open path a real application
/// would take. The static ladder is measured side by side, series
/// `static-<P>p` (x = subgroup count) next to `autotune-<P>p`
/// (x = epoch), and the rows assert the convergence contract before they
/// are returned (the 4-epoch bound at paper scale only).
const AUTOTUNE_SWEEP: Figure = Figure {
    name: "autotune_sweep",
    title: "Autotune: tuned epochs vs static subgroup ladder (MPI-Tile-IO)",
    x_label: "groups|epoch",
    procs: (&[128, 512], &[16]),
    rows: |s| {
        let mut rows = Vec::new();
        for &p in AUTOTUNE_SWEEP.procs_at(s) {
            autotune_sweep(p, s == Scale::Paper, s.pick(6, 4), s == Scale::Paper, &mut rows);
        }
        rows
    },
};

/// Read sweep — the fig6-style read counterpart (DESIGN.md §15):
/// restart `read_at_all` bandwidth of the hole-dense checkpoint-restart
/// pattern (full tile image written, quarter-width columns read back, 75 %
/// holes per covering extent) as the ParColl subgroup count varies,
/// baseline vs ParColl-N, each with collective data sieving off and on
/// (`cb_ds_read`). The sieved partitioned series must beat the unsieved
/// baseline: list I/O stops fetching the holes, and subgroups localize
/// the read exchange exactly as they do the write.
const READ_SWEEP: Figure = Figure {
    name: "read_sweep",
    title: "Read sweep: restart read_at_all bandwidth, sieving off/on",
    x_label: "groups",
    procs: (&[256], &[16]),
    rows: |s| {
        let groups: &[usize] = s.pick(&[1, 2, 4, 8, 16, 32], &[1, 2, 4]);
        restart_read_sweep(READ_SWEEP.procs_at(s)[0], groups, s == Scale::Paper, 4)
    },
};

/// Baseline series label: our ext2ph stands in for Cray's MPI-IO, as the
/// paper's OPAL library did ("comparable performance", §2.2).
pub const BASELINE: &str = "Cray/ext2ph";

/// A tile-io instance scaled for the requested process count; `full`
/// selects the paper's 1024x768x64B tiles, otherwise a 16x smaller tile
/// with identical structure.
pub fn tileio_at(nprocs: usize, full: bool) -> TileIo {
    if full {
        TileIo::paper(nprocs)
    } else {
        let (ntx, nty) = TileIo::near_square_grid(nprocs);
        TileIo {
            ntx,
            nty,
            tile_x: 256,
            tile_y: 192,
            elem: 64,
        }
    }
}

/// Figures 1 & 2: profile MPI-Tile-IO collective writes under the
/// baseline protocol across process counts. Returns, per process count,
/// the average per-rank seconds in sync / p2p / io and the sync share.
pub fn collective_wall(procs: &[usize], full: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let w = tileio_at(p, full);
        let r = run_workload(w, RunConfig::paper(IoMode::Collective));
        let total =
            r.profile_avg.sync + r.profile_avg.p2p + r.profile_avg.io + r.profile_avg.local;
        let frac = if total.as_secs() > 0.0 {
            r.profile_avg.sync.as_secs() / total.as_secs() * 100.0
        } else {
            0.0
        };
        rows.push(
            Row::new("sync-share", p as f64, frac, "%")
                .with("sync_s", r.profile_avg.sync.as_secs())
                .with("p2p_s", r.profile_avg.p2p.as_secs())
                .with("io_s", r.profile_avg.io.as_secs())
                .with("local_s", r.profile_avg.local.as_secs())
                .with("write_mbps", r.write_mbps),
        );
    }
    rows
}

/// Figure 6: IOR collective write bandwidth, baseline vs ParColl-N.
/// `block`/`transfer` let the harness shrink the per-process volume while
/// keeping the paper's per-call shape (bandwidth is per-call steady
/// state).
pub fn ior_bandwidth(
    procs: &[usize],
    group_counts: &[usize],
    block: u64,
    transfer: u64,
    max_calls: Option<usize>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let make = || Ior {
            nprocs: p,
            block_size: block,
            transfer_size: transfer,
            max_calls,
        };
        let base = run_workload(make(), RunConfig::paper(IoMode::Collective));
        rows.push(Row::new(BASELINE, p as f64, base.write_mbps, "MB/s"));
        for &g in group_counts {
            if g > p / 8 {
                continue; // paper: least group size of 8
            }
            let r = run_workload(make(), RunConfig::paper(IoMode::Parcoll { groups: g }));
            rows.push(Row::new(format!("ParColl-{g}"), p as f64, r.write_mbps, "MB/s"));
        }
    }
    rows
}

/// Figures 7 & 8: MPI-Tile-IO bandwidth and synchronization cost vs
/// subgroup count at a fixed process count. Group count 1 is the
/// baseline.
pub fn tileio_group_sweep(nprocs: usize, group_counts: &[usize], full: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &g in group_counts {
        let mode = if g <= 1 {
            IoMode::Collective
        } else {
            IoMode::Parcoll { groups: g }
        };
        let mut cfg = RunConfig::paper(mode);
        cfg.read_back = true;
        // Visualization output is consumed by external tools, so the
        // on-disk layout must stay canonical: if over-partitioning forces
        // an intermediate view, it must scatter through the original view
        // rather than reorder the file. This is what makes extreme group
        // counts collapse (paper Figure 7).
        cfg.info.set("parcoll_iview_scatter", "true");
        let r = run_workload(tileio_at(nprocs, full), cfg);
        let series = if g <= 1 {
            BASELINE.to_string()
        } else {
            format!("ParColl-{g}")
        };
        rows.push(
            Row::new(series, g as f64, r.write_mbps, "MB/s")
                .with("read_mbps", r.read_mbps.unwrap_or(0.0))
                .with("sync_s_avg", r.profile_avg.sync.as_secs())
                .with("sync_s_max", r.profile_max.sync.as_secs())
                .with(
                    "sync_ratio",
                    r.profile_avg.sync.as_secs()
                        / (r.profile_avg.sync + r.profile_avg.p2p + r.profile_avg.io)
                            .as_secs()
                            .max(1e-12),
                ),
        );
    }
    rows
}

/// The read sweep (fig6-style counterpart for `read_at_all`, DESIGN.md
/// §15): restart read bandwidth of the hole-dense checkpoint-restart
/// pattern vs subgroup count, baseline vs ParColl-N, each with and
/// without collective data sieving (`cb_ds_read`). `den` is the restart
/// narrowing denominator — den=4 leaves 75 % holes per covering extent,
/// past the default cutover, so the sieved series exercise the list-I/O
/// arm.
pub fn restart_read_sweep(
    nprocs: usize,
    group_counts: &[usize],
    full: bool,
    den: usize,
) -> Vec<Row> {
    use workloads::restart::{run_restart, Restart};
    let mut rows = Vec::new();
    for &g in group_counts {
        for sieve in [false, true] {
            let mode = if g <= 1 {
                IoMode::Collective
            } else {
                IoMode::Parcoll { groups: g }
            };
            let mut cfg = RunConfig::paper(mode);
            if sieve {
                cfg.info.set("cb_ds_read", "enable");
            }
            let r = run_restart(Restart::with_den(tileio_at(nprocs, full), den), cfg);
            let series = match (g <= 1, sieve) {
                (true, false) => BASELINE.to_string(),
                (true, true) => format!("{BASELINE} +sieve"),
                (false, false) => format!("ParColl-{g}"),
                (false, true) => format!("ParColl-{g} +sieve"),
            };
            rows.push(
                Row::new(series, g as f64, r.read_mbps, "MB/s")
                    .with("write_mbps", r.write_mbps)
                    .with("read_s", r.read_seconds)
                    .with("ost_bytes", r.fs_stats.total_bytes as f64),
            );
        }
    }
    rows
}

/// Figure 9: MPI-Tile-IO collective-write scalability, baseline vs
/// ParColl at its best group count per process count.
pub fn tileio_scalability(
    procs: &[usize],
    groups_for: impl Fn(usize) -> usize,
    full: bool,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let base = run_workload(tileio_at(p, full), RunConfig::paper(IoMode::Collective));
        rows.push(Row::new(BASELINE, p as f64, base.write_mbps, "MB/s"));
        let g = groups_for(p).max(2);
        let r = run_workload(
            tileio_at(p, full),
            RunConfig::paper(IoMode::Parcoll { groups: g }),
        );
        rows.push(
            Row::new("ParColl(best)", p as f64, r.write_mbps, "MB/s").with("groups", g as f64),
        );
    }
    rows
}

/// Figure 10: BT-IO bandwidth vs (square) process counts, baseline vs
/// ParColl. `grid`/`steps` choose the class (C: 162/40).
pub fn btio_bandwidth(procs: &[usize], grid: usize, steps: usize, groups: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let make = || BtIo::with_grid(p, grid, steps);
        let base = run_workload(make(), RunConfig::paper(IoMode::Collective));
        rows.push(
            Row::new(BASELINE, p as f64, base.write_mbps, "MB/s")
                .with("sync_s", base.profile_avg.sync.as_secs())
                .with("p2p_s", base.profile_avg.p2p.as_secs())
                .with("io_s", base.profile_avg.io.as_secs())
                .with("local_s", base.profile_avg.local.as_secs()),
        );
        let g = groups.min(p / 8).max(2);
        let r = run_workload(make(), RunConfig::paper(IoMode::Parcoll { groups: g }));
        rows.push(
            Row::new(format!("ParColl-{g}"), p as f64, r.write_mbps, "MB/s")
                .with("sync_s", r.profile_avg.sync.as_secs())
                .with("p2p_s", r.profile_avg.p2p.as_secs())
                .with("io_s", r.profile_avg.io.as_secs())
                .with("local_s", r.profile_avg.local.as_secs()),
        );
    }
    rows
}

/// Figure 11: Flash-IO checkpoint bandwidth at one process count:
/// baseline and ParColl under the default aggregator selection and under
/// an explicit 64-aggregator hint, plus independent I/O ("Cray w/o
/// Coll").
pub fn flashio_variants(nprocs: usize, blocks_per_proc: usize, groups: usize) -> Vec<Row> {
    let make = || {
        let mut w = FlashIo::checkpoint(nprocs);
        w.blocks_per_proc = blocks_per_proc;
        w
    };
    let mut rows = Vec::new();

    let base = run_workload(make(), RunConfig::paper(IoMode::Collective));
    rows.push(Row::new(format!("{BASELINE} (default aggs)"), nprocs as f64, base.write_mbps, "MB/s"));

    let pc = run_workload(make(), RunConfig::paper(IoMode::Parcoll { groups }));
    rows.push(Row::new(
        format!("ParColl-{groups} (default aggs)"),
        nprocs as f64,
        pc.write_mbps,
        "MB/s",
    ));

    // Explicit 64 aggregators (the Cray XT practice for very large runs,
    // paper §5.4 citing [33]).
    let agg_list: String = (0..64.min(nprocs))
        .map(|i| (i * (nprocs / 64.min(nprocs))).to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut cfg = RunConfig::paper(IoMode::Collective);
    cfg.info.set("cb_config_list", &agg_list);
    let base64 = run_workload(make(), cfg);
    rows.push(Row::new(format!("{BASELINE} (64 aggs)"), nprocs as f64, base64.write_mbps, "MB/s"));

    let mut cfg = RunConfig::paper(IoMode::Parcoll { groups });
    cfg.info.set("cb_config_list", &agg_list);
    let pc64 = run_workload(make(), cfg);
    rows.push(Row::new(
        format!("ParColl-{groups} (64 aggs)"),
        nprocs as f64,
        pc64.write_mbps,
        "MB/s",
    ));

    let ind = run_workload(make(), RunConfig::paper(IoMode::Independent));
    rows.push(Row::new("Cray w/o Coll", nprocs as f64, ind.write_mbps, "MB/s"));
    rows
}

/// The alltoall ablation: the Figure 1 baseline under pairwise and
/// Bruck alltoall cost models.
fn alltoall_ablation(procs: &[usize], full: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        for (label, alg) in [
            (format!("{BASELINE} (pairwise alltoall)"), CollectiveAlg::Pairwise),
            (format!("{BASELINE} (Bruck alltoall)"), CollectiveAlg::Bruck),
        ] {
            let cfg = RunConfig::paper(IoMode::Collective);
            let r = run_workload_with_net(tileio_at(p, full), cfg, move |net| {
                net.alltoall_alg = alg
            });
            rows.push(
                Row::new(label, p as f64, r.write_mbps, "MB/s")
                    .with("sync_s", r.profile_avg.sync.as_secs()),
            );
        }
    }
    rows
}

/// The intermediate-view ablation: BT-IO under the baseline and under
/// ParColl with reordering, scatter and disabled intermediate views.
fn iview_ablation(p: usize, grid: usize, steps: usize, groups: usize) -> Vec<Row> {
    let make = || BtIo::with_grid(p, grid, steps);
    let mut rows = Vec::new();

    let base = run_workload(make(), RunConfig::paper(IoMode::Collective));
    rows.push(Row::new(BASELINE, p as f64, base.write_mbps, "MB/s"));

    let reorder = run_workload(make(), RunConfig::paper(IoMode::Parcoll { groups }));
    rows.push(Row::new("ParColl (reordering iview)", p as f64, reorder.write_mbps, "MB/s"));

    let mut cfg = RunConfig::paper(IoMode::Parcoll { groups });
    cfg.info.set("parcoll_iview_scatter", "true");
    let scatter = run_workload(make(), cfg);
    rows.push(Row::new("ParColl (scatter iview)", p as f64, scatter.write_mbps, "MB/s"));

    let mut cfg = RunConfig::paper(IoMode::Parcoll { groups });
    cfg.info.set("parcoll_force_iview", "false");
    let noview = run_workload(make(), cfg);
    rows.push(Row::new("ParColl (view switching off)", p as f64, noview.write_mbps, "MB/s"));
    rows
}

/// The stripe-alignment ablation: baseline tile-io with even and with
/// stripe-aligned aggregator domains.
fn alignment_ablation(procs: usize, full: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, align) in [("even domains", None), ("stripe-aligned domains", Some(4u64 << 20))] {
        let mut cfg = RunConfig::paper(IoMode::Collective);
        if let Some(a) = align {
            cfg.info.set("striping_unit", a);
        }
        let r = run_workload(tileio_at(procs, full), cfg);
        rows.push(
            Row::new(format!("{BASELINE} ({label})"), procs as f64, r.write_mbps, "MB/s")
                .with("fs_requests", r.fs_stats.total_requests as f64)
                .with("mean_req_kb", r.fs_stats.mean_request_bytes() / 1024.0),
        );
    }
    rows
}

/// The placement ablation: ParColl tile-io under block and cyclic rank
/// mappings, with and without per-node NIC injection serialization.
fn mapping_ablation(procs: usize, full: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, mapping) in [("block mapping", Mapping::Block), ("cyclic mapping", Mapping::Cyclic)] {
        for (nic, nic_label) in [(false, "shared-nothing"), (true, "shared NIC")] {
            let mut cfg = RunConfig::paper(IoMode::Parcoll { groups: (procs / 16).max(2) });
            cfg.mapping = mapping;
            let r = run_workload_with_net(tileio_at(procs, full), cfg, move |net| {
                net.nic_serialize = nic;
            });
            rows.push(
                Row::new(format!("{label}, {nic_label}"), procs as f64, r.write_mbps, "MB/s")
                    .with("p2p_s", r.profile_avg.p2p.as_secs()),
            );
        }
    }
    rows
}

/// The critical-path sweep: traced tile-io under both protocols per
/// process count. Prints each run's path breakdown, straggler chain,
/// least-slack ranks and what-if panel, and returns the wall, per-phase
/// path and sync-free rows.
fn critical_path_sweep(procs: &[usize], full: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        for (label, mode) in [
            ("baseline", IoMode::Collective),
            ("parcoll", IoMode::Parcoll { groups: (p / 8).max(2) }),
        ] {
            let sink = TraceSink::enabled();
            let mut cfg = RunConfig::paper(mode);
            cfg.trace = sink.clone();
            run_workload(tileio_at(p, full), cfg);
            let trace = sink.finish();
            let Some(path) = simtrace::critical_path(&trace) else {
                eprintln!("{label} {p}: no path (empty trace?)");
                continue;
            };
            let w = what_if(&trace, &path);
            let chain = path.straggler_chain();
            let slack = rank_slack(&trace, &path);

            println!(
                "\n== tile-io {p} procs, {label}: wall {:.1} ms, path visits {} ranks in {} hops ==",
                w.wall_us / 1e3,
                path.time_on_rank().len(),
                chain.len(),
            );
            print!("  path breakdown:");
            for (phase, us) in path.breakdown() {
                print!(" {phase} {:.1} ms ({:.0}%),", us / 1e3, us / w.wall_us * 100.0);
            }
            println!();
            print!("  straggler chain (first hops):");
            for (rank, us) in chain.iter().take(6) {
                print!(" r{rank} {:.1} ms >", us / 1e3);
            }
            println!(" ...");
            let mut tight: Vec<_> = slack.iter().collect();
            tight.sort_by(|a, b| a.slack_us.total_cmp(&b.slack_us));
            print!("  least slack:");
            for s in tight.iter().take(4) {
                print!(" r{} {:.1} ms,", s.rank, s.slack_us / 1e3);
            }
            println!();
            println!(
                "  sync share {:.1}% | sync-free wall: figure {:.1} ms, rank bound {:.1} ms, path {:.1} ms",
                w.sync_share * 100.0,
                w.sync_free_figure_us / 1e3,
                w.sync_free_rank_bound_us / 1e3,
                w.sync_free_path_us / 1e3,
            );

            let x = p as f64;
            rows.push(
                Row::new(format!("{label} wall"), x, w.wall_us / 1e3, "ms")
                    .with("sync_share_pct", w.sync_share * 100.0)
                    .with("chain_hops", chain.len() as f64),
            );
            for (phase, us) in path.breakdown() {
                rows.push(Row::new(format!("{label} path {phase}"), x, us / 1e3, "ms"));
            }
            for (name, us) in [
                ("syncfree figure", w.sync_free_figure_us),
                ("syncfree rank-bound", w.sync_free_rank_bound_us),
                ("syncfree path", w.sync_free_path_us),
            ] {
                rows.push(Row::new(format!("{label} {name}"), x, us / 1e3, "ms"));
            }
        }
    }
    rows
}

/// The fault sweep: baseline and ParColl-`groups` tile-io write
/// bandwidth under message drops, OST slowdown, an aggregator crash and
/// silent corruption.
fn fault_sweep(procs: usize, groups: usize, full: bool) -> Vec<Row> {
    let faulted_run = |mode: IoMode, plan: Option<FaultPlan>| {
        let mut cfg = RunConfig::paper(mode);
        cfg.faults = plan.map(Arc::new);
        run_workload(tileio_at(procs, full), cfg)
    };
    let modes: [(String, IoMode); 2] = [
        (BASELINE.to_string(), IoMode::Collective),
        (format!("ParColl-{groups}"), IoMode::Parcoll { groups }),
    ];
    let mut rows = Vec::new();

    // Sweep 1: message-drop probability. Every dropped payload is
    // tombstoned and re-delivered after a retry timeout, so bandwidth
    // decays with the drop rate instead of the run hanging.
    for (series, mode) in &modes {
        for p in [0.0, 0.01, 0.02, 0.05, 0.10] {
            let plan = (p > 0.0).then(|| FaultPlan::new(0xD20B).msg_drop(p, None, None));
            let r = faulted_run(*mode, plan);
            rows.push(
                Row::new(format!("drop/{series}"), p, r.write_mbps, "MB/s")
                    .with("sync_s_avg", r.profile_avg.sync.as_secs()),
            );
        }
    }

    // Sweep 2: uniform OST slowdown for the whole run. A factor-k
    // service-time multiplier should cost at most k in bandwidth;
    // collective buffering hides part of it behind the exchange.
    for (series, mode) in &modes {
        for factor in [1.0, 2.0, 4.0, 8.0] {
            let plan = (factor > 1.0).then(|| {
                FaultPlan::new(0x057A).ost_slow(None, factor, SimTime::ZERO, SimTime::secs(1e9))
            });
            let r = faulted_run(*mode, plan);
            rows.push(
                Row::new(format!("ost_slow/{series}"), factor, r.write_mbps, "MB/s")
                    .with("io_s_avg", r.profile_avg.io.as_secs()),
            );
        }
    }

    // Sweep 3: one aggregator crash after the first write round — the
    // failover replay path. x = 0 is the fault-free reference.
    for (series, mode) in &modes {
        for crash in [false, true] {
            let plan = crash.then(|| FaultPlan::new(0xFA11).aggregator_crash(0, 1));
            let r = faulted_run(*mode, plan);
            rows.push(
                Row::new(format!("agg_crash/{series}"), crash as u64 as f64, r.write_mbps, "MB/s")
                    .with("sync_s_avg", r.profile_avg.sync.as_secs()),
            );
        }
    }

    // Sweep 4: silent-corruption probability under the checksum
    // protocol. Bandwidth decays smoothly as repair retries are priced
    // onto the exchange; the traced `pieces_repaired` counter rides
    // along so the row pins the repair *volume*, not just its cost —
    // a protocol change that repairs more (or fewer) pieces trips the
    // gate even if the timing happens to cancel out.
    for (series, mode) in &modes {
        for p in [0.0, 0.05, 0.10, 0.25, 0.50] {
            let sink = TraceSink::enabled();
            let mut cfg = RunConfig::paper(*mode);
            cfg.integrity = true;
            cfg.trace = sink.clone();
            if p > 0.0 {
                cfg.faults = Some(Arc::new(FaultPlan::new(0xC02A).msg_corrupt(p, None, None)));
            }
            let r = run_workload(tileio_at(procs, full), cfg);
            let repaired: u64 = sink
                .finish()
                .tracks
                .iter()
                .map(|t| t.counters.get("pieces_repaired").copied().unwrap_or(0))
                .sum();
            rows.push(
                Row::new(format!("corrupt/{series}"), p, r.write_mbps, "MB/s")
                    .with("pieces_repaired", repaired as f64)
                    .with("sync_s_avg", r.profile_avg.sync.as_secs()),
            );
        }
    }
    rows
}

/// RunConfig for the autotune sweep. Visualization semantics, as in
/// fig7: a forced intermediate view must scatter back to the canonical
/// layout.
fn autotune_cfg(mode: IoMode) -> RunConfig {
    let mut cfg = RunConfig::paper(mode);
    cfg.info.set("parcoll_iview_scatter", "true");
    cfg
}

/// One autotune sweep at `nprocs`: the static group-count ladder, then
/// `epochs` tuned runs resuming through one policy cache, appended to
/// `rows`. Asserts the convergence contract; `strict` adds the
/// within-4-epochs bound.
fn autotune_sweep(nprocs: usize, full: bool, epochs: usize, strict: bool, rows: &mut Vec<Row>) {
    // Static ladder: powers of two up to the tuner's own cap (least group
    // size 8, the paper's IOR floor and the autotune default) — the fig7
    // sweep restricted to the tuner's feasible range.
    let cap = (nprocs / 8).max(1);
    let ladder = std::iter::successors(Some(1usize), |g| Some(g * 2)).take_while(|&g| g <= cap);
    let mut static_bw = Vec::new();
    for g in ladder {
        let mode = if g <= 1 {
            IoMode::Collective
        } else {
            IoMode::Parcoll { groups: g }
        };
        let r = run_workload(tileio_at(nprocs, full), autotune_cfg(mode));
        eprintln!("static {nprocs}p groups={g}: {:.1} MB/s", r.write_mbps);
        static_bw.push((g, r.write_mbps));
        rows.push(Row::new(format!("static-{nprocs}p"), g as f64, r.write_mbps, "MB/s"));
    }
    let best_static = static_bw.iter().map(|&(_, y)| y).fold(0.0, f64::max);
    let default_groups = ParcollConfig::default().effective_groups(nprocs);
    let default_static = static_bw
        .iter()
        .find(|&&(g, _)| g == default_groups)
        .map(|&(_, y)| y)
        .expect("ladder contains the default group count");

    // Tuned epochs: one run per epoch, resuming through the policy cache.
    let cache = PolicyCache::new();
    let mut tuned_bw = Vec::new();
    let mut groups_now = default_groups;
    for e in 0..epochs {
        let mut cfg = autotune_cfg(IoMode::Collective);
        cfg.autotune = Some(cache.clone());
        let r = run_workload(tileio_at(nprocs, full), cfg);
        // The log carries the knobs each observed epoch ran with; a
        // settled tuner logs nothing and holds its last configuration.
        let settled = r.autotune_log.is_empty();
        if let Some(d) = r.autotune_log.first() {
            groups_now = d.knobs.groups;
        }
        let action = r.autotune_log.first().map_or("settled", |d| d.action);
        eprintln!(
            "epoch {e} ({nprocs}p): {:.1} MB/s at {groups_now} groups [{action}]",
            r.write_mbps
        );
        tuned_bw.push(r.write_mbps);
        rows.push(
            Row::new(format!("autotune-{nprocs}p"), e as f64, r.write_mbps, "MB/s")
                .with("groups", groups_now as f64)
                .with("settled", if settled { 1.0 } else { 0.0 }),
        );
    }

    // The convergence contract.
    let final_bw = *tuned_bw.last().expect("at least one epoch");
    assert!(
        final_bw >= 0.95 * default_static,
        "{nprocs}p: tuned endpoint {final_bw:.1} MB/s fell more than 5% below \
         the default static config ({default_static:.1} MB/s at {default_groups} groups)"
    );
    if strict {
        let converged = tuned_bw.iter().position(|&y| y >= 0.9 * best_static);
        assert!(
            converged.is_some_and(|e| e < 4),
            "{nprocs}p: no epoch within the first 4 reached 90% of the best \
             static config ({best_static:.1} MB/s); epochs: {tuned_bw:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Every registered figure has a committed paper-scale and quick
    /// baseline, and every quick row document is a registered figure (the
    /// `explain_*` files belong to the `explain` scenario): the CI
    /// regression loop, which runs the registry, can neither skip a
    /// figure nor carry an orphaned baseline.
    #[test]
    fn registry_matches_committed_baselines() {
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len(), "figure names must be unique");

        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
        for f in FIGURES {
            for dir in [results.clone(), results.join("quick")] {
                let path = dir.join(format!("{}.json", f.name));
                assert!(path.is_file(), "{} has no baseline {}", f.name, path.display());
            }
        }
        for entry in std::fs::read_dir(results.join("quick")).expect("quick baselines") {
            let path = entry.expect("directory entry").path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
            if path.extension().is_some_and(|e| e == "json") && !stem.starts_with("explain_") {
                assert!(figure(stem).is_some(), "orphaned quick baseline {}", path.display());
            }
        }
    }

    #[test]
    fn collective_wall_rows_have_profile_extras() {
        let rows = collective_wall(&[8, 16], false);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.extra.contains_key("sync_s"));
            assert!(r.y >= 0.0 && r.y <= 100.0);
        }
    }

    #[test]
    fn ior_rows_cover_series() {
        let rows = ior_bandwidth(&[16], &[2], 16 << 10, 4 << 10, None);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.series == BASELINE));
        assert!(rows.iter().any(|r| r.series == "ParColl-2"));
        assert!(rows.iter().all(|r| r.y > 0.0));
    }

    #[test]
    fn group_sweep_includes_baseline_label() {
        let rows = tileio_group_sweep(8, &[1, 2], false);
        assert_eq!(rows[0].series, BASELINE);
        assert_eq!(rows[1].series, "ParColl-2");
        assert!(rows.iter().all(|r| r.extra.contains_key("read_mbps")));
    }

    #[test]
    fn read_sweep_covers_sieved_and_unsieved_series() {
        let rows = restart_read_sweep(8, &[1, 2], false, 4);
        assert_eq!(rows.len(), 4);
        let y = |s: &str| rows.iter().find(|r| r.series == s).unwrap().y;
        assert!(y("ParColl-2 +sieve") > y(BASELINE), "sieved partitioned read must win");
        let bytes = |s: &str| rows.iter().find(|r| r.series == s).unwrap().extra["ost_bytes"];
        assert!(
            bytes("ParColl-2 +sieve") < bytes("ParColl-2"),
            "list I/O must not fetch the holes"
        );
    }

    #[test]
    fn flash_variants_produce_five_series() {
        let rows = flashio_variants(8, 2, 2);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().any(|r| r.series == "Cray w/o Coll"));
    }
}
