//! # bench — the figure-reproduction harness
//!
//! Every figure of the paper's evaluation (§5), plus the ablations and
//! sweeps beyond it, is one entry of the registry
//! [`figures::FIGURES`]. The `figures` binary runs them (`figures
//! [--quick] [NAME...]`), printing the series the paper plots and
//! emitting machine-readable JSON under `bench_results/`:
//!
//! | entry | paper figure | content |
//! |---|---|---|
//! | `fig1_collective_wall` | Fig. 1 | % of MPI-Tile-IO time in global sync vs process count |
//! | `fig2_breakdown` | Fig. 2 | absolute sync / p2p / file-I/O time vs process count |
//! | `fig6_ior` | Fig. 6 | IOR collective-write bandwidth, baseline vs ParColl-N |
//! | `fig7_tileio_groups` | Fig. 7 | MPI-Tile-IO read/write bandwidth vs subgroup count |
//! | `fig8_sync_reduction` | Fig. 8 | synchronization time (abs and ratio) vs subgroup count |
//! | `fig9_scalability` | Fig. 9 | MPI-Tile-IO write bandwidth vs process count |
//! | `fig10_btio` | Fig. 10 | BT-IO class C bandwidth vs process count |
//! | `fig11_flashio` | Fig. 11 | Flash-IO checkpoint bandwidth, aggregator variants |
//! | `ablation_alltoall` | §1 claim | pairwise vs Bruck alltoall: the wall survives |
//! | `ablation_groupsize` | §4 trade-off | group-size sweep across process counts |
//! | `ablation_iview` | §4.1 | reordering vs scatter vs disabled intermediate views |
//! | `ablation_alignment` | Lustre refinement | even vs stripe-aligned collective file domains |
//! | `ablation_mapping` | Fig. 5 context | block vs cyclic placement under shared-NIC injection |
//! | `critical_path` | §5 wall, per path | happens-before critical path and sync-free what-ifs |
//! | `fault_sweep` | robustness | write bandwidth vs injected fault intensity |
//! | `autotune_sweep` | §6 future work | online tuning vs the static subgroup ladder |
//! | `read_sweep` | §5 read counterpart | restart `read_at_all` bandwidth vs subgroups, sieving off/on |
//!
//! `fig5_aggregators` prints Fig. 5's aggregator-distribution table
//! verbatim; it emits no rows, so it stays its own binary.
//!
//! Also here: `parcoll_sim`, a command-line driver for any workload ×
//! mode × scale; `report`, which renders `bench_results/*.json` as
//! markdown (and, with `--check-docs`, cross-checks figures quoted in
//! the prose docs against the emitted rows); `calibrate`, which
//! re-checks every headline number against its paper target; and
//! `explain`, which runs the fixed diffable scenario of [`explain`]
//! and turns a tripped `regress` gate into a ranked root-cause table.
//! `hostperf` times figure regeneration in host seconds, and `hostprof`
//! (see [`hostprof`]) attributes that host wall to named simulator hot
//! paths — fiber scheduling, mailboxes, buffer pooling, pack/unpack —
//! with a collapsed-stack flamegraph export.
//!
//! `figures`, `hostperf` and `hostprof` accept `--quick` to run a
//! reduced-scale version (smaller process counts and data) for smoke
//! testing; the default is the paper's scale. Criterion micro-benchmarks
//! of the protocol building blocks live in `benches/`.

#![warn(missing_docs)]

pub mod doccheck;
pub mod explain;
pub mod figures;
pub mod hostprof;
pub mod metrics;
pub mod regress;
pub mod scale;
pub mod table;

pub use metrics::{ost_loads, print_metrics_doc, summarize_ost_loads, OstLoad, OstSummary};
pub use scale::Scale;
pub use table::{emit_json, print_table, rows_from_json, rows_to_json, Row};
