//! Partitioned collective read/write and the [`ParcollFile`] wrapper.
//!
//! The flow per collective call (paper Figure 3):
//!
//! 1. Gather every rank's file range (one small allgather — this is the
//!    *only* whole-group synchronization ParColl retains per call).
//! 2. Partition processes and file into subgroups with disjoint FAs
//!    ([`crate::fa`]); if the FAs intersect, switch to an intermediate
//!    file view ([`crate::iview`]) and partition the logical file
//!    instead.
//! 3. Distribute the configured I/O aggregators over the subgroups
//!    ([`crate::aggdist`]).
//! 4. Split the communicator and run the unmodified extended two-phase
//!    engine within each subgroup — "the original ext2ph protocol is
//!    still retained as a part of ParColl". All the per-round alltoalls
//!    now span `P/G` ranks instead of `P`.
//!
//! Subgroup membership is cached across calls: workloads like IOR issue
//! many collective writes with the same rank ordering, and the
//! communicator split is reused when the membership vector is unchanged.

use crate::aggdist::distribute_aggregators;
use crate::autotune::{
    direction_signature, pattern_signature, shape_signature, AutoTuner, DecisionRecord,
    EpochFeedback, FaStrategy, ModeClass, PolicyCache, TuneKnobs,
};
use crate::config::ParcollConfig;
use crate::fa::{partition_file_areas, partition_file_areas_by, Grouping};
use crate::iview::{gathered_extents, rank_prefix, LogicalMap, MappedSpace};
use mpiio::profile::{Phase, PhaseTimer};
use mpiio::twophase::{self, CollConfig};
use mpiio::{AccessPlan, Datatype, DirectSpace, Ext, File, PhaseProfile};
use simfs::FileSystem;
use simmpi::{codec, Communicator, Info};
use simnet::IoBuffer;
use std::sync::Arc;

/// Cached partitioning decision, established at the first collective
/// call after open/`set_view` and reused for subsequent calls with the
/// same access *shape* — mirroring the paper, which fixes the
/// partitioning (and any view switching) "at the file view initiation
/// time". Reuse removes every whole-group collective from steady-state
/// calls, letting subgroups drift through their call sequences
/// independently — the effect behind ParColl's IOR and Flash gains.
struct GroupCache<'ep> {
    sub: Communicator<'ep>,
    subcfg: CollConfig,
    n_groups: usize,
    /// My plan's shape at cache time: run lengths and offsets relative to
    /// the first run. A later call with an identical shape is the same
    /// pattern shifted; views tile, so the shift is uniform across ranks.
    shape: Vec<(u64, u64)>,
    /// Dead-set epoch at cache time: an aggregator crash bumps the epoch
    /// and forces a repartition on the next call.
    dead_epoch: u64,
    mode: CachedMode,
}

enum CachedMode {
    Direct,
    Iview {
        logical_plan: AccessPlan,
        base_start: u64,
        /// The full logical⇄physical map, kept only by the
        /// `parcoll_iview_scatter` ablation: the default view re-addresses
        /// the file and needs nothing past the rank prefix.
        scatter: Option<Arc<LogicalMap>>,
    },
}

fn plan_shape(plan: &AccessPlan) -> Vec<(u64, u64)> {
    let base = plan.start().unwrap_or(0);
    plan.extents.iter().map(|e| (e.off - base, e.len)).collect()
}

/// Shift every run of a plan by `delta` bytes (the uniform per-call
/// stride of a tiled view).
fn shift_plan(plan: &AccessPlan, delta: i64) -> AccessPlan {
    if delta == 0 || plan.extents.is_empty() {
        return plan.clone();
    }
    AccessPlan::from_extents(
        plan.extents
            .iter()
            .map(|e| {
                let off = e.off as i64 + delta;
                assert!(off >= 0, "plan shift underflow");
                Ext::new(off as u64, e.len)
            })
            .collect(),
    )
}

/// Which path a partitioned collective took (exposed for tests and the
/// benchmark harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMode {
    /// One subgroup — plain ext2ph (ParColl degenerates to the baseline).
    Single,
    /// Direct file-area partitioning (patterns (a)/(b)).
    Direct {
        /// Subgroups formed.
        groups: usize,
    },
    /// Intermediate file view (pattern (c)).
    IntermediateView {
        /// Subgroups formed.
        groups: usize,
    },
}

/// The partitioned collective write. `file`'s hints supply the aggregator
/// configuration; `pcfg` supplies the ParColl knobs.
pub fn write_at_all<'ep>(
    file: &mut File<'ep>,
    pcfg: &ParcollConfig,
    cache: &mut Option<GroupCacheBox<'ep>>,
    offset: u64,
    buf: &IoBuffer,
) -> PartitionMode {
    run_partitioned(file, pcfg, cache, offset, buf.len() as u64, Some(buf)).0
}

/// The partitioned collective read; returns this rank's bytes.
pub fn read_at_all<'ep>(
    file: &mut File<'ep>,
    pcfg: &ParcollConfig,
    cache: &mut Option<GroupCacheBox<'ep>>,
    offset: u64,
    nbytes: u64,
) -> (PartitionMode, IoBuffer) {
    let (mode, data) = run_partitioned(file, pcfg, cache, offset, nbytes, None);
    (mode, data.expect("read path returns data"))
}

/// Opaque alias so callers can hold the cache without seeing its fields.
pub type GroupCacheBox<'ep> = GroupCacheInner<'ep>;
#[doc(hidden)]
pub struct GroupCacheInner<'ep> {
    cache: GroupCache<'ep>,
    splits: u64,
}

/// How many partitioning decisions (communicator splits) a cache has
/// performed — a well-behaved repetitive workload splits once and reuses.
pub fn split_count(cache: &Option<GroupCacheBox<'_>>) -> u64 {
    cache.as_ref().map_or(0, |c| c.splits)
}

/// Record the pattern classification (and, with an alignment unit in
/// force, how many subgroup FA boundaries land on a stripe boundary — the
/// figure of merit for aligned partitioning).
fn trace_partition(
    ep: &simnet::Endpoint,
    pattern: &'static str,
    grouping: Option<&Grouping>,
    align: Option<u64>,
) {
    let rec = ep.trace();
    if !rec.enabled() {
        return;
    }
    let groups = grouping.map_or(1, Grouping::n_groups);
    rec.instant(
        "parcoll",
        "partition",
        ep.now().as_micros(),
        vec![
            ("pattern", simtrace::ArgValue::from(pattern)),
            ("groups", simtrace::ArgValue::from(groups)),
        ],
    );
    if let Some(g) = grouping {
        let mut boundaries = 0u64;
        let mut aligned = 0u64;
        for &(s, e) in &g.fas {
            if s == e {
                continue;
            }
            boundaries += 1;
            if align.is_some_and(|unit| unit > 0 && s.is_multiple_of(unit)) {
                aligned += 1;
            }
        }
        rec.count("fa_boundaries", boundaries);
        rec.count("fa_stripe_aligned", aligned);
    }
}

/// Exchange and union the known-dead set across the whole group — only
/// when the installed fault plan can kill aggregators, so the fault-free
/// path stays bitwise identical and cache hits stay communication-free.
/// Returns the agreed dead-set epoch (0 without crash faults).
fn sync_dead_set(comm: &Communicator<'_>, prof: &mut PhaseProfile) -> u64 {
    let ep = comm.endpoint();
    let Some(faults) = ep.faults() else {
        return 0;
    };
    if !faults.plan().has_crash_rules() {
        return 0;
    }
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let mine: Vec<u64> = faults.dead_ranks().iter().map(|&r| r as u64).collect();
    let all = comm.allgather(codec::encode_u64s(&mine));
    t.stop_traced(ep.now(), prof, ep.trace());
    for list in &all {
        for r in codec::decode_u64s(list) {
            faults.mark_dead(r as usize);
        }
    }
    faults.dead_epoch()
}

/// Degraded mode: dissolve any subgroup whose *hinted* aggregator ranks
/// have all crashed into a neighboring file area, so its members are
/// served by the neighbor's surviving aggregators instead of a promoted
/// compute rank. Subgroups without hinted members keep their promotion
/// fallback.
fn merge_dead_groups(comm: &Communicator<'_>, hints: &[usize], grouping: &mut Grouping) {
    let ep = comm.endpoint();
    let Some(faults) = ep.faults() else {
        return;
    };
    if faults.dead_epoch() == 0 {
        return;
    }
    'scan: loop {
        if grouping.n_groups() <= 1 {
            return;
        }
        for g in 0..grouping.n_groups() {
            let mut hinted = hints
                .iter()
                .copied()
                .filter(|&r| grouping.group_of[r] == g)
                .peekable();
            if hinted.peek().is_some()
                && hinted.all(|r| faults.is_dead(comm.global_rank(r)))
            {
                let nb = grouping.merge_into_neighbor(g);
                let rec = ep.trace();
                if rec.enabled() {
                    rec.instant(
                        "parcoll",
                        "fa_merge",
                        ep.now().as_micros(),
                        vec![
                            ("group", simtrace::ArgValue::from(g)),
                            ("into", simtrace::ArgValue::from(nb)),
                        ],
                    );
                    rec.count("fa_merges", 1);
                }
                continue 'scan;
            }
        }
        return;
    }
}

fn run_partitioned<'ep>(
    file: &mut File<'ep>,
    pcfg: &ParcollConfig,
    cache: &mut Option<GroupCacheBox<'ep>>,
    offset: u64,
    nbytes: u64,
    write_buf: Option<&IoBuffer>,
) -> (PartitionMode, Option<IoBuffer>) {
    let comm = file.comm().clone();
    let ep = comm.endpoint();
    let p = comm.size();
    let groups = pcfg.effective_groups(p);
    let plan = file.plan(offset, nbytes);

    if groups <= 1 {
        return (PartitionMode::Single, fallback(file, &plan, write_buf));
    }

    // Fault path: agree on the cluster-wide dead set before consulting
    // the cache, so every rank repartitions (or not) identically.
    let dead_epoch = sync_dead_set(&comm, file.profile_mut());

    // Steady state: a cached decision whose shape matches needs no
    // whole-group communication at all — each subgroup proceeds at its
    // own pace.
    if let Some(boxed) = cache.as_ref() {
        if boxed.cache.shape == plan_shape(&plan) && boxed.cache.dead_epoch == dead_epoch {
            let c = &boxed.cache;
            let sub = c.sub.clone();
            let subcfg = c.subcfg.clone();
            let n_groups = c.n_groups;
            let fh = file.handle().clone();
            return match &c.mode {
                CachedMode::Direct => {
                    let data = dispatch(
                        &sub, &fh, &DirectSpace, &plan, write_buf, &subcfg, file,
                    );
                    (PartitionMode::Direct { groups: n_groups }, data)
                }
                CachedMode::Iview {
                    logical_plan,
                    base_start,
                    scatter,
                } => {
                    // Views tile, so this call's runs are the cached ones
                    // shifted uniformly by the call stride.
                    let delta = plan.start().unwrap_or(*base_start) as i64 - *base_start as i64;
                    let logical_plan = shift_plan(logical_plan, delta);
                    let data = if let Some(map) = scatter {
                        let space = MappedSpace::with_delta(Arc::clone(map), delta)
                            .coalesce(pcfg.iview_coalesce);
                        // Scatter mode keeps logical offsets unshifted for
                        // the map; rebuild the unshifted plan.
                        let unshifted = shift_plan(&logical_plan, -delta);
                        dispatch(&sub, &fh, &space, &unshifted, write_buf, &subcfg, file)
                    } else {
                        dispatch(&sub, &fh, &DirectSpace, &logical_plan, write_buf, &subcfg, file)
                    };
                    (PartitionMode::IntermediateView { groups: n_groups }, data)
                }
            };
        }
    }

    // First call for this shape: whole-group range gather, pattern
    // classification, partitioning (paper Figure 3 flow).
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let my_range: Option<(u64, u64)> = plan.start().map(|s| (s, plan.end().unwrap()));
    let ranges = comm.allgather_t(my_range, 16);
    t.stop_traced(ep.now(), file.profile_mut(), ep.trace());

    if ranges.iter().all(Option::is_none) {
        // Nobody moves bytes; run the degenerate path for its collective
        // semantics (and do not cache a degenerate decision).
        return (PartitionMode::Single, fallback(file, &plan, write_buf));
    }

    let mut snapped = false;
    let attempt = if pcfg.force_iview == Some(true) {
        None
    } else {
        match partition_file_areas_by(&ranges, groups, pcfg.balance) {
            Ok(g) => Some(g),
            Err(_) if pcfg.snap_groups => {
                // Tile-row snapping: the requested cut crossed a pattern
                // boundary; the largest halved count whose FAs are
                // disjoint lands the cuts on whole rows (Figure 4(b))
                // without paying the view switch.
                let mut found = None;
                let mut g2 = groups / 2;
                while g2 >= 2 {
                    if let Ok(gr) = partition_file_areas_by(&ranges, g2, pcfg.balance) {
                        found = Some(gr);
                        break;
                    }
                    g2 /= 2;
                }
                snapped = found.is_some();
                found
            }
            Err(_) => None,
        }
    };

    let fh = file.handle().clone();
    match attempt {
        Some(mut grouping) => {
            merge_dead_groups(&comm, &file.coll_config().aggregators, &mut grouping);
            let n_groups = grouping.n_groups();
            let pattern = if snapped { "tilerow" } else { "direct" };
            trace_partition(ep, pattern, Some(&grouping), file.hints().cb_align);
            let (sub, subcfg) =
                subgroup_setup(file, cache, &grouping.group_of, n_groups, pcfg.aggs_per_group);
            if let Some(boxed) = cache.as_mut() {
                boxed.cache.mode = CachedMode::Direct;
                boxed.cache.shape = plan_shape(&plan);
            }
            let data = dispatch(&sub, &fh, &DirectSpace, &plan, write_buf, &subcfg, file);
            (PartitionMode::Direct { groups: n_groups }, data)
        }
        None if pcfg.force_iview == Some(false) => {
            // View switching forbidden: degenerate to the baseline.
            trace_partition(ep, "single", None, None);
            (PartitionMode::Single, fallback(file, &plan, write_buf))
        }
        None => {
            // Pattern (c): build the intermediate file view. Everyone
            // shares its physical extent list (p2p volume ∝ segments).
            let t = PhaseTimer::start(Phase::Sync, ep.now());
            let pairs: Vec<(u64, u64)> = plan.extents.iter().map(|e| (e.off, e.len)).collect();
            let all_lists = comm.allgather(codec::encode_pairs(&pairs));
            t.stop_traced(ep.now(), file.profile_mut(), ep.trace());
            // Only the scatter ablation translates through the full map;
            // the default view needs just the rank prefix, which one
            // streaming pass over the gathered lists yields (and which
            // checks every list sorted and disjoint on the way).
            let scatter = pcfg.iview_scatter.then(|| {
                Arc::new(LogicalMap::new(
                    all_lists
                        .iter()
                        .map(|b| gathered_extents(b).collect())
                        .collect(),
                ))
            });
            let prefix = rank_prefix(all_lists.iter().map(gathered_extents));

            // Partition the *logical* file: rank regions are serial, so
            // this is pattern (a) by construction.
            let logical_ranges: Vec<Option<(u64, u64)>> = prefix
                .windows(2)
                .map(|w| (w[0] < w[1]).then_some((w[0], w[1])))
                .collect();
            let mut grouping = partition_file_areas(&logical_ranges, groups)
                .expect("logical rank regions are serial and disjoint");
            merge_dead_groups(&comm, &file.coll_config().aggregators, &mut grouping);
            let n_groups = grouping.n_groups();
            trace_partition(ep, "iview", Some(&grouping), file.hints().cb_align);
            let (sub, subcfg) =
                subgroup_setup(file, cache, &grouping.group_of, n_groups, pcfg.aggs_per_group);

            let (ls, le) = (prefix[comm.rank()], prefix[comm.rank() + 1]);
            let logical_plan = if ls < le {
                AccessPlan::from_extents(vec![Ext::new(ls, le - ls)])
            } else {
                AccessPlan::default()
            };
            if let Some(boxed) = cache.as_mut() {
                boxed.cache.mode = CachedMode::Iview {
                    logical_plan: logical_plan.clone(),
                    base_start: plan.start().unwrap_or(0),
                    scatter: scatter.clone(),
                };
                boxed.cache.shape = plan_shape(&plan);
            }
            // The intermediate view *re-addresses the file*: data is
            // stored in logical order (each process's segments
            // consecutive), so aggregator I/O is large and contiguous.
            // The original view remains the semantic map between
            // application addresses and logical offsets ("the original
            // file view is still needed to provide the physical layout
            // and distribution of I/O segments"); reads through this
            // library translate consistently. `parcoll_iview_scatter`
            // instead materializes at the original physical offsets — an
            // ablation that demonstrates the cost of doing so.
            let data = if let Some(map) = scatter {
                let space = MappedSpace::new(map).coalesce(pcfg.iview_coalesce);
                dispatch(&sub, &fh, &space, &logical_plan, write_buf, &subcfg, file)
            } else {
                dispatch(&sub, &fh, &DirectSpace, &logical_plan, write_buf, &subcfg, file)
            };
            (PartitionMode::IntermediateView { groups: n_groups }, data)
        }
    }
}

/// Run the inner two-phase engine for a write or a read.
fn dispatch(
    sub: &Communicator<'_>,
    fh: &simfs::FileHandle,
    space: &dyn mpiio::FileSpace,
    plan: &AccessPlan,
    write_buf: Option<&IoBuffer>,
    subcfg: &CollConfig,
    file: &mut File<'_>,
) -> Option<IoBuffer> {
    match write_buf {
        Some(buf) => {
            twophase::write_all(sub, fh, space, plan, buf, subcfg, file.profile_mut());
            None
        }
        None => Some(twophase::read_all(
            sub,
            fh,
            space,
            plan,
            subcfg,
            file.profile_mut(),
        )),
    }
}

/// Split (or reuse) the subgroup communicator and build its collective
/// configuration with the distributed aggregators.
fn subgroup_setup<'ep>(
    file: &mut File<'ep>,
    cache: &mut Option<GroupCacheBox<'ep>>,
    group_of: &[usize],
    n_groups: usize,
    aggs_override: Option<usize>,
) -> (Communicator<'ep>, CollConfig) {
    let comm = file.comm().clone();
    let ep = comm.endpoint();
    let parent_cfg = file.coll_config();
    let my_group = group_of[comm.rank()];

    // Crashed ranks never serve as aggregator hints; with every hint
    // dead, the empty list makes `distribute_aggregators` fall back to
    // each subgroup's first member (and the two-phase engine promotes
    // past any dead fallback at call time).
    let hints: Vec<usize> = match ep.faults() {
        Some(f) if f.dead_epoch() > 0 => parent_cfg
            .aggregators
            .iter()
            .copied()
            .filter(|&r| !f.is_dead(comm.global_rank(r)))
            .collect(),
        _ => parent_cfg.aggregators.clone(),
    };
    let aggs_per_group = match aggs_override {
        // Autotuner probe: N evenly spaced live members per subgroup,
        // bypassing the hinted distribution.
        Some(n) if n > 0 => {
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
            for (r, &g) in group_of.iter().enumerate() {
                members[g].push(r);
            }
            members
                .iter()
                .map(|m| {
                    let live: Vec<usize> = match ep.faults() {
                        Some(f) if f.dead_epoch() > 0 => m
                            .iter()
                            .copied()
                            .filter(|&r| !f.is_dead(comm.global_rank(r)))
                            .collect(),
                        _ => m.clone(),
                    };
                    let base = if live.is_empty() { m.clone() } else { live };
                    if base.is_empty() {
                        return Vec::new();
                    }
                    let k = n.min(base.len());
                    (0..k).map(|i| base[i * base.len() / k]).collect()
                })
                .collect()
        }
        _ => distribute_aggregators(&hints, group_of, n_groups, |r| comm.node_of(r)),
    };

    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let sub = comm
        .split(Some(my_group as i64), 0)
        .expect("every rank belongs to a subgroup");
    t.stop_traced(ep.now(), file.profile_mut(), ep.trace());

    // Translate my group's aggregators from parent ranks to sub ranks.
    let sub_aggs: Vec<usize> = aggs_per_group[my_group]
        .iter()
        .map(|&parent_local| {
            let global = comm.global_rank(parent_local);
            sub.local_rank_of_global(global)
                .expect("aggregator belongs to this subgroup")
        })
        .collect();
    let rec = ep.trace();
    if rec.enabled() {
        rec.instant(
            "parcoll",
            "aggregators",
            ep.now().as_micros(),
            vec![
                ("group", simtrace::ArgValue::from(my_group)),
                ("n_groups", simtrace::ArgValue::from(n_groups)),
                ("aggs", simtrace::ArgValue::from(sub_aggs.len())),
                ("sub_size", simtrace::ArgValue::from(sub.size())),
            ],
        );
    }
    let subcfg = CollConfig {
        aggregators: sub_aggs,
        cb_buffer_size: parent_cfg.cb_buffer_size,
        align: parent_cfg.align,
        checksums: parent_cfg.checksums,
        sieve_read: parent_cfg.sieve_read,
        sieve_hole_pct: parent_cfg.sieve_hole_pct,
    };

    let splits = cache.as_ref().map_or(0, |c| c.splits) + 1;
    *cache = Some(GroupCacheInner {
        cache: GroupCache {
            sub: sub.clone(),
            subcfg: subcfg.clone(),
            n_groups,
            shape: Vec::new(), // caller fills in after partitioning
            dead_epoch: ep.faults().map_or(0, |f| f.dead_epoch()),
            mode: CachedMode::Direct,
        },
        splits,
    });
    (sub, subcfg)
}

fn fallback(file: &mut File<'_>, plan: &AccessPlan, write_buf: Option<&IoBuffer>) -> Option<IoBuffer> {
    let cfg = file.coll_config();
    let comm = file.comm().clone();
    let fh = file.handle().clone();
    match write_buf {
        Some(buf) => {
            twophase::write_all(&comm, &fh, &DirectSpace, plan, buf, &cfg, file.profile_mut());
            None
        }
        None => Some(twophase::read_all(
            &comm,
            &fh,
            &DirectSpace,
            plan,
            &cfg,
            file.profile_mut(),
        )),
    }
}

/// A drop-in MPI-IO file whose collective operations run the ParColl
/// protocol. Construction mirrors [`File::open`]; ParColl knobs ride in
/// the same `MPI_Info` as the collective-buffering hints.
///
/// # Examples
///
/// ```
/// use parcoll::{coll::PartitionMode, ParcollFile};
/// use simfs::{FileSystem, FsConfig};
/// use simmpi::{Communicator, Info};
/// use simnet::{run_cluster, ClusterConfig, IoBuffer};
///
/// let fs = FileSystem::new(FsConfig::tiny());
/// let fs2 = fs.clone();
/// run_cluster(ClusterConfig::cray_xt(8, simnet::Mapping::Block), move |ep| {
///     let comm = Communicator::world(&ep);
///     // Two subgroups via hints — no API change vs plain MPI-IO.
///     let info = Info::new().with("parcoll_groups", 2).with("parcoll_min_group", 2);
///     let mut f = ParcollFile::open(&comm, &fs2, "/pc", &info);
///     f.write_at_all((comm.rank() * 512) as u64, &IoBuffer::synthetic(512));
///     assert_eq!(f.last_mode(), Some(PartitionMode::Direct { groups: 2 }));
///     f.close();
/// });
/// ```
pub struct ParcollFile<'ep> {
    file: File<'ep>,
    pcfg: ParcollConfig,
    cache: Option<GroupCacheBox<'ep>>,
    last_mode: Option<PartitionMode>,
    path: String,
    tune: Option<TuneRuntime>,
}

/// Per-file autotune state: the tuner (lazily built at the first
/// collective write, when the access pattern is known), the epoch
/// accumulator, and the policy cache learned state is stored into.
struct TuneRuntime {
    cache: PolicyCache,
    calls_per_epoch: u64,
    tuner: Option<AutoTuner>,
    /// (path, signature) key the tuner was loaded under / stores to. The
    /// signature is direction-namespaced ([`direction_signature`]), so a
    /// policy learned while writing a checkpoint is never replayed onto
    /// the restart's reads.
    sig: u64,
    /// Direction the running tuner was built for (`true` = reads). A
    /// switch flushes the old tuner to the cache and rebuilds under the
    /// other namespace.
    dir_read: bool,
    /// All decisions made during this open, both directions — the tuner's
    /// own log is discarded when a direction switch swaps it out, but an
    /// open is only in steady state when *neither* direction explored.
    log: Vec<DecisionRecord>,
    /// Knobs in force for the running epoch (a change invalidates the
    /// subgroup split cache).
    applied: TuneKnobs,
    epoch_calls: u64,
    epoch_t0: simnet::SimTime,
    /// Profile snapshot at epoch start; the epoch's attribution is the
    /// delta against it.
    mark: PhaseProfile,
}

fn mode_class(m: PartitionMode) -> ModeClass {
    match m {
        PartitionMode::Single => ModeClass::Single,
        PartitionMode::Direct { .. } => ModeClass::Direct,
        PartitionMode::IntermediateView { .. } => ModeClass::Iview,
    }
}

impl<'ep> ParcollFile<'ep> {
    fn build(file: File<'ep>, pcfg: ParcollConfig, path: &str) -> ParcollFile<'ep> {
        let nprocs = file.comm().size();
        let tune = pcfg.autotune.then(|| TuneRuntime {
            cache: PolicyCache::new(),
            calls_per_epoch: pcfg.autotune_epoch as u64,
            tuner: None,
            sig: 0,
            dir_read: false,
            log: Vec::new(),
            applied: TuneKnobs {
                groups: pcfg.effective_groups(nprocs),
                aggs_per_group: pcfg.aggs_per_group,
                strategy: FaStrategy::DirectCut,
            },
            epoch_calls: 0,
            epoch_t0: simnet::SimTime::ZERO,
            mark: PhaseProfile::new(),
        });
        ParcollFile {
            file,
            pcfg,
            cache: None,
            last_mode: None,
            path: path.to_string(),
            tune,
        }
    }

    /// Collectively open with default striping.
    pub fn open(
        comm: &Communicator<'ep>,
        fs: &FileSystem,
        path: &str,
        info: &Info,
    ) -> ParcollFile<'ep> {
        let pcfg = ParcollConfig::from_info(info);
        Self::build(File::open(comm, fs, path, info), pcfg, path)
    }

    /// Collectively open with explicit striping.
    pub fn open_with_layout(
        comm: &Communicator<'ep>,
        fs: &FileSystem,
        path: &str,
        info: &Info,
        stripe_count: usize,
        stripe_size: u64,
    ) -> ParcollFile<'ep> {
        let pcfg = ParcollConfig::from_info(info);
        Self::build(
            File::open_with_layout(comm, fs, path, info, stripe_count, stripe_size),
            pcfg,
            path,
        )
    }

    /// Share a policy cache with other opens (the benchmark runner
    /// threads one cache through a sweep so each reopen resumes the
    /// learned configuration). Must be called before the first collective
    /// write; a no-op unless the `parcoll_autotune` hint is set.
    pub fn set_policy_cache(&mut self, cache: PolicyCache) {
        if let Some(tr) = self.tune.as_mut() {
            assert!(tr.tuner.is_none(), "policy cache set after tuning started");
            tr.cache = cache;
        }
    }

    /// Set the file view (collective). Invalidates the subgroup cache —
    /// "file view switching ... detects such pattern at the file view
    /// initiation time".
    pub fn set_view(&mut self, displacement: u64, filetype: &Datatype) {
        self.cache = None;
        self.file.set_view(displacement, filetype);
    }

    /// Partitioned collective write at a view offset.
    pub fn write_at_all(&mut self, offset: u64, buf: &IoBuffer) {
        self.ensure_tuner(offset, buf.len() as u64, false);
        let pcfg = self.effective_pcfg();
        let mode = write_at_all(&mut self.file, &pcfg, &mut self.cache, offset, buf);
        self.last_mode = Some(mode);
        self.tune_record();
    }

    fn effective_pcfg(&self) -> ParcollConfig {
        let mut pcfg = self.pcfg.clone();
        if let Some(t) = self.tune.as_ref().and_then(|tr| tr.tuner.as_ref()) {
            let k = t.current();
            pcfg.groups = Some(k.groups);
            pcfg.aggs_per_group = k.aggs_per_group;
            match k.strategy {
                FaStrategy::DirectCut => {}
                FaStrategy::TileRows => pcfg.snap_groups = true,
                FaStrategy::Iview => pcfg.force_iview = Some(true),
            }
        }
        pcfg
    }

    /// Build (or resume from the policy cache) the tuner at the first
    /// collective call of a direction, once the access pattern is in
    /// hand: agree on the pattern signature (one allgather of per-rank
    /// shape hashes), then rank 0 consults the cache and broadcasts the
    /// snapshot so every rank starts from the identical state. The
    /// signature is namespaced by direction — a direction switch (e.g.
    /// checkpoint writes followed by restart reads) flushes the old
    /// tuner to the cache and rebuilds under the other namespace.
    fn ensure_tuner(&mut self, offset: u64, nbytes: u64, read: bool) {
        let (built, same_dir) = match self.tune.as_ref() {
            None => return,
            Some(tr) => (tr.tuner.is_some(), tr.dir_read == read),
        };
        if built {
            if same_dir {
                return;
            }
            self.tune_flush();
            self.tune.as_mut().expect("tune checked above").tuner = None;
        }
        let tr = self.tune.as_mut().expect("tune checked above");
        let comm = self.file.comm().clone();
        let ep = comm.endpoint();
        let plan = self.file.plan(offset, nbytes);
        let my_hash = shape_signature(&plan_shape(&plan));

        let t = PhaseTimer::start(Phase::Sync, ep.now());
        let hashes = comm.allgather_t(my_hash, 8);
        let sig = direction_signature(pattern_signature(comm.size(), &hashes), read);
        let words_buf = if comm.rank() == 0 {
            let dead = ep.faults().map_or(0, |f| f.dead_epoch());
            let words = tr.cache.load(&self.path, sig, dead).unwrap_or_default();
            comm.bcast(0, Some(codec::encode_u64s(&words)))
        } else {
            comm.bcast(0, None)
        };
        t.stop_traced(ep.now(), self.file.profile_mut(), ep.trace());

        let words = codec::decode_u64s(&words_buf);
        let tuner = AutoTuner::from_words(&words)
            .filter(|t| t.nprocs() == comm.size())
            .unwrap_or_else(|| {
                let start = TuneKnobs {
                    groups: self.pcfg.effective_groups(comm.size()),
                    aggs_per_group: self.pcfg.aggs_per_group,
                    strategy: if self.pcfg.force_iview == Some(true) {
                        FaStrategy::Iview
                    } else {
                        FaStrategy::DirectCut
                    },
                };
                AutoTuner::new(comm.size(), self.pcfg.min_group_size, start)
            });
        tr.sig = sig;
        tr.dir_read = read;
        let applied = tuner.current();
        if applied != tr.applied {
            // Direction switch resumed a different policy: the cached
            // subgroup split no longer matches the knobs in force.
            self.cache = None;
        }
        tr.applied = applied;
        tr.tuner = Some(tuner);
        tr.epoch_calls = 0;
        tr.epoch_t0 = ep.now();
        tr.mark = *self.file.profile();
    }

    /// Count the collective write toward the running epoch; at the epoch
    /// boundary, agree on the measurement and let the tuner move.
    fn tune_record(&mut self) {
        let Some(tr) = self.tune.as_mut() else {
            return;
        };
        let Some(tuner) = tr.tuner.as_ref() else {
            return;
        };
        if tuner.is_settled() {
            // Steady state: no accounting, no agreement collective — the
            // settled path is communication-free beyond the protocol
            // itself.
            return;
        }
        tr.epoch_calls += 1;
        if tr.epoch_calls >= tr.calls_per_epoch {
            self.tune_epoch_boundary();
        }
    }

    /// Close the running epoch: agree on the slowest rank's elapsed time
    /// and per-phase deltas (one allreduce — the only whole-group cost of
    /// tuning, and only while exploring), feed the tuner, and invalidate
    /// the subgroup cache if the knobs moved.
    fn tune_epoch_boundary(&mut self) {
        let Some(tr) = self.tune.as_mut() else {
            return;
        };
        let Some(mode) = self.last_mode else {
            return;
        };
        let comm = self.file.comm().clone();
        let ep = comm.endpoint();
        let us = |d: simnet::SimTime| d.as_micros().round() as u64;
        let prof = self.file.profile();
        let mine = [
            us(ep.now() - tr.epoch_t0),
            us(prof.sync - tr.mark.sync),
            us(prof.p2p - tr.mark.p2p),
            us(prof.io - tr.mark.io),
            us(prof.local - tr.mark.local),
        ];
        let t = PhaseTimer::start(Phase::Sync, ep.now());
        let agreed = comm.allreduce_u64(&mine, simmpi::ReduceOp::Max);
        t.stop_traced(ep.now(), self.file.profile_mut(), ep.trace());

        let tuner = tr.tuner.as_mut().expect("boundary requires a tuner");
        tuner.observe(EpochFeedback {
            wall_us: agreed[0],
            sync_us: agreed[1],
            p2p_us: agreed[2],
            io_us: agreed[3],
            local_us: agreed[4],
            mode: mode_class(mode),
        });
        tr.log
            .push(tuner.log().last().expect("observe just logged").clone());
        let rec = ep.trace();
        if rec.enabled() {
            let d = tuner.log().last().expect("observe just logged");
            let knobs = tuner.current();
            // The full decision as a trace instant: what the tuner saw
            // (agreed per-phase maxima) and what it chose, so `explain`
            // and Perfetto can line epoch boundaries up with phase shifts
            // without re-deriving tuner state.
            rec.instant(
                "parcoll",
                "autotune",
                ep.now().as_micros(),
                vec![
                    ("action", simtrace::ArgValue::from(d.action)),
                    ("groups", simtrace::ArgValue::from(knobs.groups)),
                    (
                        "aggs_per_group",
                        simtrace::ArgValue::from(knobs.aggs_per_group.unwrap_or(0)),
                    ),
                    (
                        "strategy",
                        simtrace::ArgValue::from(knobs.strategy.label()),
                    ),
                    ("epoch", simtrace::ArgValue::from(d.epoch as usize)),
                    ("wall_us", simtrace::ArgValue::from(agreed[0])),
                    ("sync_us", simtrace::ArgValue::from(agreed[1])),
                    ("p2p_us", simtrace::ArgValue::from(agreed[2])),
                    ("io_us", simtrace::ArgValue::from(agreed[3])),
                    ("local_us", simtrace::ArgValue::from(agreed[4])),
                ],
            );
            rec.counter(
                "autotune_groups",
                ep.now().as_micros(),
                knobs.groups as f64,
            );
        }
        let after = tuner.current();
        if after != tr.applied {
            tr.applied = after;
            self.cache = None;
        }
        // Read-direction sieve decision: an I/O-dominated read epoch
        // (agreed maxima, so every rank decides identically) means hole
        // traffic — the covering reads are fetching mostly unrequested
        // bytes — so flip collective-read sieving on. One-way: the
        // hole-threshold cutover inside the engine still bounds the
        // downside per round.
        if tr.dir_read
            && !self.file.hints().cb_ds_read
            && agreed[0] > 0
            && 2 * agreed[3] >= agreed[0]
        {
            self.file.set_sieve_read(true);
            self.cache = None;
            if rec.enabled() {
                rec.instant(
                    "parcoll",
                    "sieve_on",
                    ep.now().as_micros(),
                    vec![
                        ("wall_us", simtrace::ArgValue::from(agreed[0])),
                        ("io_us", simtrace::ArgValue::from(agreed[3])),
                    ],
                );
            }
        }
        tr.epoch_calls = 0;
        tr.epoch_t0 = ep.now();
        tr.mark = *self.file.profile();
    }

    /// The epoch-by-epoch decisions made during this open — both
    /// directions, in order — if `parcoll_autotune` is on and at least
    /// one collective call ran. Empty means every epoch (write *and*
    /// read) resumed settled.
    pub fn autotune_log(&self) -> Option<&[DecisionRecord]> {
        self.tune
            .as_ref()
            .filter(|tr| tr.tuner.is_some())
            .map(|tr| tr.log.as_slice())
    }

    /// The knobs currently in force, if tuning.
    pub fn autotune_knobs(&self) -> Option<TuneKnobs> {
        self.tune
            .as_ref()
            .and_then(|tr| tr.tuner.as_ref())
            .map(|t| t.current())
    }

    /// Partitioned collective read at a view offset. Reads feed the same
    /// autotune loop as writes, under a separate direction-namespaced
    /// policy signature — a learned write policy is never mis-applied to
    /// the read pattern, and read epochs drive their own group-count and
    /// sieve decisions.
    pub fn read_at_all(&mut self, offset: u64, nbytes: u64) -> IoBuffer {
        self.ensure_tuner(offset, nbytes, true);
        let pcfg = self.effective_pcfg();
        let (mode, data) =
            read_at_all(&mut self.file, &pcfg, &mut self.cache, offset, nbytes);
        self.last_mode = Some(mode);
        self.tune_record();
        data
    }

    /// Independent write passthrough.
    pub fn write_at(&mut self, offset: u64, buf: &IoBuffer) {
        self.file.write_at(offset, buf);
    }

    /// Independent read passthrough.
    pub fn read_at(&mut self, offset: u64, nbytes: u64) -> IoBuffer {
        self.file.read_at(offset, nbytes)
    }

    /// Which path the last collective took.
    pub fn last_mode(&self) -> Option<PartitionMode> {
        self.last_mode
    }

    /// How many communicator splits this file has performed (repetitive
    /// workloads should split once and reuse the subgroups).
    pub fn split_count(&self) -> u64 {
        split_count(&self.cache)
    }

    /// The ParColl configuration in force.
    pub fn parcoll_config(&self) -> &ParcollConfig {
        &self.pcfg
    }

    /// Override the ParColl configuration (benchmark sweeps).
    pub fn set_parcoll_config(&mut self, pcfg: ParcollConfig) {
        self.pcfg = pcfg;
        self.cache = None;
    }

    /// The wrapped plain MPI-IO file.
    pub fn inner(&self) -> &File<'ep> {
        &self.file
    }

    /// Mutable access to the wrapped file.
    pub fn inner_mut(&mut self) -> &mut File<'ep> {
        &mut self.file
    }

    /// This rank's accumulated phase profile.
    pub fn profile(&self) -> &PhaseProfile {
        self.file.profile()
    }

    /// Collectively close, returning the profile. With autotuning on,
    /// any partial epoch is flushed through the tuner first and rank 0
    /// stores the learned state into the policy cache, keyed by the file
    /// path, pattern signature and current fault dead-set epoch.
    pub fn close(mut self) -> PhaseProfile {
        self.tune_flush();
        self.file.close()
    }

    fn tune_flush(&mut self) {
        let flush = self.tune.as_ref().is_some_and(|tr| {
            tr.epoch_calls > 0 && tr.tuner.as_ref().is_some_and(|t| !t.is_settled())
        });
        if flush {
            self.tune_epoch_boundary();
        }
        let Some(tr) = self.tune.as_ref() else {
            return;
        };
        let Some(tuner) = tr.tuner.as_ref() else {
            return;
        };
        let comm = self.file.comm().clone();
        if comm.rank() == 0 {
            let dead = comm.endpoint().faults().map_or(0, |f| f.dead_epoch());
            tr.cache.store(&self.path, tr.sig, dead, tuner.to_words());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::FsConfig;
    use simnet::{run_cluster, ClusterConfig, Mapping};

    fn fill(rank: usize, n: usize) -> Vec<u8> {
        (0..n).map(|i| ((rank * 131 + i * 7) % 251) as u8).collect()
    }

    fn info_groups(g: usize) -> Info {
        Info::new()
            .with("parcoll_groups", g)
            .with("parcoll_min_group", 1)
    }

    /// Pattern (a): serial blocks. ParColl output must equal a plain
    /// collective write, byte for byte.
    #[test]
    fn serial_pattern_matches_baseline() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(8, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let n = 512usize;
            // Baseline file.
            let mut base = File::open(&comm, &fs2, "/base", &Info::new());
            base.write_at_all(
                (comm.rank() * n) as u64,
                &IoBuffer::from_vec(fill(comm.rank(), n)),
            );
            base.close();
            // ParColl file, 4 groups of 2.
            let mut pc = ParcollFile::open(&comm, &fs2, "/pc", &info_groups(4));
            pc.write_at_all(
                (comm.rank() * n) as u64,
                &IoBuffer::from_vec(fill(comm.rank(), n)),
            );
            assert_eq!(pc.last_mode(), Some(PartitionMode::Direct { groups: 4 }));
            comm.barrier();
            if comm.rank() == 0 {
                let (a, _) = pc.inner().handle().read_at(0, 8 * n, ep.now());
                let mut expect = Vec::new();
                for r in 0..8 {
                    expect.extend_from_slice(&fill(r, n));
                }
                assert_eq!(a.as_slice().unwrap(), expect.as_slice());
            }
            pc.close();
        });
    }

    /// Pattern (b): interleaved tile-like ranges. Groups of adjacent
    /// ranks form disjoint FAs; data must land exactly.
    #[test]
    fn tiled_pattern_partitions_directly() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            // Rank r writes rows r*2 and r*2+1 of an 8x32 byte array —
            // contiguous 64B at r*64: trivially disjoint, but shift the
            // start so ranges share boundaries.
            let ft = Datatype::tile_2d(8, 32, 2, 32, comm.rank() * 2, 0, 1);
            let mut pc = ParcollFile::open(&comm, &fs2, "/tiles", &info_groups(2));
            pc.set_view(0, &ft);
            let mine = fill(comm.rank(), 64);
            pc.write_at_all(0, &IoBuffer::from_slice(&mine));
            assert!(matches!(
                pc.last_mode(),
                Some(PartitionMode::Direct { groups: 2 })
            ));
            comm.barrier();
            let got = pc.read_at_all(0, 64);
            assert_eq!(got.as_slice().unwrap(), mine.as_slice());
            pc.close();
        });
    }

    /// Pattern (c): each rank's segments spread across the file —
    /// intermediate view engages and the physical bytes land per the
    /// original view.
    #[test]
    fn spread_pattern_uses_intermediate_view() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            // Rank r owns 4 segments of 16B at offsets r*16 + k*256
            // (k = 0..4): BT-like cyclic spread.
            let ft = Datatype::HIndexed {
                blocks: (0..4).map(|k| ((comm.rank() * 16 + k * 256) as u64, 1)).collect(),
                inner: Box::new(Datatype::Bytes(16)),
            };
            let mut pc = ParcollFile::open(&comm, &fs2, "/spread", &info_groups(2));
            pc.set_view(0, &ft);
            let mine = fill(comm.rank(), 64);
            pc.write_at_all(0, &IoBuffer::from_slice(&mine));
            assert_eq!(
                pc.last_mode(),
                Some(PartitionMode::IntermediateView { groups: 2 })
            );
            comm.barrier();
            // Read back through the same view collectively.
            let got = pc.read_at_all(0, 64);
            assert_eq!(got.as_slice().unwrap(), mine.as_slice());
            // The intermediate view stores the file in LOGICAL order:
            // each rank's segments concatenated, ranks ordered by their
            // first offset (= rank order here). Spot-check from rank 0.
            if comm.rank() == 0 {
                for r in 0..4usize {
                    let (raw, _) = pc.inner().handle().read_at((r * 64) as u64, 64, ep.now());
                    assert_eq!(
                        raw.as_slice().unwrap(),
                        fill(r, 64).as_slice(),
                        "rank {r} logical region misplaced"
                    );
                }
            }
            pc.close();
        });
    }

    /// The `parcoll_iview_scatter` ablation materializes data at the
    /// *original* physical offsets (interoperable layout), at the cost of
    /// one small request per segment.
    #[test]
    fn scatter_ablation_preserves_physical_layout() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let info = info_groups(2).with("parcoll_iview_scatter", "true");
            let ft = Datatype::HIndexed {
                blocks: (0..4).map(|k| ((comm.rank() * 16 + k * 256) as u64, 1)).collect(),
                inner: Box::new(Datatype::Bytes(16)),
            };
            let mut pc = ParcollFile::open(&comm, &fs2, "/scatter", &info);
            pc.set_view(0, &ft);
            let mine = fill(comm.rank(), 64);
            pc.write_at_all(0, &IoBuffer::from_slice(&mine));
            assert_eq!(
                pc.last_mode(),
                Some(PartitionMode::IntermediateView { groups: 2 })
            );
            comm.barrier();
            let got = pc.read_at_all(0, 64);
            assert_eq!(got.as_slice().unwrap(), mine.as_slice());
            // Original (view) placement preserved on disk.
            if comm.rank() == 0 {
                for r in 0..4usize {
                    let (raw, _) =
                        pc.inner().handle().read_at((r * 16 + 256) as u64, 16, ep.now());
                    assert_eq!(
                        raw.as_slice().unwrap(),
                        &fill(r, 64)[16..32],
                        "rank {r} segment k=1 misplaced under scatter mode"
                    );
                }
            }
            pc.close();
        });
    }

    /// force_iview=true routes a serial pattern through the logical map;
    /// the bytes must still be identical.
    #[test]
    fn forced_iview_is_still_correct() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let info = info_groups(2).with("parcoll_force_iview", "true");
            let mut pc = ParcollFile::open(&comm, &fs2, "/forced", &info);
            let n = 256usize;
            let mine = fill(comm.rank(), n);
            pc.write_at_all((comm.rank() * n) as u64, &IoBuffer::from_slice(&mine));
            assert!(matches!(
                pc.last_mode(),
                Some(PartitionMode::IntermediateView { .. })
            ));
            comm.barrier();
            if comm.rank() == 2 {
                let (raw, _) = pc.inner().handle().read_at((2 * n) as u64, n, ep.now());
                assert_eq!(raw.as_slice().unwrap(), mine.as_slice());
            }
            pc.close();
        });
    }

    /// force_iview=false on a pattern-(c) workload degenerates to one
    /// group (baseline) but stays correct.
    #[test]
    fn forbidden_iview_falls_back_to_single_group() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let info = info_groups(2).with("parcoll_force_iview", "false");
            let ft = Datatype::HIndexed {
                blocks: (0..4).map(|k| ((comm.rank() * 16 + k * 256) as u64, 1)).collect(),
                inner: Box::new(Datatype::Bytes(16)),
            };
            let mut pc = ParcollFile::open(&comm, &fs2, "/noiview", &info);
            pc.set_view(0, &ft);
            let mine = fill(comm.rank(), 64);
            pc.write_at_all(0, &IoBuffer::from_slice(&mine));
            assert_eq!(pc.last_mode(), Some(PartitionMode::Single));
            comm.barrier();
            let got = pc.read_at_all(0, 64);
            assert_eq!(got.as_slice().unwrap(), mine.as_slice());
            pc.close();
        });
    }

    /// Repeated collective writes with the same rank ordering reuse the
    /// cached subgroup split.
    #[test]
    fn subgroup_cache_reused_across_calls() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(8, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let mut pc = ParcollFile::open(&comm, &fs2, "/cache", &info_groups(4));
            let n = 128usize;
            for call in 0..4u64 {
                let off = (call as usize * 8 * n + comm.rank() * n) as u64;
                pc.write_at_all(off, &IoBuffer::from_vec(fill(comm.rank(), n)));
            }
            // Same rank ordering every call: exactly one split.
            assert_eq!(pc.split_count(), 1);
            let _ = ep;
            pc.close();
        });
    }

    /// ParColl with groups=1 equals the baseline mode marker.
    #[test]
    fn single_group_degenerates() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let mut pc = ParcollFile::open(&comm, &fs2, "/one", &info_groups(1));
            pc.write_at_all(
                (comm.rank() * 64) as u64,
                &IoBuffer::from_vec(fill(comm.rank(), 64)),
            );
            assert_eq!(pc.last_mode(), Some(PartitionMode::Single));
            pc.close();
        });
    }

    /// Synthetic buffers run the whole partitioned path.
    #[test]
    fn synthetic_partitioned_write() {
        let fs = FileSystem::new(FsConfig::jaguar());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(16, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let mut pc = ParcollFile::open(&comm, &fs2, "/synth", &info_groups(4));
            let n = 4 << 20;
            pc.write_at_all((comm.rank() * n) as u64, &IoBuffer::synthetic(n));
            assert_eq!(pc.last_mode(), Some(PartitionMode::Direct { groups: 4 }));
            comm.barrier();
            assert_eq!(pc.inner().handle().size(), 16 * n as u64);
            pc.close();
        });
    }

    /// The headline effect: with the same direct (pattern-a) workload and
    /// identical file I/O, partitioning cuts time spent in global
    /// synchronization — the collective wall (paper Figure 8).
    #[test]
    fn parcoll_reduces_sync_time() {
        // 256 ranks, small transfers: the per-call global collectives
        // (pairwise alltoalls over the whole group) dominate, as on the
        // paper's 512-process runs.
        const P: usize = 256;
        let run = |groups: usize| {
            // An I/O-light file system (fast, deterministic, finely
            // striped) so the measurement isolates collective-operation
            // cost rather than storage contention.
            let fs = FileSystem::new(FsConfig {
                n_osts: 64,
                default_stripe_count: 64,
                default_stripe_size: 64 << 10,
                ost_bandwidth_bps: 10e9,
                request_overhead: simnet::SimTime::micros(20.0),
                list_extent_overhead: simnet::SimTime::micros(2.0),
                rpc_latency: simnet::SimTime::micros(10.0),
                open_base: simnet::SimTime::micros(100.0),
                open_per_client: simnet::SimTime::micros(5.0),
                jitter_cv: 0.0,
                contention_per_queued: 0.0,
                cache_bytes: 0,
                lock_handoff: simnet::SimTime::ZERO,
                lock_exempt_bytes: 0,
                slow_prob: 0.0,
                slow_factor: 1.0,
                seed: 7,
                integrity: false,
            });
            let fs2 = fs.clone();
            let profs = run_cluster(ClusterConfig::cray_xt(P, Mapping::Block), move |ep| {
                let comm = Communicator::world(&ep);
                let info = Info::new()
                    .with("parcoll_groups", groups)
                    .with("parcoll_min_group", 1);
                let mut pc = ParcollFile::open(&comm, &fs2, "/sync", &info);
                let n = 16usize << 10;
                for call in 0..4usize {
                    let off = ((call * P + comm.rank()) * n) as u64;
                    pc.write_at_all(off, &IoBuffer::synthetic(n));
                }
                let _ = ep;
                pc.close()
            });
            let mut acc = PhaseProfile::new();
            for p in &profs {
                acc.merge(p);
            }
            acc.sync.as_secs() / profs.len() as f64
        };
        let sync_1 = run(1);
        let sync_32 = run(32);
        assert!(
            sync_32 < sync_1 * 0.7,
            "32 groups should cut mean sync time: baseline {sync_1}s vs parcoll {sync_32}s"
        );
    }
}
