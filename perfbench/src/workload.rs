//! The three paper-scale workloads and the instrumented run that drives
//! them.
//!
//! Each rank body mirrors the repository's own run functions call for call
//! (`workloads::runner::run_workload` for `tile_wall` and `btio_iview`,
//! `workloads::restart::run_restart` for `restart`), so the virtual
//! results reproduce the committed figure rows. Around those calls the
//! benchmark takes host timestamps and high-water-mark readings of its
//! own; nothing is probed inside the crates.

use crate::sys;
use mpiio::profile::{Phase, PhaseTimer};
use mpiio::PhaseProfile;
use parcoll::coll::PartitionMode;
use parcoll::ParcollFile;
use simfs::{FileSystem, FsConfig, FsStats};
use simmpi::{Communicator, Info};
use simnet::{run_cluster, ClusterConfig, IoBuffer, Mapping};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workloads::btio::BtIo;
use workloads::pattern_buffer;
use workloads::restart::Restart;
use workloads::tileio::TileIo;

/// The `FsConfig::jaguar()` seed: the one the committed figures used.
pub const JAGUAR_SEED: u64 = 0x0C0FFEE;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig1's 512-rank point: one baseline MPI-Tile-IO collective write.
    TileWall,
    /// BT-IO class C at 256 ranks under ParColl-32 (intermediate view),
    /// real bytes, checksums on, verified collective read-back.
    BtioIview,
    /// Checkpoint-restart at 256 ranks under ParColl-32 with collective
    /// data sieving: full tile image out, hole-dense quarter back.
    Restart,
}

/// A committed paper-scale figure value a workload must reproduce at
/// the Jaguar seed.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Figure and row the value comes from.
    pub row: &'static str,
    /// Which virtual result it pins.
    pub metric: &'static str,
    /// The committed value.
    pub value: f64,
    /// Reads the pinned result off a run.
    pub got: fn(&RunOut) -> f64,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::TileWall, Workload::BtioIview, Workload::Restart];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TileWall => "tile_wall",
            Workload::BtioIview => "btio_iview",
            Workload::Restart => "restart",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ranks in the simulated job.
    pub fn nprocs(self) -> usize {
        match self {
            Workload::TileWall => 512,
            Workload::BtioIview | Workload::Restart => 256,
        }
    }

    /// ParColl subgroups (1 is the baseline ext2ph).
    pub fn groups(self) -> usize {
        match self {
            Workload::TileWall => 1,
            Workload::BtioIview | Workload::Restart => 32,
        }
    }

    /// The committed rows this workload reproduces at [`JAGUAR_SEED`].
    pub fn references(self) -> &'static [Reference] {
        match self {
            Workload::TileWall => &[
                Reference {
                    row: "fig1_collective_wall sync-share @512",
                    metric: "virt_write_MBps",
                    value: 4936.482990310104,
                    got: |o| o.write_mbps,
                },
                Reference {
                    row: "fig1_collective_wall sync-share @512",
                    metric: "virt_sync_share",
                    value: 89.91686195225887,
                    got: |o| o.sync_share,
                },
            ],
            Workload::BtioIview => &[Reference {
                row: "fig10_btio ParColl-32 @256",
                metric: "virt_write_MBps",
                value: 1447.4597510811816,
                got: |o| o.write_mbps,
            }],
            Workload::Restart => &[Reference {
                row: "read_sweep ParColl-32 +sieve @256",
                metric: "virt_read_MBps",
                value: 10534.022081675157,
                got: |o| o.read_mbps.unwrap_or(0.0),
            }],
        }
    }

    fn info(self) -> Info {
        let mut info = Info::new();
        match self {
            Workload::TileWall => {
                info.set("parcoll_groups", 1);
            }
            Workload::BtioIview => {
                info.set("integrity_checksums", "enable");
                info.set("parcoll_groups", self.groups());
                info.set("parcoll_min_group", 1);
            }
            Workload::Restart => {
                info.set("cb_ds_read", "enable");
                info.set("parcoll_groups", self.groups());
                info.set("parcoll_min_group", 1);
                // As `run_restart`: the image must stay physically
                // addressed because it is re-read through another view.
                info.set("parcoll_force_iview", "false");
            }
        }
        info
    }

    /// The image each rank writes: view, then `(offset, bytes)` per call.
    pub(crate) fn checkpoint(self) -> Arc<dyn workloads::Workload> {
        match self {
            Workload::TileWall | Workload::Restart => Arc::new(TileIo::paper(self.nprocs())),
            Workload::BtioIview => Arc::new(BtIo::with_grid(self.nprocs(), 162, 10)),
        }
    }

    fn real_bytes(self) -> bool {
        self == Workload::BtioIview
    }
}

/// Host-side operations the benchmark times around `ParcollFile` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    /// `ParcollFile::open`.
    Open,
    /// `ParcollFile::write_at_all`.
    Write,
    /// `ParcollFile::read_at_all`.
    Read,
    /// `ParcollFile::close`.
    Close,
}

const OPS: [Op; 4] = [Op::Open, Op::Write, Op::Read, Op::Close];

/// One rank's host stamps: `(op, per-op call index, entry, exit)`.
#[derive(Default)]
struct Stamps(Vec<(Op, usize, Instant, Instant)>);

impl Stamps {
    fn time<T>(&mut self, op: Op, f: impl FnOnce() -> T) -> T {
        let seq = self.0.iter().filter(|s| s.0 == op).count();
        let t0 = Instant::now();
        let out = f();
        self.0.push((op, seq, t0, Instant::now()));
        out
    }
}

/// Growth of the process high-water mark across one kind of collective
/// call: read when the first rank enters and when the last rank exits.
struct HwmProbe {
    total: usize,
    entered: AtomicUsize,
    exited: AtomicUsize,
    before_kb: AtomicU64,
    after_kb: AtomicU64,
}

impl HwmProbe {
    fn new(total: usize) -> Self {
        HwmProbe {
            total,
            entered: AtomicUsize::new(0),
            exited: AtomicUsize::new(0),
            before_kb: AtomicU64::new(0),
            after_kb: AtomicU64::new(0),
        }
    }

    fn enter(&self) {
        if self.entered.fetch_add(1, Ordering::SeqCst) == 0 {
            self.before_kb.store(sys::peak_rss_kb(), Ordering::SeqCst);
        }
    }

    fn exit(&self) {
        if self.exited.fetch_add(1, Ordering::SeqCst) + 1 == self.total {
            self.after_kb.store(sys::peak_rss_kb(), Ordering::SeqCst);
        }
    }

    fn growth_mb(&self) -> f64 {
        let (b, a) = (
            self.before_kb.load(Ordering::SeqCst),
            self.after_kb.load(Ordering::SeqCst),
        );
        a.saturating_sub(b) as f64 / 1024.0
    }
}

struct RankOut {
    write_s: f64,
    read_s: Option<f64>,
    profile: PhaseProfile,
    mode: Option<PartitionMode>,
    ready: Instant,
    stamps: Stamps,
    errors: Vec<String>,
}

/// Everything one run of a workload measured.
pub struct RunOut {
    /// Host seconds from `t_start` until the outputs were checked.
    pub wall_s: f64,
    /// Host seconds from `t_start` until every rank had opened the file
    /// and set its view.
    pub setup_s: f64,
    /// Virtual checkpoint bandwidth, decimal MB/s.
    pub write_mbps: f64,
    /// Virtual read bandwidth, decimal MB/s, for workloads that read.
    pub read_mbps: Option<f64>,
    /// Percent of the ranks' collective time spent in global sync,
    /// averaged over ranks (fig1's definition).
    pub sync_share: f64,
    /// Per-phase maxima over ranks (the slowest rank in each phase).
    pub profile_max: PhaseProfile,
    /// File-system statistics at the end of the run.
    pub fs: FsStats,
    /// The partitioning path of rank 0's first write.
    pub mode: Option<PartitionMode>,
    /// Host seconds per [`Op`], first rank's entry to last rank's exit,
    /// as a union over the op's calls (indexed by `Op as usize`).
    pub op_s: [f64; 4],
    /// High-water-mark growth across the writes and the reads, MB.
    pub write_rss_mb: f64,
    /// See [`RunOut::write_rss_mb`].
    pub read_rss_mb: f64,
    /// Output checks that failed (empty on a correct run).
    pub errors: Vec<String>,
    /// FNV-1a digest of every virtual result: must repeat bitwise across
    /// runs, seeds held equal, and worker counts.
    pub digest: u64,
}

impl RunOut {
    /// Host seconds for `op` (see [`RunOut::op_s`]).
    pub fn op_seconds(&self, op: Op) -> f64 {
        self.op_s[op as usize]
    }
}

/// Run `w` once at the process-default worker count with the file
/// system seeded by `seed`. `trace` is wired through the cluster and the
/// OSTs (pass a disabled sink for an untraced run). At [`JAGUAR_SEED`]
/// a result that misses a committed row is one of the run's errors.
pub fn run(w: Workload, seed: u64, trace: &simtrace::TraceSink, t_start: Instant) -> RunOut {
    let nprocs = w.nprocs();
    let groups = w.groups();
    let image = w.checkpoint();
    let restart = Arc::new(Restart::with_den(TileIo::paper(nprocs), 4));
    // The restart re-reads its checkpoint under the restart's own path.
    let path = Arc::new(match w {
        Workload::Restart => restart.path(),
        _ => image.path(),
    });
    let fs = FileSystem::new(FsConfig {
        seed,
        integrity: w == Workload::BtioIview,
        ..FsConfig::jaguar()
    });
    fs.attach_trace(trace);
    let placement = (groups > 1 && simnet::workers() > 1)
        .then(|| Arc::new(parcoll::worker_placement(nprocs, groups, simnet::workers())));
    let cluster = ClusterConfig {
        trace: trace.clone(),
        placement,
        ..ClusterConfig::cray_xt(nprocs, Mapping::Block)
    };
    let write_probe = Arc::new(HwmProbe::new(nprocs * image.ncalls()));
    let read_calls = match w {
        Workload::TileWall => 0,
        Workload::BtioIview => image.ncalls(),
        Workload::Restart => 1,
    };
    let read_probe = Arc::new(HwmProbe::new(nprocs * read_calls));

    let (fs2, image2, restart2, path2) = (
        fs.clone(),
        Arc::clone(&image),
        Arc::clone(&restart),
        Arc::clone(&path),
    );
    let (wp, rp) = (Arc::clone(&write_probe), Arc::clone(&read_probe));
    let outs: Vec<RankOut> = run_cluster(cluster, move |ep| {
        let comm = Communicator::world(&ep);
        let rank = comm.rank();
        let info = w.info();
        let mut st = Stamps::default();
        let mut errors = Vec::new();

        // Checkpoint: every workload writes its image through one view.
        let mut f = st.time(Op::Open, || ParcollFile::open(&comm, &fs2, &path2, &info));
        let (disp, ft) = image2.view(rank);
        f.set_view(disp, &ft);
        let ready = Instant::now();
        comm.barrier();
        let t0 = ep.now();
        let mut mode = None;
        for call in 0..image2.ncalls() {
            let (off, bytes) = image2.call(rank, call);
            let buf = if w.real_bytes() {
                IoBuffer::from_vec(pattern_buffer(rank, call, bytes))
            } else {
                IoBuffer::synthetic(bytes as usize)
            };
            wp.enter();
            st.time(Op::Write, || f.write_at_all(off, &buf));
            wp.exit();
            mode = mode.or(f.last_mode());
        }
        // Close-time sync: wait for the server caches to drain.
        let t = PhaseTimer::start(Phase::Io, ep.now());
        ep.clock().advance_to(fs2.drain_time());
        t.stop_traced(ep.now(), f.inner_mut().profile_mut(), ep.trace());
        comm.barrier();
        let write_s = (ep.now() - t0).as_secs();

        let (read_s, profile) = match w {
            Workload::TileWall => (None, st.time(Op::Close, || f.close())),
            Workload::BtioIview => {
                comm.barrier();
                let t1 = ep.now();
                for call in 0..image2.ncalls() {
                    let (off, bytes) = image2.call(rank, call);
                    rp.enter();
                    let got = st.time(Op::Read, || f.read_at_all(off, bytes));
                    rp.exit();
                    if got.as_slice() != Some(pattern_buffer(rank, call, bytes).as_slice()) {
                        errors.push(format!("rank {rank} call {call}: read-back mismatch"));
                    }
                }
                comm.barrier();
                let read_s = (ep.now() - t1).as_secs();
                (Some(read_s), st.time(Op::Close, || f.close()))
            }
            Workload::Restart => {
                let mut profile = st.time(Op::Close, || f.close());
                let mut f = st.time(Op::Open, || ParcollFile::open(&comm, &fs2, &path2, &info));
                let (rdisp, rft) = restart2.read_view(rank);
                f.set_view(rdisp, &rft);
                comm.barrier();
                let t1 = ep.now();
                rp.enter();
                let got = st.time(Op::Read, || f.read_at_all(0, restart2.read_bytes()));
                rp.exit();
                if got.len() as u64 != restart2.read_bytes() {
                    errors.push(format!(
                        "rank {rank}: restart read returned {} bytes",
                        got.len()
                    ));
                }
                comm.barrier();
                let read_s = (ep.now() - t1).as_secs();
                profile.merge(&st.time(Op::Close, || f.close()));
                (Some(read_s), profile)
            }
        };
        RankOut {
            write_s,
            read_s,
            profile,
            mode,
            ready,
            stamps: st,
            errors,
        }
    });

    let mut errors: Vec<String> = outs.iter().flat_map(|o| o.errors.iter().cloned()).collect();
    let fs_stats = fs.stats();
    let expect_size = image.total_bytes();
    let size = fs.handle(&path).size();
    if size != expect_size {
        errors.push(format!("file size {size} B, expected {expect_size} B"));
    }
    let mut profile_max = PhaseProfile::new();
    let mut profile_sum = PhaseProfile::new();
    for o in &outs {
        profile_sum.merge(&o.profile);
        profile_max = PhaseProfile {
            sync: profile_max.sync.max(o.profile.sync),
            p2p: profile_max.p2p.max(o.profile.p2p),
            io: profile_max.io.max(o.profile.io),
            local: profile_max.local.max(o.profile.local),
            calls: profile_max.calls.max(o.profile.calls),
            rounds: profile_max.rounds.max(o.profile.rounds),
        };
    }
    let busy = profile_sum.sync + profile_sum.p2p + profile_sum.io + profile_sum.local;
    let sync_share = profile_sum.sync.as_secs() / busy.as_secs() * 100.0;
    let write_s = outs[0].write_s;
    let read_s = outs[0].read_s;
    let read_total = match w {
        Workload::Restart => restart.read_bytes() * nprocs as u64,
        _ => image.total_bytes(),
    };
    // Every requested byte crossed an OST (a sieved read fetches more).
    let served = fs_stats.total_bytes;
    if served < image.total_bytes() + read_s.map_or(0, |_| read_total) {
        errors.push(format!("OSTs served only {served} B"));
    }
    let write_mbps = image.total_bytes() as f64 / write_s / 1e6;
    let read_mbps = read_s.map(|s| read_total as f64 / s / 1e6);
    for (name, v) in [
        ("write", Some(write_mbps)),
        ("read", read_mbps),
        ("sync share", Some(sync_share)),
    ] {
        if v.is_some_and(|v| !(v.is_finite() && v > 0.0)) {
            errors.push(format!("virtual {name} is {v:?}"));
        }
    }

    let setup_s = outs
        .iter()
        .map(|o| o.ready - t_start)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let op_s = OPS.map(|op| union_seconds(outs.iter().flat_map(|o| &o.stamps.0), op));
    let wall_s = t_start.elapsed().as_secs_f64();
    let mut d = Vec::new();
    for o in &outs {
        d.extend(o.write_s.to_bits().to_le_bytes());
        d.extend(o.read_s.unwrap_or(0.0).to_bits().to_le_bytes());
        push_profile(&mut d, &o.profile);
    }
    for v in [
        fs_stats.total_bytes,
        fs_stats.total_requests,
        fs_stats.opens,
        fs_stats.integrity_repaired,
    ] {
        d.extend(v.to_le_bytes());
    }
    d.extend(fs_stats.max_ost_busy.as_secs().to_bits().to_le_bytes());
    for ost in &fs_stats.osts {
        d.extend(ost.busy.as_secs().to_bits().to_le_bytes());
        d.extend(ost.bytes.to_le_bytes());
        d.extend(ost.requests.to_le_bytes());
    }

    let mut out = RunOut {
        wall_s,
        setup_s,
        write_mbps,
        read_mbps,
        sync_share,
        profile_max,
        fs: fs_stats,
        mode: outs[0].mode,
        op_s,
        write_rss_mb: write_probe.growth_mb(),
        read_rss_mb: read_probe.growth_mb(),
        errors,
        digest: simnet::fnv1a(&d),
    };
    if seed == JAGUAR_SEED {
        for r in w.references() {
            let got = (r.got)(&out);
            if (got - r.value).abs() > 1e-9 * r.value.abs() {
                out.errors.push(format!(
                    "{} {}: got {got}, committed {}",
                    r.row, r.metric, r.value
                ));
            }
        }
    }
    out
}

fn push_profile(d: &mut Vec<u8>, p: &PhaseProfile) {
    for t in [p.sync, p.p2p, p.io, p.local] {
        d.extend(t.as_secs().to_bits().to_le_bytes());
    }
    d.extend(p.calls.to_le_bytes());
    d.extend(p.rounds.to_le_bytes());
}

/// Length of the union of per-call intervals `[first entry, last exit]`
/// of `op`: concurrent calls merge, calls separated by other work add.
fn union_seconds<'a>(
    stamps: impl Iterator<Item = &'a (Op, usize, Instant, Instant)>,
    op: Op,
) -> f64 {
    let mut per_call: Vec<(Instant, Instant)> = Vec::new();
    for &(_, seq, t0, t1) in stamps.filter(|s| s.0 == op) {
        if per_call.len() <= seq {
            per_call.resize(seq + 1, (t0, t1));
        }
        let iv = &mut per_call[seq];
        *iv = (iv.0.min(t0), iv.1.max(t1));
    }
    per_call.sort();
    let mut total = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for (a, b) in per_call {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += (e - s).as_secs_f64();
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| (e - s).as_secs_f64())
}
