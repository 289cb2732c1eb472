//! Per-layer measurements, one crate at a time, taken from outside the
//! crates: the benchmark times its own calls into each crate's public
//! functions and reads public result structs, the trace sink's counters
//! and the `simtrace::host` report.
//!
//! Layer metrics are named `<crate>.<quantity>_<unit>`; the README in
//! this directory says which end-to-end metric each one should move.

use crate::workload::{Op, RunOut, Workload};
use mpiio::{Ext, FileView};
use simfs::{FileSystem, FsConfig};
use simmpi::{Communicator, ReduceOp};
use simnet::{run_cluster, ClusterConfig, IoBuffer, Mapping, SimTime};
use simtrace::host::{self, Site};
use std::sync::Arc;
use std::time::Instant;

/// One named measurement with its unit.
pub type Metric = (&'static str, &'static str, f64);

/// Layer metrics read off an untraced or traced workload run: host time
/// around the `ParcollFile` calls, the slowest rank's `PhaseProfile` and
/// the file system's `FsStats`.
pub fn from_run(out: &RunOut) -> Vec<Metric> {
    let p = &out.profile_max;
    let fs = &out.fs;
    vec![
        ("parcoll.open_s", "s", out.op_seconds(Op::Open)),
        ("parcoll.write_at_all_s", "s", out.op_seconds(Op::Write)),
        ("parcoll.read_at_all_s", "s", out.op_seconds(Op::Read)),
        ("parcoll.close_s", "s", out.op_seconds(Op::Close)),
        ("parcoll.write_at_all_rss_mb", "MB", out.write_rss_mb),
        ("parcoll.read_at_all_rss_mb", "MB", out.read_rss_mb),
        ("mpiio.virt_sync_s", "s", p.sync.as_secs()),
        ("mpiio.virt_p2p_s", "s", p.p2p.as_secs()),
        ("mpiio.virt_io_s", "s", p.io.as_secs()),
        ("mpiio.virt_local_s", "s", p.local.as_secs()),
        ("mpiio.rounds", "count", p.rounds as f64),
        ("simfs.requests", "count", fs.total_requests as f64),
        ("simfs.mb", "MB", fs.total_bytes as f64 / 1e6),
        ("simfs.mean_request_kb", "KB", fs.mean_request_bytes() / 1e3),
        ("simfs.imbalance", "ratio", fs.imbalance()),
        ("simfs.max_ost_busy_virt_s", "s", fs.max_ost_busy.as_secs()),
        (
            "simfs.image_resident_mb",
            "MB",
            fs.image_resident_bytes as f64 / 1e6,
        ),
        ("virt_read_MBps", "MB/s", out.read_mbps.unwrap_or(0.0)),
    ]
}

/// Layer metrics of a traced run: the sink's counters and collective
/// waits, and the host profiler's self times.
pub fn from_trace(trace: &simtrace::Trace, report: &host::Report) -> Vec<Metric> {
    let counter = |name: &str| -> f64 {
        trace
            .tracks
            .iter()
            .filter_map(|t| t.counters.get(name))
            .sum::<u64>() as f64
    };
    let events: usize = trace.tracks.iter().map(|t| t.events.len()).sum();
    let ops = simtrace::collective_ops(trace);
    let wait_s: f64 = ops.iter().map(|o| o.total_wait_us).sum::<f64>() / 1e6;
    let max_wait_s = ops.iter().map(|o| o.max_wait_us).fold(0.0, f64::max) / 1e6;
    let sites = report.by_site();
    let self_s = |site: Site| -> f64 {
        sites
            .iter()
            .filter(|a| a.site == site)
            .map(|a| a.self_ns)
            .sum::<u64>() as f64
            / 1e9
    };
    vec![
        ("simnet.fiber_sched_self_s", "s", self_s(Site::FiberSched)),
        ("simnet.fiber_run_self_s", "s", self_s(Site::FiberRun)),
        ("simnet.mbox_deliver_self_s", "s", self_s(Site::MboxDeliver)),
        ("simnet.mbox_recv_self_s", "s", self_s(Site::MboxRecv)),
        ("simnet.rank_stalls", "count", counter("rank_stalls")),
        ("simnet.events", "count", events as f64),
        ("simmpi.collectives", "count", ops.len() as f64),
        ("simmpi.wait_virt_s", "s", wait_s),
        ("simmpi.max_wait_virt_s", "s", max_wait_s),
        ("mpiio.pack_self_s", "s", self_s(Site::Pack)),
        ("mpiio.unpack_self_s", "s", self_s(Site::Unpack)),
        (
            "mpiio.sieve_covering_reads",
            "count",
            counter("sieve_covering_reads"),
        ),
        (
            "mpiio.sieve_list_reads",
            "count",
            counter("sieve_list_reads"),
        ),
        ("mpiio.pieces_repaired", "count", counter("pieces_repaired")),
        ("simfs.ost_serve_self_s", "s", self_s(Site::OstServe)),
    ]
}

/// Host time of `f`, in seconds, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A cluster shaped like the workload's: `n` dual-core block-mapped
/// ranks at the process-default worker count.
fn cluster(n: usize) -> ClusterConfig {
    ClusterConfig::cray_xt(n, Mapping::Block)
}

/// Host span `[first start, last end]` over ranks, in seconds.
fn span(stamps: &[(Instant, Instant)]) -> f64 {
    let t0 = stamps.iter().map(|s| s.0).min().expect("at least one rank");
    let t1 = stamps.iter().map(|s| s.1).max().expect("at least one rank");
    (t1 - t0).as_secs_f64()
}

/// Standalone replays of each layer at the workload's scale: the
/// cluster runtime, point-to-point messaging, checksums, collectives
/// and splits at the workload's communicator size, view flattening,
/// file-area partitioning, intermediate-view translation and OST
/// request service.
pub fn replays(w: Workload, out: &RunOut, seed: u64) -> Vec<Metric> {
    let p = w.nprocs();
    let g = w.groups();
    let image = w.checkpoint();
    // Each rank's flattened runs for its first write.
    let first_plans: Vec<Vec<Ext>> = (0..p)
        .map(|r| {
            let (disp, ft) = image.view(r);
            let (off, bytes) = image.call(r, 0);
            FileView::new(disp, &ft).extents(off, bytes)
        })
        .collect();
    let mut m = Vec::new();

    // simnet: cluster start-up and teardown with an empty rank body.
    let spawn = median(
        (0..3)
            .map(|_| timed(|| run_cluster(cluster(p), |_| ())).0)
            .collect(),
    );
    m.push(("simnet.spawn_s", "s", spawn));

    // simnet: a sendrecv ring, ~20k small messages in all.
    let laps = (20_000 / p).max(1);
    let stamps = run_cluster(cluster(p), move |ep| {
        let comm = Communicator::world(&ep);
        let (r, n) = (comm.rank(), comm.size());
        comm.barrier();
        let t0 = Instant::now();
        for _ in 0..laps {
            comm.sendrecv((r + 1) % n, 7, IoBuffer::synthetic(64), (r + n - 1) % n, 7);
        }
        (t0, Instant::now())
    });
    m.push((
        "simnet.p2p_us_per_msg",
        "us",
        span(&stamps) * 1e6 / (p * laps) as f64,
    ));

    // simnet: checksum throughput, one digest per piece the size of the
    // mean contiguous run of the first call's plans, 256 MiB in all.
    let (runs, bytes) = first_plans
        .iter()
        .flatten()
        .fold((0u64, 0u64), |(n, b), e| (n + 1, b + e.len));
    let piece = (bytes / runs.max(1)).clamp(64, 1 << 20) as usize;
    let data: Vec<u8> = (0..16usize << 20).map(|i| (i * 31 % 251) as u8).collect();
    let (secs, _) = timed(|| {
        let mut acc = 0u64;
        for _ in 0..16 {
            for c in data.chunks(piece) {
                let mut h = simnet::Fnv1a::new();
                h.update(std::hint::black_box(c));
                acc ^= h.digest();
            }
        }
        std::hint::black_box(acc)
    });
    m.push((
        "simnet.cksum_GBps",
        "GB/s",
        (16 * data.len()) as f64 / secs / 1e9,
    ));

    // simmpi: per-call host cost at the communicator size the workload's
    // exchanges run on (P for the baseline, P/G under ParColl).
    let n = p / g;
    let calls = (20_000 / n).clamp(20, 500);
    let per_op = run_cluster(cluster(n), move |ep| {
        let comm = Communicator::world(&ep);
        let n = comm.size();
        let mut out = Vec::new();
        for op in 0..4 {
            comm.barrier();
            let t0 = Instant::now();
            for _ in 0..calls {
                match op {
                    0 => comm.barrier(),
                    1 => drop(comm.allgather_t(Some((1u64, 2u64)), 16)),
                    2 => drop(comm.alltoall_sizes(vec![8u64; n])),
                    _ => drop(comm.allreduce_u64(&[1], ReduceOp::Sum)),
                }
            }
            out.push((t0, Instant::now()));
        }
        out
    });
    let names = [
        "simmpi.barrier_us",
        "simmpi.allgather_us",
        "simmpi.alltoall_us",
        "simmpi.allreduce_us",
    ];
    for (op, name) in names.into_iter().enumerate() {
        let stamps: Vec<_> = per_op.iter().map(|r| r[op]).collect();
        m.push((name, "us", span(&stamps) * 1e6 / calls as f64));
    }

    // simmpi: splitting the world into the workload's G subgroups.
    let splits = run_cluster(cluster(p), move |ep| {
        let comm = Communicator::world(&ep);
        let color = (comm.rank() * g / comm.size()) as i64;
        (0..3)
            .map(|_| {
                comm.barrier();
                let t0 = Instant::now();
                drop(comm.split(Some(color), 0));
                (t0, Instant::now())
            })
            .collect::<Vec<_>>()
    });
    let split_s = (0..3)
        .map(|i| span(&splits.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .sum::<f64>()
        / 3.0;
    m.push(("simmpi.split_s", "s", split_s));

    // mpiio: every rank's checkpoint view and its plans for every call.
    let (flatten_s, plans) = timed(|| {
        (0..p)
            .map(|r| {
                let (disp, ft) = image.view(r);
                let view = FileView::new(disp, &ft);
                (0..image.ncalls())
                    .map(|c| {
                        let (off, bytes) = image.call(r, c);
                        view.extents(off, bytes).len()
                    })
                    .sum::<usize>()
            })
            .sum::<usize>()
    });
    std::hint::black_box(plans);
    m.push(("mpiio.flatten_s", "s", flatten_s));

    // parcoll: the file-area cut at G over the first call's ranges.
    let ranges: Vec<Option<(u64, u64)>> = first_plans
        .iter()
        .map(|ex| Some((ex.first()?.off, ex.last()?.end())))
        .collect();
    let reps = 20;
    let (fa_s, _) = timed(|| {
        for _ in 0..reps {
            std::hint::black_box(parcoll::partition_file_areas(&ranges, g).is_ok());
        }
    });
    m.push(("parcoll.fa_partition_s", "s", fa_s / reps as f64));

    // parcoll: intermediate-view map and translation of each subgroup's
    // collective-buffer windows, on workloads that take that path.
    let (map_s, translate_s, iview_runs) = if matches!(
        out.mode,
        Some(parcoll::coll::PartitionMode::IntermediateView { .. })
    ) {
        iview(first_plans, p, g)
    } else {
        (0.0, 0.0, 0)
    };
    m.push(("parcoll.iview_map_s", "s", map_s));
    m.push(("parcoll.iview_translate_s", "s", translate_s));
    m.push(("parcoll.iview_runs", "count", iview_runs as f64));

    // simfs: the run's request count (capped) at its mean request size,
    // replayed on a fresh file system: writes, then list reads of 64
    // extents per call.
    let reqs = out.fs.total_requests.clamp(1, 20_000) as usize;
    let size = (out.fs.mean_request_bytes() as usize).max(1);
    let fs = FileSystem::new(FsConfig {
        seed,
        ..FsConfig::jaguar()
    });
    let (fh, mut now) = fs.open("/replay", SimTime::ZERO);
    let (write_s, _) = timed(|| {
        for i in 0..reqs {
            now = fh.write_at((i * size) as u64, &IoBuffer::synthetic(size), now);
        }
    });
    let extents: Vec<(u64, u64)> = (0..reqs)
        .map(|i| ((i * size) as u64, size as u64))
        .collect();
    let (read_s, _) = timed(|| {
        for batch in extents.chunks(64) {
            let (bufs, done) = fh.read_list(batch, now);
            std::hint::black_box(bufs);
            now = done;
        }
    });
    m.push(("simfs.write_us_per_req", "us", write_s * 1e6 / reqs as f64));
    m.push((
        "simfs.read_list_us_per_req",
        "us",
        read_s * 1e6 / reqs as f64,
    ));
    m
}

/// Build the intermediate view's logical map from every rank's runs and
/// translate each subgroup's logical range in 4 MiB collective-buffer
/// windows. Returns (map seconds, translate seconds, physical runs).
fn iview(lists: Vec<Vec<Ext>>, p: usize, g: usize) -> (f64, f64, usize) {
    let (map_s, map) = timed(|| Arc::new(parcoll::LogicalMap::new(lists)));
    const WINDOW: u64 = 4 << 20;
    let (translate_s, runs) = timed(|| {
        let mut runs = 0;
        for grp in 0..g {
            let (lo, _) = map.rank_range(grp * p / g);
            let (_, hi) = map.rank_range((grp + 1) * p / g - 1);
            let mut off = lo;
            while off < hi {
                let len = WINDOW.min(hi - off);
                runs += map.to_physical(off, len).len();
                off += len;
            }
        }
        runs
    });
    (map_s, translate_s, runs)
}
