//! `parcoll_sim` — command-line driver for the simulated I/O stack.
//!
//! Run any of the paper's workloads at any scale through any I/O path:
//!
//! ```text
//! parcoll_sim <ior|tileio|btio|flashio> [options]
//!   --procs N            ranks (default 64; btio rounds to a square)
//!   --mode M             baseline | parcoll | independent (default parcoll)
//!   --groups G           ParColl subgroups (default procs/16)
//!   --verify             real data + byte-exact read-back (default synthetic)
//!   --mapping M          block | cyclic (default block)
//!   --cb-nodes N         cap aggregators at one per node, N nodes
//!   --align BYTES        stripe-align collective file domains
//!   --autotune           online feedback tuning (parcoll::autotune)
//!   --integrity          end-to-end checksums (pieces + at-rest pages)
//!   --scrub              at-rest scrub pass after the run (implies --integrity)
//!   --rot N              plant N seeded at-rest rot extents (with --scrub)
//!   --block BYTES        ior: per-rank block (default 64 MiB)
//!   --transfer BYTES     ior: per-call transfer (default 4 MiB)
//!   --calls N            ior: cap transfer count
//!   --grid N             btio: grid points per dimension (default 64)
//!   --steps N            btio: write steps (default 5)
//!   --blocks N           flashio: blocks per process (default 8)
//! ```
//!
//! Prints bandwidth and the per-phase profile — the numbers the paper's
//! figures are made of.

use simfs::FsConfig;
use simnet::Mapping;
use workloads::btio::BtIo;
use workloads::flashio::FlashIo;
use workloads::ior::Ior;
use workloads::runner::{run_workload, DataMode, IoMode, RunConfig, RunResult};
use workloads::tileio::TileIo;
use workloads::Workload;

struct Args {
    map: std::collections::BTreeMap<String, String>,
    flags: std::collections::BTreeSet<String>,
    workload: String,
}

impl Args {
    fn parse() -> Args {
        let mut it = std::env::args().skip(1);
        let workload = it.next().unwrap_or_else(|| usage("missing workload"));
        let mut map = std::collections::BTreeMap::new();
        let mut flags = std::collections::BTreeSet::new();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .unwrap_or_else(|| usage(&format!("unexpected argument {a:?}")))
                .to_string();
            match key.as_str() {
                "verify" | "autotune" | "integrity" | "scrub" => {
                    flags.insert(key);
                }
                _ => {
                    let v = it.next().unwrap_or_else(|| usage(&format!("--{key} needs a value")));
                    map.insert(key, v);
                }
            }
        }
        Args {
            map,
            flags,
            workload,
        }
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.map.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad value for --{key}: {v:?}"))),
            None => default,
        }
    }

    fn get_str(&self, key: &str, default: &str) -> String {
        self.map.get(key).cloned().unwrap_or_else(|| default.into())
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: parcoll_sim <ior|tileio|btio|flashio> [--procs N] [--mode baseline|parcoll|independent] [--groups G] [--verify] [--mapping block|cyclic] [--cb-nodes N] [--align BYTES] [--autotune] [workload options]");
    std::process::exit(2);
}

fn main() {
    let args = Args::parse();
    let procs: usize = args.get("procs", 64);
    let groups: usize = args.get("groups", (procs / 16).max(2));
    let mode = match args.get_str("mode", "parcoll").as_str() {
        "baseline" => IoMode::Collective,
        "parcoll" => IoMode::Parcoll { groups },
        "independent" => IoMode::Independent,
        other => usage(&format!("unknown mode {other:?}")),
    };
    let mapping = match args.get_str("mapping", "block").as_str() {
        "block" => Mapping::Block,
        "cyclic" => Mapping::Cyclic,
        other => usage(&format!("unknown mapping {other:?}")),
    };

    let mut cfg = RunConfig {
        mode,
        data: if args.flags.contains("verify") {
            DataMode::Verify
        } else {
            DataMode::Synthetic
        },
        info: simmpi::Info::new(),
        mapping,
        fs: if args.flags.contains("verify") {
            FsConfig::tiny()
        } else {
            FsConfig::jaguar()
        },
        read_back: args.flags.contains("verify"),
        trace: simtrace::TraceSink::disabled(),
        faults: None,
        integrity: args.flags.contains("integrity") || args.flags.contains("scrub"),
        scrub: args.flags.contains("scrub"),
        autotune: args
            .flags
            .contains("autotune")
            .then(parcoll::PolicyCache::new),
    };
    if let Some(n) = args.map.get("cb-nodes") {
        cfg.info.set("cb_nodes", n);
    }
    if let Some(a) = args.map.get("align") {
        cfg.info.set("striping_unit", a);
    }
    let rot: usize = args.get("rot", 0);
    if rot > 0 {
        // Seeded at-rest corruption for the scrubber to find: spread the
        // extents across the front of the file image.
        let mut plan = simnet::FaultPlan::new(0xD1CE);
        for i in 0..rot {
            plan = plan.ost_rot((i as u64) * (1 << 20), 4096);
        }
        cfg.faults = Some(std::sync::Arc::new(plan));
    }

    let result: RunResult = match args.workload.as_str() {
        "ior" => {
            let w = Ior {
                nprocs: procs,
                block_size: args.get("block", 64u64 << 20),
                transfer_size: args.get("transfer", 4u64 << 20),
                max_calls: args.map.get("calls").map(|v| {
                    v.parse().unwrap_or_else(|_| usage("bad --calls"))
                }),
            };
            describe(&w);
            run_workload(w, cfg)
        }
        "tileio" => {
            let w = TileIo::paper(procs);
            describe(&w);
            run_workload(w, cfg)
        }
        "btio" => {
            let q = (procs as f64).sqrt().floor() as usize;
            let w = BtIo::with_grid(q * q, args.get("grid", 64), args.get("steps", 5));
            describe(&w);
            run_workload(w, cfg)
        }
        "flashio" => {
            let mut w = FlashIo::checkpoint(procs);
            w.blocks_per_proc = args.get("blocks", 8);
            describe(&w);
            run_workload(w, cfg)
        }
        other => usage(&format!("unknown workload {other:?}")),
    };

    println!("elapsed (virtual) : {:.4} s", result.write_seconds);
    println!("write bandwidth   : {:.1} MB/s", result.write_mbps);
    if let Some(r) = result.read_mbps {
        println!("read bandwidth    : {r:.1} MB/s (verified byte-exact)");
    }
    let p = &result.profile_avg;
    println!(
        "profile (avg rank): sync {:.4}s | p2p {:.4}s | io {:.4}s  (sync share {:.1}%)",
        p.sync.as_secs(),
        p.p2p.as_secs(),
        p.io.as_secs(),
        p.sync_fraction() * 100.0
    );
    println!(
        "rounds={} collective_calls={}",
        result.profile_max.rounds, result.profile_max.calls
    );
    if let Some(scrub) = &result.scrub {
        println!(
            "scrub: {} files, {:.1} MB scanned, {} extents repaired, {} unrepairable",
            scrub.files_scanned,
            scrub.bytes_scanned as f64 / 1e6,
            scrub.repaired.len(),
            scrub.unrepairable.len()
        );
        for (path, off, len) in &scrub.repaired {
            println!("  repaired {path} [{off}, +{len})");
        }
        for (path, off, len) in &scrub.unrepairable {
            println!("  UNREPAIRABLE {path} [{off}, +{len})");
        }
    }
}

fn describe<W: Workload>(w: &W) {
    println!(
        "workload {} : {} ranks, {} calls, {:.1} MB total",
        w.name(),
        w.nprocs(),
        w.ncalls(),
        w.total_bytes() as f64 / 1e6
    );
}
