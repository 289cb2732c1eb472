//! One measured run of a benchmark workload, printed as one JSON line.
//!
//! ```text
//! perfbench run --workload <tile_wall|btio_iview|restart>
//!               [--seed N] [--workers N] [--trace]
//! ```
//!
//! `--seed` sets `FsConfig.seed` (OST jitter and slow draws; default the
//! Jaguar seed, at which each workload must reproduce its committed
//! figure row). `--workers` sets the fiber-executor worker count
//! (default `min(2, available CPUs)`). `--trace` records the run through
//! a trace sink and the host profiler and adds the per-layer replays.
//! `run.py` in this directory drives repeated runs and aggregates them.

use perfbench::layers::{self, Metric};
use perfbench::sys;
use perfbench::workload::{self, Workload, JAGUAR_SEED};
use simtrace::host;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    workers: usize,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench run --workload <tile_wall|btio_iview|restart> \
         [--seed N] [--workers N] [--trace]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    if it.next().as_deref() != Some("run") {
        usage("expected the `run` subcommand");
    }
    let mut workload = None;
    let mut seed = JAGUAR_SEED;
    let mut workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload {v:?}"))),
                );
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--workers" => {
                workers = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--workers needs an integer"))
            }
            "--trace" => trace = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        workers,
        trace,
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let t_start = Instant::now();
    let cpu0 = sys::cpu_seconds();
    let args = parse_args();
    simnet::set_workers(args.workers);
    let w = args.workload;

    let (out, mut metrics): (_, Vec<Metric>) = if args.trace {
        let sink = simtrace::TraceSink::enabled();
        host::reset();
        host::set_enabled(true);
        let out = {
            let _root = host::scope(host::Site::Scenario);
            workload::run(w, args.seed, &sink, t_start)
        };
        host::set_enabled(false);
        let mut m = layers::from_run(&out);
        m.extend(layers::from_trace(&sink.finish(), &host::collect()));
        drop(sink);
        m.extend(layers::replays(w, &out, args.seed));
        (out, m)
    } else {
        let out = workload::run(w, args.seed, &simtrace::TraceSink::disabled(), t_start);
        let m = layers::from_run(&out);
        (out, m)
    };
    let cpu_s = sys::cpu_seconds() - cpu0;
    let peak_rss_mb = sys::peak_rss_kb() as f64 * 1024.0 / 1e6;

    metrics.sort_by_key(|m| m.0);
    let layers: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!("{}: [{}, {}]", json_str(name), json_num(*v), json_str(unit))
        })
        .collect();
    let errs: Vec<String> = out.errors.iter().take(8).map(|e| json_str(e)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"workers\": {}, \"traced\": {}, \"ok\": {}, \
         \"errors\": [{}], \"digest\": \"{:016x}\", \
         \"wall_s\": {}, \"setup_s\": {}, \"cpu_s\": {}, \"peak_rss_mb\": {}, \
         \"virt_write_MBps\": {}, \"virt_read_MBps\": {}, \"virt_sync_share\": {}, \
         \"layers\": {{{}}}}}",
        json_str(w.name()),
        args.seed,
        args.workers,
        args.trace,
        out.errors.is_empty(),
        errs.join(", "),
        out.digest,
        json_num(out.wall_s),
        json_num(out.setup_s),
        json_num(cpu_s),
        json_num(peak_rss_mb),
        json_num(out.write_mbps),
        out.read_mbps.map_or("null".to_string(), json_num),
        json_num(out.sync_share),
        layers.join(", ")
    );
}
