//! `hostperf` — wall-clock timing of figure regeneration (host seconds,
//! not virtual seconds). Complements `regress`, which pins the *virtual*
//! results: this harness pins how long the simulator takes to produce
//! them, so host-performance regressions are visible in review instead
//! of silently making the paper-scale gate impractical.
//!
//! ```text
//! hostperf [--quick] [--iters N] [--warmup N] [--series LABEL]
//!          [--figure NAME]... [--stack-size BYTES] [--profile]
//!          [--workers N] [--workers-matrix] [--integrity-ab]
//!          [--check <baseline.json>] [--tol FIGURE=REL[:ABS]]...
//!          [--check-overhead <baseline.json>] [--out PATH] [--no-emit]
//! ```
//!
//! Each tracked figure sweep runs in-process (no exec overhead): `warmup`
//! discarded runs, then `iters` timed runs (`--figure` selects sweeps by
//! exact name); the row reports the median
//! with min/max/mean extras. Series are labeled `<figure>@<LABEL>` so one
//! document can hold several builds side by side — the committed
//! `bench_results/BENCH_hostperf.json` carries the pre-PR baseline series
//! next to the current one, which is how speedups stay reviewable.
//!
//! `--check` compares this run's medians against the matching series in a
//! baseline document and exits nonzero on a wall-clock regression — the
//! CI smoke gate. The envelope is **per figure** (like `bench::regress`
//! tolerances): a millisecond-scale series like fig1 gets an absolute
//! floor absorbing scheduler noise without loosening the relative gate
//! on the slower, steadier sweeps; `--tol FIGURE=REL[:ABS]` overrides a
//! figure's envelope from the command line.
//!
//! `--check-overhead` is the profiler A/B gate: it compares this build's
//! medians against a baseline emitted by a `--features hostprof-off`
//! build (probes compiled out) by figure name, ignoring `@LABEL`, and
//! fails if the disarmed probes cost more than 2%. `--profile` runs one
//! extra profiled iteration per figure after timing and prints the
//! `hostprof` attribution (never affecting the timed samples).
//! `--stack-size` overrides the per-rank thread stack for every cluster
//! the sweeps spawn (see `ClusterConfig::stack_size`).
//!
//! `--integrity-ab` is the checksum-cost gate (DESIGN.md §14): it times
//! fig1/fig9-shaped *real-data* sweeps twice in-process — end-to-end
//! integrity off, then on — and fails if checksums-on costs more than 5%
//! wall-clock. Real data matters: the default tracked sweeps run
//! synthetic buffers, where sealing is a placeholder and an A/B would
//! measure nothing. Both sides are emitted as `<figure>@integrity-off` /
//! `@integrity-on` rows so the trajectory is reviewable.
//!
//! `--workers N` pins the sharded fiber executor's worker count for the
//! whole run (equivalent to `SIMNET_WORKERS=N`; CI's overhead A/B runs
//! at `--workers 4` so the gate covers the multi-threaded scheduler).
//! `--workers-matrix` additionally times fig1/fig7/fig9 at
//! `SIMNET_WORKERS={1,2,4,8}` and emits them as `<figure>@workers<N>`
//! series rows — the committed sharded-executor trajectory. Virtual
//! results are bitwise identical across the matrix (the determinism
//! suite pins that); only host wall time moves. Sharded rows get their
//! own looser one-sided `--check` envelope: on shared runners the
//! worker threads contend with whatever else the machine runs, and on
//! single-core runners `workers>1` legitimately costs scheduling
//! overhead instead of gaining parallelism.

use bench::figures::{figure, tileio_at};
use bench::hostprof::{scenarios, Scenario};
use bench::regress::Tolerance;
use bench::{emit_json, print_table, rows_from_json, rows_to_json, Row, Scale};
use std::time::Instant;

/// Runtime-off overhead budget for `--check-overhead`: the default build
/// (probes compiled in, disarmed) may cost at most 2% over the
/// `hostprof-off` build, plus a 0.1 ms absolute floor so millisecond
/// figures don't fail on scheduler noise.
const OVERHEAD_TOL: Tolerance = Tolerance { rel: 0.02, abs: 1e-4 };

/// `--integrity-ab` budget: checksums-on may cost at most 5% wall over
/// checksums-off on the same real-data sweep, plus a 2 ms absolute floor
/// so the quick-scale (tens of ms) sweeps don't fail on scheduler noise.
const INTEGRITY_TOL: Tolerance = Tolerance { rel: 0.05, abs: 2e-3 };

/// Per-figure `--check` envelope. fig1 regenerates in ~3 ms at quick
/// scale — pure relative gating would make it the loosest or the
/// noisiest series depending on the constant, so the fast sweeps get an
/// absolute floor and the long steady ones a tighter relative bound.
/// `@workers<N>` sharded series get their own one-sided envelope:
/// multi-worker wall time depends on how many cores the runner actually
/// has free, so the budget is looser both relatively and absolutely
/// (still one-sided — a sharded config can only fail by getting
/// *slower* than its own baseline). Overrides match either the bare
/// figure name or the full `figure@label` series.
fn check_tolerance(series: &str, overrides: &[(String, Tolerance)]) -> Tolerance {
    let figure = figure_of(series);
    if let Some((_, tol)) = overrides.iter().find(|(f, _)| f == series || f == figure) {
        return *tol;
    }
    if let Some((_, label)) = series.split_once('@') {
        if label.starts_with("workers") {
            return Tolerance { rel: 0.40, abs: 0.005 };
        }
    }
    match figure {
        "fig7_tileio_groups" => Tolerance { rel: 0.20, abs: 0.002 },
        // The read sweep runs every point twice (sieving off/on), so it
        // gets a slightly higher absolute floor; still one-sided.
        "read_sweep" => Tolerance { rel: 0.25, abs: 0.003 },
        _ => Tolerance { rel: 0.25, abs: 0.002 },
    }
}

/// The figure name a series belongs to (`fig1_collective_wall@HEAD` →
/// `fig1_collective_wall`).
fn figure_of(series: &str) -> &str {
    series.split('@').next().unwrap_or(series)
}

struct Args {
    scale: Scale,
    iters: usize,
    warmup: usize,
    series: String,
    figures: Vec<String>,
    profile: bool,
    workers_matrix: bool,
    integrity_ab: bool,
    check: Option<String>,
    check_overhead: Option<String>,
    tol_overrides: Vec<(String, Tolerance)>,
    out: Option<String>,
    emit: bool,
}

impl Args {
    /// Whether `--figure` selects the sweep `name` (every sweep when no
    /// `--figure` was given).
    fn selects(&self, name: &str) -> bool {
        self.figures.is_empty() || self.figures.iter().any(|f| f == name)
    }
}

fn parse_args() -> Args {
    let mut out = Args {
        scale: Scale::from_args(),
        iters: 5,
        warmup: 1,
        series: "HEAD".to_string(),
        figures: Vec::new(),
        profile: false,
        workers_matrix: false,
        integrity_ab: false,
        check: None,
        check_overhead: None,
        tol_overrides: Vec::new(),
        out: None,
        emit: true,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> &str {
            argv.get(i + 1).unwrap_or_else(|| {
                eprintln!("hostperf: {} needs a value", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--quick" => {}
            "--iters" => {
                out.iters = value(i).parse().expect("--iters: not a number");
                i += 1;
            }
            "--warmup" => {
                out.warmup = value(i).parse().expect("--warmup: not a number");
                i += 1;
            }
            "--series" => {
                out.series = value(i).to_string();
                i += 1;
            }
            "--figure" => {
                out.figures.push(value(i).to_string());
                i += 1;
            }
            "--profile" => out.profile = true,
            "--workers" => {
                let n: usize = value(i).parse().expect("--workers: not a number");
                simnet::set_workers(n);
                i += 1;
            }
            "--workers-matrix" => out.workers_matrix = true,
            "--integrity-ab" => out.integrity_ab = true,
            "--stack-size" => {
                let bytes: usize = value(i).parse().expect("--stack-size: not a number");
                simnet::set_default_stack_size(bytes);
                i += 1;
            }
            "--check" => {
                out.check = Some(value(i).to_string());
                i += 1;
            }
            "--check-overhead" => {
                out.check_overhead = Some(value(i).to_string());
                i += 1;
            }
            "--tol" => {
                out.tol_overrides.push(parse_tol(value(i)));
                i += 1;
            }
            "--out" => {
                out.out = Some(value(i).to_string());
                i += 1;
            }
            "--no-emit" => out.emit = false,
            other => {
                eprintln!("hostperf: unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    assert!(out.iters >= 1, "--iters must be at least 1");
    out
}

/// Parse `FIGURE=REL[:ABS]` (e.g. `fig1_collective_wall=0.4:0.005`).
fn parse_tol(spec: &str) -> (String, Tolerance) {
    let bad = || -> ! {
        eprintln!("hostperf: --tol wants FIGURE=REL[:ABS], got {spec:?}");
        std::process::exit(2);
    };
    let Some((figure, rest)) = spec.split_once('=') else { bad() };
    let (rel, abs) = match rest.split_once(':') {
        Some((r, a)) => (r.parse().unwrap_or_else(|_| bad()), a.parse().unwrap_or_else(|_| bad())),
        None => (rest.parse().unwrap_or_else(|_| bad()), 0.0),
    };
    (figure.to_string(), Tolerance { rel, abs })
}

/// The timed sweeps: the registry figures `hostprof` profiles (see
/// [`bench::hostprof::TRACKED`]) plus `chaos_recovery`, the fault path:
/// an aggregator crash after the first write round forces the failover
/// replay (re-dissemination, cursor rebuild, adopted-domain exchange) on
/// every collective call that follows — this row prices that machinery
/// in host time.
fn tracked(scale: Scale) -> Vec<Scenario> {
    let ranks = scale.pick(64, 16);
    let chaos_recovery = move || {
        use workloads::runner::{run_workload, IoMode, RunConfig};
        use workloads::tileio::TileIo;
        let mut cfg = RunConfig::paper(IoMode::Collective);
        cfg.info.set("cb_nodes", 4i64);
        cfg.info.set("cb_buffer_size", 128i64);
        cfg.faults = Some(std::sync::Arc::new(
            simnet::FaultPlan::new(0xDEAD).aggregator_crash(0, 1),
        ));
        std::hint::black_box(run_workload(TileIo::tiny(ranks), cfg));
    };
    let mut all = scenarios(scale);
    all.push(("chaos_recovery", Box::new(chaos_recovery)));
    all
}

/// A sweep the `--integrity-ab` gate times, parameterized by the checksum
/// knob: `(figure name, runner)`.
type IntegrityScenario = (&'static str, Box<dyn Fn(bool)>);

/// The fig1/fig9-shaped sweeps the `--integrity-ab` gate times, each
/// parameterized by the checksum knob. Paper configuration on both
/// sides — the same synthetic regime the tracked fig1/fig9 sweeps run —
/// so the A/B isolates what turning integrity on costs the figure
/// pipeline itself: the hint plumbing, trailer bookkeeping, and per-page
/// sum tracking (synthetic pages record a marker, real hashing only
/// happens where data is real).
fn integrity_scenarios(scale: Scale) -> Vec<IntegrityScenario> {
    use workloads::runner::{run_workload, IoMode, RunConfig};
    let full = scale == Scale::Paper;
    let paper_run = move |p: usize, mode: IoMode, integrity: bool| {
        let mut cfg = RunConfig::paper(mode);
        cfg.integrity = integrity;
        std::hint::black_box(run_workload(tileio_at(p, full), cfg));
    };
    let procs = |name| figure(name).expect("registered figure").procs_at(scale);
    let (fig1_procs, fig9_procs) = (procs("fig1_collective_wall"), procs("fig9_scalability"));
    vec![
        (
            "fig1_collective_wall",
            Box::new(move |integrity| {
                for &p in fig1_procs {
                    paper_run(p, IoMode::Collective, integrity);
                }
            }) as Box<dyn Fn(bool)>,
        ),
        (
            "fig9_scalability",
            Box::new(move |integrity| {
                for &p in fig9_procs {
                    paper_run(p, IoMode::Collective, integrity);
                    let g = (p / 8).clamp(2, 64);
                    paper_run(p, IoMode::Parcoll { groups: g }, integrity);
                }
            }),
        ),
    ]
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Load a baseline row document or exit with a diagnostic.
fn load_baseline(path: &str) -> Vec<Row> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("hostperf: cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    rows_from_json(&text).unwrap_or_else(|| {
        eprintln!("hostperf: {path} is not a row document");
        std::process::exit(2);
    })
}

/// Warmup + timed iterations of one sweep; returns sorted samples.
fn time_sweep(run: &dyn Fn(), warmup: usize, iters: usize) -> Vec<f64> {
    for _ in 0..warmup {
        run();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        run();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples
}

fn timing_row(series: String, samples: &[f64], iters: usize) -> Row {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Row::new(series, 0.0, median(samples), "s")
        .with("min", samples[0])
        .with("max", *samples.last().expect("at least one iteration"))
        .with("mean", mean)
        .with("iters", iters as f64)
}

/// The figures the `--workers-matrix` sharded series cover, and the
/// worker counts they sweep.
const MATRIX_FIGURES: [&str; 3] =
    ["fig1_collective_wall", "fig7_tileio_groups", "fig9_scalability"];
const MATRIX_WORKERS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let args = parse_args();
    let mut rows = Vec::new();
    for (name, run) in tracked(args.scale) {
        if !args.selects(name) {
            continue;
        }
        let samples = time_sweep(&run, args.warmup, args.iters);
        rows.push(timing_row(
            format!("{name}@{}", args.series),
            &samples,
            args.iters,
        ));
        if args.profile {
            // One extra armed run, outside the timed samples above.
            let profiled = bench::hostprof::profile(&run);
            bench::hostprof::print_top(name, &profiled, 8);
        }
    }
    if args.workers_matrix {
        // The sharded-executor trajectory: same sweeps, worker counts
        // pinned per series. Restore the ambient worker count after, so
        // `--workers`/`SIMNET_WORKERS` still governs anything else.
        let ambient = simnet::workers();
        let all = tracked(args.scale);
        for name in MATRIX_FIGURES {
            let (_, run) = all.iter().find(|(n, _)| *n == name).expect("matrix figure is tracked");
            if !args.selects(name) {
                continue;
            }
            for w in MATRIX_WORKERS {
                simnet::set_workers(w);
                let samples = time_sweep(run, args.warmup, args.iters);
                rows.push(
                    timing_row(format!("{name}@workers{w}"), &samples, args.iters)
                        .with("workers", w as f64),
                );
            }
        }
        simnet::set_workers(ambient);
    }
    let mut integrity_failures = 0usize;
    if args.integrity_ab {
        // Checksum-cost A/B: both halves timed back-to-back in this
        // process, so the 5% budget compares like with like instead of
        // this runner against whichever machine wrote the baseline.
        for (name, run) in integrity_scenarios(args.scale) {
            if !args.selects(name) {
                continue;
            }
            let off = time_sweep(&|| run(false), args.warmup, args.iters);
            let on = time_sweep(&|| run(true), args.warmup, args.iters);
            let (m_off, m_on) = (median(&off), median(&on));
            let budget = m_off * (1.0 + INTEGRITY_TOL.rel) + INTEGRITY_TOL.abs;
            let verdict = if m_on > budget {
                integrity_failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "hostperf: integrity: {name} checksums-on {:.4}s vs off {:.4}s \
                 ({:+.2}%, budget {:.0}%+{:.0}ms) {verdict}",
                m_on,
                m_off,
                (m_on / m_off.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                INTEGRITY_TOL.rel * 100.0,
                INTEGRITY_TOL.abs * 1e3,
            );
            rows.push(
                timing_row(format!("{name}@integrity-off"), &off, args.iters),
            );
            rows.push(
                timing_row(format!("{name}@integrity-on"), &on, args.iters)
                    .with("overhead_rel", m_on / m_off.max(f64::MIN_POSITIVE) - 1.0),
            );
            if args.profile {
                let profiled = bench::hostprof::profile(&|| run(true));
                bench::hostprof::print_top(&format!("{name} (checksums on)"), &profiled, 8);
            }
        }
    }
    if rows.is_empty() {
        eprintln!("hostperf: no tracked figure matches {:?}", args.figures);
        std::process::exit(2);
    }
    print_table("hostperf: figure regeneration wall-clock (median)", "-", &rows);

    if let Some(baseline_path) = &args.check {
        let baseline = load_baseline(baseline_path);
        let mut failures = 0usize;
        for fresh in &rows {
            let Some(base) = baseline.iter().find(|b| b.series == fresh.series) else {
                println!("hostperf: {} has no baseline series (skipped)", fresh.series);
                continue;
            };
            let tol = check_tolerance(&fresh.series, &args.tol_overrides);
            // One-sided: only slower-than-baseline trips the gate.
            let budget = base.y * (1.0 + tol.rel) + tol.abs;
            let verdict = if fresh.y > budget {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "hostperf: {} {:.4}s vs baseline {:.4}s ({:+.1}%, budget {:.0}%+{:.1}ms) {verdict}",
                fresh.series,
                fresh.y,
                base.y,
                (fresh.y / base.y.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                tol.rel * 100.0,
                tol.abs * 1e3,
            );
        }
        if failures > 0 {
            eprintln!("hostperf: {failures} figure(s) regressed past their wall-clock envelope");
            std::process::exit(1);
        }
    }

    if let Some(baseline_path) = &args.check_overhead {
        let baseline = load_baseline(baseline_path);
        let mut failures = 0usize;
        let mut compared = 0usize;
        for fresh in &rows {
            let figure = figure_of(&fresh.series);
            let Some(base) = baseline.iter().find(|b| figure_of(&b.series) == figure) else {
                println!("hostperf: overhead: {figure} has no baseline series (skipped)");
                continue;
            };
            compared += 1;
            let budget = base.y * (1.0 + OVERHEAD_TOL.rel) + OVERHEAD_TOL.abs;
            let verdict = if fresh.y > budget {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "hostperf: overhead: {figure} {:.4}s vs probes-compiled-out {:.4}s \
                 ({:+.2}%, budget {:.0}%) {verdict}",
                fresh.y,
                base.y,
                (fresh.y / base.y.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                OVERHEAD_TOL.rel * 100.0,
            );
        }
        if compared == 0 {
            eprintln!("hostperf: overhead baseline {baseline_path} shares no figures with this run");
            std::process::exit(2);
        }
        if failures > 0 {
            eprintln!(
                "hostperf: disarmed probes cost >{:.0}% wall-clock on {failures} figure(s)",
                OVERHEAD_TOL.rel * 100.0
            );
            std::process::exit(1);
        }
    }

    if integrity_failures > 0 {
        eprintln!(
            "hostperf: checksums-on cost >{:.0}% wall-clock on {integrity_failures} figure(s)",
            INTEGRITY_TOL.rel * 100.0
        );
        std::process::exit(1);
    }

    if let Some(path) = &args.out {
        std::fs::write(path, rows_to_json(&rows)).unwrap_or_else(|e| {
            eprintln!("hostperf: cannot write {path}: {e}");
            std::process::exit(2);
        });
    }
    if args.emit {
        emit_json("BENCH_hostperf", &rows);
    }
}
