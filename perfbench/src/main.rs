//! `perfbench`: the repository benchmark (see `BENCHMARK.json` at the
//! repository root).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <result-a.json> <result-b.json>
//! ```
//!
//! A run generates its scenes from the seed, builds the engine (timed
//! several times: `setup_s`), then submits jobs in a closed loop for the
//! given seconds and checks the outputs. An untraced run prints every
//! end-to-end metric; a traced run also times spans around calls into
//! each layer and prints the per-layer ledger. The last line of stdout
//! is one JSON object (`correct`, `attempted`, `failed`, `metrics`); the
//! exit code is non-zero when any output check failed. Every run also
//! writes a result file with the host fingerprint under `.bench_results/`.

mod json;
mod layers;
mod report;
mod scene;
mod stats;
mod workload;

use json::Json;
use layers::{Ledger, Probes};
use report::{Fingerprint, Metrics, RunRecord, END_TO_END, PER_LAYER, RESULTS_DIR};
use std::path::Path;
use workload::{LoopResult, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <result-a.json> <result-b.json>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| bad(&format!("expected one of {}", names.join(", "))))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => report::compare(Path::new(a), Path::new(b)).unwrap_or_else(|e| {
                eprintln!("perfbench compare: {e}");
                2
            }),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        }
    } else {
        match parse_args(&args) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("perfbench: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU time of the machine so far, in jiffies, from the
/// first line of `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The end-to-end metrics of a run, with the tail percentile used and
/// the number of windows it was read in.
fn end_to_end(run: &LoopResult, setup: &[f64], rss: f64) -> (Vec<(&'static str, f64)>, u32, usize) {
    let walls: Vec<f64> = run.jobs.iter().map(|j| j.wall).collect();
    let (tail, percentile, windows) = stats::windowed_tail(&walls);
    let iterations: u64 = run.units.iter().map(|u| u.iterations).sum();
    let values = vec![
        ("setup_s", stats::median(setup)),
        ("job_wall_p50_s", stats::median(&walls)),
        ("job_wall_tail_s", tail),
        ("iters_per_s", iterations as f64 / run.wall),
        (
            "f1",
            stats::median(&run.jobs.iter().map(|j| j.f1).collect::<Vec<_>>()),
        ),
        ("peak_rss_mib", rss),
    ];
    (values, percentile, windows)
}

fn lookup<'a>(values: &'a [(&'static str, f64)]) -> impl Fn(&str) -> Option<f64> + 'a {
    move |name| values.iter().find(|v| v.0 == name).map(|v| v.1)
}

/// Per end-to-end metric, the median over the result files recorded for
/// `workload` on this kind of host and revision by untraced
/// (`trace == false`) or traced runs, with the number of files.
fn recorded_medians(
    fp: &Fingerprint,
    workload: &str,
    trace: bool,
) -> (Vec<(&'static str, f64)>, usize) {
    let suffix = format!("-trace{}.json", u8::from(trace));
    let mut docs = Vec::new();
    for entry in std::fs::read_dir(RESULTS_DIR)
        .into_iter()
        .flatten()
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with(&format!("{workload}-seed")) && name.ends_with(&suffix)) {
            continue;
        }
        let doc = std::fs::read_to_string(entry.path())
            .ok()
            .and_then(|t| json::parse(t.trim()).ok());
        let same_host = doc
            .as_ref()
            .and_then(report::fingerprint_of)
            .is_some_and(|other| {
                fp.host_differences(&other).is_empty() && other.git_rev == fp.git_rev
            });
        if let (true, Some(doc)) = (same_host, doc) {
            docs.push(doc);
        }
    }
    // Untraced runs report the end-to-end metrics as their result; traced
    // runs keep theirs beside the per-layer result.
    let section = |doc: &Json| {
        if trace {
            doc.get("extras").and_then(|e| e.get("end_to_end")).cloned()
        } else {
            doc.get("result").and_then(|r| r.get("metrics")).cloned()
        }
    };
    let sections: Vec<Json> = docs.iter().filter_map(section).collect();
    let medians = END_TO_END
        .iter()
        .filter_map(|&(name, _)| {
            let values: Vec<f64> = sections
                .iter()
                .filter_map(|m| m.get(name)?.get("value")?.as_f64())
                .collect();
            (!values.is_empty()).then(|| (name, stats::median(&values)))
        })
        .collect();
    (medians, sections.len())
}

/// Prints the tracing overhead: per end-to-end metric, the median over
/// this host's traced runs of `workload` minus the median over its
/// untraced runs.
fn print_tracing_overhead(fp: &Fingerprint, workload: Workload) {
    let (traced, n_traced) = recorded_medians(fp, workload.name(), true);
    let (untraced, n_untraced) = recorded_medians(fp, workload.name(), false);
    println!(
        "tracing overhead (median of {n_traced} traced runs minus median of {n_untraced} untraced runs recorded in {RESULTS_DIR}):"
    );
    for (name, unit) in END_TO_END {
        match (lookup(&traced)(name), lookup(&untraced)(name)) {
            (Some(t), Some(u)) => println!(
                "  {name:<16} {:+.6} {unit} ({:+.2}%; traced {t:.6}, untraced {u:.6})",
                t - u,
                if u == 0.0 { 0.0 } else { 100.0 * (t - u) / u }
            ),
            _ => println!("  {name:<16} n/a (no untraced run recorded yet)"),
        }
    }
}

fn run(args: &Args) -> i32 {
    let workload = args.workload;
    let fp = Fingerprint::current();
    let threads = fp.cores;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: {} cores, {}, simd {}, rev {}",
        fp.cores, fp.cpu_model, fp.simd_backend, fp.git_rev
    );

    let scenes = workload.scenes(args.seed);
    let (rig, setup) = match workload::setup(workload, threads) {
        Ok(built) => built,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return 1;
        }
    };
    let cpu0 = cpu_jiffies();
    let run = workload::timed_loop(workload, &rig, &scenes, args.seed, args.seconds, args.trace);
    // Time the hypervisor gave this machine's CPUs to other guests while
    // the loop ran: context for how steady this run's timings can be.
    let steal_share = match (cpu0, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let rss = peak_rss_mib();
    rig.shutdown();
    let checks = workload::checks(workload, &run, &scenes);
    for (name, ok, detail) in &checks {
        println!(
            "check {name}: {} ({detail})",
            if *ok { "PASS" } else { "FAIL" }
        );
    }
    let correct = checks.iter().all(|c| c.1);

    let (e2e, tail, windows) = end_to_end(&run, &setup, rss);
    println!(
        "jobs: {} attempted, {} failed (fail_ratio {:.4}); {} units in {:.3} s; tail percentile p{tail} in each of {windows} windows of at least {} jobs, median over windows",
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64,
        run.units.len(),
        run.wall,
        run.jobs.len() / windows
    );
    println!(
        "host steal during the timed loop: {:.2}% of CPU time",
        100.0 * steal_share
    );
    println!(
        "set-up: {} builds, min {:.9} s, median {:.9} s, max {:.9} s",
        setup.len(),
        stats::percentile(&setup, 0),
        stats::median(&setup),
        stats::percentile(&setup, 100)
    );
    let unit_walls: Vec<f64> = run.units.iter().map(|u| u.wall).collect();
    println!(
        "unit wall: min {:.6} s, median {:.6} s, max {:.6} s",
        stats::percentile(&unit_walls, 0),
        stats::median(&unit_walls),
        stats::percentile(&unit_walls, 100)
    );
    for (name, unit) in END_TO_END {
        let v = lookup(&e2e)(name).unwrap_or(0.0);
        println!("metric {name} = {v} {unit}");
    }
    let (sequential, n_sequential) = recorded_medians(&fp, "sec7_sequential", false);
    let sequential = lookup(&sequential)("job_wall_p50_s").map(|p50| (p50, n_sequential));
    if workload != Workload::Sec7Sequential && workload != Workload::BatchDistributed {
        let p50 = lookup(&e2e)("job_wall_p50_s").unwrap_or(0.0);
        match sequential {
            Some((seq, n)) => println!(
                "derived (not gated): fraction of sequential = {:.4} ({p50:.4} s / {seq:.4} s, {n} recorded sec7_sequential runs)",
                p50 / seq
            ),
            None => println!(
                "derived (not gated): fraction of sequential = n/a (no sec7_sequential result recorded for this host and revision)"
            ),
        }
    }

    let mut extras = Json::obj().with("host_steal_share", steal_share);
    let metrics = if args.trace {
        let Some((kept, kept_seed, kept_scene)) = &run.kept else {
            eprintln!("perfbench: no job of the first unit finished; nothing to trace");
            return 1;
        };
        let probes = match Probes::measure(
            workload,
            &run,
            &scenes[*kept_scene],
            kept,
            *kept_seed,
            threads,
        ) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("perfbench: a scheme probe job failed: {e}");
                return 1;
            }
        };
        let ledger = Ledger::of_median_job(workload, &run, &probes);
        if let Some(l) = &ledger {
            l.print(workload);
        }
        layers::print_theory(workload, &run, &probes, threads, sequential);
        let values = layers::layer_values(&run, &probes, ledger.as_ref(), threads);
        let e2e = Metrics::collect(END_TO_END, lookup(&e2e)).map(|m| m.to_json());
        extras = extras.with("end_to_end", e2e.unwrap_or(Json::Null));
        Metrics::collect(PER_LAYER, lookup(&values))
    } else {
        Metrics::collect(END_TO_END, lookup(&e2e))
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    if args.trace {
        for (name, unit, v) in metrics.iter() {
            println!("metric {name} = {v} {unit}");
        }
    }

    let line = report::result_line(correct, run.attempted, run.failed, &metrics);
    let record = RunRecord {
        workload: workload.name(),
        seed: args.seed,
        trace: args.trace,
        fingerprint: &fp,
        line: &line,
        checks: &checks,
        extras,
    };
    match record.write(Path::new(RESULTS_DIR)) {
        Ok(path) => println!("result file: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write the result file: {e}"),
    }
    if args.trace {
        print_tracing_overhead(&fp, workload);
    }
    println!("{line}");
    i32::from(!correct)
}
