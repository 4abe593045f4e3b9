//! Metric names, the result line, result files, the host fingerprint and
//! `perfbench compare`.

use crate::json::{self, Json};
use std::path::{Path, PathBuf};

/// Directory (relative to the working directory) that collects one
/// result file per run.
pub const RESULTS_DIR: &str = ".bench_results";

/// End-to-end metrics printed by every untraced run, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_wall_p50_s", "s"),
    ("job_wall_tail_s", "s"),
    ("iters_per_s", "1/s"),
    ("f1", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics printed by every traced run, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.step_ns", "ns"),
    ("core.proposals_evaluated", "count"),
    ("core.pixels_visited", "count"),
    ("core.pixels_skipped", "count"),
    ("core.span_fastpath_hits", "count"),
    ("core.simd_lanes_processed", "count"),
    ("core.rng_refills", "count"),
    ("core.proposal_batches", "count"),
    ("core.pair_cache_hit_ratio", "ratio"),
    ("core.kernel.grid_add_remove_sparse_ns", "ns"),
    ("core.kernel.grid_add_remove_dense_ns", "ns"),
    ("core.kernel.delta_spans_birth_ns", "ns"),
    ("core.kernel.delta_spans_move_ns", "ns"),
    ("core.kernel.simd_inc_dec_counts_ns", "ns"),
    ("core.kernel.simd_sum_gain_flips_ns", "ns"),
    ("core.kernel.bytes_per_proposal_computed", "bytes"),
    ("model.build_ms", "ms"),
    ("periodic.global_s", "s"),
    ("periodic.local_s", "s"),
    ("periodic.overhead_s", "s"),
    ("periodic.simd_lanes_per_proposal", "ratio"),
    ("tile.workspace_new_us", "us"),
    ("tile.absorb_us", "us"),
    ("team.broadcast_us", "us"),
    ("spec.rounds", "count"),
    ("spec.spin_wait_s", "s"),
    ("spec.proposals_per_round", "ratio"),
    ("spec.useful_ratio", "ratio"),
    ("pool.tasks", "count"),
    ("pool.batches", "count"),
    ("pool.utilisation", "ratio"),
    ("job.submit_us", "us"),
    ("job.queued_p50_s", "s"),
    ("job.busy_p50_s", "s"),
    ("job.return_p50_s", "s"),
    ("job.outside_strategy_s", "s"),
    ("wire.assign_bytes", "bytes"),
    ("wire.assign_encode_us", "us"),
    ("wire.assign_decode_us", "us"),
    ("wire.result_bytes", "bytes"),
    ("wire.result_encode_us", "us"),
    ("wire.result_decode_us", "us"),
    ("wire.into_report_us", "us"),
    ("ledger.residual_s", "s"),
];

/// Whether `name` is a valid metric or workload name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    (1..=64).contains(&b.len())
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1–16 characters of `[A-Za-z0-9_/%.-]`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// The metrics of one run, in the order of their registry.
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Collects `registry` in order, reading each value from `value`.
    /// A metric `value` does not know, or whose value is not finite, is
    /// an error naming it: the result line always carries every metric.
    ///
    /// # Errors
    /// The name of the first missing or non-finite metric.
    pub fn collect(
        registry: &'static [(&'static str, &'static str)],
        value: impl Fn(&str) -> Option<f64>,
    ) -> Result<Self, String> {
        let mut values = Vec::with_capacity(registry.len());
        for &(name, unit) in registry {
            match value(name) {
                Some(v) if v.is_finite() => values.push((name, unit, v)),
                Some(v) => return Err(format!("metric {name} is not finite ({v})")),
                None => return Err(format!("metric {name} was not measured")),
            }
        }
        Ok(Self { values })
    }

    /// `(name, unit, value)` triples in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.values.iter().copied()
    }

    /// The `metrics` object of the result line.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.values.iter().fold(Json::obj(), |o, &(name, unit, v)| {
            o.with(name, Json::obj().with("value", v).with("unit", unit))
        })
    }
}

/// The last line a run prints: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> Json {
    Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics.to_json())
}

/// The host a result was measured on. Results are only diffed against
/// results with the same host fingerprint (cores, CPU model, SIMD
/// backend); the revision is recorded beside it, because comparing two
/// revisions is what a comparison is for.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Logical cores available to the process.
    pub cores: usize,
    /// CPU model string from `/proc/cpuinfo` (`"unknown"` elsewhere).
    pub cpu_model: String,
    /// The likelihood kernels' SIMD backend (`pmcmc_core::simd::backend`).
    pub simd_backend: String,
    /// Source revision; a digest of the sources outside a git checkout.
    pub git_rev: String,
}

impl Fingerprint {
    /// Fingerprints the running host.
    #[must_use]
    pub fn current() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            simd_backend: format!("{:?}", pmcmc_core::simd::backend()),
            git_rev: git_rev().unwrap_or_else(source_digest),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("cores", self.cores)
            .with("cpu_model", self.cpu_model.as_str())
            .with("simd_backend", self.simd_backend.as_str())
            .with("git_rev", self.git_rev.as_str())
    }

    fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            cores: v.get("cores")?.as_f64()? as usize,
            cpu_model: v.get("cpu_model")?.as_str()?.to_owned(),
            simd_backend: v.get("simd_backend")?.as_str()?.to_owned(),
            git_rev: v.get("git_rev")?.as_str()?.to_owned(),
        })
    }

    /// The host fields on which `self` and `other` differ (empty when the
    /// two were measured on the same kind of host).
    #[must_use]
    pub fn host_differences(&self, other: &Self) -> Vec<String> {
        let mut out = Vec::new();
        if self.cores != other.cores {
            out.push(format!("cores {} vs {}", self.cores, other.cores));
        }
        if self.cpu_model != other.cpu_model {
            out.push(format!("cpu {:?} vs {:?}", self.cpu_model, other.cpu_model));
        }
        if self.simd_backend != other.simd_backend {
            out.push(format!(
                "simd {} vs {}",
                self.simd_backend, other.simd_backend
            ));
        }
        out
    }
}

/// The checkout the benchmark was built from.
fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `git rev-parse --short HEAD` of the checkout, looking for a repository
/// no higher than the checkout itself.
fn git_rev() -> Option<String> {
    let root = checkout_root().canonicalize().ok()?;
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", root.parent()?)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_owned();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}

/// Stands in for the revision outside a git checkout: an FNV-1a digest
/// of the workspace's manifests, lock file and Rust sources, as
/// `src-<hex>` (`"unknown"` when none can be read).
fn source_digest() -> String {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(path);
            }
        }
    }
    let root = checkout_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    collect(&root.join("src"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut read_any = false;
    for file in &files {
        let Ok(bytes) = std::fs::read(file) else {
            continue;
        };
        read_any = true;
        let name = file.strip_prefix(&root).unwrap_or(file).to_string_lossy();
        for &b in name.as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    if read_any {
        format!("src-{hash:016x}")
    } else {
        "unknown".to_owned()
    }
}

/// The fingerprint recorded in a result file.
#[must_use]
pub fn fingerprint_of(doc: &Json) -> Option<Fingerprint> {
    Fingerprint::from_json(doc.get("fingerprint")?)
}

/// Everything one run records in its result file.
pub struct RunRecord<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Host fingerprint.
    pub fingerprint: &'a Fingerprint,
    /// The result line.
    pub line: &'a Json,
    /// Output checks as `(name, passed, detail)`.
    pub checks: &'a [(String, bool, String)],
    /// Context beside the result: the host's steal share during the
    /// loop, and a traced run's own end-to-end metrics.
    pub extras: Json,
}

impl RunRecord<'_> {
    /// The result-file document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let checks = self
            .checks
            .iter()
            .map(|(name, ok, detail)| {
                Json::obj()
                    .with("name", name.as_str())
                    .with("passed", *ok)
                    .with("detail", detail.as_str())
            })
            .collect();
        Json::obj()
            .with("workload", self.workload)
            .with("seed", self.seed)
            .with("trace", self.trace)
            .with("fingerprint", self.fingerprint.to_json())
            .with("result", self.line.clone())
            .with("checks", Json::Arr(checks))
            .with("extras", self.extras.clone())
    }

    /// Writes the result file under `dir`, returning its path.
    ///
    /// # Errors
    /// The filesystem error.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ));
        std::fs::write(&path, format!("{}\n", self.to_json()))?;
        Ok(path)
    }
}

/// Checks that `doc` has the result-file shape: the identifying fields,
/// a parseable fingerprint and a result line with exactly the four
/// result-line keys, every metric a `{value, unit}` pair under a valid name.
///
/// # Errors
/// What is missing or malformed.
pub fn check_result_file(doc: &Json) -> Result<(), String> {
    for key in [
        "workload",
        "seed",
        "trace",
        "fingerprint",
        "result",
        "checks",
    ] {
        doc.get(key).ok_or(format!("missing `{key}`"))?;
    }
    fingerprint_of(doc).ok_or("malformed fingerprint")?;
    let line = doc.get("result").unwrap_or(&Json::Null);
    if line.keys() != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result line keys are {:?}", line.keys()));
    }
    let attempted = line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
    if attempted < 1.0 || attempted.fract() != 0.0 {
        return Err(format!("attempted = {attempted}"));
    }
    let metrics = line.get("metrics").unwrap_or(&Json::Null);
    for name in metrics.keys() {
        let m = metrics.get(name).unwrap_or(&Json::Null);
        let ok = valid_name(name)
            && m.keys() == ["value", "unit"]
            && m.get("value").and_then(Json::as_f64).is_some()
            && m.get("unit").and_then(Json::as_str).is_some_and(valid_unit);
        if !ok {
            return Err(format!("malformed metric `{name}`"));
        }
    }
    Ok(())
}

/// `perfbench compare <a> <b>`: diffs the metrics of two result files,
/// or refuses (exit code 3) when they come from different kinds of host
/// or different workloads.
///
/// # Errors
/// Unreadable or malformed result files.
pub fn compare(a: &Path, b: &Path) -> Result<i32, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let doc = json::parse(text.trim()).map_err(|e| format!("{}: {e}", p.display()))?;
        check_result_file(&doc).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(doc)
    };
    let (da, db) = (load(a)?, load(b)?);
    let (fa, fb) = (
        fingerprint_of(&da).unwrap_or_else(unknown),
        fingerprint_of(&db).unwrap_or_else(unknown),
    );
    let differences = fa.host_differences(&fb);
    if !differences.is_empty() {
        println!("FLAGGED: host fingerprints differ, not diffing:");
        for d in differences {
            println!("  {d}");
        }
        return Ok(3);
    }
    let (wa, wb) = (da.get("workload"), db.get("workload"));
    if wa != wb {
        println!("FLAGGED: different workloads ({wa:?} vs {wb:?}), not diffing");
        return Ok(3);
    }
    println!(
        "same host ({} cores, {}, {}); revisions {} -> {}",
        fa.cores, fa.cpu_model, fa.simd_backend, fa.git_rev, fb.git_rev
    );
    let metrics = |d: &Json| d.get("result").and_then(|r| r.get("metrics")).cloned();
    let (ma, mb) = (
        metrics(&da).unwrap_or(Json::Null),
        metrics(&db).unwrap_or(Json::Null),
    );
    for name in ma.keys() {
        let value = |m: &Json| {
            m.get(name)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
        };
        let unit = ma
            .get(name)
            .and_then(|v| v.get("unit"))
            .and_then(Json::as_str);
        match (value(&ma), value(&mb)) {
            (Some(x), Some(y)) => {
                let change = if x == 0.0 {
                    0.0
                } else {
                    100.0 * (y - x) / x.abs()
                };
                println!(
                    "  {name:<44} {x:>14.6} -> {y:>14.6} {:<6} {change:+7.2}%",
                    unit.unwrap_or("")
                );
            }
            _ => println!("  {name:<44} only in {}", a.display()),
        }
    }
    Ok(0)
}

fn unknown() -> Fingerprint {
    Fingerprint {
        cores: 0,
        cpu_model: "unknown".to_owned(),
        simd_backend: "unknown".to_owned(),
        git_rev: "unknown".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "f1",
            "setup_s",
            "core.kernel.delta_spans_move_ns",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/name",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("m s"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn registries_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(listed)) = doc.get(key) else {
                panic!("BENCHMARK.json lacks `{key}`");
            };
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap(),
                        m.get("unit").and_then(Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, registry.to_vec(), "{key}");
        }
    }

    #[test]
    fn listed_workloads_match_benchmark_json() {
        use crate::workload::Workload;
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Arr(listed)) = doc.get("workloads") else {
            panic!("BENCHMARK.json lacks `workloads`");
        };
        let listed: Vec<&str> = listed
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, names[..listed.len()]);
        assert_eq!(names[listed.len()..], ["sec7_periodic", "sec7_speculative"]);
    }

    fn sample_metrics() -> Metrics {
        Metrics::collect(END_TO_END, |name| Some(name.len() as f64 + 0.25)).unwrap()
    }

    #[test]
    fn collect_refuses_missing_or_non_finite_metrics() {
        assert!(Metrics::collect(END_TO_END, |n| (n != "f1").then_some(1.0)).is_err());
        assert!(Metrics::collect(END_TO_END, |_| Some(f64::INFINITY)).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 12, 0, &sample_metrics());
        let parsed = json::parse(&line.to_string()).unwrap();
        assert_eq!(parsed.keys(), ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(
            metrics.keys(),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        let f1 = metrics.get("f1").unwrap();
        assert_eq!(f1.get("value").and_then(Json::as_f64), Some(2.25));
        assert_eq!(f1.get("unit").and_then(Json::as_str), Some("ratio"));
        assert!(!line.to_string().contains('\n'));
    }

    #[test]
    fn result_file_shape_round_trips() {
        let fp = Fingerprint {
            cores: 2,
            cpu_model: "Test CPU".to_owned(),
            simd_backend: "Avx2".to_owned(),
            git_rev: "abc1234".to_owned(),
        };
        let line = result_line(true, 3, 0, &sample_metrics());
        let checks = vec![("exact_replay".to_owned(), true, "ok".to_owned())];
        let record = RunRecord {
            workload: "sec7_sequential",
            seed: 7,
            trace: false,
            fingerprint: &fp,
            line: &line,
            checks: &checks,
            extras: Json::Null,
        };
        let doc = json::parse(&record.to_json().to_string()).unwrap();
        check_result_file(&doc).unwrap();
        assert_eq!(fingerprint_of(&doc).as_ref(), Some(&fp));

        let bad_line = Json::obj().with("correct", true);
        let broken = RunRecord {
            line: &bad_line,
            ..record
        };
        assert!(check_result_file(&broken.to_json()).is_err());
    }

    #[test]
    fn fingerprints_differing_in_host_are_flagged_but_not_in_revision() {
        let a = Fingerprint {
            cores: 2,
            cpu_model: "X".to_owned(),
            simd_backend: "Avx2".to_owned(),
            git_rev: "r1".to_owned(),
        };
        let b = Fingerprint {
            git_rev: "r2".to_owned(),
            ..a.clone()
        };
        assert!(a.host_differences(&b).is_empty());
        let c = Fingerprint {
            cores: 1,
            ..a.clone()
        };
        assert_eq!(a.host_differences(&c), ["cores 2 vs 1"]);
    }
}
