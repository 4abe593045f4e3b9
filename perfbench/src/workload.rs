//! The workloads: set-up, the closed submit/wait loop, and the output
//! checks run after it.

use crate::scene::{self, Scene};
use pmcmc_core::{match_circles, PerfSnapshot};
use pmcmc_imaging::Circle;
use pmcmc_parallel::engine::{RunReport, StrategySpec};
use pmcmc_parallel::job::{
    DistributedBackend, DistributedConfig, Engine, InProcessDaemon, JobSpec, RunError,
};
use pmcmc_parallel::PeriodicOptions;
use pmcmc_runtime::PoolStats;
use std::time::{Duration, Instant};

/// Iterations per §VII job.
pub const SEC7_ITERS: u64 = 300_000;
/// Jobs per `batch_distributed` batch. `submit_batch` returns only once
/// admission has placed the last job, so most jobs of a batch share its
/// wall time; small batches give the tail percentile many batches to rank
/// instead of one slow batch to read.
pub const BATCH_JOBS: usize = 16;
/// Iterations per `batch_distributed` job.
pub const BATCH_ITERS: u64 = 2_000;
/// Distinct images per batch (job `j` processes image `j % BATCH_SCENES`).
pub const BATCH_SCENES: usize = 8;
/// Loopback daemons (one worker each) behind `batch_distributed`.
pub const BATCH_NODES: usize = 2;
/// Detection F1 (at [`MATCH_PX`]) every §VII workload must reach.
pub const F1_FLOOR: f64 = 0.8;
/// Match distance for F1, pixels.
pub const MATCH_PX: f64 = 5.0;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §VII scene, `sequential`, one job in flight: the reference every
    /// scheme is judged against.
    Sec7Sequential,
    /// Batches of small `sequential` jobs on two loopback daemons.
    BatchDistributed,
    /// §VII scene, `periodic` with default options.
    Sec7Periodic,
    /// §VII scene, `speculative` with default lanes.
    Sec7Speculative,
}

impl Workload {
    /// Every workload the command accepts. The first two are the ones
    /// `BENCHMARK.json` lists, in its order; `sec7_periodic` and
    /// `sec7_speculative` are run by hand.
    ///
    /// On a shared 2-vCPU host the job wall of every 1024² workload
    /// follows the host: medians moved by about a quarter between sets of
    /// ten seeds an hour apart, and at times the hypervisor takes 15–25%
    /// of the CPU time as steal for minutes at a stretch. A job that keeps
    /// one vCPU busy slows in proportion to steal; a speculative job spins
    /// on both, so a stolen vCPU stalls its partner, and in one such
    /// stretch its job wall rose 2.3× and ten seeds spread 0.35, past the
    /// 0.25 bound. `sec7_periodic` spread up to 0.20 over ten seeds.
    /// Listing two workloads leaves each one longer runs.
    pub const ALL: [Workload; 4] = [
        Workload::Sec7Sequential,
        Workload::BatchDistributed,
        Workload::Sec7Periodic,
        Workload::Sec7Speculative,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sec7Sequential => "sec7_sequential",
            Workload::Sec7Periodic => "sec7_periodic",
            Workload::Sec7Speculative => "sec7_speculative",
            Workload::BatchDistributed => "batch_distributed",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The strategy its jobs run, with user-facing default options.
    #[must_use]
    pub fn strategy(self) -> StrategySpec {
        match self {
            Workload::Sec7Sequential | Workload::BatchDistributed => StrategySpec::Sequential,
            Workload::Sec7Periodic => StrategySpec::Periodic(PeriodicOptions::default()),
            Workload::Sec7Speculative => StrategySpec::Speculative { lanes: 0 },
        }
    }

    /// Iterations per job.
    #[must_use]
    pub fn iterations(self) -> u64 {
        if self == Workload::BatchDistributed {
            BATCH_ITERS
        } else {
            SEC7_ITERS
        }
    }

    /// Set-ups timed per run, as `(rounds, builds per round)`; the
    /// median of every build is `setup_s`. A local engine builds in tens
    /// of microseconds, so many builds fit; tearing a loopback cluster
    /// down waits out daemon heartbeats, so fewer fit there.
    #[must_use]
    pub fn setup_plan(self) -> (usize, usize) {
        if self == Workload::BatchDistributed {
            (10, 2)
        } else {
            (10, 50)
        }
    }

    /// The scenes a run of this workload processes, generated from `seed`.
    #[must_use]
    pub fn scenes(self, seed: u64) -> Vec<Scene> {
        if self == Workload::BatchDistributed {
            (0..BATCH_SCENES as u64)
                .map(|i| scene::small(mix(seed, i)))
                .collect()
        } else {
            vec![scene::section7(seed)]
        }
    }
}

/// A distinct, reproducible seed for item `i` of run `seed`.
#[must_use]
pub fn mix(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// An engine plus whatever it needs to stay up (the loopback daemons).
pub struct Rig {
    /// The engine jobs are submitted to.
    pub engine: Engine,
    daemons: Vec<InProcessDaemon>,
}

impl Rig {
    /// Builds the engine, pool, daemons and connections of `workload`.
    ///
    /// # Errors
    /// Engine, daemon or connection failures.
    pub fn build(workload: Workload, threads: usize) -> Result<Self, RunError> {
        if workload != Workload::BatchDistributed {
            return Ok(Self {
                engine: Engine::new(threads)?,
                daemons: Vec::new(),
            });
        }
        let daemons = (0..BATCH_NODES)
            .map(|_| InProcessDaemon::spawn(1, 1))
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<_> = daemons.iter().map(InProcessDaemon::addr).collect();
        let cfg = DistributedConfig {
            max_in_flight: 1,
            ..DistributedConfig::default()
        };
        Ok(Self {
            engine: Engine::with_backend(DistributedBackend::connect_with(&addrs, cfg)?),
            daemons,
        })
    }

    /// Shuts the engine down (which tells every daemon to exit) and
    /// waits for each daemon thread to end.
    pub fn shutdown(self) {
        drop(self.engine);
        for daemon in self.daemons {
            daemon.join();
        }
    }
}

/// Pause between set-up rounds. A build spawns threads, and how long
/// their start takes depends on whether the other cores are idle or busy
/// at that instant; rounds spread over a second sample both, so the
/// median does not hang on the host's state at one moment.
pub const SETUP_PAUSE: Duration = Duration::from_millis(100);

/// Builds the rig as [`Workload::setup_plan`] says, timing each build;
/// returns the last rig and every build time in seconds.
///
/// # Errors
/// As [`Rig::build`].
pub fn setup(workload: Workload, threads: usize) -> Result<(Rig, Vec<f64>), RunError> {
    let (rounds, per_round) = workload.setup_plan();
    let reps = rounds * per_round;
    let mut times = Vec::with_capacity(reps);
    loop {
        let t = Instant::now();
        let rig = Rig::build(workload, threads)?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= reps {
            return Ok((rig, times));
        }
        rig.shutdown();
        if times.len() % per_round == 0 {
            std::thread::sleep(SETUP_PAUSE);
        }
    }
}

/// What one finished job reported.
pub struct JobRecord {
    /// Submit to result, seconds.
    pub wall: f64,
    /// Duration of the submit call that carried the job, seconds.
    pub submit: f64,
    /// Iterations the job executed.
    pub iterations: u64,
    /// The strategy's own `RunReport::total_time`, seconds.
    pub total_time: f64,
    /// `PhaseTiming`s, seconds.
    pub phases: Vec<(&'static str, f64)>,
    /// `NodeTiming::queued` summed over the job's nodes, seconds.
    pub queued: f64,
    /// `NodeTiming::busy` summed over the job's nodes, seconds.
    pub busy: f64,
    /// Detection F1 against the scene's ground truth.
    pub f1: f64,
    /// Move acceptance rate.
    pub acceptance: f64,
    /// Partitions / lanes the scheme fanned out over.
    pub partitions: usize,
}

impl JobRecord {
    pub(crate) fn new(report: &RunReport, wall: f64, submit: f64, truth: &[Circle]) -> Self {
        Self {
            wall,
            submit,
            iterations: report.iterations,
            total_time: report.total_time.as_secs_f64(),
            phases: report
                .phases
                .iter()
                .map(|p| (p.phase, p.duration.as_secs_f64()))
                .collect(),
            queued: report
                .node_timings
                .iter()
                .map(|t| t.queued.as_secs_f64())
                .sum(),
            busy: report
                .node_timings
                .iter()
                .map(|t| t.busy.as_secs_f64())
                .sum(),
            f1: match_circles(truth, report.detected(), MATCH_PX).f1(),
            acceptance: report.diagnostics.acceptance_rate.unwrap_or(0.0),
            partitions: report.diagnostics.partitions,
        }
    }

    /// Wall time in the named phase (0 when the scheme has no such phase).
    #[must_use]
    pub fn phase(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.0 == name)
            .fold(0.0, |acc, p| acc + p.1)
    }
}

/// One submit/wait unit of the closed loop: a single job, or a whole
/// batch for `batch_distributed`.
pub struct Unit {
    /// Submit call to last result, seconds.
    pub wall: f64,
    /// Duration of the `submit` / `submit_batch` call, seconds.
    pub submit: f64,
    /// Iterations completed by the unit's jobs.
    pub iterations: u64,
}

/// Counter deltas summed over the units of a traced run.
#[derive(Default)]
pub struct Counters {
    /// `pmcmc_core::perf` deltas.
    pub perf: PerfSnapshot,
    /// `WorkerPool::stats` deltas of the engine's primary pool.
    pub pool: PoolStats,
}

/// Everything the timed loop observed.
pub struct LoopResult {
    /// Per-unit records, in order.
    pub units: Vec<Unit>,
    /// Per-job records of successful jobs.
    pub jobs: Vec<JobRecord>,
    /// Wall time of the whole timed loop, seconds.
    pub wall: f64,
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs that failed or were refused.
    pub failed: u64,
    /// Counter totals (zero unless traced).
    pub counters: Counters,
    /// One report kept for the replay check and the wire probe, with the
    /// spec that produced it.
    pub kept: Option<(RunReport, u64, usize)>,
    /// First error message seen, for the log.
    pub first_error: Option<String>,
}

fn add_perf(a: &mut PerfSnapshot, d: &PerfSnapshot) {
    a.proposals_evaluated += d.proposals_evaluated;
    a.pixels_visited += d.pixels_visited;
    a.pair_count_queries += d.pair_count_queries;
    a.pair_cache_hits += d.pair_cache_hits;
    a.rng_refills += d.rng_refills;
    a.spin_wait_ns += d.spin_wait_ns;
    a.spec_rounds += d.spec_rounds;
    a.span_fastpath_hits += d.span_fastpath_hits;
    a.pixels_skipped += d.pixels_skipped;
    a.simd_lanes_processed += d.simd_lanes_processed;
    a.proposal_batches += d.proposal_batches;
}

/// The seed of job `index` of unit `unit`.
#[must_use]
pub fn job_seed(seed: u64, unit: usize, index: usize) -> u64 {
    mix(seed, (unit as u64) << 16 | index as u64)
}

/// The spec of job `index` of unit `unit`.
#[must_use]
pub fn job_spec(
    workload: Workload,
    scenes: &[Scene],
    seed: u64,
    unit: usize,
    index: usize,
) -> JobSpec {
    let scene = &scenes[index % scenes.len()];
    JobSpec::new(
        workload.strategy(),
        scene.image.clone(),
        scene.params.clone(),
    )
    .seed(job_seed(seed, unit, index))
    .iterations(workload.iterations())
}

/// Runs closed-loop units until `seconds` have passed (at least one
/// unit). A batch workload first runs one unrecorded batch, so the
/// daemons' first jobs do not land in the timed loop. With `trace`, the
/// perf counters and pool statistics are snapshotted around every unit.
#[must_use]
pub fn timed_loop(
    workload: Workload,
    rig: &Rig,
    scenes: &[Scene],
    seed: u64,
    seconds: f64,
    trace: bool,
) -> LoopResult {
    let mut out = LoopResult {
        units: Vec::new(),
        jobs: Vec::new(),
        wall: 0.0,
        attempted: 0,
        failed: 0,
        counters: Counters::default(),
        kept: None,
        first_error: None,
    };
    let per_unit = if workload == Workload::BatchDistributed {
        BATCH_JOBS
    } else {
        1
    };
    if per_unit > 1 {
        let specs = (0..per_unit)
            .map(|j| job_spec(workload, scenes, seed, usize::MAX >> 16, j))
            .collect();
        if let Ok(batch) = rig.engine.submit_batch(specs) {
            drop(batch.wait_all());
        }
    }
    // The replay check re-runs one job of the first unit.
    let kept_index = (seed % per_unit as u64) as usize;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut unit = 0usize;
    while unit == 0 || start.elapsed() < budget {
        let specs: Vec<JobSpec> = (0..per_unit)
            .map(|j| job_spec(workload, scenes, seed, unit, j))
            .collect();
        out.attempted += per_unit as u64;
        let before = trace.then(|| (pmcmc_core::perf::snapshot(), rig.engine.pool().stats()));
        let t0 = Instant::now();
        let mut walls = vec![0.0; per_unit];
        let mut reports: Vec<Option<RunReport>> = (0..per_unit).map(|_| None).collect();
        let mut submit = 0.0;
        if per_unit == 1 {
            let spec = specs.into_iter().next().expect("one spec");
            let res = rig.engine.submit(spec).map(|h| {
                submit = t0.elapsed().as_secs_f64();
                h.wait()
            });
            walls[0] = t0.elapsed().as_secs_f64();
            match res.and_then(|r| r) {
                Ok(report) => reports[0] = Some(report),
                Err(e) => note_error(&mut out, &e),
            }
        } else {
            match rig.engine.submit_batch(specs) {
                Ok(mut batch) => {
                    submit = t0.elapsed().as_secs_f64();
                    while let Some((idx, res)) = batch.next_finished() {
                        walls[idx] = t0.elapsed().as_secs_f64();
                        match res {
                            Ok(report) => reports[idx] = Some(report),
                            Err(e) => note_error(&mut out, &e),
                        }
                    }
                }
                Err(e) => {
                    for _ in 0..per_unit {
                        note_error(&mut out, &e);
                    }
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        if let Some((perf0, pool0)) = before {
            add_perf(
                &mut out.counters.perf,
                &pmcmc_core::perf::snapshot().since(&perf0),
            );
            let pool1 = rig.engine.pool().stats();
            out.counters.pool.tasks += pool1.tasks - pool0.tasks;
            out.counters.pool.busy_nanos += pool1.busy_nanos - pool0.busy_nanos;
            out.counters.pool.batches += pool1.batches - pool0.batches;
        }
        let mut iterations = 0;
        for (j, report) in reports.into_iter().enumerate() {
            let Some(report) = report else { continue };
            let scene = &scenes[j % scenes.len()];
            let record = JobRecord::new(&report, walls[j], submit, &scene.truth);
            iterations += record.iterations;
            out.jobs.push(record);
            if unit == 0 && j == kept_index {
                out.kept = Some((report, job_seed(seed, 0, j), j % scenes.len()));
            }
        }
        out.units.push(Unit {
            wall,
            submit,
            iterations,
        });
        unit += 1;
    }
    out.wall = start.elapsed().as_secs_f64();
    out
}

fn note_error(out: &mut LoopResult, e: &RunError) {
    out.failed += 1;
    out.first_error.get_or_insert_with(|| e.to_string());
}

/// One output check: `(name, passed, detail)`.
pub type Check = (String, bool, String);

/// The output checks, run after the timed loop.
#[must_use]
pub fn checks(workload: Workload, run: &LoopResult, scenes: &[Scene]) -> Vec<Check> {
    let mut out: Vec<Check> = Vec::new();
    let failed_detail = run
        .first_error
        .as_deref()
        .map_or_else(String::new, |e| format!(", first error: {e}"));
    out.push((
        "jobs_succeed".to_owned(),
        run.failed == 0,
        format!(
            "{} of {} jobs failed{failed_detail}",
            run.failed, run.attempted
        ),
    ));
    let budget = workload.iterations();
    let short = run
        .jobs
        .iter()
        .filter(|j| {
            if workload.strategy() == StrategySpec::Sequential {
                j.iterations != budget
            } else {
                // Periodic runs whole cycles and a speculative round may
                // accept past the budget: at least the budget.
                j.iterations < budget
            }
        })
        .count();
    out.push((
        "iteration_budget".to_owned(),
        short == 0,
        format!("{short} jobs missed the {budget}-iteration budget"),
    ));
    if workload != Workload::BatchDistributed {
        let f1 = crate::stats::median(&run.jobs.iter().map(|j| j.f1).collect::<Vec<_>>());
        out.push((
            "f1_floor".to_owned(),
            f1 >= F1_FLOOR,
            format!("median F1 {f1:.4} against floor {F1_FLOOR}"),
        ));
    }
    // Both references are the same job run by `sequential` on a local
    // engine: speculation must replay the sequential chain exactly, and a
    // job run over the wire must equal the same job run locally.
    let reference = match workload {
        Workload::Sec7Speculative => Some("exact_replay"),
        Workload::BatchDistributed => Some("local_equivalence"),
        _ => None,
    };
    if let Some(name) = reference {
        let (passed, detail) = match &run.kept {
            None => (false, "no job of the first unit finished".to_owned()),
            Some((report, seed, scene)) => {
                let scene = &scenes[*scene];
                // Same seed and the same iteration count the job ran.
                let spec = JobSpec::new(
                    StrategySpec::Sequential,
                    scene.image.clone(),
                    scene.params.clone(),
                )
                .seed(*seed)
                .iterations(report.iterations);
                let local = Engine::new(1).and_then(|e| e.submit(spec)?.wait());
                match local {
                    Ok(local) => {
                        let same = local.detected() == report.detected()
                            && local.diagnostics.log_posterior.to_bits()
                                == report.diagnostics.log_posterior.to_bits();
                        (
                            same,
                            format!(
                                "{} vs local sequential, seed {seed}, {} iterations: {} circles vs {}, log posterior {} vs {}",
                                report.strategy,
                                report.iterations,
                                report.detected().len(),
                                local.detected().len(),
                                report.diagnostics.log_posterior,
                                local.diagnostics.log_posterior
                            ),
                        )
                    }
                    Err(e) => (false, format!("reference job failed: {e}")),
                }
            }
        };
        out.push((name.to_owned(), passed, detail));
    }
    out
}
