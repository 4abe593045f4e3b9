//! The traced run's per-layer ledger: spans the benchmark times around
//! single calls into each layer's public functions, the counters the
//! program already keeps, and the breakdown of the median job's wall
//! time into those layers.

use crate::scene::Scene;
use crate::stats::median;
use crate::workload::{mix, JobRecord, LoopResult, Workload, BATCH_JOBS, BATCH_NODES};
use pmcmc_core::{
    Configuration, MoveWeights, NucleiModel, PerfSnapshot, Sampler, TileWorkspace, Xoshiro256,
};
use pmcmc_imaging::PartitionGrid;
use pmcmc_parallel::engine::{RunReport, StrategySpec};
use pmcmc_parallel::job::wire::{Assign, JobBlueprint, JobResult, WireReport};
use pmcmc_parallel::job::{Engine, JobSpec, RunError};
use pmcmc_parallel::{theory, PartitionScheme, PeriodicOptions};
use pmcmc_runtime::wire::Wire;
use pmcmc_runtime::{PoolStats, SpinTeam};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations a fresh probe chain runs before `core.step_ns` is timed.
const STEP_WARMUP: u64 = 20_000;
/// Iterations per timed `Sampler::run` block.
const STEP_BLOCK: u64 = 10_000;
/// Timed `Sampler::run` blocks.
const STEP_BLOCKS: usize = 9;
/// Tilings timed for the `tile.*` spans.
const TILE_PHASES: u64 = 16;
/// Empty broadcasts per timed `team.broadcast_us` batch.
const BROADCAST_BATCH: u32 = 2_000;
/// A job collected within this long after `submit_batch` returned had
/// its result ready before the call returned, seconds.
const HELD_SLACK_S: f64 = 1e-3;
/// Bytes a kernel touches per pixel walked or lane processed: a `u16`
/// coverage count and an `f64` gain.
const BYTES_PER_PIXEL: f64 = 10.0;
/// Bytes a prefix-sum fast path reads per span: two `f64` prefix values.
const BYTES_PER_FAST_SPAN: f64 = 16.0;

/// Times `f` at least `min_reps` times and for at least `min_secs`
/// (capped at 1001 reps); returns the median seconds per call.
fn time_median<T>(min_reps: usize, min_secs: f64, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || (start.elapsed().as_secs_f64() < min_secs && times.len() < 1001)
    {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// What one scheme's layers did: counter and pool-statistic deltas over
/// some jobs, and the median time per job in each `PhaseTiming` phase.
/// Taken from the workload's own jobs when it runs the scheme, else from
/// one probe job of the workload's size on its scene, so every workload
/// reports every layer.
pub struct SchemeSample {
    /// Jobs the deltas cover.
    jobs: f64,
    /// Iterations those jobs executed.
    iterations: u64,
    /// Wall time the pool statistics cover, seconds.
    wall: f64,
    perf: PerfSnapshot,
    pool: PoolStats,
    /// Median seconds per job in the `global`, `local` and `overhead`
    /// phases.
    phases: [f64; 3],
}

const SCHEME_PHASES: [&str; 3] = ["global", "local", "overhead"];

impl SchemeSample {
    fn of_run(run: &LoopResult) -> Self {
        Self {
            jobs: run.attempted.max(1) as f64,
            iterations: run.jobs.iter().map(|j| j.iterations).sum(),
            wall: run.units.iter().map(|u| u.wall).sum(),
            perf: run.counters.perf,
            pool: run.counters.pool,
            phases: SCHEME_PHASES
                .map(|name| median(&run.jobs.iter().map(|j| j.phase(name)).collect::<Vec<_>>())),
        }
    }

    fn probe(
        strategy: StrategySpec,
        workload: Workload,
        scene: &Scene,
        seed: u64,
        threads: usize,
    ) -> Result<Self, RunError> {
        let engine = Engine::new(threads)?;
        let spec = JobSpec::new(strategy, scene.image.clone(), scene.params.clone())
            .seed(seed)
            .iterations(workload.iterations());
        let (perf0, pool0) = (pmcmc_core::perf::snapshot(), engine.pool().stats());
        let t = Instant::now();
        let report = engine.submit(spec)?.wait()?;
        let wall = t.elapsed().as_secs_f64();
        let pool1 = engine.pool().stats();
        let record = JobRecord::new(&report, wall, 0.0, &scene.truth);
        Ok(Self {
            jobs: 1.0,
            iterations: report.iterations,
            wall,
            perf: pmcmc_core::perf::snapshot().since(&perf0),
            pool: PoolStats {
                tasks: pool1.tasks - pool0.tasks,
                busy_nanos: pool1.busy_nanos - pool0.busy_nanos,
                batches: pool1.batches - pool0.batches,
            },
            phases: SCHEME_PHASES.map(|name| record.phase(name)),
        })
    }

    /// The workload's own jobs when they run `strategy`, else a probe.
    fn of(
        strategy: StrategySpec,
        workload: Workload,
        run: &LoopResult,
        scene: &Scene,
        seed: u64,
        threads: usize,
    ) -> Result<Self, RunError> {
        if std::mem::discriminant(&workload.strategy()) == std::mem::discriminant(&strategy) {
            Ok(Self::of_run(run))
        } else {
            Self::probe(strategy, workload, scene, seed, threads)
        }
    }

    fn per_job(&self, count: u64) -> f64 {
        count as f64 / self.jobs
    }
}

/// Spans timed around single calls into each layer, on the workload's
/// own model, tiling and wire messages.
pub struct Probes {
    /// `Sampler::run` nanoseconds per step.
    pub step_ns: f64,
    /// `kernel_micro_rows` nanoseconds per op, by op name.
    pub kernel: Vec<(&'static str, f64)>,
    /// `NucleiModel::new`, milliseconds.
    pub model_build_ms: f64,
    /// `TileWorkspace::new` over one phase's tiles, microseconds.
    pub tile_new_us: f64,
    /// `Configuration::absorb_tile` over one phase's tiles, microseconds.
    pub tile_absorb_us: f64,
    /// One empty `SpinTeam::broadcast` round trip, microseconds.
    pub broadcast_us: f64,
    /// Encoded `Assign` size.
    pub assign_bytes: f64,
    /// `Assign` encode, microseconds.
    pub assign_encode_us: f64,
    /// `Assign` decode, microseconds.
    pub assign_decode_us: f64,
    /// Encoded `JobResult` size.
    pub result_bytes: f64,
    /// `JobResult` encode, microseconds.
    pub result_encode_us: f64,
    /// `JobResult` decode, microseconds.
    pub result_decode_us: f64,
    /// `WireReport::into_report`, microseconds.
    pub into_report_us: f64,
    /// The periodic scheme's `periodic`, `tile` and `pool` layers.
    pub periodic: SchemeSample,
    /// The speculative scheme's `spec` layer.
    pub speculative: SchemeSample,
}

impl Probes {
    /// Runs every probe. `report` is one of the run's own reports and
    /// `scene` the image it processed.
    ///
    /// # Errors
    /// A failed scheme probe job.
    pub fn measure(
        workload: Workload,
        run: &LoopResult,
        scene: &Scene,
        report: &RunReport,
        seed: u64,
        threads: usize,
    ) -> Result<Self, RunError> {
        let periodic = SchemeSample::of(
            StrategySpec::Periodic(PeriodicOptions::default()),
            workload,
            run,
            scene,
            seed,
            threads,
        )?;
        let speculative = SchemeSample::of(
            StrategySpec::Speculative { lanes: 0 },
            workload,
            run,
            scene,
            seed,
            threads,
        )?;
        let model = NucleiModel::new(&scene.image, scene.params.clone());
        let model_build_ms = 1e3
            * time_median(5, 0.2, || {
                NucleiModel::new(&scene.image, scene.params.clone())
            });

        let mut sampler = Sampler::new(&model, seed);
        sampler.run(STEP_WARMUP);
        let blocks: Vec<f64> = (0..STEP_BLOCKS)
            .map(|_| {
                let t = Instant::now();
                sampler.run(STEP_BLOCK);
                t.elapsed().as_secs_f64() * 1e9 / STEP_BLOCK as f64
            })
            .collect();

        let kernel = pmcmc_bench::kernel_micro_rows()
            .into_iter()
            .map(|row| (row.op, row.ns_per_op))
            .collect();

        let (tile_new_us, tile_absorb_us) = tile_spans(&model, scene, seed);

        let team = SpinTeam::new(threads);
        for _ in 0..200 {
            team.broadcast(|i| {
                black_box(i);
            });
        }
        let batches: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..BROADCAST_BATCH {
                    team.broadcast(|i| {
                        black_box(i);
                    });
                }
                t.elapsed().as_secs_f64() * 1e6 / f64::from(BROADCAST_BATCH)
            })
            .collect();
        let broadcast_us = median(&batches);
        drop(team);

        let assign = Assign {
            job: 0,
            blueprint: JobBlueprint {
                strategy: workload.strategy(),
                image: scene.image.clone(),
                params: scene.params.clone(),
                seed,
                iterations: workload.iterations(),
                remaining_deadline: None,
                checkpoint_interval: None,
                progress_stride: 1024,
                queued_so_far: Duration::ZERO,
            },
        };
        let assign_wire = assign.to_wire_bytes();
        let wire_report = WireReport::from_report(report);
        let result = JobResult {
            job: 0,
            outcome: Ok(wire_report.clone()),
        };
        let result_wire = result.to_wire_bytes();
        let us = |secs: f64| secs * 1e6;
        Ok(Self {
            step_ns: median(&blocks),
            kernel,
            model_build_ms,
            tile_new_us,
            tile_absorb_us,
            broadcast_us,
            assign_bytes: assign_wire.len() as f64,
            assign_encode_us: us(time_median(9, 0.1, || assign.to_wire_bytes())),
            assign_decode_us: us(time_median(9, 0.1, || {
                Assign::from_wire_bytes(&assign_wire)
            })),
            result_bytes: result_wire.len() as f64,
            result_encode_us: us(time_median(9, 0.1, || result.to_wire_bytes())),
            result_decode_us: us(time_median(9, 0.1, || {
                JobResult::from_wire_bytes(&result_wire)
            })),
            into_report_us: us(time_median(9, 0.1, || {
                wire_report.clone().into_report(&scene.image, &scene.params)
            })),
            periodic,
            speculative,
        })
    }
}

/// Times `TileWorkspace::new` and `Configuration::absorb_tile` over every
/// tile of [`TILE_PHASES`] tilings drawn as the default periodic options
/// draw them, on the ground-truth configuration. Each workspace runs its
/// share of one local phase before it is absorbed, so the merge has
/// edits to apply. Returns median microseconds per phase.
fn tile_spans(model: &NucleiModel, scene: &Scene, seed: u64) -> (f64, f64) {
    let (w, h) = (scene.params.width, scene.params.height);
    let (xm, ym) = match PeriodicOptions::default().scheme {
        PartitionScheme::Grid { xm, ym } => (xm, ym),
        PartitionScheme::Corner => (i64::from(w), i64::from(h)),
    };
    let weights = MoveWeights::default();
    let qg = weights.qg();
    let local_iters =
        (PeriodicOptions::default().global_phase_iters as f64 * (1.0 - qg) / qg).round() as u64;
    let p_translate = weights.translate / (weights.translate + weights.resize);
    let master = Configuration::from_circles(model, &scene.truth);
    let mut new_us = Vec::new();
    let mut absorb_us = Vec::new();
    for phase in 0..TILE_PHASES {
        let r = mix(seed, phase);
        let grid = PartitionGrid::new(
            xm,
            ym,
            (r % xm as u64) as i64,
            ((r >> 32) % ym as u64) as i64,
        );
        let tiles = grid.tiles(w, h);
        let t = Instant::now();
        let mut workspaces: Vec<TileWorkspace> = tiles
            .iter()
            .map(|&rect| TileWorkspace::new(&master, model, rect))
            .collect();
        new_us.push(t.elapsed().as_secs_f64() * 1e6);
        for (i, ws) in workspaces.iter_mut().enumerate() {
            let mut rng = Xoshiro256::new(mix(r, i as u64));
            ws.run_local(
                local_iters / tiles.len() as u64,
                p_translate,
                model,
                &mut rng,
            );
        }
        let mut merged = master.clone();
        let t = Instant::now();
        for ws in &workspaces {
            merged.absorb_tile(ws);
        }
        absorb_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median(&new_us), median(&absorb_us))
}

/// The breakdown of one job's wall time into layer spans.
pub struct Ledger {
    /// Wall time being explained, seconds.
    pub wall: f64,
    /// `(layer, seconds, note)`, in the order they happen.
    pub parts: Vec<(String, f64, String)>,
    /// Wall minus the parts, seconds.
    pub residual: f64,
}

impl Ledger {
    /// Breaks the median job down. Local jobs: queue wait, model
    /// build, then the strategy's phases (busy), then the hand-back.
    /// Distributed jobs add the wire legs: assign encode/decode before
    /// the run, result encode/decode and `into_report` after it.
    #[must_use]
    pub fn of_median_job(workload: Workload, run: &LoopResult, probes: &Probes) -> Option<Self> {
        let walls: Vec<f64> = run.jobs.iter().map(|j| j.wall).collect();
        let job = &run.jobs[crate::stats::median_index(&walls)?];
        let mut parts = vec![("job.queued".to_owned(), job.queued, "NodeTiming".to_owned())];
        let distributed = workload == Workload::BatchDistributed;
        if distributed {
            parts.push((
                "wire.assign".to_owned(),
                (probes.assign_encode_us + probes.assign_decode_us) * 1e-6,
                "encode + decode span".to_owned(),
            ));
        }
        parts.push((
            "model.build".to_owned(),
            probes.model_build_ms * 1e-3,
            "NucleiModel::new span".to_owned(),
        ));
        let phase_sum: f64 = job
            .phases
            .iter()
            .filter(|p| p.0 != "overhead")
            .map(|p| p.1)
            .sum();
        for &(name, secs) in &job.phases {
            let note = if name == "overhead" {
                "inside local, not added".to_owned()
            } else {
                "PhaseTiming".to_owned()
            };
            parts.push((format!("phase.{name}"), secs, note));
        }
        parts.push((
            "busy.outside_phases".to_owned(),
            job.busy - phase_sum,
            "NodeTiming::busy - phases".to_owned(),
        ));
        if distributed {
            parts.push((
                "wire.result".to_owned(),
                (probes.result_encode_us + probes.result_decode_us) * 1e-6,
                "encode + decode span".to_owned(),
            ));
            parts.push((
                "wire.into_report".to_owned(),
                probes.into_report_us * 1e-6,
                "WireReport::into_report span".to_owned(),
            ));
        }
        let mut explained: f64 = parts
            .iter()
            .filter(|p| p.0 != "phase.overhead")
            .fold(0.0, |acc, p| acc + p.1);
        // `submit_batch` returns only once admission has placed the last
        // job, and results arriving before that are delivered when it
        // returns: a job collected right after the call was held there.
        if distributed && job.wall <= job.submit + HELD_SLACK_S && job.submit > explained {
            parts.push((
                "client.held_in_submit".to_owned(),
                job.submit - explained,
                "ready before submit_batch returned".to_owned(),
            ));
            explained = job.submit;
        }
        Some(Self {
            wall: job.wall,
            parts,
            residual: job.wall - explained,
        })
    }

    /// Prints the ledger.
    pub fn print(&self, workload: Workload) {
        println!(
            "ledger {} (median job, wall {:.6} s):",
            workload.name(),
            self.wall
        );
        for (name, secs, note) in &self.parts {
            println!("  {name:<22} {secs:>12.6} s  {note}");
        }
        println!(
            "  {:<22} {:>12.6} s  ({:+.2}% of wall)",
            "residual",
            self.residual,
            100.0 * self.residual / self.wall.max(f64::MIN_POSITIVE)
        );
    }
}

/// The per-layer metric values of a traced run, by name.
#[must_use]
pub fn layer_values(
    run: &LoopResult,
    probes: &Probes,
    ledger: Option<&Ledger>,
    threads: usize,
) -> Vec<(&'static str, f64)> {
    let p = &run.counters.perf;
    let (per, spec) = (&probes.periodic, &probes.speculative);
    let jobs = run.attempted.max(1) as f64;
    let per_job = |v: u64| v as f64 / jobs;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let med = |f: &dyn Fn(&JobRecord) -> f64| median(&run.jobs.iter().map(f).collect::<Vec<_>>());
    let proposals = p.proposals_evaluated as f64;
    let touched = BYTES_PER_PIXEL * (p.pixels_visited + p.simd_lanes_processed) as f64
        + BYTES_PER_FAST_SPAN * p.span_fastpath_hits as f64;
    let submits: Vec<f64> = run.units.iter().map(|u| u.submit * 1e6).collect();
    let mut values = vec![
        ("core.step_ns", probes.step_ns),
        ("core.proposals_evaluated", per_job(p.proposals_evaluated)),
        ("core.pixels_visited", per_job(p.pixels_visited)),
        ("core.pixels_skipped", per_job(p.pixels_skipped)),
        ("core.span_fastpath_hits", per_job(p.span_fastpath_hits)),
        ("core.simd_lanes_processed", per_job(p.simd_lanes_processed)),
        ("core.rng_refills", per_job(p.rng_refills)),
        ("core.proposal_batches", per_job(p.proposal_batches)),
        (
            "core.pair_cache_hit_ratio",
            ratio(p.pair_cache_hits as f64, p.pair_count_queries as f64),
        ),
        (
            "core.kernel.bytes_per_proposal_computed",
            ratio(touched, proposals),
        ),
        ("model.build_ms", probes.model_build_ms),
        ("periodic.global_s", per.phases[0]),
        ("periodic.local_s", per.phases[1]),
        ("periodic.overhead_s", per.phases[2]),
        (
            "periodic.simd_lanes_per_proposal",
            ratio(
                per.perf.simd_lanes_processed as f64,
                per.perf.proposals_evaluated as f64,
            ),
        ),
        ("tile.workspace_new_us", probes.tile_new_us),
        ("tile.absorb_us", probes.tile_absorb_us),
        ("team.broadcast_us", probes.broadcast_us),
        ("spec.rounds", spec.per_job(spec.perf.spec_rounds)),
        (
            "spec.spin_wait_s",
            spec.per_job(spec.perf.spin_wait_ns) * 1e-9,
        ),
        (
            "spec.proposals_per_round",
            ratio(
                spec.perf.proposals_evaluated as f64,
                spec.perf.spec_rounds as f64,
            ),
        ),
        (
            "spec.useful_ratio",
            ratio(spec.iterations as f64, spec.perf.proposals_evaluated as f64),
        ),
        ("pool.tasks", per.per_job(per.pool.tasks)),
        ("pool.batches", per.per_job(per.pool.batches)),
        (
            "pool.utilisation",
            ratio(per.pool.busy_nanos as f64 * 1e-9, threads as f64 * per.wall),
        ),
        ("job.submit_us", median(&submits)),
        ("job.queued_p50_s", med(&|j| j.queued)),
        ("job.busy_p50_s", med(&|j| j.busy)),
        ("job.return_p50_s", med(&|j| j.wall - j.queued - j.busy)),
        ("job.outside_strategy_s", med(&|j| j.wall - j.total_time)),
        ("wire.assign_bytes", probes.assign_bytes),
        ("wire.assign_encode_us", probes.assign_encode_us),
        ("wire.assign_decode_us", probes.assign_decode_us),
        ("wire.result_bytes", probes.result_bytes),
        ("wire.result_encode_us", probes.result_encode_us),
        ("wire.result_decode_us", probes.result_decode_us),
        ("wire.into_report_us", probes.into_report_us),
        ("ledger.residual_s", ledger.map_or(0.0, |l| l.residual)),
    ];
    for &(op, ns) in &probes.kernel {
        let name = match op {
            "grid_add_remove_sparse" => "core.kernel.grid_add_remove_sparse_ns",
            "grid_add_remove_dense" => "core.kernel.grid_add_remove_dense_ns",
            "delta_spans_birth" => "core.kernel.delta_spans_birth_ns",
            "delta_spans_move" => "core.kernel.delta_spans_move_ns",
            "simd_inc_dec_counts" => "core.kernel.simd_inc_dec_counts_ns",
            "simd_sum_gain_flips" => "core.kernel.simd_sum_gain_flips_ns",
            _ => continue,
        };
        values.push((name, ns));
    }
    values
}

/// Prints the §VI cost-model predictions, from the measured step time τ,
/// rejection rate p_r and the move mix's q_g, beside what was measured.
/// `sequential_p50` is the recorded `sec7_sequential` job wall median on
/// this host, when one exists.
pub fn print_theory(
    workload: Workload,
    run: &LoopResult,
    probes: &Probes,
    threads: usize,
    sequential_p50: Option<(f64, usize)>,
) {
    let qg = MoveWeights::default().qg();
    let tau = probes.step_ns * 1e-9;
    let med = |f: fn(&JobRecord) -> f64| median(&run.jobs.iter().map(f).collect::<Vec<_>>());
    let (p50, busy) = (med(|j| j.wall), med(|j| j.busy));
    let pr = 1.0 - med(|j| j.acceptance);
    let n = workload.iterations() as f64;
    println!(
        "theory (q_g = {qg:.3}, tau = {:.1} ns, p_r = {pr:.4}):",
        tau * 1e9
    );
    let measured_fraction = |predicted: f64| {
        match sequential_p50 {
        Some((seq, runs)) => println!(
            "  fraction of sequential: predicted {predicted:.3}, measured {:.3} ({p50:.4} s / {seq:.4} s over {runs} recorded sec7_sequential runs)",
            p50 / seq
        ),
        None => println!(
            "  fraction of sequential: predicted {predicted:.3}, measured n/a (no sec7_sequential result recorded for this host and revision)"
        ),
    }
    };
    match workload {
        Workload::Sec7Sequential => println!(
            "  sequential_time: predicted busy {:.4} s, measured {busy:.4} s",
            theory::sequential_time(n, qg, tau, tau)
        ),
        Workload::Sec7Periodic => {
            let tiles = run.jobs.iter().map(|j| j.partitions).max().unwrap_or(1);
            let s = tiles.min(threads).max(1);
            println!(
                "  eq2_time (s = {s}): predicted busy {:.4} s, measured {busy:.4} s",
                theory::eq2_time(n, qg, tau, tau, s)
            );
            measured_fraction(theory::eq2_fraction(qg, s));
        }
        Workload::Sec7Speculative => {
            let lanes = run.jobs.iter().map(|j| j.partitions).max().unwrap_or(1);
            let rounds = run.counters.perf.spec_rounds as f64;
            let iters: u64 = run.jobs.iter().map(|j| j.iterations).sum();
            println!(
                "  iterations per round (n = {lanes}): predicted {:.3}, measured {:.3}",
                theory::speculative_iters_per_round(pr, lanes),
                if rounds > 0.0 {
                    iters as f64 / rounds
                } else {
                    0.0
                }
            );
            measured_fraction(theory::speculative_fraction(pr, lanes));
        }
        Workload::BatchDistributed => {
            let makespans: Vec<f64> = run.units.iter().map(|u| u.wall).collect();
            println!(
                "  eq4_time (s = {BATCH_NODES}, t = 1, {BATCH_JOBS} jobs): predicted batch makespan {:.4} s, measured {:.4} s",
                theory::eq4_time(n * BATCH_JOBS as f64, qg, tau, tau, BATCH_NODES, 1, pr, pr),
                median(&makespans)
            );
        }
    }
}
