//! Contract tests for the socket-backed distributed backend: a 1-node
//! distributed cluster (an in-process daemon on a loopback socket) must
//! produce reports byte-identical to the local backend for the same
//! seed — the wire format transmits, it must never perturb.

use pmcmc::prelude::*;

fn workload(size: u32, n: usize, seed: u64) -> (GrayImage, ModelParams) {
    let spec = SceneSpec {
        width: size,
        height: size,
        n_circles: n,
        radius_mean: 8.0,
        radius_sd: 0.8,
        radius_min: 5.0,
        radius_max: 12.0,
        noise_sd: 0.05,
        ..SceneSpec::default()
    };
    let mut rng = Xoshiro256::new(seed);
    let scene = generate(&spec, &mut rng);
    let img = scene.render(&mut rng);
    let mut params = ModelParams::new(size, size, n as f64, 8.0);
    params.noise_sd = 0.15;
    (img, params)
}

/// Everything deterministic a report carries, with float fields captured
/// bit-for-bit (wall times and node timings are excluded — they are the
/// only non-deterministic fields by design).
fn report_fingerprint(r: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{}|{:?}|iters={}",
        r.strategy, r.validity, r.iterations
    );
    let _ = write!(
        out,
        "|parts={}|lp={:016x}",
        r.diagnostics.partitions,
        r.diagnostics.log_posterior.to_bits()
    );
    if let Some(acc) = r.diagnostics.acceptance_rate {
        let _ = write!(out, "|acc={:016x}", acc.to_bits());
    }
    for note in &r.diagnostics.notes {
        let _ = write!(out, "|note={note}");
    }
    for p in &r.phases {
        let _ = write!(out, "|phase={}", p.phase);
    }
    for c in r.detected() {
        let _ = write!(
            out,
            "|c={:016x},{:016x},{:016x}",
            c.x.to_bits(),
            c.y.to_bits(),
            c.r.to_bits()
        );
    }
    out
}

#[test]
fn local_and_one_node_distributed_reports_are_byte_identical() {
    let (img, params) = workload(160, 9, 77);
    // Matching worker counts matter: speculative lane derivation reads the
    // pool width, and it must see 3 on both sides.
    let local = Engine::new(3).expect("local engine");
    let daemon = InProcessDaemon::spawn(3, 2).expect("loopback daemon");
    let distributed = Engine::distributed(&[daemon.addr()]).expect("1-node distributed cluster");
    assert_eq!(distributed.backend().name(), "distributed");
    for strategy in ["periodic", "speculative", "mc3", "blind"] {
        let run = |engine: &Engine| {
            let spec: StrategySpec = strategy.parse().expect("registered name");
            let report = engine
                .submit(
                    JobSpec::new(spec, img.clone(), params.clone())
                        .seed(33)
                        .iterations(8_000),
                )
                .expect("spec validates")
                .wait()
                .expect("job completes");
            report_fingerprint(&report)
        };
        assert_eq!(
            run(&local),
            run(&distributed),
            "{strategy}: local vs 1-node distributed reports differ"
        );
    }
}

#[test]
fn distributed_reports_stamp_remote_node_timings() {
    let (img, params) = workload(96, 5, 11);
    let daemon = InProcessDaemon::spawn(2, 2).expect("loopback daemon");
    let engine = Engine::distributed(&[daemon.addr()]).expect("1-node distributed cluster");
    let report = engine
        .submit(
            JobSpec::new(StrategySpec::Sequential, img, params)
                .seed(9)
                .iterations(2_000),
        )
        .expect("spec validates")
        .wait()
        .expect("job completes");
    assert_eq!(report.strategy, "sequential");
    assert_eq!(report.iterations, 2_000);
    assert_eq!(
        report.node_timings.len(),
        1,
        "the daemon stamps exactly one node timing"
    );
    assert_eq!(report.node_timings[0].node.index(), 0);
    assert!(report.node_timings[0].busy <= report.total_time + report.node_timings[0].busy);
}

/// A one-node cluster that holds one job at a time: daemon capacity and
/// coordinator in-flight bound both 1.
fn one_slot_cluster() -> (InProcessDaemon, Engine) {
    let daemon = InProcessDaemon::spawn(1, 1).expect("loopback daemon");
    let backend = DistributedBackend::connect_with(
        &[daemon.addr()],
        DistributedConfig {
            max_in_flight: 1,
            ..DistributedConfig::default()
        },
    )
    .expect("1-node distributed cluster");
    (daemon, Engine::with_backend(backend))
}

fn batch_specs(jobs: usize, iterations: u64) -> Vec<JobSpec> {
    let (img, params) = workload(96, 5, 21);
    (0..jobs)
        .map(|i| {
            JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                .seed(i as u64)
                .iterations(iterations)
        })
        .collect()
}

/// Drains `batch` on a helper thread, failing the test if it has not
/// drained within `secs`.
fn drain_within(batch: Batch, secs: u64) -> Vec<Result<RunReport, RunError>> {
    let (tx, rx) = std::sync::mpsc::channel();
    let drainer = std::thread::spawn(move || {
        let _ = tx.send(batch.wait_all());
    });
    let results = rx
        .recv_timeout(std::time::Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("batch did not drain within {secs} s"));
    drainer.join().expect("drainer thread");
    results
}

#[test]
fn distributed_batch_returns_before_its_jobs_are_placed() {
    let (_daemon, engine) = one_slot_cluster();
    let batch = engine
        .submit_batch(batch_specs(4, 20_000))
        .expect("batch admitted");
    // One slot runs the four jobs one after another. Waiting in the call
    // for the last placement would mean the first three had finished.
    let finished = batch.handles().iter().filter(|h| h.is_finished()).count();
    assert!(
        finished < 3,
        "{finished} of 4 jobs finished before submit_batch returned"
    );
    for (i, result) in drain_within(batch, 60).into_iter().enumerate() {
        let report = result.unwrap_or_else(|e| panic!("job {i} failed: {e}"));
        assert_eq!(report.iterations, 20_000);
        assert!(
            !report
                .diagnostics
                .notes
                .iter()
                .any(|n| n.contains("declined")),
            "job {i} was bounced by a full daemon: {:?}",
            report.diagnostics.notes
        );
    }
}

#[test]
fn cancelling_a_distributed_batch_resolves_its_queued_jobs() {
    let (_daemon, engine) = one_slot_cluster();
    let batch = engine
        .submit_batch(batch_specs(4, 200_000))
        .expect("batch admitted");
    batch.cancel_all();
    // At most the job already on the daemon runs (remote runs are not
    // interrupted); every job still queued resolves without a run.
    let results = drain_within(batch, 60);
    let mut cancelled = 0;
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(_) => {}
            Err(RunError::Cancelled {
                completed_iterations: 0,
            }) => cancelled += 1,
            Err(e) => panic!("job {i}: expected a report or a queued cancel, got {e}"),
        }
    }
    assert!(
        cancelled >= 3,
        "only {cancelled} of 4 queued jobs cancelled"
    );
}

#[test]
fn dropping_a_distributed_engine_fails_its_queued_jobs() {
    let (daemon, engine) = one_slot_cluster();
    let batch = engine
        .submit_batch(batch_specs(4, 200_000))
        .expect("batch admitted");
    drop(engine);
    for (i, result) in drain_within(batch, 60).into_iter().enumerate() {
        assert!(
            matches!(result, Err(RunError::Transport(_))),
            "job {i}: expected a transport failure on shutdown, got {:?}",
            result.map(|r| r.iterations)
        );
    }
    daemon.join();
}
