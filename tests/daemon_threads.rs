//! A node daemon's session must not keep one thread per job it has run.
//!
//! Alone in its test binary so no other test's threads share the counts.

#![cfg(target_os = "linux")]

use pmcmc::prelude::*;

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: in /proc/self/status")
}

/// Memory mappings of the process. An exited thread that was never
/// joined no longer counts in `Threads:`, but keeps its stack and guard
/// page mapped, so this is the count a runner leak grows.
fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs maps")
        .lines()
        .count()
}

#[test]
fn long_daemon_session_does_not_accumulate_runner_threads() {
    let img = GrayImage::filled(32, 32, 0.1);
    let params = ModelParams::new(32, 32, 2.0, 6.0);
    let daemon = InProcessDaemon::spawn(1, 2).expect("loopback daemon");
    let engine = Engine::distributed(&[daemon.addr()]).expect("1-node distributed cluster");
    let run = |seed: u64| {
        engine
            .submit(
                JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                    .seed(seed)
                    .iterations(1),
            )
            .expect("spec validates")
            .wait()
            .expect("job completes");
    };
    run(0);
    let mappings_before = mapping_count();
    for seed in 1..=240 {
        run(seed);
    }
    let threads = thread_count();
    let mappings_after = mapping_count();
    // Test harness, coordinator (reader, dispatcher, monitor, local pool)
    // and daemon (listener, worker, heartbeat, at most one live runner).
    assert!(threads < 16, "{threads} threads after 241 jobs");
    // A leak keeps two mappings per job; allow a few for allocator arenas.
    assert!(
        mappings_after < mappings_before + 32,
        "mappings grew {mappings_before} -> {mappings_after} over 240 jobs"
    );
    drop(engine);
    daemon.join();
}
