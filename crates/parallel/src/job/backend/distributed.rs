//! The socket-backed cluster backend: eq. (4)'s `s` nodes made real.
//!
//! Where [`ShardedBackend`](super::ShardedBackend) *simulates* the
//! `s × t` cluster with in-process pools, [`DistributedBackend`]
//! coordinates actual [`NodeDaemon`](crate::job::daemon::NodeDaemon)
//! processes over TCP using the versioned [`wire`](crate::job::wire)
//! format. The placement policy is the same — least-committed-first with
//! bounded per-node admission, LPT batch ordering — so eq. (4)'s cost
//! model carries over; what this backend adds is *failure awareness*:
//!
//! * every daemon streams heartbeats; a monitor thread retires any node
//!   silent for longer than [`DistributedConfig::heartbeat_timeout`];
//! * a retired node's in-flight jobs are requeued onto the survivors
//!   (noted in the final report's diagnostics), so killing a daemon
//!   mid-batch loses no jobs;
//! * only when *no* node survives does a job fail, with
//!   [`RunError::Transport`] naming the outage.
//!
//! Submission never blocks. [`ExecutionBackend::launch`] only records the
//! job and queues its id; one dispatcher thread takes ids in queue order
//! (LPT order for a batch) and places each as a node slot frees, so
//! [`Engine::submit_batch`](crate::job::Engine::submit_batch) returns at
//! once and [`Batch::next_finished`](crate::job::Batch::next_finished)
//! yields every result as soon as its node reports it. The waiting moves
//! from the caller's thread to that queue: a node still never holds more
//! than [`DistributedConfig::max_in_flight`] jobs. Requeued jobs (bounced
//! by a full daemon, or orphaned by a dead one) go to the front of the
//! same queue, so one path places every job. A job that cannot be placed
//! — no node alive, cancelled while queued, coordinator shut down —
//! resolves its handle with that error.

use super::{ExecutionBackend, JobCompletion, PreparedJob};
use crate::engine::RunReport;
use crate::job::ctx::{CancelToken, Event, Observer};
use crate::job::error::RunError;
use crate::job::wire::{Assign, JobBlueprint, JobResult, WireReport};
use crossbeam::channel::Sender;
use pmcmc_runtime::net::FrameConn;
use pmcmc_runtime::wire::{FrameKind, Heartbeat, Hello, Requeue, Wire, WireError, WIRE_VERSION};
use pmcmc_runtime::{lpt_order, Admission, ClusterTopology, WorkerPool};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Tunables of the distributed coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributedConfig {
    /// Jobs a node holds at once; further jobs wait in the coordinator's
    /// queue (eq. (4)'s bounded per-node queue; matches the daemons'
    /// capacity by default).
    pub max_in_flight: usize,
    /// How long a node may go without a heartbeat before the coordinator
    /// declares it dead and requeues its jobs.
    pub heartbeat_timeout: Duration,
    /// How long to retry the initial connection to each daemon
    /// (coordinator and daemons race at startup).
    pub connect_timeout: Duration,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 2,
            heartbeat_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(5),
        }
    }
}

/// Everything a job needs while in flight on a remote node: the payload
/// to (re-)send, the plumbing to resolve its handle, and the requeue
/// bookkeeping. The map entry's removal is the atomic "this job is
/// resolved" claim — a late duplicate `Result` (possible after a requeue
/// race) finds the entry gone and is dropped.
struct Pending {
    blueprint: JobBlueprint,
    submitted_at: Instant,
    /// The spec's original deadline, measured from submission; each
    /// (re-)dispatch ships the remainder.
    deadline: Option<Duration>,
    weight: f64,
    notes: Vec<String>,
    cancel: CancelToken,
    // Held (not driven) so the handle's event channel stays connected
    // while the job runs remotely; remote runs do not stream events back.
    #[allow(dead_code)]
    observer: Option<Box<Observer>>,
    #[allow(dead_code)]
    events: Sender<Event>,
    completion: JobCompletion,
}

/// One connected daemon.
struct NodeLink {
    /// Coordinator-assigned index (`NodeId` space).
    index: usize,
    addr: SocketAddr,
    /// Writer half, shared by the dispatcher and the monitor.
    writer: Mutex<FrameConn>,
    /// Control clone used to shut the socket down from the monitor,
    /// unblocking the reader thread parked in `recv`.
    control: FrameConn,
    admission: Admission,
    alive: AtomicBool,
    last_heartbeat: Mutex<Instant>,
    /// Worker threads the daemon advertised in its `Hello`.
    workers: usize,
    /// Jobs currently assigned to this node, with the weight each
    /// committed. Removing a job from this map is the atomic claim on its
    /// admission slot: exactly one of the completion, bounce, death and
    /// failed-send paths wins, so a slot is never released twice.
    in_flight: Mutex<HashMap<u64, f64>>,
}

struct Shared {
    nodes: Vec<Arc<NodeLink>>,
    /// Committed placement weight per node, for least-committed ordering.
    committed: Mutex<Vec<f64>>,
    pending: Mutex<HashMap<u64, Pending>>,
    /// Ids awaiting placement. Closing it is the coordinator's shutdown
    /// signal to the dispatcher and the monitor.
    queue: DispatchQueue,
    cfg: DistributedConfig,
}

/// The FIFO of job ids the dispatcher places, plus the wake-up it parks
/// on while every alive node is saturated. Built on `std::sync` (the
/// `parking_lot` stub has no condvar); every update leaves the state
/// valid, so a poisoned lock is recovered rather than propagated.
#[derive(Default)]
struct DispatchQueue {
    state: std::sync::Mutex<QueueState>,
    changed: Condvar,
}

#[derive(Default)]
struct QueueState {
    ids: VecDeque<u64>,
    closed: bool,
    /// Bumped whenever a node slot frees or a node dies, so a parked
    /// dispatcher knows to re-scan the nodes.
    epoch: u64,
}

impl DispatchQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push_back(&self, job: u64) {
        self.lock().ids.push_back(job);
        self.changed.notify_all();
    }

    /// Puts requeued jobs ahead of everything not yet placed.
    fn push_front(&self, jobs: &[u64]) {
        let mut state = self.lock();
        for &job in jobs.iter().rev() {
            state.ids.push_front(job);
        }
        drop(state);
        self.changed.notify_all();
    }

    /// Blocks for the next queued id; `None` once the queue is closed.
    fn pop(&self) -> Option<u64> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return None;
            }
            if let Some(job) = state.ids.pop_front() {
                return Some(job);
            }
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The current epoch, or `None` once the queue is closed.
    fn epoch(&self) -> Option<u64> {
        let state = self.lock();
        (!state.closed).then_some(state.epoch)
    }

    /// Parks until the epoch moves past `seen`, the queue closes, or
    /// `timeout` passes.
    fn wait_past(&self, seen: u64, timeout: Duration) {
        let state = self.lock();
        let _ = self
            .changed
            .wait_timeout_while(state, timeout, |s| s.epoch == seen && !s.closed);
    }

    /// Signals that a slot freed or a node died.
    fn wake(&self) {
        self.lock().epoch += 1;
        self.changed.notify_all();
    }

    fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

/// [`ExecutionBackend`] that coordinates remote node daemons over TCP.
///
/// ```no_run
/// use pmcmc_parallel::job::{DistributedBackend, Engine};
///
/// let backend = DistributedBackend::connect(&["127.0.0.1:4301", "127.0.0.1:4302"]).unwrap();
/// let engine = Engine::with_backend(backend);
/// ```
pub struct DistributedBackend {
    shared: Arc<Shared>,
    local_pool: Arc<WorkerPool>,
    /// The per-node readers, the dispatcher and the heartbeat monitor.
    threads: Vec<JoinHandle<()>>,
}

impl DistributedBackend {
    /// Connects to one daemon per address with the default
    /// [`DistributedConfig`].
    ///
    /// # Errors
    /// [`RunError::Transport`] when an address cannot be resolved or a
    /// daemon cannot be reached / handshaken within the connect timeout.
    pub fn connect<A: std::net::ToSocketAddrs>(addrs: &[A]) -> Result<Self, RunError> {
        Self::connect_with(addrs, DistributedConfig::default())
    }

    /// Connects with explicit tunables.
    ///
    /// # Errors
    /// As [`DistributedBackend::connect`].
    pub fn connect_with<A: std::net::ToSocketAddrs>(
        addrs: &[A],
        cfg: DistributedConfig,
    ) -> Result<Self, RunError> {
        if addrs.is_empty() {
            return Err(RunError::Transport(
                "a distributed backend needs at least one node address".to_owned(),
            ));
        }
        let mut nodes = Vec::with_capacity(addrs.len());
        for (index, addr) in addrs.iter().enumerate() {
            let addr = addr
                .to_socket_addrs()
                .map_err(|e| RunError::Transport(format!("node {index}: bad address: {e}")))?
                .next()
                .ok_or_else(|| {
                    RunError::Transport(format!("node {index}: address resolved to nothing"))
                })?;
            nodes.push(Arc::new(handshake(index, addr, &cfg)?));
        }
        let committed = Mutex::new(vec![0.0; nodes.len()]);
        let shared = Arc::new(Shared {
            nodes,
            committed,
            pending: Mutex::new(HashMap::new()),
            queue: DispatchQueue::default(),
            cfg,
        });

        let mut threads = Vec::with_capacity(shared.nodes.len() + 2);
        for node in &shared.nodes {
            let shared = Arc::clone(&shared);
            let node = Arc::clone(node);
            let mut reader = node.control.try_clone().map_err(|e| {
                RunError::Transport(format!("node {}: clone for reader failed: {e}", node.index))
            })?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pmcmc-dist-reader{}", node.index))
                    .spawn(move || reader_loop(&shared, &node, &mut reader))
                    .map_err(|e| RunError::Transport(format!("reader spawn failed: {e}")))?,
            );
        }
        for (name, body) in [
            ("pmcmc-dist-dispatch", dispatcher_loop as fn(&Arc<Shared>)),
            ("pmcmc-dist-monitor", monitor_loop),
        ] {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(name.to_owned())
                    .spawn(move || body(&shared))
                    .map_err(|e| RunError::Transport(format!("{name} spawn failed: {e}")))?,
            );
        }

        Ok(Self {
            shared,
            local_pool: WorkerPool::shared(1),
            threads,
        })
    }

    /// Per-node worker counts as advertised by the daemons' `Hello`s.
    #[must_use]
    pub fn node_workers(&self) -> Vec<usize> {
        self.shared.nodes.iter().map(|n| n.workers).collect()
    }

    /// How many nodes are currently considered alive.
    #[must_use]
    pub fn alive_nodes(&self) -> usize {
        self.shared
            .nodes
            .iter()
            .filter(|n| n.alive.load(Ordering::Acquire))
            .count()
    }
}

/// Dials one daemon and exchanges `Hello`s.
fn handshake(
    index: usize,
    addr: SocketAddr,
    cfg: &DistributedConfig,
) -> Result<NodeLink, RunError> {
    let transport =
        |e: &dyn std::fmt::Display| RunError::Transport(format!("node {index} ({addr}): {e}"));
    let mut conn =
        FrameConn::connect_timeout(&addr, cfg.connect_timeout).map_err(|e| transport(&e))?;
    conn.send(
        FrameKind::Hello,
        &Hello {
            version: WIRE_VERSION,
            node: index as u64,
            workers: 0,
        }
        .to_wire_bytes(),
    )
    .map_err(|e| transport(&e))?;
    let reply = conn.recv().map_err(|e| transport(&e))?;
    if reply.kind != FrameKind::Hello {
        return Err(transport(&format!(
            "daemon opened with {:?} instead of Hello",
            reply.kind
        )));
    }
    let hello = Hello::from_wire_bytes(&reply.payload).map_err(|e| transport(&e))?;
    if hello.version != WIRE_VERSION {
        return Err(transport(&format!(
            "daemon speaks wire v{}, coordinator v{WIRE_VERSION}",
            hello.version
        )));
    }
    let control = conn.try_clone().map_err(|e| transport(&e))?;
    Ok(NodeLink {
        index,
        addr,
        writer: Mutex::new(conn),
        control,
        admission: Admission::new(cfg.max_in_flight),
        alive: AtomicBool::new(true),
        last_heartbeat: Mutex::new(Instant::now()),
        workers: (hello.workers.max(1)) as usize,
        in_flight: Mutex::new(HashMap::new()),
    })
}

/// Consumes every frame a daemon sends for its session.
fn reader_loop(shared: &Arc<Shared>, node: &Arc<NodeLink>, reader: &mut FrameConn) {
    loop {
        match reader.recv() {
            Ok(frame) => match frame.kind {
                FrameKind::Heartbeat if Heartbeat::from_wire_bytes(&frame.payload).is_ok() => {
                    *node.last_heartbeat.lock() = Instant::now();
                }
                FrameKind::Heartbeat => {} // malformed beat: ignore, the timeout decides
                FrameKind::Result => match JobResult::from_wire_bytes(&frame.payload) {
                    Ok(result) => complete(shared, node, result.job, result.outcome),
                    Err(_) => {
                        // An undecodable result is a protocol breach; the
                        // job it answered will be requeued when the node
                        // is retired.
                        retire(shared, node, "sent an undecodable result");
                        return;
                    }
                },
                FrameKind::Requeue => {
                    if let Ok(requeue) = Requeue::from_wire_bytes(&frame.payload) {
                        bounce(shared, node, requeue.job, &requeue.reason);
                    }
                }
                // Hello after the handshake, or daemon-bound kinds echoed
                // back: ignore.
                _ => {}
            },
            Err(_) => {
                retire(shared, node, "connection lost");
                return;
            }
        }
    }
}

/// Watches heartbeats; shuts down the socket of any silent node, which
/// fails its reader's `recv` and funnels retirement through the single
/// [`retire`] path.
fn monitor_loop(shared: &Arc<Shared>) {
    let tick = Duration::from_millis(50);
    while !shared.queue.is_closed() {
        for node in &shared.nodes {
            if !node.alive.load(Ordering::Acquire) {
                continue;
            }
            let silent_for = node.last_heartbeat.lock().elapsed();
            if silent_for > shared.cfg.heartbeat_timeout {
                // The reader sees the failed recv and runs `retire`.
                let _ = node.control.shutdown();
            }
        }
        std::thread::sleep(tick);
    }
}

/// The one placement path, new and requeued jobs alike: takes queued ids
/// in order and places each, resolving the handle of any job that cannot
/// be placed with the reason.
fn dispatcher_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        if let Err(e) = dispatch(shared, job) {
            let claimed = shared.pending.lock().remove(&job);
            if let Some(p) = claimed {
                p.completion.resolve(Err(e));
            }
        }
    }
}

/// A daemon refused an assignment (at capacity); put the job back at the
/// front of the queue. The daemon never started it, so there is no
/// duplicate risk.
fn bounce(shared: &Arc<Shared>, node: &Arc<NodeLink>, job: u64, reason: &str) {
    let Some(weight) = node.in_flight.lock().remove(&job) else {
        return;
    };
    release_slot(shared, node, weight);
    if let Some(p) = shared.pending.lock().get_mut(&job) {
        p.notes
            .push(format!("node-{} declined: {reason}; requeued", node.index));
    }
    shared.queue.push_front(&[job]);
}

/// Declares a node dead (idempotently), frees its admission slots and
/// requeues its in-flight jobs onto the survivors — or fails them with
/// [`RunError::Transport`] when the coordinator is shutting down.
fn retire(shared: &Arc<Shared>, node: &Arc<NodeLink>, why: &str) {
    if node
        .alive
        .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return;
    }
    let _ = node.control.shutdown();
    let orphans: Vec<(u64, f64)> = node.in_flight.lock().drain().collect();
    for &(_, weight) in &orphans {
        release_slot(shared, node, weight);
    }
    let shutting_down = shared.queue.is_closed();
    let mut requeued = Vec::new();
    {
        let mut pending = shared.pending.lock();
        for (job, _) in orphans {
            if shutting_down {
                if let Some(p) = pending.remove(&job) {
                    p.completion.resolve(Err(RunError::Transport(format!(
                        "node-{} ({}) {why} during shutdown",
                        node.index, node.addr
                    ))));
                }
            } else if let Some(p) = pending.get_mut(&job) {
                p.notes.push(format!(
                    "node-{} ({}) {why} mid-run; requeued",
                    node.index, node.addr
                ));
                requeued.push(job);
            }
        }
    }
    shared.queue.push_front(&requeued);
}

/// Frees the admission slot and the committed `weight` a job held on
/// `node`, and wakes the dispatcher. Callers must own the slot: either
/// they removed the job from the node's in-flight map (the claim that
/// makes this safe to call once), or they acquired it and never
/// published it there.
fn release_slot(shared: &Shared, node: &NodeLink, weight: f64) {
    {
        let mut committed = shared.committed.lock();
        committed[node.index] = (committed[node.index] - weight).max(0.0);
    }
    node.admission.release();
    shared.queue.wake();
}

/// Terminal path for a `Result` frame: frees the node's slot and
/// resolves the handle. Duplicate results (after a requeue race) find
/// the pending entry gone and are dropped.
fn complete(
    shared: &Arc<Shared>,
    node: &Arc<NodeLink>,
    job: u64,
    outcome: Result<WireReport, RunError>,
) {
    let claimed = node.in_flight.lock().remove(&job);
    if let Some(weight) = claimed {
        release_slot(shared, node, weight);
    }
    let Some(p) = shared.pending.lock().remove(&job) else {
        return;
    };
    let result: Result<RunReport, RunError> = outcome.map(|wire| {
        let mut report = wire.into_report(&p.blueprint.image, &p.blueprint.params);
        report.diagnostics.notes.extend(p.notes.iter().cloned());
        report
    });
    p.completion.resolve(result);
}

/// Places and ships one pending job: least-committed-first over the
/// alive nodes, waiting while every survivor is saturated.
///
/// # Errors
/// [`RunError::Transport`] when no node is left alive or the coordinator
/// shuts down first, and [`RunError::Cancelled`] when the job's token
/// fired before placement.
fn dispatch(shared: &Arc<Shared>, job: u64) -> Result<(), RunError> {
    loop {
        let Some((weight, cancel)) = shared
            .pending
            .lock()
            .get(&job)
            .map(|p| (p.weight, p.cancel.clone()))
        else {
            // Resolved concurrently (e.g. duplicate execution after a
            // requeue race finished first): nothing to do.
            return Ok(());
        };
        let node = place(shared, weight, &cancel)?;
        let payload = shared.pending.lock().get_mut(&job).map(|p| {
            let elapsed = p.submitted_at.elapsed();
            p.blueprint.queued_so_far = elapsed;
            p.blueprint.remaining_deadline = p.deadline.map(|d| d.saturating_sub(elapsed));
            Assign {
                job,
                blueprint: p.blueprint.clone(),
            }
            .to_wire_bytes()
        });
        let Some(payload) = payload else {
            // Resolved while it waited for the slot: hand the slot back.
            release_slot(shared, &node, weight);
            return Ok(());
        };

        node.in_flight.lock().insert(job, weight);
        let sent = node.writer.lock().send(FrameKind::Assign, &payload).is_ok();
        if sent && node.alive.load(Ordering::Acquire) {
            return Ok(());
        }
        // The node died under us. Whoever removes the in-flight entry
        // owns the job: if `retire` got there first it has requeued it.
        let Some(weight) = node.in_flight.lock().remove(&job) else {
            return Ok(());
        };
        release_slot(shared, &node, weight);
        retire(shared, &node, "send failed");
    }
}

/// Acquires an admission slot on the least-committed alive node,
/// committing `weight` to it. While every survivor is saturated it parks
/// until a slot frees or a node dies, re-checking at least every 100 ms
/// so a cancellation is seen.
fn place(shared: &Shared, weight: f64, cancel: &CancelToken) -> Result<Arc<NodeLink>, RunError> {
    loop {
        if cancel.is_cancelled() {
            return Err(RunError::Cancelled {
                completed_iterations: 0,
            });
        }
        let Some(seen) = shared.queue.epoch() else {
            return Err(RunError::Transport(
                "coordinator shut down before the job was placed".to_owned(),
            ));
        };
        let mut order: Vec<usize> = shared
            .nodes
            .iter()
            .filter(|n| n.alive.load(Ordering::Acquire))
            .map(|n| n.index)
            .collect();
        if order.is_empty() {
            return Err(RunError::Transport(
                "no cluster node is alive to run the job".to_owned(),
            ));
        }
        {
            let committed = shared.committed.lock();
            order.sort_by(|&a, &b| {
                committed[a]
                    .partial_cmp(&committed[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
        }
        for &idx in &order {
            let node = &shared.nodes[idx];
            if node.admission.try_acquire() {
                shared.committed.lock()[idx] += weight;
                return Ok(Arc::clone(node));
            }
        }
        shared.queue.wait_past(seen, Duration::from_millis(100));
    }
}

impl ExecutionBackend for DistributedBackend {
    fn name(&self) -> &'static str {
        "distributed"
    }

    fn topology(&self) -> ClusterTopology {
        let workers = self.shared.nodes.first().map_or(1, |n| n.workers);
        ClusterTopology::new(self.shared.nodes.len(), workers)
            .max_in_flight(self.shared.cfg.max_in_flight)
    }

    fn primary_pool(&self) -> &Arc<WorkerPool> {
        // Jobs run on the daemons' pools; this pool only serves direct
        // `Engine::pool` callers on the coordinator side.
        &self.local_pool
    }

    fn launch(&self, job: PreparedJob) -> Result<(), RunError> {
        let id = job.id.0;
        let weight = job.weight();
        let PreparedJob {
            id: _,
            strategy,
            image,
            params,
            seed,
            iterations,
            deadline,
            checkpoint_interval,
            progress_stride,
            observer,
            cancel,
            events,
            done,
            batch,
            finished,
            submitted_at,
        } = job;
        let pending = Pending {
            blueprint: JobBlueprint {
                strategy,
                image,
                params,
                seed,
                iterations,
                remaining_deadline: deadline,
                checkpoint_interval,
                progress_stride,
                queued_so_far: Duration::ZERO,
            },
            submitted_at,
            deadline,
            weight,
            notes: Vec::new(),
            cancel,
            observer,
            events,
            completion: JobCompletion {
                done,
                batch,
                finished,
            },
        };
        self.shared.pending.lock().insert(id, pending);
        self.shared.queue.push_back(id);
        Ok(())
    }

    fn batch_order(&self, weights: &[f64]) -> Vec<usize> {
        lpt_order(weights)
    }
}

impl Drop for DistributedBackend {
    fn drop(&mut self) {
        self.shared.queue.close();
        for node in &self.shared.nodes {
            if node.alive.load(Ordering::Acquire) {
                let _ = node.writer.lock().send(FrameKind::Shutdown, &[]);
            }
            let _ = node.control.shutdown();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // Anything still pending (jobs still queued, or the daemons never
        // answered) must not leave a handle waiting forever.
        let leftovers: Vec<Pending> = {
            let mut pending = self.shared.pending.lock();
            pending.drain().map(|(_, p)| p).collect()
        };
        for p in leftovers {
            p.completion.resolve(Err(RunError::Transport(
                "coordinator shut down before the job finished".to_owned(),
            )));
        }
    }
}

/// Returns [`WireError`] as a transport [`RunError`] — shared by the
/// daemon binary and tests.
impl From<WireError> for RunError {
    fn from(e: WireError) -> Self {
        RunError::Transport(e.to_string())
    }
}
