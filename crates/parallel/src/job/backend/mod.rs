//! Pluggable execution backends: *where* a submitted job runs.
//!
//! The [`Engine`](crate::job::Engine) validates specs, mints ids and wires
//! up handles; everything after that — which thread drives the job, which
//! [`WorkerPool`] its parallel stages fan onto, whether submission
//! throttles — is the [`ExecutionBackend`]'s decision. Three backends ship:
//!
//! * [`LocalBackend`] — one shared pool, one detached driver thread per
//!   job; submission never blocks (the historical engine behaviour).
//! * [`ShardedBackend`] — a simulated `s × t` cluster in the shape of
//!   eq. (4): `s` nodes, each owning a private pool of `t` workers and a
//!   bounded admission queue, with placement driven by the LPT scheduler.
//! * [`DistributedBackend`] — the real thing: eq. (4)'s `s` nodes as
//!   remote [`NodeDaemon`](crate::job::daemon::NodeDaemon) processes
//!   reached over TCP, with heartbeat failure detection and
//!   failure-aware rescheduling; submission queues on the coordinator
//!   and never blocks, while each node's in-flight bound still holds.

mod distributed;
mod local;
mod sharded;

pub use distributed::{DistributedBackend, DistributedConfig};
pub use local::LocalBackend;
pub use sharded::{ShardPlacement, ShardedBackend};

use crate::engine::{NodeTiming, RunReport, RunRequest, StrategySpec};
use crate::job::ctx::{CancelToken, Event, Observer, RunCtx};
use crate::job::error::{panic_message, RunError};
use crate::job::spec::{JobId, JobSpec};
use crossbeam::channel::Sender;
use pmcmc_core::ModelParams;
use pmcmc_imaging::GrayImage;
use pmcmc_runtime::{ClusterTopology, NodeId, WorkerPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One (submission index, result) pair streamed onto a batch's
/// completion channel.
pub(crate) type BatchResult = (usize, Result<RunReport, RunError>);

/// The plumbing that resolves a job's handle exactly once: the finished
/// flag, the batch stream (when batched) and the completion channel.
/// Every terminal path — success, structured error, caught panic — goes
/// through [`JobCompletion::resolve`], so the one-result-per-job contract
/// `JobHandle::wait` and `Batch::next_finished` rely on cannot be
/// half-performed.
pub(crate) struct JobCompletion {
    pub(crate) done: Sender<Result<RunReport, RunError>>,
    pub(crate) batch: Option<(usize, Sender<BatchResult>)>,
    pub(crate) finished: Arc<AtomicBool>,
}

impl JobCompletion {
    /// Marks the job finished, streams the result to its batch (if any)
    /// and feeds the handle's completion channel. Consumes the
    /// completion: a job cannot resolve twice.
    pub(crate) fn resolve(self, result: Result<RunReport, RunError>) {
        self.finished.store(true, Ordering::Release);
        if let Some((idx, tx)) = self.batch {
            let _ = tx.send((idx, result.clone()));
        }
        let _ = self.done.send(result);
    }
}

/// A fully wired, ready-to-run job: the validated [`JobSpec`] fields plus
/// the plumbing the [`Engine`](crate::job::Engine) already connected to
/// the caller's [`JobHandle`](crate::job::JobHandle) (cancel token, event
/// channel, completion channel). Backends receive one per submission and
/// decide where and when to run it; [`PreparedJob::execute`] performs the
/// run itself and resolves the handle, so a backend's only real job is
/// choosing a thread and a pool.
pub struct PreparedJob {
    pub(crate) id: JobId,
    pub(crate) strategy: StrategySpec,
    pub(crate) image: GrayImage,
    pub(crate) params: ModelParams,
    pub(crate) seed: u64,
    pub(crate) iterations: u64,
    pub(crate) deadline: Option<std::time::Duration>,
    pub(crate) checkpoint_interval: Option<u64>,
    pub(crate) progress_stride: u64,
    pub(crate) observer: Option<Box<Observer>>,
    pub(crate) cancel: CancelToken,
    pub(crate) events: Sender<Event>,
    pub(crate) done: Sender<Result<RunReport, RunError>>,
    pub(crate) batch: Option<(usize, Sender<BatchResult>)>,
    pub(crate) finished: Arc<AtomicBool>,
    pub(crate) submitted_at: Instant,
}

impl PreparedJob {
    pub(crate) fn new(
        id: JobId,
        spec: JobSpec,
        cancel: CancelToken,
        events: Sender<Event>,
        done: Sender<Result<RunReport, RunError>>,
        batch: Option<(usize, Sender<BatchResult>)>,
        finished: Arc<AtomicBool>,
    ) -> Self {
        let JobSpec {
            strategy,
            image,
            params,
            seed,
            iterations,
            deadline,
            checkpoint_interval,
            progress_stride,
            observer,
        } = spec;
        Self {
            id,
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
            submitted_at: Instant::now(),
        }
    }

    /// The job's engine-unique id.
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The strategy the job runs.
    #[must_use]
    pub fn strategy(&self) -> &StrategySpec {
        &self.strategy
    }

    /// The placement weight of the job for LPT scheduling — its iteration
    /// budget (chain iterations dominate every scheme's cost).
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.iterations as f64
    }

    /// Runs the job to completion on the current thread, fanning its
    /// parallel stages onto `pool`, then resolves the caller's handle
    /// (events drained, completion channel fed, batch notified). Strategy
    /// panics are caught and surface as [`RunError::Panicked`], so calling
    /// this is enough to uphold the handle contract — every submitted job
    /// reports exactly one result.
    ///
    /// `node` names the cluster node the run is accounted to; the queue
    /// wait (submission until this call) and the run's wall time are
    /// stamped into the report's
    /// [`node_timings`](crate::engine::RunReport::node_timings).
    pub fn execute(self, pool: &Arc<WorkerPool>, node: NodeId) {
        let queued = self.submitted_at.elapsed();
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
        } = self;
        // Fan every event out to the user callback (if any) and the
        // handle's channel; a dropped handle just disconnects the channel
        // and sends become no-ops.
        let forward = move |event: &Event| {
            if let Some(cb) = &observer {
                cb(event);
            }
            let _ = events.send(event.clone());
        };
        let mut ctx = RunCtx::new()
            .with_cancel(cancel)
            .with_observer(forward)
            .with_progress_stride(progress_stride);
        if let Some(d) = deadline {
            // Deadlines are measured from submission (the spec's contract),
            // so time spent queued on a saturated node counts against them.
            ctx = ctx.with_deadline(submitted_at + d);
        }
        if let Some(c) = checkpoint_interval {
            ctx = ctx.with_checkpoint_interval(c);
        }
        let req = RunRequest::new(&image, &params, pool, seed).iterations(iterations);
        // Catch strategy panics here so a batch's completion channel
        // always receives one result per job — a panicked job surfaces as
        // RunError::Panicked instead of silently vanishing from the
        // stream.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            strategy.build().run(&req, &ctx)
        }))
        .unwrap_or_else(|payload| Err(RunError::Panicked(panic_message(&*payload))))
        .map(|mut report| {
            report.node_timings.push(NodeTiming {
                node,
                queued,
                busy: report.total_time,
            });
            report
        });
        // Release the job's inputs before the handle resolves: a
        // closed-loop caller submits its next job (cloning a new image)
        // the moment this result lands.
        drop(ctx);
        drop((image, params));
        JobCompletion {
            done,
            batch,
            finished,
        }
        .resolve(result);
    }
}

/// Where and how submitted jobs run — the seam between the typed
/// [`Engine`](crate::job::Engine) surface and the machinery underneath
/// it. Implementations own their threads and pools; the engine only hands
/// them [`PreparedJob`]s.
///
/// # Worked example: a synchronous inline backend
///
/// A backend that runs every job on the submitting thread (useful in
/// tests where background threads would only add noise) is a dozen
/// lines — [`PreparedJob::execute`] does all of the heavy lifting:
///
/// ```
/// use std::sync::Arc;
/// use pmcmc_core::ModelParams;
/// use pmcmc_imaging::GrayImage;
/// use pmcmc_parallel::engine::StrategySpec;
/// use pmcmc_parallel::job::backend::{ExecutionBackend, PreparedJob};
/// use pmcmc_parallel::job::{Engine, JobSpec, RunError};
/// use pmcmc_runtime::{ClusterTopology, NodeId, WorkerPool};
///
/// struct InlineBackend {
///     pool: Arc<WorkerPool>,
/// }
///
/// impl ExecutionBackend for InlineBackend {
///     fn name(&self) -> &'static str {
///         "inline"
///     }
///
///     fn topology(&self) -> ClusterTopology {
///         ClusterTopology::new(1, self.pool.threads())
///     }
///
///     fn primary_pool(&self) -> &Arc<WorkerPool> {
///         &self.pool
///     }
///
///     fn launch(&self, job: PreparedJob) -> Result<(), RunError> {
///         // Run right here; the handle the engine already returned will
///         // find its result waiting.
///         job.execute(&self.pool, NodeId(0));
///         Ok(())
///     }
/// }
///
/// let engine = Engine::with_backend(InlineBackend {
///     pool: WorkerPool::shared(2),
/// });
/// let spec = JobSpec::new(
///     StrategySpec::Sequential,
///     GrayImage::filled(48, 48, 0.1),
///     ModelParams::new(48, 48, 2.0, 8.0),
/// )
/// .seed(7)
/// .iterations(500);
/// let report = engine.submit(spec).unwrap().wait().unwrap();
/// assert_eq!(report.strategy, "sequential");
/// assert_eq!(report.node_timings.len(), 1);
/// ```
pub trait ExecutionBackend: Send + Sync {
    /// Short diagnostic name of the backend (`"local"`, `"sharded"`, …).
    fn name(&self) -> &'static str;

    /// The `s × t` shape of the backend, in eq. (4) terms (a local
    /// backend is a 1-node cluster of its pool's width).
    fn topology(&self) -> ClusterTopology;

    /// The pool a caller gets from
    /// [`Engine::pool`](crate::job::Engine::pool) — for multi-node
    /// backends, node 0's pool.
    fn primary_pool(&self) -> &Arc<WorkerPool>;

    /// Accepts one job for execution. The call may block for admission
    /// control (the sharded backend back-pressures saturated nodes), but
    /// must eventually either run the job — upholding the one-result
    /// contract via [`PreparedJob::execute`] — or return an error, in
    /// which case the engine reports the failure to the submitter.
    ///
    /// # Errors
    /// Backend-specific launch failures (e.g. thread spawn exhaustion),
    /// reported as [`RunError::InvalidSpec`].
    fn launch(&self, job: PreparedJob) -> Result<(), RunError>;

    /// The order in which a batch's jobs should be launched, given their
    /// [`weights`](PreparedJob::weight). Defaults to submission order;
    /// cluster backends return LPT order so heavy jobs place first.
    fn batch_order(&self, weights: &[f64]) -> Vec<usize> {
        (0..weights.len()).collect()
    }
}
