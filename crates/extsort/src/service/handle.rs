//! Submission handles: the caller's view of a job inside the service.
//!
//! [`SortService::submit`](crate::service::SortService::submit) returns a
//! [`JobHandle`] immediately; the job itself runs later, on a worker
//! thread, once the admission controller grants it a memory lease. The
//! handle is the only channel back: poll it with
//! [`try_status`](JobHandle::try_status), block on it with
//! [`wait`](JobHandle::wait), or abandon the job with
//! [`cancel`](JobHandle::cancel).

use crate::cancel::CancellationToken;
use crate::error::{Result, SortError};
use crate::sort_job::SortJobReport;
use crate::sync::{lock_or_poison, wait_or_poison};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use twrs_storage::IoStatsSnapshot;

/// Lifecycle of a job inside the service, in the order the states are
/// normally traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in its tenant queue for a worker.
    Queued,
    /// Picked by a worker; waiting for (or holding) a memory lease.
    Admitted,
    /// The sort pipeline is executing.
    Running,
    /// Finished successfully; [`JobHandle::wait`] returns `Ok`.
    Done,
    /// Finished with an error; [`JobHandle::wait`] returns it.
    Failed,
    /// Canceled — while still queued, at admission, or cooperatively
    /// preempted at a phase/page boundary after it started running;
    /// [`JobHandle::wait`] returns [`SortError::Canceled`].
    Canceled,
}

/// Everything a successfully finished service job reports back: the
/// familiar [`SortJobReport`] plus the service-side timings and the
/// per-job I/O attribution recorded on the job's
/// [`ScopedDevice`](twrs_storage::ScopedDevice).
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// The unified sort report, identical in shape to a direct
    /// `SortJob::run_*` run.
    pub report: SortJobReport,
    /// Tenant the job was submitted under.
    pub tenant: String,
    /// Memory (in records) the arbiter actually leased to the job — at
    /// most what its generator asked for, possibly less under contention.
    pub granted_memory: usize,
    /// Time from submission until a worker admitted the job and obtained
    /// its memory lease.
    pub queue_wait: Duration,
    /// Wall-clock time of the sort itself.
    pub sort_wall: Duration,
    /// The job's own I/O, measured on its private scope of the shared
    /// device (a private-head seek model; see
    /// [`ScopedDevice`](twrs_storage::ScopedDevice)).
    pub io: IoStatsSnapshot,
}

struct JobInner {
    status: JobStatus,
    cancel_requested: bool,
    cancel_requested_at: Option<Instant>,
    outcome: Option<Result<CompletedJob>>,
}

/// Shared state between a [`JobHandle`] and the worker that runs the job.
pub(crate) struct JobState {
    inner: Mutex<JobInner>,
    done: Condvar,
    /// The cooperative token threaded into the job's phase loops; fired
    /// (outside the state lock) whenever cancellation is requested.
    cancel: CancellationToken,
}

impl JobState {
    pub(crate) fn new(cancel: CancellationToken) -> Self {
        JobState {
            inner: Mutex::new(JobInner {
                status: JobStatus::Queued,
                cancel_requested: false,
                cancel_requested_at: None,
                outcome: None,
            }),
            done: Condvar::new(),
            cancel,
        }
    }

    /// Worker-side: transition Queued → Admitted, unless the handle asked
    /// for cancellation first — then the job completes as Canceled and
    /// `false` is returned (the worker skips it).
    pub(crate) fn begin_admission(&self) -> bool {
        let mut inner = lock_or_poison(&self.inner);
        if inner.cancel_requested {
            inner.status = JobStatus::Canceled;
            inner.outcome = Some(Err(SortError::Canceled(
                "canceled while queued".to_string(),
            )));
            self.done.notify_all();
            false
        } else {
            inner.status = JobStatus::Admitted;
            true
        }
    }

    /// Worker-side: the memory lease is held and the sort is starting.
    pub(crate) fn set_running(&self) {
        lock_or_poison(&self.inner).status = JobStatus::Running;
    }

    /// Worker-side: store the final outcome and wake every waiter. A
    /// second call is ignored (the completion guard may fire after a
    /// normal completion).
    pub(crate) fn complete(&self, outcome: Result<CompletedJob>) {
        let mut inner = lock_or_poison(&self.inner);
        if inner.outcome.is_some() {
            return;
        }
        inner.status = match &outcome {
            Ok(_) => JobStatus::Done,
            Err(SortError::Canceled(_)) => JobStatus::Canceled,
            Err(_) => JobStatus::Failed,
        };
        inner.outcome = Some(outcome);
        self.done.notify_all();
    }

    fn status(&self) -> JobStatus {
        lock_or_poison(&self.inner).status
    }

    /// Registers a cancellation request unless the job already finished.
    /// Fires the cooperative token *after* releasing the state lock, so
    /// wakers (which may take other locks) never run under it.
    fn request_cancel(&self) -> bool {
        {
            let mut inner = lock_or_poison(&self.inner);
            match inner.status {
                JobStatus::Done | JobStatus::Failed | JobStatus::Canceled => return false,
                JobStatus::Queued | JobStatus::Admitted | JobStatus::Running => {
                    if !inner.cancel_requested {
                        inner.cancel_requested = true;
                        inner.cancel_requested_at = Some(Instant::now());
                    }
                }
            }
        }
        self.cancel.cancel();
        true
    }

    /// How long ago cancellation was requested — the request→completion
    /// latency sample the service records when a canceled job completes.
    pub(crate) fn time_since_cancel_request(&self) -> Option<Duration> {
        lock_or_poison(&self.inner)
            .cancel_requested_at
            .map(|at| at.elapsed())
    }

    fn wait(&self) -> Result<CompletedJob> {
        let mut inner = lock_or_poison(&self.inner);
        loop {
            if let Some(outcome) = inner.outcome.take() {
                return outcome;
            }
            inner = wait_or_poison(&self.done, inner);
        }
    }
}

/// Ensures a popped job always completes, even if the worker thread
/// unwinds mid-sort: dropping an armed guard fails the job instead of
/// leaving its waiters blocked forever.
pub(crate) struct CompletionGuard {
    state: Arc<JobState>,
}

impl CompletionGuard {
    pub(crate) fn arm(state: Arc<JobState>) -> Self {
        CompletionGuard { state }
    }

    pub(crate) fn complete(self, outcome: Result<CompletedJob>) {
        self.state.complete(outcome);
        // Drop now finds the outcome set and does nothing.
    }
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        self.state.complete(Err(SortError::JobPanicked(
            "worker thread terminated before the job completed".to_string(),
        )));
    }
}

/// A ticket for one submitted job.
///
/// Obtained from [`SortService::submit`](crate::service::SortService::submit);
/// consumed by [`wait`](JobHandle::wait). Dropping the handle does **not**
/// cancel the job — it keeps running (or queuing) and its effects (the
/// output file) still happen.
pub struct JobHandle {
    state: Arc<JobState>,
    id: u64,
    tenant: String,
}

impl JobHandle {
    pub(crate) fn new(state: Arc<JobState>, id: u64, tenant: String) -> Self {
        JobHandle { state, id, tenant }
    }

    /// Service-wide unique id of the job.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Tenant the job was submitted under.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The job's current lifecycle state, without blocking.
    pub fn try_status(&self) -> JobStatus {
        self.state.status()
    }

    /// Requests cancellation. Returns `true` when the request was
    /// registered before the job finished, `false` when the job had
    /// already completed (Done, Failed, or Canceled).
    ///
    /// A queued job never starts and completes as
    /// [`Canceled`](JobStatus::Canceled) immediately. A **running** job is
    /// cooperatively preempted: the pipeline observes the request at the
    /// next phase/batch boundary (every 256-record batch of run-generation
    /// input, between merge passes, and every
    /// [`CANCEL_CHECK_INTERVAL`](crate::cancel::CANCEL_CHECK_INTERVAL)
    /// records of merge output), removes its spill files and any partial
    /// output, releases its memory lease, and completes as Canceled —
    /// [`wait`](JobHandle::wait) then returns [`SortError::Canceled`].
    ///
    /// `true` is a promise the request was *delivered*, not that the job
    /// will end Canceled: in a photo-finish the job may cross its last
    /// boundary first and still complete `Ok`.
    pub fn cancel(&self) -> bool {
        self.state.request_cancel()
    }

    /// Blocks until the job finishes and returns its outcome: the
    /// [`CompletedJob`] on success, the job's [`SortError`] on failure
    /// ([`SortError::Canceled`] for a canceled job).
    pub fn wait(self) -> Result<CompletedJob> {
        self.state.wait()
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("tenant", &self.tenant)
            .field("status", &self.try_status())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_while_queued_is_observed_at_admission() {
        let state = Arc::new(JobState::new(CancellationToken::new()));
        let handle = JobHandle::new(state.clone(), 1, "t".into());
        assert_eq!(handle.try_status(), JobStatus::Queued);
        assert!(handle.cancel());
        // The worker observes the request at admission time.
        assert!(!state.begin_admission());
        assert_eq!(handle.try_status(), JobStatus::Canceled);
        assert!(matches!(handle.wait(), Err(SortError::Canceled(_))));
    }

    #[test]
    fn cancel_after_admission_fires_the_cooperative_token() {
        let token = CancellationToken::new();
        let state = Arc::new(JobState::new(token.clone()));
        let handle = JobHandle::new(state.clone(), 2, "t".into());
        assert!(state.begin_admission());
        state.set_running();
        assert_eq!(handle.try_status(), JobStatus::Running);
        // Preemption: the request is registered and the token trips, so
        // the running pipeline stops at its next boundary check.
        assert!(handle.cancel());
        assert!(token.is_canceled());
        assert!(state.time_since_cancel_request().is_some());
        // The worker later reports the cooperative stop.
        state.complete(Err(SortError::Canceled("preempted".into())));
        assert_eq!(handle.try_status(), JobStatus::Canceled);
        // A second cancel on a finished job reports too-late.
        assert!(!handle.cancel());
    }

    #[test]
    fn dropping_an_armed_guard_fails_the_job() {
        let token = CancellationToken::new();
        let state = Arc::new(JobState::new(token));
        let handle = JobHandle::new(state.clone(), 3, "t".into());
        drop(CompletionGuard::arm(state));
        assert_eq!(handle.try_status(), JobStatus::Failed);
        assert!(matches!(handle.wait(), Err(SortError::JobPanicked(_))));
    }
}
