//! Cooperative cancellation for running sort jobs.
//!
//! A [`CancellationToken`] is a shared flag threaded from
//! [`JobHandle::cancel`](crate::service::JobHandle::cancel) through the
//! [`SortJob`](crate::sort_job::SortJob) pipeline into its phase loops.
//! The pipeline polls it at phase and page
//! boundaries — run generation checks it on every record pulled into the
//! selection heap, the merge scheduler between passes and every
//! [`CANCEL_CHECK_INTERVAL`] merged records — and surfaces a set flag as
//! [`SortError::Canceled`], which unwinds through the normal error path:
//! spill files are cleaned up, partial output removed, and the memory
//! lease released.
//!
//! Cancellation is *cooperative*: nothing is interrupted mid-page. A job
//! observes the flag at its next boundary, which bounds the latency between
//! `cancel()` and the job completing as `Canceled` to roughly one page of
//! I/O plus one heap refill.

use crate::error::{Result, SortError};
use crate::sync::lock_or_poison;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// How many merged records the inner k-way merge loop emits between
/// consecutive token checks (roughly one output page of small records).
pub const CANCEL_CHECK_INTERVAL: u64 = 256;

type Waker = Box<dyn Fn() + Send + Sync>;

struct TokenInner {
    canceled: AtomicBool,
    wakers: Mutex<Vec<Waker>>,
}

/// A shared cancellation flag plus wake handles.
///
/// Clones share the same flag; setting it via [`cancel`](Self::cancel) is
/// observed by every clone. Registered wakers let a blocked waiter (the
/// arbiter's lease queue) be nudged out of its condition-variable wait when
/// the flag flips.
#[derive(Clone)]
pub struct CancellationToken {
    inner: Arc<TokenInner>,
}

impl CancellationToken {
    /// A fresh, un-canceled token.
    pub fn new() -> Self {
        CancellationToken {
            inner: Arc::new(TokenInner {
                canceled: AtomicBool::new(false),
                wakers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Sets the flag and runs every registered waker. Idempotent: wakers
    /// run once, on the first call that flips the flag.
    pub fn cancel(&self) {
        if self.inner.canceled.swap(true, Ordering::SeqCst) {
            return;
        }
        let wakers = std::mem::take(&mut *lock_or_poison(&self.inner.wakers));
        for waker in wakers {
            waker();
        }
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_canceled(&self) -> bool {
        self.inner.canceled.load(Ordering::SeqCst)
    }

    /// Returns `Err(SortError::Canceled)` when the flag is set — the form
    /// the phase loops use so cancellation rides the normal error path
    /// (spill cleanup, lease release).
    pub fn check(&self) -> Result<()> {
        if self.is_canceled() {
            return Err(SortError::Canceled(
                "job canceled at a phase boundary".into(),
            ));
        }
        Ok(())
    }

    /// Registers a callback to run when the token is canceled. If the
    /// token is already canceled the callback runs immediately, so a
    /// registration can never miss the edge.
    pub fn on_cancel(&self, waker: impl Fn() + Send + Sync + 'static) {
        {
            let mut wakers = lock_or_poison(&self.inner.wakers);
            if !self.is_canceled() {
                wakers.push(Box::new(waker));
                return;
            }
        }
        waker();
    }

    /// Wraps `input` so it stops yielding records once the token is
    /// canceled. Run generation pulls every record through this gate, which
    /// makes the token effective at every heap refill; the caller must
    /// still [`check`](Self::check) afterwards so a truncated prefix can
    /// never masquerade as a completed sort.
    pub(crate) fn gate<'a, R>(&self, input: &'a mut dyn Iterator<Item = R>) -> GatedInput<'a, R> {
        GatedInput {
            cancel: self.clone(),
            inner: input,
        }
    }
}

impl Default for CancellationToken {
    fn default() -> Self {
        CancellationToken::new()
    }
}

impl fmt::Debug for CancellationToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancellationToken")
            .field("canceled", &self.is_canceled())
            .finish()
    }
}

/// Iterator adapter produced by [`CancellationToken::gate`].
pub(crate) struct GatedInput<'a, R> {
    cancel: CancellationToken,
    inner: &'a mut dyn Iterator<Item = R>,
}

impl<R> Iterator for GatedInput<'_, R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        if self.cancel.is_canceled() {
            return None;
        }
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn clones_share_the_flag() {
        let token = CancellationToken::new();
        let clone = token.clone();
        assert!(!clone.is_canceled());
        assert!(token.check().is_ok());
        token.cancel();
        assert!(clone.is_canceled());
        assert!(matches!(clone.check(), Err(SortError::Canceled(_))));
    }

    #[test]
    fn wakers_fire_once_even_across_repeated_cancels() {
        let token = CancellationToken::new();
        let fired = Arc::new(AtomicUsize::new(0));
        {
            let fired = fired.clone();
            token.on_cancel(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        token.cancel();
        token.cancel();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn late_registration_fires_immediately() {
        let token = CancellationToken::new();
        token.cancel();
        let fired = Arc::new(AtomicUsize::new(0));
        {
            let fired = fired.clone();
            token.on_cancel(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn gated_input_stops_at_the_flag() {
        let token = CancellationToken::new();
        let mut source = 0..10_u64;
        let mut gated = token.gate(&mut source);
        assert_eq!(gated.next(), Some(0));
        assert_eq!(gated.next(), Some(1));
        token.cancel();
        assert_eq!(gated.next(), None);
    }
}
