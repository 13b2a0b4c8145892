//! Lazy sorted output: the final k-way merge suspended into an iterator.
//!
//! The classic sort pipeline ends with a merge pass that *writes* the fully
//! sorted run back to the device — a whole extra write pass even when the
//! caller only wants to iterate the sorted records once (top-k, merge-join,
//! dedup, bulk load). [`SortedStream`] removes that pass: after run
//! generation and the intermediate merge passes have reduced the run count
//! to at most the merge fan-in, the last merge step is *not* executed.
//! Instead its input cursors (or, at `threads > 1`, its background
//! prefetch threads) and the loser tree are packaged into an iterator that
//! performs the final merge incrementally, one record per
//! [`next()`](Iterator::next) call.
//!
//! The stream owns the sort's spill files. They are removed as soon as the
//! stream is fully consumed, explicitly [`close`](SortedStream::close)d, or
//! dropped — a half-consumed stream never leaks device space. The
//! [`report`](SortedStream::report) snapshot taken at suspension time
//! records the run-generation and intermediate-merge cost; its
//! `final_pass` is [`FinalPassKind::Streamed`] and its final-pass page
//! writes are zero, which is exactly the saving the bench suite's `sink`
//! axis measures.

use crate::error::{Result, SortError};
use crate::merge::kway::{BufferedCursor, MergeSource};
use crate::merge::loser_tree::LoserTree;
use crate::parallel::PrefetchSource;
use crate::sort_job::SortJobReport;
#[allow(unused_imports)] // rustdoc link
use crate::sorter::FinalPassKind;
use std::sync::atomic::{AtomicU64, Ordering};
use twrs_storage::SortableRecord;

/// Allocates a process-unique spill namespace for sorts that have no output
/// file name to derive one from (sink and stream sorts), so concurrent jobs
/// on one device never collide.
pub(crate) fn unique_namespace(prefix: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("{prefix}.{id:06}")
}

/// One leaf of a suspended final merge: an inline read-ahead cursor (a
/// one-thread job) or the consumer end of a background prefetch thread
/// (`threads > 1`).
pub(crate) enum StreamSource<R: SortableRecord> {
    /// Inline cursor with read-ahead.
    Buffered(BufferedCursor<R>),
    /// Background prefetch thread.
    Prefetch(PrefetchSource<R>),
}

impl<R: SortableRecord> MergeSource<R> for StreamSource<R> {
    fn next_record(&mut self) -> Result<Option<R>> {
        match self {
            StreamSource::Buffered(source) => source.next_record(),
            StreamSource::Prefetch(source) => source.next_record(),
        }
    }
}

/// Cleanup action deferred until the stream is consumed, closed or dropped:
/// removes the sort's remaining spill files from the device.
type Cleanup = Box<dyn FnOnce() -> Result<()> + Send>;

/// A lazily merged sorted record stream.
///
/// Returned by `SortJob::stream_iter` / `stream_file_as`. Yields every
/// input record exactly once, in ascending order — the same sequence
/// `run_iter` would have written to its output file — without ever writing
/// that file. Errors surface as `Err` items; after the first `Err` (and
/// after normal exhaustion) the stream is finished and its spill files are
/// gone.
///
/// ```
/// use twrs_extsort::{ReplacementSelection, SortJob};
/// use twrs_storage::{ModelId, SimDevice};
///
/// let device = SimDevice::with_model(ModelId::Hdd7200);
/// let stream = SortJob::new(ReplacementSelection::new(100))
///     .on(&device)
///     .stream_iter((0..10_000u64).rev())
///     .expect("sort runs");
/// // Top-3 without a final output file ever touching the device:
/// let smallest: Vec<u64> = stream.take(3).collect::<Result<_, _>>().unwrap();
/// assert_eq!(smallest, vec![0, 1, 2]);
/// ```
pub struct SortedStream<R: SortableRecord> {
    sources: Vec<StreamSource<R>>,
    tree: LoserTree<R>,
    report: SortJobReport,
    /// Records yielded so far; bounds `size_hint`.
    delivered: u64,
    /// Error from a source refill, parked so the record in hand could still
    /// be delivered first.
    pending_error: Option<SortError>,
    finished: bool,
    cleanup: Option<Cleanup>,
}

impl<R: SortableRecord> SortedStream<R> {
    /// Suspends a final merge over `sources` into a stream. `report` is the
    /// job report up to the suspension point; `cleanup` removes the sort's
    /// spill files and runs exactly once (consumption, close or drop).
    pub(crate) fn new(
        mut sources: Vec<StreamSource<R>>,
        report: SortJobReport,
        cleanup: Cleanup,
    ) -> Result<Self> {
        let heads = sources
            .iter_mut()
            .map(|s| s.next_record())
            .collect::<Result<_>>()?;
        let tree = LoserTree::new(heads);
        let finished = sources.is_empty();
        Ok(SortedStream {
            sources,
            tree,
            report,
            delivered: 0,
            pending_error: None,
            finished,
            cleanup: Some(cleanup),
        })
    }

    /// The job report as of the moment the final merge was suspended: run
    /// generation and intermediate merge passes are fully accounted,
    /// `final_pass` is `Streamed`, and the final-pass page writes are zero
    /// (the stream never performs them).
    pub fn report(&self) -> &SortJobReport {
        &self.report
    }

    /// Total number of records the stream will yield when fully consumed.
    pub fn expected_records(&self) -> u64 {
        self.report.report.records
    }

    /// Terminates the stream early, removing its remaining spill files, and
    /// surfaces any cleanup error (dropping the stream cleans up too, but
    /// swallows errors).
    pub fn close(mut self) -> Result<()> {
        self.finished = true;
        self.release()
    }

    /// Joins the merge sources and runs the deferred spill cleanup;
    /// idempotent.
    fn release(&mut self) -> Result<()> {
        // Drop the sources first: prefetch threads disconnect and join, so
        // no background reader races the file removal below.
        self.sources.clear();
        match self.cleanup.take() {
            Some(cleanup) => cleanup(),
            None => Ok(()),
        }
    }
}

impl<R: SortableRecord> Iterator for SortedStream<R> {
    type Item = Result<R>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        if let Some(error) = self.pending_error.take() {
            self.finished = true;
            let _ = self.release();
            return Some(Err(error));
        }
        let Some(record) = self.tree.pop() else {
            // Every source exhausted: the merge is complete. Spill files
            // are removed right here, not at drop, so a fully drained
            // stream leaves the device clean immediately; a cleanup
            // failure surfaces as a final `Err` item.
            self.finished = true;
            return match self.release() {
                Ok(()) => None,
                Err(error) => Some(Err(error)),
            };
        };
        let next = match self.sources[self.tree.winner()].next_record() {
            Ok(next) => next,
            Err(error) => {
                // Deliver the record in hand; the error is the next item.
                self.pending_error = Some(error);
                None
            }
        };
        self.tree.refill(next);
        self.delivered += 1;
        Some(Ok(record))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.finished {
            (0, Some(0))
        } else {
            // The total is known up front; the +1 leaves room for a
            // trailing `Err` item (refill or cleanup failure). Lower bound
            // stays 0 because an error ends the stream early.
            let remaining = self.expected_records().saturating_sub(self.delivered) as usize;
            (0, Some(remaining + 1))
        }
    }
}

impl<R: SortableRecord> Drop for SortedStream<R> {
    fn drop(&mut self) {
        let _ = self.release();
    }
}

impl<R: SortableRecord> std::fmt::Debug for SortedStream<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SortedStream")
            .field("sources", &self.sources.len())
            .field("expected_records", &self.expected_records())
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}
