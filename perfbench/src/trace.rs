//! In-memory span recorder for traced runs.
//!
//! A span is one timed call across a layer boundary: its name, start, end,
//! the span that was open on the same thread when it started (its parent),
//! and the repetition or job it belongs to. Spans are kept in memory and
//! written out once, when the run ends.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Process-unique id (never 0).
    pub id: u64,
    /// Id of the span open on the same thread when this one started; 0 for
    /// none.
    pub parent: u64,
    /// Repetition (single-sort workloads) or job (service) id.
    pub rep: u64,
    /// Small process-unique number of the thread that ran the span.
    pub thread: u64,
    /// Layer boundary the span covers, e.g. `storage.read` or `generate`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// A count attached at the boundary (runs for `generate`, records for
    /// `stream.next`), 0 when there is none.
    pub value: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// The job whose work this thread is doing, when it is a service worker.
    static JOB: Cell<Option<u64>> = const { Cell::new(None) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Marks the calling thread as working for `job`: spans it records from now
/// on carry that id instead of the recorder's current repetition. A service
/// worker runs one job at a time, so the mark set when a job's generation
/// starts also covers that job's merge on the same thread.
pub fn set_thread_job(job: u64) {
    JOB.with(|j| j.set(Some(job)));
}

/// The calling thread's number, as recorded in [`Span::thread`].
pub fn thread_number() -> u64 {
    THREAD.with(|t| *t)
}

/// Span stores per recorder; a thread appends to store `thread % STORES`,
/// so threads rarely wait for each other's appends.
const STORES: usize = 16;

/// Collects spans from every thread of a traced run.
pub struct Recorder {
    epoch: Instant,
    rep: AtomicU64,
    stores: [Mutex<Vec<Span>>; STORES],
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            rep: AtomicU64::new(0),
            stores: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `at` as nanoseconds since the recorder was created.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the repetition id that spans from threads without a job mark
    /// carry.
    pub fn set_rep(&self, rep: u64) {
        self.rep.store(rep, Ordering::SeqCst);
    }

    /// Opens a span on the calling thread; it is recorded when the returned
    /// guard drops.
    pub fn enter(&self, name: &'static str) -> Open<'_> {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        Open {
            recorder: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
            value: 0,
        }
    }

    /// Records an interval timed by the caller (e.g. on another thread's
    /// behalf), with no parent.
    pub fn record(&self, name: &'static str, rep: u64, start_ns: u64, end_ns: u64, value: u64) {
        self.push(Span {
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            rep,
            thread: thread_number(),
            name,
            start_ns,
            end_ns,
            value,
        });
    }

    fn push(&self, span: Span) {
        self.stores[span.thread as usize % STORES]
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    fn current_rep(&self) -> u64 {
        JOB.with(Cell::get)
            .unwrap_or_else(|| self.rep.load(Ordering::SeqCst))
    }

    /// A copy of every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = Vec::new();
        for store in &self.stores {
            spans.extend_from_slice(
                &store
                    .lock()
                    .expect("a thread panicked while recording a span"),
            );
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes every span as CSV (`id,parent,rep,thread,name,start_ns,end_ns,value`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut text = String::with_capacity(64 * (spans.len() + 1));
        text.push_str("id,parent,rep,thread,name,start_ns,end_ns,value\n");
        for s in &spans {
            let _ = writeln!(
                text,
                "{},{},{},{},{},{},{},{}",
                s.id, s.parent, s.rep, s.thread, s.name, s.start_ns, s.end_ns, s.value
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// An open span; recorded on drop.
pub struct Open<'a> {
    recorder: &'a Recorder,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    value: u64,
}

impl Open<'_> {
    /// Attaches a count to the span.
    pub fn set_value(&mut self, value: u64) {
        self.value = value;
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end_ns = self.recorder.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&id| id == self.id) {
                open.remove(at);
            }
        });
        self.recorder.push(Span {
            id: self.id,
            parent: self.parent,
            rep: self.recorder.current_rep(),
            thread: thread_number(),
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            value: self.value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let recorder = Recorder::default();
        recorder.set_rep(7);
        {
            let _outer = recorder.enter("outer");
            let mut inner = recorder.enter("inner");
            inner.set_value(3);
        }
        let spans = recorder.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!((inner.rep, inner.value), (7, 3));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
