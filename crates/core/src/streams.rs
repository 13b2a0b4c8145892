//! The four per-run output streams of 2WRS (§4.1, Figure 4.1).
//!
//! Every 2WRS run is stored as up to four files whose key ranges do not
//! overlap:
//!
//! | stream | produced by            | order      | file format            |
//! |--------|------------------------|------------|------------------------|
//! | 4      | BottomHeap             | decreasing | reverse (Appendix A)   |
//! | 3      | victim buffer (lower)  | increasing | forward                |
//! | 2      | victim buffer (upper)  | decreasing | reverse (Appendix A)   |
//! | 1      | TopHeap                | increasing | forward                |
//!
//! Reading the files in the order 4 · 3 · 2 · 1 (reverse files are read
//! back in ascending order by construction) yields the whole run sorted,
//! so the merge phase sees one logical run per [`RunHandle::Chain`].
//!
//! [`RunStreams`] holds one [`RunBuilder`] per [`Stream`], in that chain
//! order, and keeps the smallest and the largest record written to any of
//! them in the current run. That is all the non-overlap invariant
//! `stream 4 ≤ stream 3 ≤ stream 2 ≤ stream 1` needs for *any* heuristic:
//! stream 1 grows upward and lies above every other stream, so it may take
//! a record exactly when the record is ≥ every record of the run; stream 4,
//! symmetrically, takes a record ≤ every record of the run. A record that
//! fits neither is simply not accepted, and the caller defers it to the
//! next run (the same mechanism replacement selection already uses for
//! records that arrive too late).

use twrs_extsort::{Device, Result, RunBuilder, RunHandle};
use twrs_heaps::HeapSide;
use twrs_storage::{SortableRecord, SpillNamer};

/// One of the four streams of a run, numbered as in the paper and listed
/// in chain order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Stream 4: the BottomHeap's decreasing stream.
    Four,
    /// Stream 3: the victim buffer's lower, increasing stream.
    Three,
    /// Stream 2: the victim buffer's upper, decreasing stream.
    Two,
    /// Stream 1: the TopHeap's increasing stream.
    One,
}

impl Stream {
    /// The stream a heap emits into: stream 1 for the TopHeap, stream 4
    /// for the BottomHeap.
    pub fn of(side: HeapSide) -> Stream {
        match side {
            HeapSide::Top => Stream::One,
            HeapSide::Bottom => Stream::Four,
        }
    }
}

/// The four output streams of the runs of one generation, one run at a
/// time.
pub struct RunStreams<'a, D: Device, R: SortableRecord> {
    /// Streams 4, 3, 2 and 1, indexed by [`Stream`].
    builders: [RunBuilder<'a, D, R>; 4],

    /// The smallest and the largest record written to any stream of the
    /// current run; `None` until the first one.
    bounds: Option<(R, R)>,
}

impl<'a, D: Device, R: SortableRecord> RunStreams<'a, D, R> {
    /// Creates the streams of a first run. The builders open their files
    /// on the first record, so an unused stream costs no I/O.
    pub fn new(device: &'a D, namer: &'a SpillNamer, reverse_pages_per_file: u64) -> Self {
        let reverse = || RunBuilder::reverse(device, namer, reverse_pages_per_file);
        let forward = || RunBuilder::forward(device, namer);
        RunStreams {
            builders: [reverse(), forward(), reverse(), forward()],
            bounds: None,
        }
    }

    /// `true` when `record` can be appended to `stream` without breaking
    /// the order between streams: stream 1 takes a record ≥ every record
    /// of the run, stream 4 one ≤ every record of the run. Streams 3 and 2
    /// take the records of the victim buffer's range, which the buffer
    /// checks, so every record is accepted for them here.
    #[inline]
    pub fn accepts(&self, stream: Stream, record: &R) -> bool {
        self.bounds.as_ref().is_none_or(|(min, max)| match stream {
            Stream::One => record >= max,
            Stream::Four => record <= min,
            Stream::Three | Stream::Two => true,
        })
    }

    /// Appends `record` to `stream`.
    pub fn push(&mut self, stream: Stream, record: R) -> Result<()> {
        debug_assert!(self.accepts(stream, &record));
        self.builders[stream as usize].push(&record)?;
        self.widen(record);
        Ok(())
    }

    /// Appends a batch of records, sorted ascending, to `stream`, which
    /// writes it in its own direction.
    pub fn push_sorted(&mut self, stream: Stream, records: &[R]) -> Result<()> {
        let (Some(first), Some(last)) = (records.first(), records.last()) else {
            return Ok(());
        };
        debug_assert!(self.accepts(stream, first) && self.accepts(stream, last));
        self.builders[stream as usize].push_sorted(records)?;
        self.widen(first.clone());
        self.widen(last.clone());
        Ok(())
    }

    /// Moves the run's bounds out to a record just written.
    fn widen(&mut self, record: R) {
        match &mut self.bounds {
            Some((min, _)) if record < *min => *min = record,
            Some((_, max)) if record > *max => *max = record,
            Some(_) => {}
            None => self.bounds = Some((record.clone(), record)),
        }
    }

    /// Closes the run: finishes every non-empty stream file and, when the
    /// run holds at least one record, appends one logical
    /// [`RunHandle::Chain`] (streams in the order 4 · 3 · 2 · 1) to `runs`.
    /// Returns the number of records in the run; the next record starts
    /// the next run.
    pub fn finish(&mut self, runs: &mut Vec<RunHandle>) -> Result<u64> {
        let mut parts = Vec::new();
        let mut records = 0;
        for builder in &mut self.builders {
            records += builder.finish_run(&mut parts)?;
        }
        self.bounds = None;
        match parts.len() {
            0 => {}
            1 => runs.extend(parts.pop()),
            _ => runs.push(RunHandle::Chain(parts)),
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twrs_storage::ModelId;
    use twrs_storage::SimDevice;
    use twrs_workloads::Record;

    fn rec(key: u64) -> Record {
        Record::from_key(key)
    }

    #[test]
    fn four_streams_concatenate_into_one_sorted_run() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let mut streams = RunStreams::new(&device, &namer, 4);

        // Mimic the paper's example: bootstrap flush puts {39, 40} in
        // stream 3 and {50, 51} in stream 2, the BottomHeap emits 38, 37 to
        // stream 4 and the TopHeap 52, 53 to stream 1.
        streams
            .push_sorted(Stream::Three, &[rec(39), rec(40)])
            .unwrap();
        streams
            .push_sorted(Stream::Two, &[rec(50), rec(51)])
            .unwrap();
        streams.push(Stream::Four, rec(38)).unwrap();
        streams.push(Stream::Four, rec(37)).unwrap();
        streams.push(Stream::One, rec(52)).unwrap();
        streams.push(Stream::One, rec(53)).unwrap();

        let mut runs = Vec::new();
        let count = streams.finish(&mut runs).unwrap();
        assert_eq!(count, 8);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].records(), 8, "the chain sums its four parts");
        let mut reader = runs[0].open::<Record>(&device).unwrap();
        let keys: Vec<u64> = reader.read_all().unwrap().iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![37, 38, 39, 40, 50, 51, 52, 53]);
    }

    #[test]
    fn acceptance_enforces_cross_stream_ordering() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let mut streams = RunStreams::new(&device, &namer, 4);
        streams.push(Stream::Four, rec(40)).unwrap();
        streams.push(Stream::One, rec(60)).unwrap();
        // Stream 1 may not go below the BottomHeap's first output...
        assert!(!streams.accepts(Stream::One, &rec(39)));
        // ...nor below its own last output.
        assert!(!streams.accepts(Stream::One, &rec(55)));
        assert!(streams.accepts(Stream::One, &rec(61)));
        // Stream 4 may not rise above the TopHeap's first output...
        assert!(!streams.accepts(Stream::Four, &rec(61)));
        // ...nor above its own last output.
        assert!(!streams.accepts(Stream::Four, &rec(45)));
        assert!(streams.accepts(Stream::Four, &rec(40)));
        assert!(streams.accepts(Stream::Four, &rec(12)));
    }

    #[test]
    fn empty_run_produces_no_handle() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let mut streams = RunStreams::<_, Record>::new(&device, &namer, 4);
        let mut runs = Vec::new();
        assert_eq!(streams.finish(&mut runs).unwrap(), 0);
        assert!(runs.is_empty());
    }

    #[test]
    fn single_stream_run_is_not_wrapped_in_a_chain() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let mut streams = RunStreams::new(&device, &namer, 4);
        for k in 0..10 {
            streams.push(Stream::One, rec(k)).unwrap();
        }
        let mut runs = Vec::new();
        streams.finish(&mut runs).unwrap();
        assert_eq!(runs.len(), 1);
        assert!(matches!(runs[0], RunHandle::Forward { records: 10, .. }));
    }

    #[test]
    fn finishing_a_run_starts_the_next_one() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let mut streams = RunStreams::new(&device, &namer, 4);
        streams.push(Stream::Four, rec(40)).unwrap();
        streams.push(Stream::One, rec(60)).unwrap();
        let mut runs = Vec::new();
        assert_eq!(streams.finish(&mut runs).unwrap(), 2);
        // The next run's bounds start afresh, in new files.
        assert!(streams.accepts(Stream::One, &rec(0)));
        streams.push(Stream::One, rec(0)).unwrap();
        assert_eq!(streams.finish(&mut runs).unwrap(), 1);
        assert_eq!(runs.len(), 2);
        assert!(matches!(runs[1], RunHandle::Forward { records: 1, .. }));
        assert_eq!(namer.created().len(), 3);
        let keys = |run: &RunHandle| -> Vec<u64> {
            let records = run.open::<Record>(&device).unwrap().read_all().unwrap();
            records.iter().map(|r| r.key).collect()
        };
        assert_eq!((keys(&runs[0]), keys(&runs[1])), (vec![40, 60], vec![0]));
    }

    #[test]
    fn acceptance_is_unconstrained_for_a_fresh_run() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let streams = RunStreams::new(&device, &namer, 4);
        assert!(streams.accepts(Stream::One, &rec(0)));
        assert!(streams.accepts(Stream::Four, &rec(u64::MAX)));
    }
}
