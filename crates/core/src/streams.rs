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
//! [`RunStreams`] owns the four builders for the current run and keeps the
//! smallest and the largest record written to any of them. That is all the
//! non-overlap invariant `stream 4 ≤ stream 3 ≤ stream 2 ≤ stream 1` needs
//! for *any* heuristic: stream 1 grows upward and lies above every other
//! stream, so it may take a record exactly when the record is ≥ every
//! record of the run; stream 4, symmetrically, takes a record ≤ every
//! record of the run. A record that fits neither is simply not accepted,
//! and the caller defers it to the next run (the same mechanism
//! replacement selection already uses for records that arrive too late).

use twrs_extsort::{Device, ForwardRunBuilder, Result, ReverseRunBuilder, RunHandle};
use twrs_storage::{SortableRecord, SpillNamer};

/// The four output streams of the run currently being generated.
pub struct RunStreams<'a, D: Device, R: SortableRecord> {
    stream1: ForwardRunBuilder<'a, D, R>,
    stream2: ReverseRunBuilder<'a, D, R>,
    stream3: ForwardRunBuilder<'a, D, R>,
    stream4: ReverseRunBuilder<'a, D, R>,

    /// The smallest and the largest record written to any stream of the
    /// run; `None` until the first one.
    bounds: Option<(R, R)>,

    records: u64,
}

impl<'a, D: Device, R: SortableRecord> RunStreams<'a, D, R> {
    /// Creates the stream set for a new run. The builders open their files
    /// on the first record, so an unused stream set costs no I/O.
    pub fn new(device: &'a D, namer: &'a SpillNamer, reverse_pages_per_file: u64) -> Self {
        RunStreams {
            stream1: ForwardRunBuilder::new(device, namer),
            stream2: ReverseRunBuilder::new(device, namer, reverse_pages_per_file),
            stream3: ForwardRunBuilder::new(device, namer),
            stream4: ReverseRunBuilder::new(device, namer, reverse_pages_per_file),
            bounds: None,
            records: 0,
        }
    }

    /// Number of records written to the run so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `true` when `record` can be appended to stream 1 without breaking
    /// either its monotonicity or the cross-stream ordering: it is ≥ every
    /// record of the run.
    #[inline]
    pub fn accepts_stream1(&self, record: &R) -> bool {
        self.bounds.as_ref().is_none_or(|(_, max)| record >= max)
    }

    /// `true` when `record` can be appended to stream 4 without breaking
    /// either its monotonicity or the cross-stream ordering: it is ≤ every
    /// record of the run.
    #[inline]
    pub fn accepts_stream4(&self, record: &R) -> bool {
        self.bounds.as_ref().is_none_or(|(min, _)| record <= min)
    }

    /// Appends a record to stream 1 (the TopHeap's increasing stream); it
    /// becomes the run's largest.
    pub fn push_stream1(&mut self, record: R) -> Result<()> {
        debug_assert!(self.accepts_stream1(&record));
        self.stream1.push(&record)?;
        self.records += 1;
        match &mut self.bounds {
            Some((_, max)) => *max = record,
            None => self.bounds = Some((record.clone(), record)),
        }
        Ok(())
    }

    /// Appends a record to stream 4 (the BottomHeap's decreasing stream);
    /// it becomes the run's smallest.
    pub fn push_stream4(&mut self, record: R) -> Result<()> {
        debug_assert!(self.accepts_stream4(&record));
        self.stream4.push(&record)?;
        self.records += 1;
        match &mut self.bounds {
            Some((min, _)) => *min = record,
            None => self.bounds = Some((record.clone(), record)),
        }
        Ok(())
    }

    /// Appends a batch of records to stream 4. `records` must be sorted
    /// ascending; they are written in descending order as the reverse-file
    /// format expects. Used by the run-start bootstrap flush (§4.3:
    /// "flushes the records to Streams 1 and 4").
    pub fn push_stream4_from_ascending(&mut self, records: &[R]) -> Result<()> {
        debug_assert!(records.last().is_none_or(|r| self.accepts_stream4(r)));
        for record in records.iter().rev() {
            self.stream4.push(record)?;
        }
        self.widen(records);
        Ok(())
    }

    /// Appends a batch of ascending records to stream 1. Used by the
    /// run-start bootstrap flush.
    pub fn push_stream1_ascending(&mut self, records: &[R]) -> Result<()> {
        debug_assert!(records.first().is_none_or(|r| self.accepts_stream1(r)));
        for record in records {
            self.stream1.push(record)?;
        }
        self.widen(records);
        Ok(())
    }

    /// Appends a batch of ascending records to stream 3 (the victim
    /// buffer's lower, increasing stream).
    pub fn push_stream3_ascending(&mut self, records: &[R]) -> Result<()> {
        for record in records {
            self.stream3.push(record)?;
        }
        self.widen(records);
        Ok(())
    }

    /// Appends a batch of records to stream 2 (the victim buffer's upper,
    /// decreasing stream). `records` must be sorted ascending; they are
    /// written in descending order as the reverse-file format expects.
    pub fn push_stream2_from_ascending(&mut self, records: &[R]) -> Result<()> {
        for record in records.iter().rev() {
            self.stream2.push(record)?;
        }
        self.widen(records);
        Ok(())
    }

    /// Counts a written batch of ascending records and moves the run's
    /// bounds out to its first and last record.
    fn widen(&mut self, records: &[R]) {
        debug_assert!(records.windows(2).all(|w| w[0] <= w[1]));
        let (Some(first), Some(last)) = (records.first(), records.last()) else {
            return;
        };
        self.records += records.len() as u64;
        match &mut self.bounds {
            Some((min, max)) => {
                if first < min {
                    *min = first.clone();
                }
                if last > max {
                    *max = last.clone();
                }
            }
            None => self.bounds = Some((first.clone(), last.clone())),
        }
    }

    /// Closes the run: finishes every non-empty stream file and, when the
    /// run holds at least one record, appends one logical
    /// [`RunHandle::Chain`] (streams in the order 4 · 3 · 2 · 1) to `runs`.
    /// Returns the number of records in the run.
    pub fn finish(mut self, runs: &mut Vec<RunHandle>) -> Result<u64> {
        let mut parts = Vec::new();
        self.stream4.finish_run(&mut parts)?;
        self.stream3.finish_run(&mut parts)?;
        self.stream2.finish_run(&mut parts)?;
        self.stream1.finish_run(&mut parts)?;
        match parts.len() {
            0 => {}
            1 => runs.extend(parts.pop()),
            _ => runs.push(RunHandle::Chain(parts)),
        }
        Ok(self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twrs_extsort::RunCursor;
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
        streams.push_stream3_ascending(&[rec(39), rec(40)]).unwrap();
        streams
            .push_stream2_from_ascending(&[rec(50), rec(51)])
            .unwrap();
        streams.push_stream4(rec(38)).unwrap();
        streams.push_stream4(rec(37)).unwrap();
        streams.push_stream1(rec(52)).unwrap();
        streams.push_stream1(rec(53)).unwrap();
        assert_eq!(streams.records(), 8);

        let mut runs = Vec::new();
        let count = streams.finish(&mut runs).unwrap();
        assert_eq!(count, 8);
        assert_eq!(runs.len(), 1);
        let mut cursor = RunCursor::<Record>::open(&device, &runs[0]).unwrap();
        let keys: Vec<u64> = cursor.read_all().unwrap().iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![37, 38, 39, 40, 50, 51, 52, 53]);
    }

    #[test]
    fn acceptance_enforces_cross_stream_ordering() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let mut streams = RunStreams::new(&device, &namer, 4);
        streams.push_stream4(rec(40)).unwrap();
        streams.push_stream1(rec(60)).unwrap();
        // Stream 1 may not go below the BottomHeap's first output...
        assert!(!streams.accepts_stream1(&rec(39)));
        // ...nor below its own last output.
        assert!(!streams.accepts_stream1(&rec(55)));
        assert!(streams.accepts_stream1(&rec(61)));
        // Stream 4 may not rise above the TopHeap's first output...
        assert!(!streams.accepts_stream4(&rec(61)));
        // ...nor above its own last output.
        assert!(!streams.accepts_stream4(&rec(45)));
        assert!(streams.accepts_stream4(&rec(40)));
        assert!(streams.accepts_stream4(&rec(12)));
    }

    #[test]
    fn empty_run_produces_no_handle() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let streams = RunStreams::<_, Record>::new(&device, &namer, 4);
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
            streams.push_stream1(rec(k)).unwrap();
        }
        let mut runs = Vec::new();
        streams.finish(&mut runs).unwrap();
        assert_eq!(runs.len(), 1);
        assert!(matches!(runs[0], RunHandle::Forward(_)));
    }

    #[test]
    fn acceptance_is_unconstrained_for_a_fresh_run() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let streams = RunStreams::new(&device, &namer, 4);
        assert!(streams.accepts_stream1(&rec(0)));
        assert!(streams.accepts_stream4(&rec(u64::MAX)));
    }
}
