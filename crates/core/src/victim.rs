//! The victim buffer (§4.3).
//!
//! The TopHeap and BottomHeap emit an increasing and a decreasing stream;
//! between the last record of one and the last record of the other lies a
//! gap of key values that neither heap can place in the current run any
//! more. The victim buffer is a small pool of memory that catches records
//! falling inside that gap, sorts them when it fills up, and appends them to
//! two extra streams (3, increasing, and 2, decreasing) that slot exactly
//! into the gap — extending the run with records that classic replacement
//! selection would have pushed to the next run.
//!
//! At the start of each run it plays a second role: the first outputs of the
//! heaps are parked here instead of going to streams 1 and 4, so the valid
//! range can be chosen as the *largest* gap among them rather than simply
//! the gap between the two heap roots.

use twrs_storage::SortableRecord;

/// The victim buffer of one 2WRS instance.
#[derive(Debug, Clone)]
pub struct VictimBuffer<R: SortableRecord> {
    capacity: usize,
    records: Vec<R>,
    /// Exclusive bounds of the keys the buffer currently accepts; `None`
    /// until the first (bootstrap) flush of the run.
    range: Option<(R, R)>,
}

impl<R: SortableRecord> VictimBuffer<R> {
    /// Creates a victim buffer holding at most `capacity` records
    /// (0 disables it). Nothing is reserved up front.
    pub fn new(capacity: usize) -> Self {
        VictimBuffer {
            capacity,
            records: Vec::new(),
            range: None,
        }
    }

    /// Maximum number of records the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` when the configuration allocated any space to the buffer.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no record is buffered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// `true` when the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.records.len() >= self.capacity
    }

    /// The currently accepted (exclusive) range, when one has been
    /// established.
    pub fn range(&self) -> Option<(R, R)> {
        self.range.clone()
    }

    /// `true` when `record` falls strictly inside the accepted range and
    /// there is room to store it (Algorithm 2's `victimBuffer.fit`). Always
    /// `false` before the bootstrap flush of the run, as the paper
    /// specifies.
    pub fn fits(&self, record: &R) -> bool {
        if !self.is_enabled() || self.is_full() {
            return false;
        }
        match &self.range {
            Some((lo, hi)) => record > lo && record < hi,
            None => false,
        }
    }

    /// Stores a record. Callers must have checked [`VictimBuffer::fits`] (or
    /// be performing the bootstrap, which stores unconditionally while the
    /// buffer has room).
    pub fn push(&mut self, record: R) {
        debug_assert!(self.records.len() < self.capacity);
        self.records.push(record);
    }

    /// Sorts and drains the buffered records, splitting them at their
    /// largest key gap.
    ///
    /// Returns `(lower, upper)` where every record of `lower` is ≤ every
    /// record of `upper`; the new accepted range becomes the open interval
    /// between the last record of `lower` and the first record of `upper`.
    /// Either part may be empty (e.g. a single buffered record produces an
    /// empty upper part and disables the buffer until the next flush or
    /// run).
    pub fn flush_split(&mut self) -> (Vec<R>, Vec<R>) {
        self.records.sort_unstable();
        let sorted = std::mem::take(&mut self.records);
        if sorted.is_empty() {
            self.range = None;
            return (Vec::new(), Vec::new());
        }
        let split = largest_gap_split(&sorted);
        let (lower, upper) = {
            let mut lower = sorted;
            let upper = lower.split_off(split);
            (lower, upper)
        };
        self.range = match (lower.last(), upper.first()) {
            (Some(lo), Some(hi)) if lo < hi => Some((lo.clone(), hi.clone())),
            _ => None,
        };
        (lower, upper)
    }

    /// Sorts and drains the buffered records without splitting (used at the
    /// end of a run, when everything still buffered belongs to the lower
    /// stream).
    pub fn drain_sorted(&mut self) -> Vec<R> {
        self.records.sort_unstable();
        self.range = None;
        std::mem::take(&mut self.records)
    }

    /// Forgets the accepted range (called at the start of every run).
    pub fn reset(&mut self) {
        self.records.clear();
        self.range = None;
    }
}

/// Index at which to split `sorted` so the key gap between
/// `sorted[i - 1]` and `sorted[i]` is the largest; returns `len` (empty
/// upper part) when only one record is present.
///
/// Also used by the run-start repartitioning of the dual heap, which splits
/// the records left in memory at their largest gap for the same reason the
/// victim buffer does: the gap is the natural boundary between the
/// decreasing and the increasing side of the new run.
pub(crate) fn largest_gap_split<R: SortableRecord>(sorted: &[R]) -> usize {
    if sorted.len() < 2 {
        return sorted.len();
    }
    let mut best_gap = 0u64;
    let mut best_index = sorted.len();
    for i in 1..sorted.len() {
        // Saturating: a non-monotone (buggy) `sort_key` must only degrade
        // the heuristic, never panic or wrap (the SortableRecord contract).
        let gap = sorted[i]
            .sort_key()
            .saturating_sub(sorted[i - 1].sort_key());
        if gap > best_gap {
            best_gap = gap;
            best_index = i;
        }
    }
    if best_gap == 0 {
        // All keys equal: no usable gap.
        sorted.len()
    } else {
        best_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twrs_workloads::Record;

    fn records(keys: &[u64]) -> Vec<Record> {
        keys.iter().map(|k| Record::from_key(*k)).collect()
    }

    #[test]
    fn paper_example_figure_4_8() {
        // Victim buffer of 4 records holding {40, 50, 39, 51}: the largest
        // gap is 40–50, so 39 and 40 form the lower part and 50, 51 the
        // upper part; the accepted range becomes (40, 50).
        let mut victim = VictimBuffer::new(4);
        for r in records(&[40, 50, 39, 51]) {
            victim.push(r);
        }
        assert!(victim.is_full());
        let (lower, upper) = victim.flush_split();
        assert_eq!(lower, records(&[39, 40]));
        assert_eq!(upper, records(&[50, 51]));
        let (lo, hi) = victim.range().unwrap();
        assert_eq!(lo.key, 40);
        assert_eq!(hi.key, 50);
        // 44 fits the range (the example's next victim record); 39 and 50
        // do not.
        assert!(victim.fits(&Record::from_key(44)));
        assert!(!victim.fits(&Record::from_key(39)));
        assert!(!victim.fits(&Record::from_key(50)));
    }

    #[test]
    fn fits_is_false_before_any_flush() {
        let mut victim = VictimBuffer::new(4);
        assert!(!victim.fits(&Record::from_key(10)));
        victim.push(Record::from_key(5));
        assert!(!victim.fits(&Record::from_key(10)));
    }

    #[test]
    fn disabled_buffer_never_fits() {
        let victim = VictimBuffer::new(0);
        assert!(!victim.is_enabled());
        assert!(!victim.fits(&Record::from_key(1)));
    }

    #[test]
    fn single_record_flush_produces_empty_upper_part() {
        let mut victim = VictimBuffer::new(4);
        victim.push(Record::from_key(7));
        let (lower, upper) = victim.flush_split();
        assert_eq!(lower, records(&[7]));
        assert!(upper.is_empty());
        assert!(victim.range().is_none());
    }

    #[test]
    fn equal_keys_have_no_usable_gap() {
        let mut victim = VictimBuffer::new(4);
        for r in records(&[5, 5, 5]) {
            victim.push(r);
        }
        let (lower, upper) = victim.flush_split();
        assert_eq!(lower.len(), 3);
        assert!(upper.is_empty());
        assert!(victim.range().is_none());
    }

    #[test]
    fn flush_narrows_the_range_on_refill() {
        let mut victim = VictimBuffer::new(4);
        for r in records(&[10, 20, 80, 90]) {
            victim.push(r);
        }
        let _ = victim.flush_split();
        let (lo, hi) = victim.range().unwrap();
        assert_eq!((lo.key, hi.key), (20, 80));
        // Refill with values inside (20, 80) and flush again.
        for r in records(&[25, 30, 70, 75]) {
            assert!(victim.fits(&r));
            victim.push(r);
        }
        let (lower, upper) = victim.flush_split();
        assert_eq!(lower, records(&[25, 30]));
        assert_eq!(upper, records(&[70, 75]));
        let (lo, hi) = victim.range().unwrap();
        assert_eq!((lo.key, hi.key), (30, 70));
    }

    #[test]
    fn drain_sorted_returns_everything_in_order() {
        let mut victim = VictimBuffer::new(8);
        for r in records(&[9, 3, 7, 1]) {
            victim.push(r);
        }
        assert_eq!(victim.drain_sorted(), records(&[1, 3, 7, 9]));
        assert!(victim.is_empty());
        assert!(victim.range().is_none());
    }

    #[test]
    fn reset_clears_contents_and_range() {
        let mut victim = VictimBuffer::new(4);
        for r in records(&[1, 100]) {
            victim.push(r);
        }
        victim.flush_split();
        assert!(victim.range().is_some());
        victim.reset();
        assert!(victim.is_empty());
        assert!(victim.range().is_none());
    }

    #[test]
    fn full_buffer_does_not_fit_more_records() {
        let mut victim = VictimBuffer::new(2);
        for r in records(&[10, 90]) {
            victim.push(r);
        }
        victim.flush_split();
        victim.push(Record::from_key(40));
        victim.push(Record::from_key(60));
        assert!(victim.is_full());
        assert!(!victim.fits(&Record::from_key(50)));
    }
}
