//! The input buffer of 2WRS (§4.2).
//!
//! A FIFO window over the upcoming input. Records flow through it in arrival
//! order, and the Mean/Median input heuristics sample its contents to infer
//! the local distribution of the input before deciding which heap a record
//! should join. When the configuration allocates no input buffer the
//! algorithm falls back to a running mean over everything seen so far.

use std::collections::VecDeque;
use twrs_storage::SortableRecord;

/// FIFO buffer of upcoming input records with O(1) mean and an approximate
/// median over its contents.
///
/// The mean and median are computed over the records'
/// [`sort_key`](SortableRecord::sort_key) projections, which is what the
/// Mean/Median input heuristics compare against.
#[derive(Debug, Clone)]
pub struct InputBuffer<R: SortableRecord> {
    queue: VecDeque<R>,
    capacity: usize,
    /// Sum of the keys currently in the buffer (for the Mean heuristic).
    key_sum: u128,
    /// Running statistics over *every* record that passed through, used as a
    /// fallback when the buffer is disabled (capacity 0).
    seen_count: u64,
    seen_sum: u128,
}

impl<R: SortableRecord> InputBuffer<R> {
    /// Creates a buffer holding at most `capacity` records (0 disables it).
    /// Nothing is reserved up front; the queue grows with the records held.
    pub fn new(capacity: usize) -> Self {
        InputBuffer {
            queue: VecDeque::new(),
            capacity,
            key_sum: 0,
            seen_count: 0,
            seen_sum: 0,
        }
    }

    /// Maximum number of records the buffer holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when no record is buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// `true` when the buffer is at capacity (always true for a disabled
    /// buffer).
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Pushes a record at the back of the FIFO. Panics if the buffer is
    /// full; callers refill through [`InputBuffer::refill_from`].
    pub fn push(&mut self, record: R) {
        assert!(
            self.queue.len() < self.capacity,
            "input buffer overflow: capacity {}",
            self.capacity
        );
        self.key_sum += u128::from(record.sort_key());
        self.seen_sum += u128::from(record.sort_key());
        self.seen_count += 1;
        self.queue.push_back(record);
    }

    /// Pops the record at the front of the FIFO.
    pub fn pop(&mut self) -> Option<R> {
        let record = self.queue.pop_front()?;
        self.key_sum -= u128::from(record.sort_key());
        Some(record)
    }

    /// Tops the buffer up from `source` and returns the next record in
    /// arrival order: the front of the buffer, or the next source record
    /// directly when the buffer is disabled.
    pub fn next_from(&mut self, source: &mut dyn Iterator<Item = R>) -> Option<R> {
        if self.capacity == 0 {
            let record = source.next();
            if let Some(r) = &record {
                self.seen_sum += u128::from(r.sort_key());
                self.seen_count += 1;
            }
            return record;
        }
        self.refill_from(source);
        self.pop()
    }

    /// Fills the buffer to capacity from `source`.
    pub fn refill_from(&mut self, source: &mut dyn Iterator<Item = R>) {
        while self.queue.len() < self.capacity {
            match source.next() {
                Some(record) => self.push(record),
                None => break,
            }
        }
    }

    /// Mean key of the buffered records; falls back to the running mean of
    /// everything seen when the buffer is empty or disabled. Returns `None`
    /// before any record has been observed.
    pub fn mean_key(&self) -> Option<u64> {
        if !self.queue.is_empty() {
            return Some((self.key_sum / self.queue.len() as u128) as u64);
        }
        if self.seen_count > 0 {
            return Some((self.seen_sum / u128::from(self.seen_count)) as u64);
        }
        None
    }

    /// Approximate median key of the buffered records.
    ///
    /// Exact selection over a large sliding window would cost `O(len)` per
    /// input record, so the median is computed over at most 101 evenly
    /// spaced samples of the window — more than accurate enough for a
    /// heuristic whose only job is to split the key space in two. Falls back
    /// to [`InputBuffer::mean_key`] when the buffer is empty.
    pub fn median_key(&self) -> Option<u64> {
        if self.queue.is_empty() {
            return self.mean_key();
        }
        let len = self.queue.len();
        let samples = len.min(101);
        let mut keys: Vec<u64> = (0..samples)
            .map(|i| self.queue[i * len / samples].sort_key())
            .collect();
        keys.sort_unstable();
        Some(keys[keys.len() / 2])
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
    fn fifo_order_is_preserved() {
        let mut buffer = InputBuffer::new(3);
        let mut source = records(&[1, 2, 3, 4, 5]).into_iter();
        let drained: Vec<u64> = std::iter::from_fn(|| buffer.next_from(&mut source))
            .map(|r| r.key)
            .collect();
        assert_eq!(drained, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn disabled_buffer_is_a_passthrough() {
        let mut buffer = InputBuffer::new(0);
        let mut source = records(&[9, 8, 7]).into_iter();
        assert_eq!(buffer.next_from(&mut source).unwrap().key, 9);
        assert_eq!(buffer.len(), 0);
        // The running mean still observes pass-through records.
        assert_eq!(buffer.mean_key(), Some(9));
    }

    #[test]
    fn mean_tracks_window_contents() {
        let mut buffer = InputBuffer::new(4);
        let mut source = records(&[10, 20, 30, 40, 100]).into_iter();
        buffer.refill_from(&mut source);
        assert_eq!(buffer.mean_key(), Some(25));
        buffer.pop();
        assert_eq!(buffer.mean_key(), Some(30));
        buffer.refill_from(&mut source);
        assert_eq!(buffer.mean_key(), Some((20 + 30 + 40 + 100) / 4));
    }

    #[test]
    fn median_of_small_window_is_exact() {
        let mut buffer = InputBuffer::new(5);
        let mut source = records(&[50, 10, 40, 20, 30]).into_iter();
        buffer.refill_from(&mut source);
        assert_eq!(buffer.median_key(), Some(30));
    }

    #[test]
    fn median_of_large_window_is_close() {
        let n = 10_001u64;
        let mut buffer = InputBuffer::new(n as usize);
        let mut source = (0..n).map(Record::from_key);
        buffer.refill_from(&mut source);
        let median = buffer.median_key().unwrap();
        let expected = n / 2;
        let tolerance = n / 20;
        assert!(
            median.abs_diff(expected) <= tolerance,
            "median {median} too far from {expected}"
        );
    }

    #[test]
    fn empty_buffer_has_no_statistics() {
        let buffer = InputBuffer::<Record>::new(8);
        assert_eq!(buffer.mean_key(), None);
        assert_eq!(buffer.median_key(), None);
    }

    #[test]
    fn mean_falls_back_to_history_when_drained() {
        let mut buffer = InputBuffer::new(2);
        let mut source = records(&[10, 30]).into_iter();
        buffer.refill_from(&mut source);
        buffer.pop();
        buffer.pop();
        assert!(buffer.is_empty());
        assert_eq!(buffer.mean_key(), Some(20));
    }
}
