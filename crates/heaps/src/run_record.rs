//! Records tagged with the run they belong to.
//!
//! Replacement selection (§3.3) marks records that cannot join the current
//! run as belonging to the *next* run and keeps them at the bottom of the
//! heap by treating them as larger than every current-run record. Tagging
//! the record with its run number and ordering by `(run, value)` achieves
//! exactly that: the run number is the major sort key, so the heap only
//! surfaces next-run records once every current-run record has left.
//!
//! A heap answers that run-first order from cached `u64` keys, and
//! [`RunRecord::heap_key`] is the one rule that derives them: a record of
//! the heap's current run keeps its sort key, an earlier run's record gets
//! 0 and a later run's `u64::MAX`. Only records whose keys tie are compared
//! by `(run, value)`.

use std::cmp::Ordering;

/// A value tagged with the run number it has been assigned to.
///
/// Ordering is lexicographic on `(run, value)`, which makes a min-heap of
/// `RunRecord`s behave like the paper's replacement-selection heap: records
/// marked for a later run sink below all records of the current run.
///
/// The heaps that run generation uses ([`BinaryHeap::keyed`] for
/// replacement selection, [`DualHeap::keyed`] for 2WRS) answer this order
/// from a cached `u64` per record, derived by [`RunRecord::heap_key`], and
/// compare `(run, value)` only where two keys tie.
///
/// [`BinaryHeap::keyed`]: crate::BinaryHeap::keyed
/// [`DualHeap::keyed`]: crate::DualHeap::keyed
///
/// # Examples
///
/// ```
/// use twrs_heaps::RunRecord;
///
/// let current = RunRecord::new(10_u64, 0);
/// let next = RunRecord::new(1_u64, 1);
/// // The next-run record orders after the current-run record even though
/// // its value is smaller.
/// assert!(current < next);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunRecord<T> {
    /// The payload value (usually a sort key or a full record).
    pub value: T,
    /// The run this record has been assigned to.
    pub run: u64,
}

impl<T> RunRecord<T> {
    /// Tags `value` as belonging to run `run`.
    pub fn new(value: T, run: u64) -> Self {
        RunRecord { value, run }
    }

    /// Consumes the tag and returns the inner value.
    pub fn into_value(self) -> T {
        self.value
    }

    /// The key a heap whose current run is `run` caches for this record,
    /// given `sort_key`, a `u64` that agrees with the heap's order of
    /// values (the record's sort key on a min-heap, its complement `!key`
    /// on the BottomHeap): `sort_key` itself for a current-run record, `0`
    /// for an earlier run's and `u64::MAX` for a later run's.
    ///
    /// Keys derived this way agree with the run-first order: whenever two
    /// differ, the record with the smaller key orders first. A key that
    /// ties (two records of one earlier or later run, or a current-run key
    /// of `0` or `u64::MAX`) leaves the comparison to `(run, value)`.
    ///
    /// ```
    /// use twrs_heaps::RunRecord;
    ///
    /// let record = RunRecord::new(42_u64, 3);
    /// assert_eq!(record.heap_key(3, 42), 42);
    /// assert_eq!(record.heap_key(4, 42), 0);
    /// assert_eq!(record.heap_key(2, 42), u64::MAX);
    /// ```
    #[inline]
    pub fn heap_key(&self, run: u64, sort_key: u64) -> u64 {
        match self.run.cmp(&run) {
            Ordering::Less => 0,
            Ordering::Equal => sort_key,
            Ordering::Greater => u64::MAX,
        }
    }

    /// Maps the inner value, keeping the run tag.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunRecord<U> {
        RunRecord {
            value: f(self.value),
            run: self.run,
        }
    }
}

impl<T: Ord> PartialOrd for RunRecord<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for RunRecord<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.run
            .cmp(&other.run)
            .then_with(|| self.value.cmp(&other.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryHeap;

    #[test]
    fn run_is_the_major_key() {
        let a = RunRecord::new(100, 0);
        let b = RunRecord::new(1, 1);
        let c = RunRecord::new(50, 0);
        assert!(a < b);
        assert!(c < a);
        assert!(c < b);
    }

    #[test]
    fn equal_runs_compare_by_value() {
        let a = RunRecord::new(3, 2);
        let b = RunRecord::new(7, 2);
        assert!(a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn min_heap_surfaces_current_run_first() {
        let mut heap = BinaryHeap::bounded(8);
        heap.push(RunRecord::new(40, 0)).unwrap();
        heap.push(RunRecord::new(5, 1)).unwrap();
        heap.push(RunRecord::new(60, 0)).unwrap();
        heap.push(RunRecord::new(1, 1)).unwrap();

        assert_eq!(heap.pop(), Some(RunRecord::new(40, 0)));
        assert_eq!(heap.pop(), Some(RunRecord::new(60, 0)));
        // Only once the current run is exhausted do next-run records appear.
        assert_eq!(heap.pop(), Some(RunRecord::new(1, 1)));
        assert_eq!(heap.pop(), Some(RunRecord::new(5, 1)));
    }

    #[test]
    fn heap_keys_agree_with_the_run_first_order() {
        // Records of runs 2 to 4 in a heap whose current run is 3, with the
        // value as sort key: wherever two keys differ, they order the
        // records the way `Ord` does.
        let records: Vec<RunRecord<u64>> = (2..5)
            .flat_map(|run| [0, 1, 7, u64::MAX].map(|v| RunRecord::new(v, run)))
            .collect();
        for a in &records {
            for b in &records {
                let (ka, kb) = (a.heap_key(3, a.value), b.heap_key(3, b.value));
                if ka != kb {
                    assert_eq!(ka < kb, a < b, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn map_preserves_run() {
        let r = RunRecord::new(4_u32, 7).map(|v| v * 2);
        assert_eq!(r.value, 8);
        assert_eq!(r.run, 7);
    }
}
