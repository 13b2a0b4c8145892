//! Fixed-size record serialization.
//!
//! The paper sorts fixed-size records (4-byte integers in the evaluation,
//! §5.2). The storage layer only needs to know how to move a record to and
//! from a byte slice of a known size; the concrete record layout lives in
//! the workload crate. Implementations are provided for the integer key
//! types used by tests and by simple examples.

/// A record with a compile-time-known serialized size.
///
/// Implementors must write exactly [`FixedSizeRecord::SIZE`] bytes in
/// [`write_to`](FixedSizeRecord::write_to) and read the same amount in
/// [`read_from`](FixedSizeRecord::read_from); the buffers handed to them are
/// always exactly `SIZE` bytes long.
pub trait FixedSizeRecord: Sized {
    /// Serialized size in bytes.
    const SIZE: usize;

    /// Serializes the record into `buf` (`buf.len() == Self::SIZE`).
    fn write_to(&self, buf: &mut [u8]);

    /// Deserializes a record from `buf` (`buf.len() == Self::SIZE`).
    fn read_from(buf: &[u8]) -> Self;
}

/// A record the external-sort pipeline can order, move between threads and
/// spill to storage.
///
/// `Debug` is required so verification failures and diagnostics can show
/// the offending record.
///
/// This is the bound every layer of the pipeline (heaps, run generation,
/// merging, the sorters and the [`SortJob`] front door) places on its record
/// type parameter: the record must serialize to a fixed number of bytes
/// ([`FixedSizeRecord`]), have a *total* order (`Ord` — ties must be broken
/// deterministically, e.g. by a payload or row id, so that independently
/// produced sorted outputs are byte-identical), and be cheaply clonable and
/// sendable across the parallel sorter's shard threads.
///
/// # The cached-key hook
///
/// [`sort_key`](SortableRecord::sort_key) projects the record onto a `u64`
/// that *weakly respects* the record order:
///
/// ```text
/// a <= b  ⟹  a.sort_key() <= b.sort_key()
/// ```
///
/// The pipeline uses it in two ways:
///
/// * **Merge comparisons.** The k-way merge's loser tree caches every head
///   record's key and decides a match on the keys alone whenever they
///   differ; only equal keys fall back to `Ord` (and then to run order).
///   With a key that separates most records, most merge comparisons are
///   one integer compare.
/// * **Key-space arithmetic** that full `Ord` comparisons cannot provide —
///   the Mean/Median input heuristics of 2WRS, the victim buffer's
///   largest-gap split, and the bucket ranges of the distribution sort.
///
/// Because the merge trusts key order, an override that breaks the
/// monotonicity above **misorders the output**; `SortJob::verify(true)`
/// catches that, and debug builds assert it in the merge. A coarse key
/// (many records per key) is fine: ties fall back to `Ord`. The default
/// implementation (constant `0`) is always correct — every merge match
/// then costs one extra integer compare before `Ord`, and the heuristics
/// degrade to their trivial behaviour. Implementors with an ordered
/// numeric or byte-prefix key should override it (e.g.
/// `u64::from_be_bytes(prefix)` for an 8-byte string prefix).
///
/// `SortJob` is re-exported by the facade crate; see its documentation for
/// a worked "bring your own record type" example.
///
/// [`SortJob`]: https://docs.rs/two_way_replacement_selection
pub trait SortableRecord: FixedSizeRecord + Ord + Clone + Send + std::fmt::Debug + 'static {
    /// A `u64` projection of the sort key, monotone with respect to `Ord`
    /// (see the trait documentation). Decides merge comparisons between
    /// records whose keys differ and feeds the key-space heuristics;
    /// defaults to `0`, which is always correct but leaves every merge
    /// comparison to `Ord` and makes the heuristics trivial.
    fn sort_key(&self) -> u64 {
        0
    }
}

macro_rules! impl_sortable_for_uint {
    ($($t:ty),*) => {
        $(
            impl SortableRecord for $t {
                fn sort_key(&self) -> u64 {
                    u64::from(*self)
                }
            }
        )*
    };
}

impl_sortable_for_uint!(u32, u64);

macro_rules! impl_sortable_for_int {
    ($($t:ty => $u:ty),*) => {
        $(
            impl SortableRecord for $t {
                fn sort_key(&self) -> u64 {
                    // Shift the signed range into the unsigned one so the
                    // projection stays monotone across zero.
                    u64::from((*self as $u) ^ (1 << (<$t>::BITS - 1)))
                }
            }
        )*
    };
}

impl_sortable_for_int!(i32 => u32, i64 => u64);

macro_rules! impl_fixed_for_int {
    ($($t:ty),*) => {
        $(
            impl FixedSizeRecord for $t {
                const SIZE: usize = std::mem::size_of::<$t>();

                fn write_to(&self, buf: &mut [u8]) {
                    buf.copy_from_slice(&self.to_le_bytes());
                }

                fn read_from(buf: &[u8]) -> Self {
                    let mut bytes = [0u8; std::mem::size_of::<$t>()];
                    bytes.copy_from_slice(buf);
                    <$t>::from_le_bytes(bytes)
                }
            }
        )*
    };
}

impl_fixed_for_int!(u32, u64, i32, i64);

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<R: FixedSizeRecord + PartialEq + std::fmt::Debug + Copy>(value: R) {
        let mut buf = vec![0u8; R::SIZE];
        value.write_to(&mut buf);
        assert_eq!(R::read_from(&buf), value);
    }

    #[test]
    fn integer_round_trips() {
        round_trip(0u32);
        round_trip(u32::MAX);
        round_trip(123_456_789u64);
        round_trip(-42i32);
        round_trip(i64::MIN);
    }

    #[test]
    fn sizes_match_native_widths() {
        assert_eq!(<u32 as FixedSizeRecord>::SIZE, 4);
        assert_eq!(<u64 as FixedSizeRecord>::SIZE, 8);
        assert_eq!(<i64 as FixedSizeRecord>::SIZE, 8);
    }

    #[test]
    fn integer_sort_keys_are_monotone() {
        assert!(5u64.sort_key() < 9u64.sort_key());
        assert!(5u32.sort_key() < 9u32.sort_key());
        // Signed projections stay monotone across zero.
        assert!((-3i32).sort_key() < 0i32.sort_key());
        assert!(0i32.sort_key() < 3i32.sort_key());
        assert!(i64::MIN.sort_key() < (-1i64).sort_key());
        assert!((-1i64).sort_key() < i64::MAX.sort_key());
    }
}
