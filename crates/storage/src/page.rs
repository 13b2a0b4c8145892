//! Fixed-size pages and helpers to pack records into them.
//!
//! Appendix A of the paper explains that the unit of transfer between the
//! sorting algorithms and the disk is the file-system page (4 KiB for the
//! ext3 system used in the original experiments); every read and write moves
//! whole pages. [`PageBuf`] is that unit: a byte buffer of the device page
//! size with a small record-oriented API on top.

use crate::error::{Result, StorageError};
use crate::record::FixedSizeRecord;

/// Default page size in bytes (the ext3 default the paper mentions).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// A single in-memory page.
///
/// A page holds `page_size / R::SIZE` records of a fixed-size record type;
/// the trailing bytes that do not fit a whole record are left as padding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageBuf {
    data: Vec<u8>,
}

impl PageBuf {
    /// Creates a zero-filled page of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        PageBuf {
            data: vec![0; page_size],
        }
    }

    /// Wraps an existing byte buffer as a page.
    pub fn from_vec(data: Vec<u8>) -> Self {
        PageBuf { data }
    }

    /// Size of the page in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Number of records of type `R` a page of this size can hold.
    pub fn capacity_for<R: FixedSizeRecord>(&self) -> usize {
        self.data.len() / R::SIZE
    }

    /// Read-only view of the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the raw bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Consumes the page, returning the raw bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }

    /// Writes record `record` into slot `slot` of the page.
    pub fn put<R: FixedSizeRecord>(&mut self, slot: usize, record: &R) -> Result<()> {
        self.check_slot::<R>(slot)?;
        self.encode(slot, record);
        Ok(())
    }

    /// Reads the record stored in slot `slot`.
    pub fn get<R: FixedSizeRecord>(&self, slot: usize) -> Result<R> {
        self.check_slot::<R>(slot)?;
        Ok(self.decode(slot))
    }

    /// `Ok` when slot `slot` of `R`s lies wholly within the page.
    fn check_slot<R: FixedSizeRecord>(&self, slot: usize) -> Result<()> {
        match slot.checked_add(1).and_then(|end| end.checked_mul(R::SIZE)) {
            Some(end) if end <= self.data.len() => Ok(()),
            _ => Err(StorageError::BadRecordSize {
                record: R::SIZE,
                page: self.data.len(),
            }),
        }
    }

    /// Encodes `record` into slot `slot`, which must lie within the page:
    /// the run writers derive their slot range from the page size, so the
    /// per-record path carries no error.
    pub(crate) fn encode<R: FixedSizeRecord>(&mut self, slot: usize, record: &R) {
        let start = slot * R::SIZE;
        record.write_to(&mut self.data[start..start + R::SIZE]);
    }

    /// Decodes the record in slot `slot`, which must lie within the page.
    pub(crate) fn decode<R: FixedSizeRecord>(&self, slot: usize) -> R {
        let start = slot * R::SIZE;
        R::read_from(&self.data[start..start + R::SIZE])
    }

    /// Decodes slots `from..from + count` in one loop and appends them to
    /// `out`; the slots must lie within the page.
    pub(crate) fn decode_into<R: FixedSizeRecord>(
        &self,
        from: usize,
        count: usize,
        out: &mut Vec<R>,
    ) {
        let bytes = &self.data[from * R::SIZE..(from + count) * R::SIZE];
        out.extend(bytes.chunks_exact(R::SIZE).map(R::read_from));
    }

    /// Zeroes the page contents.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }
}

/// Number of records of size `record_size` that fit a page of
/// `page_size` bytes.
pub fn records_per_page(page_size: usize, record_size: usize) -> usize {
    page_size / record_size
}

/// Number of pages needed to store `records` records of size `record_size`
/// using pages of `page_size` bytes.
pub fn pages_for_records(records: u64, page_size: usize, record_size: usize) -> u64 {
    let per_page = records_per_page(page_size, record_size) as u64;
    if per_page == 0 {
        return 0;
    }
    records.div_ceil(per_page)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_get_round_trip() {
        let mut page = PageBuf::new(64);
        for slot in 0..page.capacity_for::<u64>() {
            page.put(slot, &(slot as u64 * 7)).unwrap();
        }
        for slot in 0..page.capacity_for::<u64>() {
            assert_eq!(page.get::<u64>(slot).unwrap(), slot as u64 * 7);
        }
    }

    #[test]
    fn out_of_bounds_slot_is_rejected() {
        let mut page = PageBuf::new(16);
        assert!(page.put(2, &1u64).is_err());
        assert!(page.get::<u64>(2).is_err());
    }

    #[test]
    fn capacity_accounts_for_record_size() {
        let page = PageBuf::new(DEFAULT_PAGE_SIZE);
        assert_eq!(page.capacity_for::<u64>(), DEFAULT_PAGE_SIZE / 8);
        assert_eq!(page.capacity_for::<u32>(), DEFAULT_PAGE_SIZE / 4);
    }

    #[test]
    fn pages_for_records_rounds_up() {
        assert_eq!(pages_for_records(0, 4096, 8), 0);
        assert_eq!(pages_for_records(512, 4096, 8), 1);
        assert_eq!(pages_for_records(513, 4096, 8), 2);
        assert_eq!(pages_for_records(1024, 4096, 8), 2);
    }

    #[test]
    fn clear_zeroes_contents() {
        let mut page = PageBuf::new(32);
        page.put(0, &u64::MAX).unwrap();
        page.clear();
        assert_eq!(page.get::<u64>(0).unwrap(), 0);
    }
}
