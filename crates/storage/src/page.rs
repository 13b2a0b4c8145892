//! Fixed-size pages and helpers to pack records into them.
//!
//! Appendix A of the paper explains that the unit of transfer between the
//! sorting algorithms and the disk is the file-system page (4 KiB for the
//! ext3 system used in the original experiments); every read and write moves
//! whole pages. [`PageBuf`] is that unit: a byte buffer of the device page
//! size with a small record-oriented API on top.

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

    /// Size of the page in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the raw bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_zeroes_contents() {
        let mut page = PageBuf::new(32);
        page.as_bytes_mut().fill(0xAB);
        page.clear();
        assert_eq!(page.as_bytes(), [0; 32]);
    }
}
