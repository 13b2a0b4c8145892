//! The Appendix A file format for streams of *decreasing* records.
//!
//! 2WRS produces two streams per run whose records arrive in decreasing
//! order (streams 2 and 4). Hard disks read forward much faster than
//! backward, so the paper stores these streams in fixed-size files of `k`
//! pages that are **written back to front**: the first record lands in the
//! last slot of the last page and writing proceeds toward the beginning.
//! Reading the files forward afterwards yields the records in ascending
//! order, exactly what the merge phase needs, at the cost of only one extra
//! header page per file.
//!
//! Layout of each part file (`<name>.partN`):
//!
//! ```text
//! page 0        : header {magic, record size, pages per file,
//!                         start page, start slot, record count}
//! page 1..k-1   : records; data occupies [start page, k) and within the
//!                 start page the slots [start slot, slots per page)
//! ```
//!
//! Part 0 is created first and therefore holds the *largest* records; a
//! reader that wants ascending order visits the parts from the most recent
//! one down to part 0. [`RunReader::open_reverse`] turns the parts into
//! that many extents of the one [`RunReader`], so a reverse run is read like
//! any other.
//!
//! [`ReverseRunWriter`] writes one reverse run; the caller always names its
//! part size `k` (2WRS takes it from its configuration). Run generation
//! drives it through `twrs-extsort`'s `RunBuilder::reverse`, which creates
//! the writer on the run's first record.

use crate::device::{PageFile, StorageDevice};
use crate::error::{Result, StorageError};
use crate::page::PageBuf;
use crate::record::FixedSizeRecord;
use crate::run_file::{check_record_size, Extent, RunReader};

const MAGIC: u32 = 0x5257_5253; // "RWRS"

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReverseHeader {
    record_size: u32,
    pages_per_file: u64,
    start_page: u64,
    start_slot: u32,
    record_count: u64,
}

impl ReverseHeader {
    fn write(self, page: &mut PageBuf) {
        let bytes = page.as_bytes_mut();
        bytes[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        bytes[4..8].copy_from_slice(&self.record_size.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.pages_per_file.to_le_bytes());
        bytes[16..24].copy_from_slice(&self.start_page.to_le_bytes());
        bytes[24..28].copy_from_slice(&self.start_slot.to_le_bytes());
        bytes[28..36].copy_from_slice(&self.record_count.to_le_bytes());
    }

    fn read(page: &PageBuf) -> Result<Self> {
        let bytes = page.as_bytes();
        if bytes.len() < 36 {
            return Err(StorageError::CorruptHeader(
                "reverse header page too small".into(),
            ));
        }
        let magic = crate::bytes::u32_le_at(bytes, 0);
        if magic != MAGIC {
            return Err(StorageError::CorruptHeader(format!(
                "bad reverse-file magic {magic:#x}"
            )));
        }
        Ok(ReverseHeader {
            record_size: crate::bytes::u32_le_at(bytes, 4),
            pages_per_file: crate::bytes::u64_le_at(bytes, 8),
            start_page: crate::bytes::u64_le_at(bytes, 16),
            start_slot: crate::bytes::u32_le_at(bytes, 24),
            record_count: crate::bytes::u64_le_at(bytes, 28),
        })
    }
}

fn no_open_part() -> StorageError {
    StorageError::Io(std::io::Error::other(
        "reverse writer has no open part file",
    ))
}

/// The name of part `index` of the reverse run stored under `base`:
/// `<base>.part<index>`.
pub(crate) fn part_name(base: &str, index: u64) -> String {
    format!("{base}.part{index}")
}

/// Writes a stream of records arriving in decreasing order so that it can be
/// read back in ascending order with forward I/O only.
pub struct ReverseRunWriter<R: FixedSizeRecord> {
    device: Box<dyn StorageDevice>,
    base: String,
    pages_per_file: u64,
    slots_per_page: usize,
    page_size: usize,

    file: Option<Box<dyn PageFile>>,
    file_index: u64,
    next_page: u64,
    next_slot: usize,
    records_in_file: u64,
    total_records: u64,
    page: PageBuf,
    _marker: std::marker::PhantomData<R>,
}

impl<R: FixedSizeRecord> ReverseRunWriter<R> {
    /// Starts a reverse-ordered run under `base` on `device` in part files
    /// of `pages_per_file` pages (the paper's `k`, Appendix A.2; it uses
    /// k = 1000, about 40 MB a file). A `pages_per_file` below 2 (one
    /// header page plus one data page) is raised to 2.
    pub fn with_pages_per_file<D: StorageDevice + Clone + 'static>(
        device: &D,
        base: &str,
        pages_per_file: u64,
    ) -> Result<Self> {
        let page_size = device.page_size();
        let slots_per_page = page_size / R::SIZE;
        if slots_per_page == 0 {
            return Err(StorageError::BadRecordSize {
                record: R::SIZE,
                page: page_size,
            });
        }
        let pages_per_file = pages_per_file.max(2);
        Ok(ReverseRunWriter {
            device: Box::new(device.clone()),
            base: base.to_string(),
            pages_per_file,
            slots_per_page,
            page_size,
            file: None,
            file_index: 0,
            next_page: pages_per_file - 1,
            next_slot: slots_per_page - 1,
            records_in_file: 0,
            total_records: 0,
            page: PageBuf::new(page_size),
            _marker: std::marker::PhantomData,
        })
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> u64 {
        self.total_records
    }

    /// `true` when no record has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.total_records == 0
    }

    /// Appends the next (smaller or equal) record of the decreasing stream.
    pub fn push(&mut self, record: &R) -> Result<()> {
        self.ensure_file()?;
        self.page.encode(self.next_slot, record);
        self.records_in_file += 1;
        self.total_records += 1;
        if self.next_slot == 0 {
            // Page is full: store it and move one page toward the header.
            self.write_current_page()?;
            self.page.clear();
            self.next_slot = self.slots_per_page - 1;
            if self.next_page == 1 {
                self.finalize_current_file(1, 0)?;
            } else {
                self.next_page -= 1;
            }
        } else {
            self.next_slot -= 1;
        }
        Ok(())
    }

    /// Flushes the partially filled page (if any), writes the last part's
    /// header and returns the total number of records written.
    pub fn finish(mut self) -> Result<u64> {
        if self.file.is_none() {
            // No records at all: still create part 0 with an empty header so
            // a reader can open the stream.
            self.ensure_file()?;
        }
        let has_partial = self.next_slot < self.slots_per_page - 1;
        if has_partial {
            self.write_current_page()?;
            let start_page = self.next_page;
            let start_slot = (self.next_slot + 1) as u32;
            self.finalize_current_file(start_page, start_slot)?;
        } else if self.file.is_some() {
            // The current file holds only complete pages (possibly zero).
            let start_page = self.next_page + 1;
            self.finalize_current_file(start_page, 0)?;
        }
        Ok(self.total_records)
    }

    fn ensure_file(&mut self) -> Result<()> {
        if self.file.is_some() {
            return Ok(());
        }
        let name = part_name(&self.base, self.file_index);
        // The file has a fixed logical size of k pages (Appendix A.2) but is
        // written back to front; the device's sparse-write semantics create
        // the untouched leading pages as zero-filled holes, so no physical
        // pre-allocation pass is needed.
        let file = self.device.create(&name)?;
        self.file = Some(file);
        self.next_page = self.pages_per_file - 1;
        self.next_slot = self.slots_per_page - 1;
        self.records_in_file = 0;
        Ok(())
    }

    fn write_current_page(&mut self) -> Result<()> {
        let file = self.file.as_mut().ok_or_else(no_open_part)?;
        file.write_page(self.next_page, self.page.as_bytes())?;
        Ok(())
    }

    fn finalize_current_file(&mut self, start_page: u64, start_slot: u32) -> Result<()> {
        let mut header_page = PageBuf::new(self.page_size);
        ReverseHeader {
            record_size: R::SIZE as u32,
            pages_per_file: self.pages_per_file,
            start_page,
            start_slot,
            record_count: self.records_in_file,
        }
        .write(&mut header_page);
        let file = self.file.as_mut().ok_or_else(no_open_part)?;
        file.write_page(0, header_page.as_bytes())?;
        file.flush()?;
        self.file = None;
        self.file_index += 1;
        self.records_in_file = 0;
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct PartPlan {
    start_page: u64,
    start_slot: usize,
    record_count: u64,
}

impl PartPlan {
    /// Checks a part header against the file it came from: a non-empty
    /// part must start on a data page inside the file, at a slot inside the
    /// page, and its records must fit between that slot and the file's end.
    fn validate(self, num_pages: u64, slots_per_page: usize) -> Result<Self> {
        if self.record_count == 0 {
            return Ok(self);
        }
        let slots = slots_per_page as u64;
        let fits = self.start_page >= 1
            && self.start_page < num_pages
            && self.start_slot < slots_per_page
            && (num_pages - self.start_page)
                .checked_mul(slots)
                .is_none_or(|held| self.record_count <= held - self.start_slot as u64);
        if fits {
            Ok(self)
        } else {
            Err(StorageError::CorruptHeader(format!(
                "reverse part claims {} records from page {} slot {}, \
                 but the file has {num_pages} pages of {slots_per_page} slots",
                self.record_count, self.start_page, self.start_slot
            )))
        }
    }
}

impl<R: FixedSizeRecord> RunReader<R> {
    /// Opens every part of the reverse run stored under `base`, as one
    /// extent per part from the most recent part down to part 0, so the
    /// records come back ascending through forward page reads only.
    ///
    /// A part header whose records cannot fit in its file, or part counts
    /// whose sum overflows, are rejected with
    /// [`StorageError::CorruptHeader`] here, before any record is read.
    pub fn open_reverse(device: &dyn StorageDevice, base: &str) -> Result<Self> {
        let page_size = device.page_size();
        let slots_per_page = page_size / R::SIZE;
        // Discover parts by probing names until one is missing.
        let mut index = 0;
        let mut handles = Vec::new();
        while device.exists(&part_name(base, index)) {
            handles.push(device.open(&part_name(base, index))?);
            index += 1;
        }
        if handles.is_empty() {
            return Err(StorageError::NotFound(part_name(base, 0)));
        }
        // Ascending order starts at the most recently written part.
        handles.reverse();
        let mut extents = Vec::with_capacity(handles.len());
        let mut total = 0u64;
        let mut header_page = PageBuf::new(page_size);
        for mut file in handles {
            file.read_page(0, header_page.as_bytes_mut())?;
            let header = ReverseHeader::read(&header_page)?;
            check_record_size::<R>(header.record_size)?;
            let plan = PartPlan {
                start_page: header.start_page,
                start_slot: header.start_slot as usize,
                record_count: header.record_count,
            }
            .validate(file.num_pages(), slots_per_page)?;
            total = total.checked_add(plan.record_count).ok_or_else(|| {
                StorageError::CorruptHeader("reverse part counts overflow".into())
            })?;
            extents.push(Extent {
                file,
                page: plan.start_page,
                slot: plan.start_slot,
                records: plan.record_count,
            });
        }
        Ok(Self::from_extents(page_size, extents, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::io_stats::DiskModel;
    use crate::model::ModelId;

    fn round_trip(page_size: usize, pages_per_file: u64, n: u64) {
        let device = SimDevice::custom(page_size, DiskModel::default());
        let mut writer =
            ReverseRunWriter::<u64>::with_pages_per_file(&device, "rev", pages_per_file).unwrap();
        // Push a strictly decreasing stream n-1, n-2, ..., 0.
        for v in (0..n).rev() {
            writer.push(&v).unwrap();
        }
        assert_eq!(writer.finish().unwrap(), n);
        let mut reader = RunReader::<u64>::open_reverse(&device, "rev").unwrap();
        assert_eq!(reader.len(), n);
        let all = reader.read_all().unwrap();
        let expected: Vec<u64> = (0..n).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn single_partial_page() {
        round_trip(64, 4, 3);
    }

    #[test]
    fn exactly_one_full_file() {
        // 64-byte pages, 8 slots, 4 pages per file => 3 data pages => 24 records.
        round_trip(64, 4, 24);
    }

    #[test]
    fn several_files_with_partial_tail() {
        round_trip(64, 4, 100);
    }

    #[test]
    fn boundary_exactly_two_files() {
        round_trip(64, 4, 48);
    }

    #[test]
    fn large_stream_default_geometry() {
        round_trip(256, 8, 5_000);
    }

    #[test]
    fn empty_stream_round_trips() {
        let device = SimDevice::custom(64, DiskModel::default());
        let writer = ReverseRunWriter::<u64>::with_pages_per_file(&device, "rev", 4).unwrap();
        assert!(writer.is_empty());
        assert_eq!(writer.finish().unwrap(), 0);
        let mut reader = RunReader::<u64>::open_reverse(&device, "rev").unwrap();
        assert!(reader.is_empty());
        assert_eq!(reader.next_record().unwrap(), None);
    }

    #[test]
    fn missing_stream_reports_not_found() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        assert!(matches!(
            RunReader::<u64>::open_reverse(&device, "nothing"),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn ties_are_preserved() {
        let device = SimDevice::custom(64, DiskModel::default());
        let mut writer = ReverseRunWriter::<u64>::with_pages_per_file(&device, "rev", 4).unwrap();
        let stream = [9u64, 9, 7, 7, 7, 3, 1, 1];
        for v in stream {
            writer.push(&v).unwrap();
        }
        writer.finish().unwrap();
        let mut reader = RunReader::<u64>::open_reverse(&device, "rev").unwrap();
        let mut expected = stream.to_vec();
        expected.reverse();
        assert_eq!(reader.read_all().unwrap(), expected);
    }

    /// Rewrites the header of every part of `base` with `edit`.
    fn edit_headers(device: &SimDevice, base: &str, edit: impl Fn(&mut ReverseHeader)) {
        let mut index = 0;
        while device.exists(&part_name(base, index)) {
            let mut file = device.open(&part_name(base, index)).unwrap();
            let mut page = PageBuf::new(device.page_size());
            file.read_page(0, page.as_bytes_mut()).unwrap();
            let mut header = ReverseHeader::read(&page).unwrap();
            edit(&mut header);
            header.write(&mut page);
            file.write_page(0, page.as_bytes()).unwrap();
            index += 1;
        }
    }

    fn write_two_parts(device: &SimDevice) {
        // 64-byte pages, 4 pages per file: 24 records fill part 0.
        let mut writer = ReverseRunWriter::<u64>::with_pages_per_file(device, "rev", 4).unwrap();
        for v in (0..30u64).rev() {
            writer.push(&v).unwrap();
        }
        writer.finish().unwrap();
        assert!(device.exists("rev.part1"));
    }

    fn assert_corrupt(device: &SimDevice) {
        assert!(matches!(
            RunReader::<u64>::open_reverse(device, "rev"),
            Err(StorageError::CorruptHeader(_))
        ));
    }

    #[test]
    fn part_counts_that_cannot_fit_are_rejected_at_open() {
        let device = SimDevice::custom(64, DiskModel::default());
        write_two_parts(&device);
        // Summed unchecked, two of these wrap to a small total.
        edit_headers(&device, "rev", |h| h.record_count = u64::MAX - 1);
        assert_corrupt(&device);

        let device = SimDevice::custom(64, DiskModel::default());
        write_two_parts(&device);
        edit_headers(&device, "rev", |h| h.record_count += 1);
        assert_corrupt(&device);
    }

    #[test]
    fn part_start_positions_outside_the_file_are_rejected_at_open() {
        for edit in [
            (|h: &mut ReverseHeader| h.start_slot = 8) as fn(&mut ReverseHeader),
            |h| h.start_page = 0,
            |h| h.start_page = 4,
            |h| h.start_page = u64::MAX,
        ] {
            let device = SimDevice::custom(64, DiskModel::default());
            write_two_parts(&device);
            edit_headers(&device, "rev", edit);
            assert_corrupt(&device);
        }
    }

    #[test]
    fn batch_reads_match_record_by_record_reads_page_for_page() {
        let device = SimDevice::custom(64, DiskModel::default());
        let mut writer = ReverseRunWriter::<u64>::with_pages_per_file(&device, "rev", 3).unwrap();
        for v in (0..45u64).rev() {
            writer.push(&v).unwrap();
        }
        writer.finish().unwrap();
        for max in [1, 3, 7, 8, 9, 16, 50] {
            let mut one = RunReader::<u64>::open_reverse(&device, "rev").unwrap();
            let mut batch = RunReader::<u64>::open_reverse(&device, "rev").unwrap();
            let mut out = Vec::new();
            loop {
                device.reset_stats();
                for _ in 0..max {
                    one.next_record().unwrap();
                }
                let singles = device.stats().counters.pages_read;
                device.reset_stats();
                let read = batch.read_batch(&mut out, max).unwrap();
                assert_eq!(device.stats().counters.pages_read, singles, "max {max}");
                if read < max {
                    break;
                }
            }
            assert_eq!(out, (0..45).collect::<Vec<u64>>(), "max {max}");
        }
    }

    #[test]
    fn reading_is_forward_only() {
        let device = SimDevice::custom(64, DiskModel::default());
        let mut writer = ReverseRunWriter::<u64>::with_pages_per_file(&device, "rev", 4).unwrap();
        for v in (0..60u64).rev() {
            writer.push(&v).unwrap();
        }
        writer.finish().unwrap();
        device.reset_stats();
        let mut reader = RunReader::<u64>::open_reverse(&device, "rev").unwrap();
        reader.read_all().unwrap();
        let snap = device.stats();
        // One seek per part file (headers are read at open, data follows
        // forward); never more than parts * 2.
        let parts = device.list().len() as u64;
        assert!(
            snap.counters.seeks <= parts * 2,
            "seeks = {}",
            snap.counters.seeks
        );
    }
}
