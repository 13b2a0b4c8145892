//! Forward-sequential run files.
//!
//! A *run* is a sorted sequence of records produced during run generation
//! and consumed (strictly forward) by the merge phase (§2.1). A run file
//! stores a small header page followed by data pages packed with fixed-size
//! records; the writer buffers one page at a time so every record write
//! costs amortised `O(1)` and I/O happens in whole pages, as on the paper's
//! direct-I/O setup.
//!
//! Layout:
//!
//! ```text
//! page 0      : header {magic, record size, record count}
//! page 1..N   : records, densely packed, last page possibly partial
//! ```

use crate::device::{PageFile, StorageDevice};
use crate::error::{Result, StorageError};
use crate::page::PageBuf;
use crate::record::FixedSizeRecord;

const MAGIC: u32 = 0x5457_5253; // "TWRS"

/// Header stored in page 0 of every run file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunHeader {
    record_size: u32,
    record_count: u64,
}

impl RunHeader {
    fn write(self, page: &mut PageBuf) {
        let bytes = page.as_bytes_mut();
        bytes[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        bytes[4..8].copy_from_slice(&self.record_size.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.record_count.to_le_bytes());
    }

    fn read(page: &PageBuf) -> Result<Self> {
        let bytes = page.as_bytes();
        if bytes.len() < 16 {
            return Err(StorageError::CorruptHeader("header page too small".into()));
        }
        let magic = crate::bytes::u32_le_at(bytes, 0);
        if magic != MAGIC {
            return Err(StorageError::CorruptHeader(format!(
                "bad magic {magic:#x}, expected {MAGIC:#x}"
            )));
        }
        Ok(RunHeader {
            record_size: crate::bytes::u32_le_at(bytes, 4),
            record_count: crate::bytes::u64_le_at(bytes, 8),
        })
    }
}

/// Writes a run of fixed-size records to a device file, page by page.
pub struct RunWriter<R: FixedSizeRecord> {
    file: Box<dyn PageFile>,
    page: PageBuf,
    slots_per_page: usize,
    slot: usize,
    next_page: u64,
    records: u64,
    finished: bool,
    _marker: std::marker::PhantomData<R>,
}

impl<R: FixedSizeRecord> RunWriter<R> {
    /// Creates the named file on `device` and prepares to write records into
    /// it.
    pub fn create(device: &dyn StorageDevice, name: &str) -> Result<Self> {
        let page_size = device.page_size();
        let slots_per_page = page_size / R::SIZE;
        if slots_per_page == 0 {
            return Err(StorageError::BadRecordSize {
                record: R::SIZE,
                page: page_size,
            });
        }
        let mut file = device.create(name)?;
        // Reserve the header page; it is rewritten with the real record
        // count in `finish`.
        let header_page = PageBuf::new(page_size);
        file.write_page(0, header_page.as_bytes())?;
        Ok(RunWriter {
            file,
            page: PageBuf::new(page_size),
            slots_per_page,
            slot: 0,
            next_page: 1,
            records: 0,
            finished: false,
            _marker: std::marker::PhantomData,
        })
    }

    /// Appends one record to the run.
    pub fn push(&mut self, record: &R) -> Result<()> {
        self.page.encode(self.slot, record);
        self.slot += 1;
        self.records += 1;
        if self.slot == self.slots_per_page {
            self.flush_page()?;
        }
        Ok(())
    }

    /// Number of records written so far.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// `true` when no record has been written yet.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    fn flush_page(&mut self) -> Result<()> {
        if self.slot == 0 {
            return Ok(());
        }
        self.file.write_page(self.next_page, self.page.as_bytes())?;
        self.next_page += 1;
        self.slot = 0;
        self.page.clear();
        Ok(())
    }

    /// Flushes the partial page and writes the final header. Must be called
    /// exactly once; dropping an unfinished writer loses the trailing
    /// records and leaves a zero-count header.
    pub fn finish(mut self) -> Result<u64> {
        self.flush_page()?;
        let mut header_page = PageBuf::new(self.file.page_size());
        RunHeader {
            record_size: R::SIZE as u32,
            record_count: self.records,
        }
        .write(&mut header_page);
        self.file.write_page(0, header_page.as_bytes())?;
        self.file.flush()?;
        self.finished = true;
        Ok(self.records)
    }
}

/// Reads a run file forward, record by record or a batch at a time.
pub struct RunReader<R: FixedSizeRecord> {
    file: Box<dyn PageFile>,
    page: PageBuf,
    slots_per_page: usize,
    /// Next slot of `page` to return; `slots_per_page` when the next record
    /// lives on the next page, which is read only once it is asked for.
    slot: usize,
    current_page: u64,
    remaining: u64,
    total: u64,
    _marker: std::marker::PhantomData<R>,
}

impl<R: FixedSizeRecord> RunReader<R> {
    /// Opens the named run file on `device`.
    ///
    /// A header whose record count cannot fit in the file's data pages is
    /// rejected with [`StorageError::CorruptHeader`] here, before any
    /// record is read.
    pub fn open(device: &dyn StorageDevice, name: &str) -> Result<Self> {
        let page_size = device.page_size();
        let mut file = device.open(name)?;
        let mut header_page = PageBuf::new(page_size);
        file.read_page(0, header_page.as_bytes_mut())?;
        let header = RunHeader::read(&header_page)?;
        if header.record_size as usize != R::SIZE {
            return Err(StorageError::CorruptHeader(format!(
                "record size mismatch: file has {}, caller expects {}",
                header.record_size,
                R::SIZE
            )));
        }
        let slots_per_page = page_size / R::SIZE;
        let capacity = file
            .num_pages()
            .saturating_sub(1)
            .saturating_mul(slots_per_page as u64);
        if header.record_count > capacity {
            return Err(StorageError::CorruptHeader(format!(
                "header claims {} records but the data pages hold at most {capacity}",
                header.record_count
            )));
        }
        Ok(RunReader {
            file,
            page: PageBuf::new(page_size),
            slots_per_page,
            slot: slots_per_page,
            current_page: 0,
            remaining: header.record_count,
            total: header.record_count,
            _marker: std::marker::PhantomData,
        })
    }

    /// Total number of records in the run.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` when the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of records not yet returned by [`RunReader::next_record`].
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Makes the page holding the next record current, reading it if
    /// needed; `false` at the end of the run.
    fn advance(&mut self) -> Result<bool> {
        if self.remaining == 0 {
            return Ok(false);
        }
        if self.slot == self.slots_per_page {
            self.current_page += 1;
            self.file
                .read_page(self.current_page, self.page.as_bytes_mut())?;
            self.slot = 0;
        }
        Ok(true)
    }

    /// Reads the next record, or `None` at the end of the run.
    pub fn next_record(&mut self) -> Result<Option<R>> {
        if !self.advance()? {
            return Ok(None);
        }
        let record = self.page.decode(self.slot);
        self.slot += 1;
        self.remaining -= 1;
        Ok(Some(record))
    }

    /// Appends up to `max` records to `out` and returns how many it
    /// appended; fewer than `max` only at the end of the run.
    ///
    /// Each page's slots are decoded in one loop. The pages read, and the
    /// moments they are read at, are exactly those of `max` calls to
    /// [`RunReader::next_record`]: a page is read only once a record on it
    /// is wanted.
    pub fn read_batch(&mut self, out: &mut Vec<R>, max: usize) -> Result<usize> {
        let mut read = 0;
        while read < max && self.advance()? {
            let take = (max - read)
                .min(self.slots_per_page - self.slot)
                .min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
            self.page.decode_into(self.slot, take, out);
            self.slot += take;
            self.remaining -= take as u64;
            read += take;
        }
        Ok(read)
    }

    /// Reads the whole remaining run into a vector.
    pub fn read_all(&mut self) -> Result<Vec<R>> {
        // `open` bounded the count by the pages the file really has.
        let mut out = Vec::with_capacity(usize::try_from(self.remaining).unwrap_or(0));
        self.read_batch(&mut out, usize::MAX)?;
        Ok(out)
    }
}

impl<R: FixedSizeRecord> Iterator for RunReader<R> {
    type Item = Result<R>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::io_stats::DiskModel;
    use crate::model::ModelId;

    fn write_run(device: &dyn StorageDevice, name: &str, values: &[u64]) {
        let mut writer = RunWriter::<u64>::create(device, name).unwrap();
        for v in values {
            writer.push(v).unwrap();
        }
        assert_eq!(writer.finish().unwrap(), values.len() as u64);
    }

    #[test]
    fn round_trip_exact_page_multiple() {
        let device = SimDevice::custom(64, DiskModel::default());
        // 8 records per page; write exactly 16.
        let values: Vec<u64> = (0..16).collect();
        write_run(&device, "run", &values);
        let mut reader = RunReader::<u64>::open(&device, "run").unwrap();
        assert_eq!(reader.len(), 16);
        assert_eq!(reader.read_all().unwrap(), values);
    }

    #[test]
    fn round_trip_partial_last_page() {
        let device = SimDevice::custom(64, DiskModel::default());
        let values: Vec<u64> = (0..13).map(|i| i * 3).collect();
        write_run(&device, "run", &values);
        let mut reader = RunReader::<u64>::open(&device, "run").unwrap();
        assert_eq!(reader.read_all().unwrap(), values);
        assert_eq!(reader.remaining(), 0);
        assert_eq!(reader.next_record().unwrap(), None);
    }

    #[test]
    fn empty_run() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        write_run(&device, "empty", &[]);
        let mut reader = RunReader::<u64>::open(&device, "empty").unwrap();
        assert!(reader.is_empty());
        assert_eq!(reader.next_record().unwrap(), None);
    }

    #[test]
    fn iterator_interface() {
        let device = SimDevice::custom(64, DiskModel::default());
        let values: Vec<u64> = (0..20).collect();
        write_run(&device, "run", &values);
        let reader = RunReader::<u64>::open(&device, "run").unwrap();
        let collected: Vec<u64> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(collected, values);
    }

    #[test]
    fn record_size_mismatch_is_detected() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        write_run(&device, "run", &[1, 2, 3]);
        let err = RunReader::<u32>::open(&device, "run");
        assert!(matches!(err, Err(StorageError::CorruptHeader(_))));
    }

    #[test]
    fn corrupt_magic_is_detected() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let mut file = device.create("bogus").unwrap();
        let junk = vec![0xAB; device.page_size()];
        file.write_page(0, &junk).unwrap();
        drop(file);
        assert!(matches!(
            RunReader::<u64>::open(&device, "bogus"),
            Err(StorageError::CorruptHeader(_))
        ));
    }

    /// Rewrites the header of the run `name` to claim `count` records.
    fn claim(device: &dyn StorageDevice, name: &str, count: u64) {
        let mut header = PageBuf::new(device.page_size());
        RunHeader {
            record_size: 8,
            record_count: count,
        }
        .write(&mut header);
        let mut file = device.open(name).unwrap();
        file.write_page(0, header.as_bytes()).unwrap();
    }

    #[test]
    fn header_counts_beyond_the_data_pages_are_rejected_at_open() {
        // 64-byte pages: one data page holds 8 `u64`s.
        let device = SimDevice::custom(64, DiskModel::default());
        write_run(&device, "run", &[1, 2, 3]);
        for count in [1 << 63, u64::MAX, 9] {
            claim(&device, "run", count);
            assert!(
                matches!(
                    RunReader::<u64>::open(&device, "run"),
                    Err(StorageError::CorruptHeader(_))
                ),
                "count {count}"
            );
        }
        // A count the data page can hold still opens and reads.
        claim(&device, "run", 8);
        let mut reader = RunReader::<u64>::open(&device, "run").unwrap();
        assert_eq!(reader.read_all().unwrap(), vec![1, 2, 3, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn batch_reads_match_record_by_record_reads_page_for_page() {
        let device = SimDevice::custom(64, DiskModel::default());
        let values: Vec<u64> = (0..29).collect();
        write_run(&device, "run", &values);
        for max in [1, 3, 7, 8, 9, 16, 40] {
            let mut one = RunReader::<u64>::open(&device, "run").unwrap();
            let mut batch = RunReader::<u64>::open(&device, "run").unwrap();
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
            assert_eq!(out, values, "max {max}");
        }
    }

    #[test]
    fn writer_reports_length() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let mut writer = RunWriter::<u64>::create(&device, "r").unwrap();
        assert!(writer.is_empty());
        writer.push(&5).unwrap();
        writer.push(&6).unwrap();
        assert_eq!(writer.len(), 2);
        writer.finish().unwrap();
    }

    #[test]
    fn sequential_write_read_costs_one_seek_each() {
        let device = SimDevice::custom(64, DiskModel::default());
        let values: Vec<u64> = (0..64).collect();
        write_run(&device, "run", &values);
        device.reset_stats();
        let mut reader = RunReader::<u64>::open(&device, "run").unwrap();
        reader.read_all().unwrap();
        let snap = device.stats();
        // Header + data pages are read strictly forward: a single seek.
        assert_eq!(snap.counters.seeks, 1);
    }
}
