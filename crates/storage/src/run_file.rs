//! Run files, and the one reader every run is read back through.
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
//!
//! [`RunReader`] reads a run in any format: an ordered list of extents,
//! each a stretch of records in one file from a given page and slot on,
//! read ascending. [`RunReader::open`] reads a forward file (one extent),
//! [`RunReader::open_reverse`] the part files of an Appendix A reverse run
//! (one extent per part, see [`reverse_file`](crate::reverse_file)), and
//! [`RunReader::concat`] joins runs whose key ranges follow each other,
//! such as the four streams of a 2WRS run (§4.1).

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
        Ok(self.records)
    }
}

/// A stretch of a run inside one file: `records` records stored densely
/// from slot `slot` of page `page` on.
pub(crate) struct Extent {
    pub(crate) file: Box<dyn PageFile>,
    /// The page of the next record.
    pub(crate) page: u64,
    /// The slot of the next record on `page`.
    pub(crate) slot: usize,
    /// Records not read yet.
    pub(crate) records: u64,
}

/// Reads a run in ascending order, record by record or a batch at a time,
/// whatever its format: forward file, reverse parts or a concatenation of
/// both.
pub struct RunReader<R: FixedSizeRecord> {
    /// The run's extents in ascending order; `extents[current]` holds the
    /// next record.
    extents: Vec<Extent>,
    current: usize,
    /// The page of the next record, once `loaded`.
    page: PageBuf,
    loaded: bool,
    slots_per_page: usize,
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
        check_record_size::<R>(header.record_size)?;
        let capacity = file
            .num_pages()
            .saturating_sub(1)
            .saturating_mul((page_size / R::SIZE) as u64);
        if header.record_count > capacity {
            return Err(StorageError::CorruptHeader(format!(
                "header claims {} records but the data pages hold at most {capacity}",
                header.record_count
            )));
        }
        let extent = Extent {
            file,
            page: 1,
            slot: 0,
            records: header.record_count,
        };
        Ok(Self::from_extents(
            page_size,
            vec![extent],
            header.record_count,
        ))
    }

    /// A reader over `extents`, which hold `total` records in all.
    pub(crate) fn from_extents(page_size: usize, extents: Vec<Extent>, total: u64) -> Self {
        RunReader {
            extents,
            current: 0,
            page: PageBuf::new(page_size),
            loaded: false,
            slots_per_page: page_size / R::SIZE,
            total,
            _marker: std::marker::PhantomData,
        }
    }

    /// One run made of `parts` read one after another, for runs whose key
    /// ranges follow each other in ascending order. Opening the parts read
    /// their headers; this reads nothing.
    ///
    /// Record counts whose sum overflows are rejected with
    /// [`StorageError::CorruptHeader`].
    pub fn concat(parts: impl IntoIterator<Item = RunReader<R>>) -> Result<Self> {
        let (mut page_size, mut extents, mut total) = (0, Vec::new(), 0u64);
        for part in parts {
            // An empty part may hold no page at all.
            page_size = page_size.max(part.page.size());
            total = total
                .checked_add(part.total)
                .ok_or_else(|| StorageError::CorruptHeader("run counts overflow".into()))?;
            extents.extend(part.extents);
        }
        Ok(Self::from_extents(page_size, extents, total))
    }

    /// Total number of records in the run.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` when the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Makes the page holding the next record current, moving to the next
    /// extent and reading a page only once a record on it is wanted;
    /// `false` at the end of the run.
    fn advance(&mut self) -> Result<bool> {
        while let Some(extent) = self.extents.get_mut(self.current) {
            if extent.records == 0 {
                self.current += 1;
                self.loaded = false;
                continue;
            }
            if extent.slot == self.slots_per_page {
                extent.page += 1;
                extent.slot = 0;
                self.loaded = false;
            }
            if !self.loaded {
                extent
                    .file
                    .read_page(extent.page, self.page.as_bytes_mut())?;
                self.loaded = true;
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Reads the next record, or `None` at the end of the run.
    pub fn next_record(&mut self) -> Result<Option<R>> {
        if !self.advance()? {
            return Ok(None);
        }
        let extent = &mut self.extents[self.current];
        let record = self.page.decode(extent.slot);
        extent.slot += 1;
        extent.records -= 1;
        Ok(Some(record))
    }

    /// Appends up to `max` records to `out` and returns how many it
    /// appended; fewer than `max` only at the end of the run.
    ///
    /// Each page's slots are decoded in one loop. The pages read, and the
    /// moments they are read at, are exactly those of `max` calls to
    /// [`RunReader::next_record`]: a page — an extent's first page
    /// included — is read only once a record on it is wanted.
    pub fn read_batch(&mut self, out: &mut Vec<R>, max: usize) -> Result<usize> {
        let mut read = 0;
        while read < max && self.advance()? {
            let extent = &mut self.extents[self.current];
            let take = (max - read)
                .min(self.slots_per_page - extent.slot)
                .min(usize::try_from(extent.records).unwrap_or(usize::MAX));
            self.page.decode_into(extent.slot, take, out);
            extent.slot += take;
            extent.records -= take as u64;
            read += take;
        }
        Ok(read)
    }

    /// Reads the whole remaining run into a vector.
    pub fn read_all(&mut self) -> Result<Vec<R>> {
        // The openers bounded every count by the pages its file really has.
        let remaining: u64 = self.extents.iter().map(|extent| extent.records).sum();
        let mut out = Vec::with_capacity(usize::try_from(remaining).unwrap_or(0));
        self.read_batch(&mut out, usize::MAX)?;
        Ok(out)
    }
}

/// Rejects a header written for records of another size.
pub(crate) fn check_record_size<R: FixedSizeRecord>(record_size: u32) -> Result<()> {
    if record_size as usize == R::SIZE {
        return Ok(());
    }
    Err(StorageError::CorruptHeader(format!(
        "record size mismatch: file has {record_size}, caller expects {}",
        R::SIZE
    )))
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

    /// The shapes of run the one reader covers, over 64-byte pages of 8
    /// `u64` slots: a forward file of 29 records; and a chain of a reverse
    /// run of 45 in parts of 2 data pages (the most recent part starting
    /// mid-page), an empty file and that forward file. A reverse run read
    /// alone is checked in `reverse_file`.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Forward,
        Chain,
    }

    /// Opens `shape` on `device`; returns the reader, the files it opened
    /// and the records it must yield.
    fn open_shape(device: &SimDevice, shape: Shape) -> (RunReader<u64>, u64, Vec<u64>) {
        match shape {
            Shape::Forward => (
                RunReader::open(device, "fwd").unwrap(),
                1,
                (45..74).collect(),
            ),
            Shape::Chain => {
                let parts = [
                    RunReader::open_reverse(device, "rev").unwrap(),
                    RunReader::open(device, "empty").unwrap(),
                    RunReader::open(device, "fwd").unwrap(),
                ];
                (RunReader::concat(parts).unwrap(), 5, (0..74).collect())
            }
        }
    }

    #[test]
    fn batch_reads_match_record_by_record_reads_page_for_page() {
        let device = SimDevice::custom(64, DiskModel::default());
        write_run(&device, "fwd", &(45..74).collect::<Vec<u64>>());
        write_run(&device, "empty", &[]);
        let mut writer =
            crate::ReverseRunWriter::<u64>::with_pages_per_file(&device, "rev", 3).unwrap();
        for v in (0..45u64).rev() {
            writer.push(&v).unwrap();
        }
        writer.finish().unwrap();
        let pages_read = || device.stats().counters.pages_read;
        for shape in [Shape::Forward, Shape::Chain] {
            for max in [1, 3, 7, 8, 9, 16, 80] {
                device.reset_stats();
                let (mut one, files, expected) = open_shape(&device, shape);
                // Opening reads each file's header page and nothing else.
                assert_eq!(pages_read(), files, "{shape:?}");
                let (mut batch, _, _) = open_shape(&device, shape);
                let mut out = Vec::new();
                loop {
                    device.reset_stats();
                    for _ in 0..max {
                        one.next_record().unwrap();
                    }
                    let singles = pages_read();
                    device.reset_stats();
                    let read = batch.read_batch(&mut out, max).unwrap();
                    assert_eq!(pages_read(), singles, "{shape:?}, max {max}");
                    if read < max {
                        break;
                    }
                }
                assert_eq!(out, expected, "{shape:?}, max {max}");
            }
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
