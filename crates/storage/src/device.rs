//! Storage devices: the page-oriented traits and the simulated disk.
//!
//! Every backend exposes the same page-oriented interface so the sorting
//! algorithms and the experiment harness are agnostic to where the runs
//! live: [`SimDevice`] here, [`RealFileDevice`](crate::real_device::RealFileDevice)
//! over real files, and [`StripedDevice`](crate::striped::StripedDevice)
//! over several of either; a wrapper around one implements [`Forward`].
//! Every page access flows through a shared [`IoStats`] so seeks and
//! transfers can be attributed to phases of the sort; [`SimDevice`]
//! additionally keeps the file contents in memory, making experiments
//! deterministic and independent of the host file system (it stands in
//! for the paper's dedicated SATA disk; see the README's *Device models*).

use crate::contention::IoClientGuard;
use crate::error::{Result, StorageError};
use crate::io_stats::{DiskModel, IoStats, IoStatsSnapshot};
use crate::model::ModelId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A page-addressed file handle.
///
/// Pages are `page_size` bytes; reads and writes always move whole pages.
/// Writing one page past the end extends the file.
pub trait PageFile: Send {
    /// Size in bytes of every page of this file.
    fn page_size(&self) -> usize;

    /// Number of pages currently stored.
    fn num_pages(&self) -> u64;

    /// Reads page `index` into `buf` (`buf.len() == page_size`).
    fn read_page(&mut self, index: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes `data` (`data.len() == page_size`) as page `index`.
    ///
    /// Writing beyond the current end of the file extends it; the skipped
    /// pages read back as zeroes (sparse-file semantics), which is what the
    /// Appendix A reverse-file format relies on to write its fixed-size part
    /// files back to front.
    fn write_page(&mut self, index: u64, data: &[u8]) -> Result<()>;

    /// Flushes buffered data to the underlying medium.
    fn flush(&mut self) -> Result<()>;
}

/// A named, page-oriented storage device.
///
/// Implementations share one [`IoStats`] across all their files so that
/// cross-file head movement (the source of merge-phase seeks) is visible.
pub trait StorageDevice: Send + Sync {
    /// Page size used by every file of this device.
    fn page_size(&self) -> usize;

    /// Creates a new, empty file. Fails if the name already exists.
    fn create(&self, name: &str) -> Result<Box<dyn PageFile>>;

    /// Opens an existing file for reading and writing.
    fn open(&self, name: &str) -> Result<Box<dyn PageFile>>;

    /// Removes a file.
    fn remove(&self, name: &str) -> Result<()>;

    /// `true` when a file with this name exists.
    fn exists(&self, name: &str) -> bool;

    /// Names of every file currently stored, in ascending lexicographic
    /// (byte-wise) order — pinned so cleanup assertions and golden tests
    /// are deterministic across devices and platforms.
    fn list(&self) -> Vec<String>;

    /// The shared I/O statistics of the device.
    fn io_stats(&self) -> &IoStats;

    /// Snapshot of the current I/O statistics.
    fn stats(&self) -> IoStatsSnapshot {
        self.io_stats().snapshot()
    }

    /// Resets the I/O statistics.
    fn reset_stats(&self) {
        self.io_stats().reset()
    }

    /// Number of independent stripe members behind this device; `1` for
    /// every plain (non-striped) device.
    fn stripe_members(&self) -> usize {
        1
    }

    /// A view of this device suitable for shard `index` of a parallel
    /// sort. A [`StripedDevice`](crate::striped::StripedDevice) returns a
    /// clone pinned to stripe member `index % stripe_members()`, so each
    /// shard spills to its own disk; plain devices return a plain clone.
    fn shard_view(&self, index: usize) -> Self
    where
        Self: Sized + Clone,
    {
        let _ = index;
        self.clone()
    }

    /// Admits the caller as one outstanding request stream for bandwidth
    /// fair-sharing; the returned guard withdraws the stream on drop.
    /// `None` when the device does not model contention (every plain
    /// device today — only striped devices share bandwidth).
    fn attach_io_client(&self) -> Option<IoClientGuard> {
        None
    }

    /// `true` when page operations take wall-clock time worth hiding
    /// behind helper threads: a real-file device, or a stripe with one.
    /// `false` (the default) for devices whose I/O costs no wall-clock
    /// time, like [`SimDevice`]; a threaded sort on such a device starts
    /// no spill-writer or prefetch thread.
    fn has_wall_clock_latency(&self) -> bool {
        false
    }
}

/// A device wrapper. A blanket impl makes it a [`StorageDevice`] whose
/// calls go to its [`target`](Forward::target) unless overridden here, so
/// no wrapper can miss a method and answer with the trait's default.
/// Implement it by path and keep it out of scope where wrappers are
/// called: with both traits in scope, `wrapper.create(..)` is ambiguous
/// (E0034).
pub trait Forward: Send + Sync {
    /// The device every call not overridden here goes to.
    fn target(&self) -> &dyn StorageDevice;

    /// This wrapper over the target's [`StorageDevice::shard_view`].
    fn shard_view(&self, index: usize) -> Self;

    /// See [`StorageDevice::create`].
    fn create(&self, name: &str) -> Result<Box<dyn PageFile>> {
        self.target().create(name)
    }

    /// See [`StorageDevice::open`].
    fn open(&self, name: &str) -> Result<Box<dyn PageFile>> {
        self.target().open(name)
    }

    /// See [`StorageDevice::remove`].
    fn remove(&self, name: &str) -> Result<()> {
        self.target().remove(name)
    }

    /// See [`StorageDevice::has_wall_clock_latency`].
    fn has_wall_clock_latency(&self) -> bool {
        self.target().has_wall_clock_latency()
    }

    /// Statistics the wrapper keeps itself; when `Some`, `io_stats`,
    /// `stats` and `reset_stats` act on them instead of the target's.
    fn own_stats(&self) -> Option<&IoStats> {
        None
    }
}

impl<T: Forward> StorageDevice for T {
    fn page_size(&self) -> usize {
        self.target().page_size()
    }

    fn create(&self, name: &str) -> Result<Box<dyn PageFile>> {
        Forward::create(self, name)
    }

    fn open(&self, name: &str) -> Result<Box<dyn PageFile>> {
        Forward::open(self, name)
    }

    fn remove(&self, name: &str) -> Result<()> {
        Forward::remove(self, name)
    }

    fn exists(&self, name: &str) -> bool {
        self.target().exists(name)
    }

    fn list(&self) -> Vec<String> {
        self.target().list()
    }

    fn io_stats(&self) -> &IoStats {
        self.own_stats().unwrap_or_else(|| self.target().io_stats())
    }

    fn stats(&self) -> IoStatsSnapshot {
        match self.own_stats() {
            Some(own) => own.snapshot(),
            None => self.target().stats(),
        }
    }

    fn reset_stats(&self) {
        match self.own_stats() {
            Some(own) => own.reset(),
            None => self.target().reset_stats(),
        }
    }

    fn stripe_members(&self) -> usize {
        self.target().stripe_members()
    }

    fn shard_view(&self, index: usize) -> Self {
        Forward::shard_view(self, index)
    }

    fn attach_io_client(&self) -> Option<IoClientGuard> {
        self.target().attach_io_client()
    }

    fn has_wall_clock_latency(&self) -> bool {
        Forward::has_wall_clock_latency(self)
    }
}

/// Errors unless a caller buffer is exactly one page long.
pub(crate) fn check_page_len(len: usize, page_size: usize) -> Result<()> {
    if len != page_size {
        return Err(StorageError::PageSizeMismatch {
            got: len,
            expected: page_size,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Simulated in-memory device
// ---------------------------------------------------------------------------

#[derive(Default)]
struct SimFileData {
    pages: Vec<Box<[u8]>>,
}

struct SimShared {
    files: Mutex<HashMap<String, Arc<Mutex<SimFileData>>>>,
    stats: IoStats,
    page_size: usize,
    next_file_id: AtomicU64,
}

/// An in-memory simulated disk.
///
/// File contents live on the heap; every access updates the shared
/// [`IoStats`], including seek detection when the head moves between files
/// or to a non-consecutive page. The device is cheap to create and fully
/// deterministic, which is what the run-length experiments (Chapter 5) and
/// the fan-in analysis (§6.1.1) need.
#[derive(Clone)]
pub struct SimDevice {
    shared: Arc<SimShared>,
}

impl SimDevice {
    /// Creates a simulated device with the default page size, charging
    /// costs from the given model (a catalog [`ModelId`] or a raw
    /// [`DiskModel`] parameter set).
    pub fn with_model(model: impl Into<DiskModel>) -> Self {
        Self::custom(crate::page::DEFAULT_PAGE_SIZE, model)
    }

    /// Creates a simulated device with an explicit page size and model.
    pub fn custom(page_size: usize, model: impl Into<DiskModel>) -> Self {
        SimDevice {
            shared: Arc::new(SimShared {
                files: Mutex::new(HashMap::new()),
                stats: IoStats::new(model.into()),
                page_size,
                next_file_id: AtomicU64::new(1),
            }),
        }
    }
}

impl Default for SimDevice {
    fn default() -> Self {
        Self::with_model(ModelId::Hdd7200)
    }
}

struct SimPageFile {
    name: String,
    file_id: u64,
    data: Arc<Mutex<SimFileData>>,
    stats: IoStats,
    page_size: usize,
}

impl PageFile for SimPageFile {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.data.lock().pages.len() as u64
    }

    fn read_page(&mut self, index: u64, buf: &mut [u8]) -> Result<()> {
        check_page_len(buf.len(), self.page_size)?;
        let data = self.data.lock();
        let page = data
            .pages
            .get(index as usize)
            .ok_or_else(|| StorageError::PageOutOfBounds {
                file: self.name.clone(),
                page: index,
                pages: data.pages.len() as u64,
            })?;
        buf.copy_from_slice(page);
        drop(data);
        self.stats.record_access(self.file_id, index, 1, false);
        Ok(())
    }

    fn write_page(&mut self, index: u64, data: &[u8]) -> Result<()> {
        check_page_len(data.len(), self.page_size)?;
        let mut file = self.data.lock();
        while (file.pages.len() as u64) < index {
            file.pages
                .push(vec![0u8; self.page_size].into_boxed_slice());
        }
        if (index as usize) == file.pages.len() {
            file.pages.push(data.to_vec().into_boxed_slice());
        } else {
            file.pages[index as usize].copy_from_slice(data);
        }
        drop(file);
        self.stats.record_access(self.file_id, index, 1, true);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
}

impl StorageDevice for SimDevice {
    fn page_size(&self) -> usize {
        self.shared.page_size
    }

    fn create(&self, name: &str) -> Result<Box<dyn PageFile>> {
        let mut files = self.shared.files.lock();
        if files.contains_key(name) {
            return Err(StorageError::AlreadyExists(name.to_string()));
        }
        let data = Arc::new(Mutex::new(SimFileData::default()));
        files.insert(name.to_string(), Arc::clone(&data));
        drop(files);
        self.shared.stats.record_create();
        Ok(Box::new(SimPageFile {
            name: name.to_string(),
            file_id: self.shared.next_file_id.fetch_add(1, Ordering::Relaxed),
            data,
            stats: self.shared.stats.clone(),
            page_size: self.shared.page_size,
        }))
    }

    fn open(&self, name: &str) -> Result<Box<dyn PageFile>> {
        let files = self.shared.files.lock();
        let data = files
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        drop(files);
        Ok(Box::new(SimPageFile {
            name: name.to_string(),
            file_id: self.shared.next_file_id.fetch_add(1, Ordering::Relaxed),
            data,
            stats: self.shared.stats.clone(),
            page_size: self.shared.page_size,
        }))
    }

    fn remove(&self, name: &str) -> Result<()> {
        let mut files = self.shared.files.lock();
        files
            .remove(name)
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        drop(files);
        self.shared.stats.record_remove();
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.shared.files.lock().contains_key(name)
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.files.lock().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    fn io_stats(&self) -> &IoStats {
        &self.shared.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real_device::RealFileDevice;

    fn device_round_trip(device: &dyn StorageDevice) {
        let page_size = device.page_size();
        let mut file = device.create("alpha").unwrap();
        let mut page = vec![0u8; page_size];
        for i in 0..5u8 {
            page.fill(i);
            file.write_page(i as u64, &page).unwrap();
        }
        assert_eq!(file.num_pages(), 5);
        file.flush().unwrap();

        let mut reopened = device.open("alpha").unwrap();
        assert_eq!(reopened.num_pages(), 5);
        let mut buf = vec![0u8; page_size];
        for i in 0..5u8 {
            reopened.read_page(i as u64, &mut buf).unwrap();
            assert!(buf.iter().all(|b| *b == i));
        }
        assert!(device.exists("alpha"));
        device.remove("alpha").unwrap();
        assert!(!device.exists("alpha"));
    }

    #[test]
    fn sim_device_round_trip() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        device_round_trip(&device);
    }

    #[test]
    fn file_device_round_trip() {
        let device = RealFileDevice::temp().unwrap();
        device_round_trip(&device);
    }

    #[test]
    fn create_twice_fails() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        device.create("x").unwrap();
        assert!(matches!(
            device.create("x"),
            Err(StorageError::AlreadyExists(_))
        ));
    }

    #[test]
    fn open_missing_fails() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        assert!(matches!(
            device.open("missing"),
            Err(StorageError::NotFound(_))
        ));
        assert!(matches!(
            device.remove("missing"),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn page_writes_beyond_the_end_zero_fill_the_gap() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let mut file = device.create("f").unwrap();
        let page = vec![1u8; device.page_size()];
        file.write_page(0, &page).unwrap();
        // Writing page 3 while the file has one page creates a sparse hole.
        file.write_page(3, &page).unwrap();
        assert_eq!(file.num_pages(), 4);
        let mut buf = vec![9u8; device.page_size()];
        file.read_page(1, &mut buf).unwrap();
        assert!(buf.iter().all(|b| *b == 0));
        file.read_page(3, &mut buf).unwrap();
        assert!(buf.iter().all(|b| *b == 1));
    }

    #[test]
    fn read_past_end_fails() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let mut file = device.create("f").unwrap();
        let mut buf = vec![0u8; device.page_size()];
        assert!(matches!(
            file.read_page(0, &mut buf),
            Err(StorageError::PageOutOfBounds { .. })
        ));
    }

    #[test]
    fn wrong_buffer_size_is_rejected() {
        let device = SimDevice::custom(1024, DiskModel::default());
        let mut file = device.create("f").unwrap();
        let page = vec![0u8; 512];
        assert!(matches!(
            file.write_page(0, &page),
            Err(StorageError::PageSizeMismatch { .. })
        ));
    }

    #[test]
    fn stats_count_interleaved_reads_but_not_writes() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let page = vec![7u8; device.page_size()];
        let mut a = device.create("a").unwrap();
        let mut b = device.create("b").unwrap();
        for i in 0..3 {
            a.write_page(i, &page).unwrap();
            b.write_page(i, &page).unwrap();
        }
        let snap = device.stats();
        assert_eq!(snap.counters.pages_written, 6);
        // Writes are absorbed by the write-behind cache model.
        assert_eq!(snap.counters.seeks, 0);
        assert_eq!(snap.counters.files_created, 2);
        // Interleaved reads, on the other hand, pay a seek each.
        let mut buf = vec![0u8; device.page_size()];
        for i in 0..3 {
            a.read_page(i, &mut buf).unwrap();
            b.read_page(i, &mut buf).unwrap();
        }
        assert_eq!(device.stats().counters.seeks, 6);
    }

    #[test]
    fn sequential_single_file_writes_never_seek() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let page = vec![0u8; device.page_size()];
        let mut f = device.create("seq").unwrap();
        for i in 0..10 {
            f.write_page(i, &page).unwrap();
        }
        assert_eq!(device.stats().counters.seeks, 0);
    }

    #[test]
    fn list_reports_existing_files() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        device.create("one").unwrap();
        device.create("two").unwrap();
        assert_eq!(device.list(), vec!["one".to_string(), "two".to_string()]);
    }

    #[test]
    fn list_returns_sorted_names_on_both_devices() {
        // Created deliberately out of order; `list` must come back sorted
        // without the caller sorting — the order is part of the contract.
        let check = |device: &dyn StorageDevice| {
            for name in ["zeta", "alpha", "mid", "alpha.part1", "alpha.part0"] {
                device.create(name).unwrap();
            }
            assert_eq!(
                device.list(),
                vec![
                    "alpha".to_string(),
                    "alpha.part0".to_string(),
                    "alpha.part1".to_string(),
                    "mid".to_string(),
                    "zeta".to_string(),
                ]
            );
        };
        check(&SimDevice::with_model(ModelId::Hdd7200));
        check(&RealFileDevice::temp().unwrap());
    }

    #[test]
    fn temp_device_cleans_its_directory_even_when_files_remain() {
        // An error path that abandons spill files must not leak the temp
        // directory: dropping the last device clone removes the root with
        // everything still in it.
        let device = RealFileDevice::temp().unwrap();
        let root = device.root().to_path_buf();
        let page = vec![1u8; device.page_size()];
        for name in ["run.0", "run.1"] {
            let mut f = device.create(name).unwrap();
            f.write_page(0, &page).unwrap();
        }
        assert!(root.exists());
        drop(device);
        assert!(!root.exists(), "temp root must be removed with files in it");
    }

    #[test]
    fn plain_devices_report_one_stripe_member_and_no_contention() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        assert_eq!(device.stripe_members(), 1);
        assert!(device.attach_io_client().is_none());
        // The default shard view is a plain clone sharing the same stats.
        let view = device.shard_view(3);
        view.create("from-view").unwrap();
        assert!(device.exists("from-view"));
        assert_eq!(device.stats().counters.files_created, 1);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let mut f = device.create("f").unwrap();
        let page = vec![0u8; device.page_size()];
        f.write_page(0, &page).unwrap();
        device.reset_stats();
        assert_eq!(device.stats().counters.pages_written, 0);
    }
}
