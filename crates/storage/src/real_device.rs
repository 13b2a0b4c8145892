//! The real-file backend, bypassing the page cache where it can.
//!
//! The paper's measurements were taken against a dedicated SATA disk opened
//! with direct I/O so the OS page cache could not hide the seek costs under
//! study. [`RealFileDevice`] reproduces that setup: files are opened with
//! `O_DIRECT` when the platform and filesystem support it, and every page
//! moves through a page-aligned bounce buffer so caller buffers need no
//! alignment of their own. Where `O_DIRECT` is unavailable (non-Linux
//! hosts, tmpfs, unaligned page sizes) the device falls back to buffered
//! I/O and *says so*: the decision is surfaced as a [`DirectIoStatus`] on
//! the device and printed once as a warning, because a benchmark that
//! silently measured the page cache would reproduce nothing.
//!
//! The device implements the same [`StorageDevice`] trait as the simulated
//! backend, so `SortJob`, `SortService` and the bench suite run on it
//! unmodified; counters (pages, seeks) are recorded with the same shared
//! seek rule, charged to a zero-cost model so simulated time stays zero and
//! wall-clock time is the only time that matters here.

use crate::device::{check_page_len, PageFile, StorageDevice};
use crate::error::{Result, StorageError};
use crate::io_stats::{DiskModel, IoStats};
use parking_lot::Mutex;
use std::alloc::Layout;
use std::collections::HashSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Whether the device got `O_DIRECT`, and if not, why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectIoStatus {
    /// Files are opened with `O_DIRECT`; reads and writes bypass the OS
    /// page cache.
    Enabled,
    /// `O_DIRECT` could not be used; the device fell back to buffered I/O.
    /// The payload says why (e.g. tmpfs rejecting the flag, a non-Linux
    /// host, a page size that is not sector-aligned).
    Fallback(String),
}

impl DirectIoStatus {
    /// `true` when the page cache is being bypassed.
    pub fn is_direct(&self) -> bool {
        matches!(self, DirectIoStatus::Enabled)
    }
}

impl fmt::Display for DirectIoStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectIoStatus::Enabled => f.write_str("O_DIRECT"),
            DirectIoStatus::Fallback(reason) => write!(f, "buffered ({reason})"),
        }
    }
}

/// The `O_DIRECT` open flag for this target, if it has one. The value is
/// architecture-dependent on Linux; targets not listed here simply fall
/// back to buffered I/O rather than guessing.
fn o_direct_flag() -> Option<i32> {
    #[cfg(all(
        target_os = "linux",
        any(
            target_arch = "x86",
            target_arch = "x86_64",
            target_arch = "riscv64",
            target_arch = "s390x"
        )
    ))]
    {
        Some(0o40000)
    }
    #[cfg(all(target_os = "linux", any(target_arch = "arm", target_arch = "aarch64")))]
    {
        Some(0o200000)
    }
    #[cfg(not(all(
        target_os = "linux",
        any(
            target_arch = "x86",
            target_arch = "x86_64",
            target_arch = "riscv64",
            target_arch = "s390x",
            target_arch = "arm",
            target_arch = "aarch64"
        )
    )))]
    {
        None
    }
}

/// A heap buffer aligned for direct I/O (4 KiB alignment covers every
/// common logical block size). Used as a bounce buffer so callers can pass
/// ordinary unaligned slices.
struct AlignedBuf {
    ptr: NonNull<u8>,
    layout: Layout,
}

// The buffer is exclusively owned; the raw pointer does not alias.
unsafe impl Send for AlignedBuf {}

impl AlignedBuf {
    fn new(size: usize) -> Result<Self> {
        let layout = Layout::from_size_align(size, 4096).map_err(|e| {
            StorageError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cannot lay out aligned page buffer of {size} bytes: {e}"),
            ))
        })?;
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let ptr = NonNull::new(raw).ok_or_else(|| {
            StorageError::Io(io::Error::new(
                io::ErrorKind::OutOfMemory,
                "aligned page buffer allocation failed",
            ))
        })?;
        Ok(AlignedBuf { ptr, layout })
    }

    fn as_slice(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.layout.size()) }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.layout.size()) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) };
    }
}

fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = file;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut file = file;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(buf)
    }
}

/// Root directories currently claimed by a live device, so two devices
/// cannot silently share files (an easy mistake when hand-building stripe
/// members over real directories).
fn active_roots() -> &'static Mutex<HashSet<PathBuf>> {
    static ROOTS: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    ROOTS.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Claims `root` for a new device; errors when another live device already
/// owns it. Returns the canonical path to release later.
fn claim_root(root: &Path) -> Result<PathBuf> {
    // The directory exists by the time devices claim it, so canonicalize
    // resolves symlinks and relative spellings of the same directory; fall
    // back to the literal path when resolution fails.
    let canonical = root.canonicalize().unwrap_or_else(|_| root.to_path_buf());
    let mut roots = active_roots().lock();
    if !roots.insert(canonical.clone()) {
        return Err(StorageError::DeviceRootBusy(canonical));
    }
    Ok(canonical)
}

/// Releases a root previously returned by [`claim_root`].
fn release_root(canonical: &Path) {
    active_roots().lock().remove(canonical);
}

struct RealShared {
    root: PathBuf,
    stats: IoStats,
    page_size: usize,
    next_file_id: AtomicU64,
    direct: DirectIoStatus,
    /// The extra open flag (`O_DIRECT`) when direct I/O is active.
    open_flags: i32,
    /// Remove the root directory when the last handle is dropped.
    cleanup: bool,
    /// Canonical root registered in the collision guard, released on drop.
    claimed: PathBuf,
}

impl Drop for RealShared {
    fn drop(&mut self) {
        if self.cleanup {
            let _ = std::fs::remove_dir_all(&self.root);
        }
        release_root(&self.claimed);
    }
}

/// A page-aligned, `O_DIRECT`-capable device backed by real files.
///
/// Construction probes the target directory once: if an `O_DIRECT` open
/// succeeds there, every file of the device bypasses the page cache;
/// otherwise the device runs buffered and reports the reason through
/// [`RealFileDevice::direct_io`] (and a one-time warning on stderr).
/// Obtain one via [`DeviceSpec`](crate::spec::DeviceSpec) strings such as
/// `"real:/mnt/bench"`, or directly with [`RealFileDevice::temp`] /
/// [`RealFileDevice::at`].
#[derive(Clone)]
pub struct RealFileDevice {
    shared: Arc<RealShared>,
}

impl RealFileDevice {
    /// Creates a device rooted at a fresh unique directory inside the
    /// system temporary directory (removed when the last clone and page
    /// file are dropped), with the default page size.
    pub fn temp() -> Result<Self> {
        Self::temp_with_page_size(crate::page::DEFAULT_PAGE_SIZE)
    }

    /// Like [`RealFileDevice::temp`] with an explicit page size.
    pub fn temp_with_page_size(page_size: usize) -> Result<Self> {
        check_page_size(page_size)?;
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "twrs-real-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let root = std::env::temp_dir().join(unique);
        std::fs::create_dir_all(&root)?;
        Self::build(root, page_size, true)
    }

    /// Creates a device rooted at an existing directory; files are kept on
    /// drop. This is what `"real:/path"` device specs build. Errors with
    /// [`StorageError::DeviceRootBusy`] while another live device owns the
    /// same directory.
    pub fn at(root: impl Into<PathBuf>, page_size: usize) -> Result<Self> {
        check_page_size(page_size)?;
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Self::build(root, page_size, false)
    }

    /// Claims `root`, then probes it for `O_DIRECT` — in that order, so the
    /// probe never writes into a directory another live device owns.
    fn build(root: PathBuf, page_size: usize, cleanup: bool) -> Result<Self> {
        let claimed = claim_root(&root)?;
        let (direct, open_flags) = probe_direct(&root, page_size);
        if let DirectIoStatus::Fallback(reason) = &direct {
            eprintln!(
                "twrs-storage: O_DIRECT unavailable at {} — falling back to buffered I/O ({reason})",
                root.display()
            );
        }
        Ok(RealFileDevice {
            shared: Arc::new(RealShared {
                root,
                // Counters use the shared seek rule; the zero-cost model
                // keeps simulated time at zero because on this backend only
                // wall-clock time is meaningful.
                stats: IoStats::new(DiskModel {
                    seek_us: 0.0,
                    rotational_us: 0.0,
                    transfer_page_us: 0.0,
                }),
                page_size,
                next_file_id: AtomicU64::new(1),
                direct,
                open_flags,
                cleanup,
                claimed,
            }),
        })
    }

    /// The directory the device stores its files under.
    pub fn root(&self) -> &Path {
        &self.shared.root
    }

    /// Whether this device got `O_DIRECT`, and if not, why.
    pub fn direct_io(&self) -> &DirectIoStatus {
        &self.shared.direct
    }

    fn path_of(&self, name: &str) -> PathBuf {
        let safe: String = name
            .chars()
            .map(|c| if c == '/' || c == '\\' { '_' } else { c })
            .collect();
        self.shared.root.join(safe)
    }

    fn open_options(&self) -> OpenOptions {
        let mut opts = OpenOptions::new();
        opts.read(true).write(true);
        #[cfg(unix)]
        if self.shared.open_flags != 0 {
            std::os::unix::fs::OpenOptionsExt::custom_flags(&mut opts, self.shared.open_flags);
        }
        opts
    }
}

/// Rejects a zero page size before anything touches the file system.
fn check_page_size(page_size: usize) -> Result<()> {
    if page_size == 0 {
        return Err(StorageError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "page size must be non-zero",
        )));
    }
    Ok(())
}

/// Probes whether `O_DIRECT` works for files under `root` with this page
/// size, returning the status and the extra open flags to use (0 when
/// buffered).
fn probe_direct(root: &Path, page_size: usize) -> (DirectIoStatus, i32) {
    let Some(flag) = o_direct_flag() else {
        return (
            DirectIoStatus::Fallback("O_DIRECT is not supported on this target".to_string()),
            0,
        );
    };
    if page_size % 512 != 0 {
        return (
            DirectIoStatus::Fallback(format!(
                "page size {page_size} is not a multiple of the 512-byte sector size"
            )),
            0,
        );
    }
    let probe_path = root.join(".twrs-direct-probe");
    let status = try_direct_probe(&probe_path, page_size, flag);
    let _ = std::fs::remove_file(&probe_path);
    match status {
        Ok(()) => (DirectIoStatus::Enabled, flag),
        Err(e) => (
            DirectIoStatus::Fallback(format!("probe write with O_DIRECT failed: {e}")),
            0,
        ),
    }
}

/// Opens the probe file with `O_DIRECT` and pushes one aligned page through
/// it — some filesystems accept the flag at `open` and only reject the
/// first transfer, so probing the open alone is not enough.
#[cfg(unix)]
fn try_direct_probe(path: &Path, page_size: usize, flag: i32) -> std::result::Result<(), String> {
    let mut opts = OpenOptions::new();
    opts.read(true).write(true).create(true).truncate(true);
    std::os::unix::fs::OpenOptionsExt::custom_flags(&mut opts, flag);
    let file = opts.open(path).map_err(|e| e.to_string())?;
    let buf = AlignedBuf::new(page_size).map_err(|e| e.to_string())?;
    write_all_at(&file, buf.as_slice(), 0).map_err(|e| e.to_string())
}

#[cfg(not(unix))]
fn try_direct_probe(
    _path: &Path,
    _page_size: usize,
    _flag: i32,
) -> std::result::Result<(), String> {
    Err("O_DIRECT open flags require a unix target".to_string())
}

struct RealDirectPageFile {
    name: String,
    file_id: u64,
    file: File,
    stats: IoStats,
    page_size: usize,
    pages: u64,
    /// Bounce buffer satisfying the memory-alignment requirement of
    /// `O_DIRECT`, so callers may pass unaligned slices.
    bounce: AlignedBuf,
    /// Keeps the device's root directory (and its drop-time cleanup) alive
    /// until the last open page file is gone — without this, dropping a
    /// [`RealFileDevice::temp`] while a file handle is still in use (an
    /// error path unwinding, a writer thread finishing late) would delete
    /// the directory under the handle and silently lose later writes.
    _device: Arc<RealShared>,
}

impl PageFile for RealDirectPageFile {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.pages
    }

    fn read_page(&mut self, index: u64, buf: &mut [u8]) -> Result<()> {
        check_page_len(buf.len(), self.page_size)?;
        if index >= self.pages {
            return Err(StorageError::PageOutOfBounds {
                file: self.name.clone(),
                page: index,
                pages: self.pages,
            });
        }
        read_exact_at(
            &self.file,
            self.bounce.as_mut_slice(),
            index * self.page_size as u64,
        )?;
        buf.copy_from_slice(self.bounce.as_slice());
        self.stats.record_access(self.file_id, index, 1, false);
        Ok(())
    }

    fn write_page(&mut self, index: u64, data: &[u8]) -> Result<()> {
        check_page_len(data.len(), self.page_size)?;
        self.bounce.as_mut_slice().copy_from_slice(data);
        write_all_at(
            &self.file,
            self.bounce.as_slice(),
            index * self.page_size as u64,
        )?;
        if index >= self.pages {
            // Writing past the end extends the file; skipped pages become a
            // sparse hole that reads back as zeroes.
            self.pages = index + 1;
        }
        self.stats.record_access(self.file_id, index, 1, true);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        // With O_DIRECT the data already bypassed the cache; buffered
        // fallback relies on the OS write-behind cache exactly as the
        // paper's model assumes (Appendix A.1), so no fsync either way.
        Ok(())
    }
}

impl StorageDevice for RealFileDevice {
    fn page_size(&self) -> usize {
        self.shared.page_size
    }

    fn create(&self, name: &str) -> Result<Box<dyn PageFile>> {
        let path = self.path_of(name);
        if path.exists() {
            return Err(StorageError::AlreadyExists(name.to_string()));
        }
        let mut opts = self.open_options();
        opts.create_new(true);
        let file = opts.open(&path)?;
        self.shared.stats.record_create();
        Ok(Box::new(RealDirectPageFile {
            name: name.to_string(),
            file_id: self.shared.next_file_id.fetch_add(1, Ordering::Relaxed),
            file,
            stats: self.shared.stats.clone(),
            page_size: self.shared.page_size,
            pages: 0,
            bounce: AlignedBuf::new(self.shared.page_size)?,
            _device: Arc::clone(&self.shared),
        }))
    }

    fn open(&self, name: &str) -> Result<Box<dyn PageFile>> {
        let path = self.path_of(name);
        if !path.exists() {
            return Err(StorageError::NotFound(name.to_string()));
        }
        let file = self.open_options().open(&path)?;
        let len = file.metadata()?.len();
        let pages = len / self.shared.page_size as u64;
        Ok(Box::new(RealDirectPageFile {
            name: name.to_string(),
            file_id: self.shared.next_file_id.fetch_add(1, Ordering::Relaxed),
            file,
            stats: self.shared.stats.clone(),
            page_size: self.shared.page_size,
            pages,
            bounce: AlignedBuf::new(self.shared.page_size)?,
            _device: Arc::clone(&self.shared),
        }))
    }

    fn remove(&self, name: &str) -> Result<()> {
        let path = self.path_of(name);
        if !path.exists() {
            return Err(StorageError::NotFound(name.to_string()));
        }
        std::fs::remove_file(path)?;
        self.shared.stats.record_remove();
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.path_of(name).exists()
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.shared.root)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        names.sort_unstable();
        names
    }

    fn io_stats(&self) -> &IoStats {
        &self.shared.stats
    }

    fn has_wall_clock_latency(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_round_trip_with_unaligned_caller_buffers() {
        let device = RealFileDevice::temp().unwrap();
        let page_size = device.page_size();
        let mut file = device.create("runs").unwrap();
        let mut page = vec![0u8; page_size];
        for i in 0..4u8 {
            page.fill(i + 1);
            file.write_page(i as u64, &page).unwrap();
        }
        file.flush().unwrap();
        drop(file);

        let mut reopened = device.open("runs").unwrap();
        assert_eq!(reopened.num_pages(), 4);
        let mut buf = vec![0u8; page_size];
        for i in 0..4u8 {
            reopened.read_page(i as u64, &mut buf).unwrap();
            assert!(buf.iter().all(|b| *b == i + 1), "page {i}");
        }
    }

    #[test]
    fn direct_io_status_is_always_decided_and_printable() {
        let device = RealFileDevice::temp().unwrap();
        // tmpfs rejects O_DIRECT and real filesystems accept it; either way
        // the device must have made (and be able to report) a decision.
        let status = device.direct_io().clone();
        let text = status.to_string();
        match status {
            DirectIoStatus::Enabled => assert_eq!(text, "O_DIRECT"),
            DirectIoStatus::Fallback(reason) => {
                assert!(text.contains("buffered"));
                assert!(!reason.is_empty());
            }
        }
    }

    #[test]
    fn unaligned_page_size_falls_back_to_buffered() {
        let device = RealFileDevice::temp_with_page_size(1000).unwrap();
        assert!(!device.direct_io().is_direct());
        let mut file = device.create("odd").unwrap();
        let page = vec![9u8; 1000];
        file.write_page(0, &page).unwrap();
        let mut buf = vec![0u8; 1000];
        file.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, page);
    }

    #[test]
    fn sparse_holes_read_back_as_zeroes() {
        let device = RealFileDevice::temp().unwrap();
        let page_size = device.page_size();
        let mut file = device.create("sparse").unwrap();
        let page = vec![5u8; page_size];
        file.write_page(3, &page).unwrap();
        assert_eq!(file.num_pages(), 4);
        let mut buf = vec![1u8; page_size];
        file.read_page(1, &mut buf).unwrap();
        assert!(buf.iter().all(|b| *b == 0));
    }

    #[test]
    fn temp_root_removed_after_last_handle() {
        let device = RealFileDevice::temp().unwrap();
        let root = device.root().to_path_buf();
        let mut file = device.create("f").unwrap();
        drop(device);
        assert!(root.exists(), "open page file keeps the root alive");
        let page = vec![0u8; file.page_size()];
        file.write_page(0, &page).unwrap();
        drop(file);
        assert!(!root.exists());
    }

    #[test]
    fn same_root_twice_is_rejected_across_backends() {
        let root = std::env::temp_dir().join(format!("twrs-real-collide-{}", std::process::id()));
        let first = RealFileDevice::at(&root, 4096).unwrap();
        // A second device over the live root must error cleanly.
        assert!(matches!(
            RealFileDevice::at(&root, 4096),
            Err(StorageError::DeviceRootBusy(_))
        ));
        drop(first);
        // Dropping the last owner frees the root for reuse.
        drop(RealFileDevice::at(&root, 4096).unwrap());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn counters_follow_the_shared_seek_rule() {
        let device = RealFileDevice::temp().unwrap();
        let page_size = device.page_size();
        let page = vec![0u8; page_size];
        let mut file = device.create("g").unwrap();
        for i in 0..3 {
            file.write_page(i, &page).unwrap();
        }
        let mut buf = vec![0u8; page_size];
        for i in 0..3 {
            file.read_page(i, &mut buf).unwrap();
        }
        let stats = device.stats();
        assert_eq!(stats.counters.pages_written, 3);
        assert_eq!(stats.counters.pages_read, 3);
        // Initial positioning only: sequential reads, writes never seek.
        assert_eq!(stats.counters.seeks, 1);
        // The "real" model charges nothing — wall clock is the only time.
        assert_eq!(stats.simulated_time(), std::time::Duration::ZERO);
    }
}
