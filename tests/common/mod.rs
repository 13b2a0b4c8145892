//! Helpers shared by the facade integration suites.
//!
//! Every suite that declares `mod common;` compiles this module on its own
//! and uses only part of it.
#![allow(dead_code)]

use std::sync::Arc;
use two_way_replacement_selection::prelude::*;
use two_way_replacement_selection::storage::Result as StorageResult;
use two_way_replacement_selection::storage::{device, PageFile};

/// Every page of `name` on `device`, so comparisons cover the exact bytes
/// (headers, payloads and trailing-page padding included).
pub fn file_bytes<D: StorageDevice + ?Sized>(device: &D, name: &str) -> Vec<u8> {
    let mut file = device.open(name).expect("output exists");
    let mut bytes = Vec::new();
    let mut page = vec![0u8; device.page_size()];
    for index in 0..file.num_pages() {
        file.read_page(index, &mut page).expect("page readable");
        bytes.extend_from_slice(&page);
    }
    bytes
}

/// One page read or write a [`TestDevice`] is about to perform.
#[derive(Debug, Clone, Copy)]
pub struct PageOp<'a> {
    /// The file's name on the device.
    pub file: &'a str,
    /// The page's index in the file.
    pub page: u64,
    /// `true` for a write, `false` for a read.
    pub write: bool,
}

type Hook = dyn Fn(PageOp<'_>) -> StorageResult<()> + Send + Sync;

/// The one test double of the suites: a device that forwards every call to
/// `inner`, answers [`has_wall_clock_latency`](StorageDevice::has_wall_clock_latency)
/// as told, and calls a hook before each page read and write of every file
/// it creates or opens. The hook may count, record, return an error (which
/// the operation then returns without touching `inner`) or panic.
#[derive(Clone)]
pub struct TestDevice<D = SimDevice> {
    inner: D,
    latency: bool,
    hook: Arc<Hook>,
}

impl TestDevice {
    /// A simulated `hdd-7200` disk without latency whose hook lets every
    /// page through.
    pub fn sim() -> Self {
        TestDevice::new(SimDevice::with_model(ModelId::Hdd7200))
    }
}

impl<D: StorageDevice + Clone + 'static> TestDevice<D> {
    /// Wraps `inner`, claiming no latency, with a hook that lets every page
    /// through.
    pub fn new(inner: D) -> Self {
        TestDevice {
            inner,
            latency: false,
            hook: Arc::new(|_| Ok(())),
        }
    }

    /// Answers `latency` when asked whether page operations take wall-clock
    /// time, so a threaded sort starts its helper threads or not.
    pub fn latency(mut self, latency: bool) -> Self {
        self.latency = latency;
        self
    }

    /// Calls `hook` before every page read and write.
    pub fn on_page(
        mut self,
        hook: impl Fn(PageOp<'_>) -> StorageResult<()> + Send + Sync + 'static,
    ) -> Self {
        self.hook = Arc::new(hook);
        self
    }

    fn hooked(&self, name: &str, inner: Box<dyn PageFile>) -> Box<dyn PageFile> {
        Box::new(HookedFile {
            inner,
            name: name.to_string(),
            hook: Arc::clone(&self.hook),
        })
    }
}

struct HookedFile {
    inner: Box<dyn PageFile>,
    name: String,
    hook: Arc<Hook>,
}

impl HookedFile {
    fn call(&self, page: u64, write: bool) -> StorageResult<()> {
        (self.hook)(PageOp {
            file: &self.name,
            page,
            write,
        })
    }
}

impl PageFile for HookedFile {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&mut self, index: u64, buf: &mut [u8]) -> StorageResult<()> {
        self.call(index, false)?;
        self.inner.read_page(index, buf)
    }

    fn write_page(&mut self, index: u64, data: &[u8]) -> StorageResult<()> {
        self.call(index, true)?;
        self.inner.write_page(index, data)
    }

    fn flush(&mut self) -> StorageResult<()> {
        self.inner.flush()
    }
}

impl<D: StorageDevice + Clone + 'static> device::Forward for TestDevice<D> {
    fn target(&self) -> &dyn StorageDevice {
        &self.inner
    }

    fn shard_view(&self, index: usize) -> Self {
        TestDevice {
            inner: self.inner.shard_view(index),
            ..self.clone()
        }
    }

    fn create(&self, name: &str) -> StorageResult<Box<dyn PageFile>> {
        Ok(self.hooked(name, self.inner.create(name)?))
    }

    fn open(&self, name: &str) -> StorageResult<Box<dyn PageFile>> {
        Ok(self.hooked(name, self.inner.open(name)?))
    }

    fn has_wall_clock_latency(&self) -> bool {
        self.latency
    }
}
