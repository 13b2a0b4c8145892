//! Storage substrate for the two-way replacement selection reproduction.
//!
//! External sorting performance is dominated by how runs are written to and
//! read back from secondary storage (paper Chapter 2 and Appendix A). The
//! original evaluation ran against a 2010-era SATA disk opened with direct
//! I/O; this crate substitutes that hardware with a small, explicit storage
//! model that preserves the behaviour the algorithms care about:
//!
//! * a page-oriented [`device::StorageDevice`] abstraction with one
//!   backend per medium — [`device::SimDevice`], an in-memory simulated
//!   disk with full I/O accounting (for deterministic experiments such as
//!   the fan-in analysis of §6.1.1), and [`real_device::RealFileDevice`],
//!   real files in a directory, opened with `O_DIRECT` where the
//!   filesystem supports it (for wall-clock benchmarks);
//! * [`device::Forward`] — the one forwarding layer: a device wrapper names
//!   the device it wraps and overrides only what it changes;
//! * [`io_stats::IoStats`] — counters for sequential page transfers and
//!   seeks plus the simulated elapsed time, charged access by access under
//!   one seek rule priced by an [`io_stats::DiskModel`];
//! * [`model`] — the named catalog of those prices ([`model::ModelId`]:
//!   `hdd-7200`, `sata-ssd`, `nvme`, `pmem`);
//! * [`spec`] — [`spec::DeviceSpec`], the `"sim:nvme"` / `"real:/path"` /
//!   `"striped:2:sim:nvme"` string grammar that is the one way CLIs and
//!   benches obtain a device;
//! * [`striped`] — [`striped::StripedDevice`], N member devices behind one
//!   front with round-robin per-file placement, independent per-disk
//!   [`io_stats::IoStats`] and shard-pinned views for the parallel sorter;
//! * [`contention`] — the fair-share slowdown charged while several request
//!   streams ([`contention::IoClientGuard`]) are admitted to one stripe;
//! * [`run_file`] — [`run_file::RunWriter`], the buffered,
//!   forward-sequential writer of a forward run file of fixed-size records,
//!   and [`run_file::RunReader`], the one reader of a run in any format: an
//!   ordered list of extents read ascending;
//! * [`reverse_file`] — [`reverse_file::ReverseRunWriter`] and the
//!   Appendix A file format it writes, which stores a stream of
//!   *decreasing* records so that the merge phase can still read every
//!   file forward (fixed-size multi-page files written back to front with
//!   a header page), opened as extents of a `RunReader`;
//! * [`spill`] — naming and lifecycle management for the temporary files of
//!   a run set, and the one function that removes a run's files.
//!
//! The two writers are the two on-disk run formats. Run generation drives
//! them through one lazy run builder in `twrs-extsort` (which creates a
//! run's file on its first record), and a merge writes its output with a
//! `RunWriter` created before it reads any input record.
//!
//! Records are serialized through the [`record::FixedSizeRecord`] trait so
//! the workload crate can define its own record layout without this crate
//! depending on it.

#![warn(missing_docs)]

pub mod bytes;
pub mod contention;
pub mod device;
pub mod error;
pub mod io_stats;
pub mod model;
pub mod page;
pub mod real_device;
pub mod record;
pub mod reverse_file;
pub mod run_file;
pub mod scoped;
pub mod spec;
pub mod spill;
pub mod striped;

pub use bytes::{array_at, u32_le_at, u64_le_at};
pub use contention::{ContentionState, IoClientGuard};
pub use device::{PageFile, SimDevice, StorageDevice};
pub use error::{Result, StorageError};
pub use io_stats::{DiskModel, IoCounters, IoStats, IoStatsSnapshot};
pub use model::ModelId;
pub use page::{PageBuf, DEFAULT_PAGE_SIZE};
pub use real_device::{DirectIoStatus, RealFileDevice};
pub use record::{FixedSizeRecord, SortableRecord};
pub use reverse_file::ReverseRunWriter;
pub use run_file::{RunReader, RunWriter};
pub use scoped::ScopedDevice;
pub use spec::{AnyDevice, DeviceSpec};
pub use spill::{remove_run_files, SpillNamer};
pub use striped::StripedDevice;
