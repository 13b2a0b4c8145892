//! The device-model catalog: named parameter sets for the one cost rule.
//!
//! The paper's conclusions — run-length wins, seek-dominated merge costs,
//! the 2WRS victim-buffer payoff — were measured against one spinning SATA
//! disk. Every device prices page accesses with one rule (see
//! [`DiskModel`]): sequential transfers plus seeks, with writes absorbed by
//! the write-behind cache. A sort can therefore be re-costed under any
//! storage technology by swapping the rule's parameters: every catalog
//! model produces the same page/seek *counts*, only the simulated time
//! they imply differs. `hdd-7200` reproduces the historical default bit for
//! bit; `nvme` and `pmem` answer the question the paper could not: what
//! remains of the seek-dominated argument when seeks are nearly free?
//!
//! Models are named by [`ModelId`] (parsed from ids like `"nvme"`, used in
//! [`DeviceSpec`](crate::spec::DeviceSpec) strings and bench-matrix
//! scenario ids); an ad-hoc [`DiskModel`] prices accesses the same way.

use crate::error::{Result, StorageError};
use crate::io_stats::DiskModel;
use std::fmt;
use std::str::FromStr;

/// The named device-model catalog.
///
/// | id         | seek µs | rotational µs | transfer µs/page | in the spirit of |
/// |------------|--------:|--------------:|-----------------:|------------------|
/// | `hdd-7200` |   8 000 |         4 200 |               50 | the paper's 7 200 rpm SATA disk (~80 MB/s) |
/// | `sata-ssd` |      90 |             0 |                8 | a SATA 3 SSD (~500 MB/s, ~90 µs random read) |
/// | `nvme`     |      10 |             0 |             1.25 | a PCIe 4 NVMe drive (~3.2 GB/s) |
/// | `pmem`     |     0.3 |             0 |             0.05 | byte-addressable persistent memory |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelId {
    /// The paper's 7 200 rpm spinning disk — the historical default model,
    /// parameter-for-parameter identical to `DiskModel::default()`.
    #[default]
    Hdd7200,
    /// A SATA 3 solid-state drive: seeks two orders of magnitude cheaper.
    SataSsd,
    /// An NVMe flash drive: seeks nearly free, transfers 40× faster.
    Nvme,
    /// Persistent memory: both terms effectively vanish.
    Pmem,
}

impl ModelId {
    /// Every catalog model, in decreasing seek-cost order.
    pub fn all() -> [ModelId; 4] {
        [
            ModelId::Hdd7200,
            ModelId::SataSsd,
            ModelId::Nvme,
            ModelId::Pmem,
        ]
    }

    /// The catalog id (`"hdd-7200"`, `"sata-ssd"`, `"nvme"`, `"pmem"`).
    pub fn name(&self) -> &'static str {
        match self {
            ModelId::Hdd7200 => "hdd-7200",
            ModelId::SataSsd => "sata-ssd",
            ModelId::Nvme => "nvme",
            ModelId::Pmem => "pmem",
        }
    }

    /// The latency parameters of this catalog entry.
    pub fn params(&self) -> DiskModel {
        match self {
            ModelId::Hdd7200 => DiskModel {
                seek_us: 8_000.0,
                rotational_us: 4_200.0,
                transfer_page_us: 50.0,
            },
            ModelId::SataSsd => DiskModel {
                seek_us: 90.0,
                rotational_us: 0.0,
                transfer_page_us: 8.0,
            },
            ModelId::Nvme => DiskModel {
                seek_us: 10.0,
                rotational_us: 0.0,
                transfer_page_us: 1.25,
            },
            ModelId::Pmem => DiskModel {
                seek_us: 0.3,
                rotational_us: 0.0,
                transfer_page_us: 0.05,
            },
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ModelId {
    type Err = StorageError;

    fn from_str(s: &str) -> Result<ModelId> {
        ModelId::all()
            .into_iter()
            .find(|id| id.name() == s)
            .ok_or_else(|| StorageError::UnknownDeviceModel(s.to_string()))
    }
}

impl From<ModelId> for DiskModel {
    fn from(id: ModelId) -> Self {
        id.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_stats::IoStats;

    #[test]
    fn hdd_7200_matches_the_historical_default_parameters() {
        assert_eq!(ModelId::Hdd7200.params(), DiskModel::default());
        assert_eq!(ModelId::default(), ModelId::Hdd7200);
    }

    #[test]
    fn catalog_ids_round_trip_through_from_str() {
        for id in ModelId::all() {
            assert_eq!(id.name().parse::<ModelId>().unwrap(), id);
            assert_eq!(id.to_string(), id.name());
            assert_eq!(DiskModel::from(id), id.params());
        }
        assert!(matches!(
            "floppy".parse::<ModelId>(),
            Err(StorageError::UnknownDeviceModel(_))
        ));
    }

    #[test]
    fn seek_detection_is_shared_across_the_catalog() {
        // Same access sequence → same seek flags on every model; only the
        // charged microseconds differ.
        let sequence = [
            (1, 0, 1, false), // cold read: seek
            (1, 1, 1, false), // sequential read: no seek
            (2, 0, 1, false), // file switch: seek
            (2, 5, 1, true),  // write: never a seek
            (2, 9, 2, false), // jump within file: seek
        ];
        for id in ModelId::all() {
            let stats = IoStats::new(id.into());
            let flags: Vec<bool> = sequence
                .iter()
                .map(|&(f, p, n, w)| {
                    let before = stats.snapshot().counters.seeks;
                    stats.record_access(f, p, n, w);
                    stats.snapshot().counters.seeks > before
                })
                .collect();
            assert_eq!(flags, [true, false, true, false, true], "{id}");
        }
    }

    #[test]
    fn models_order_by_seek_cost() {
        let cost = |id: ModelId| {
            let stats = IoStats::new(id.into());
            stats.record_access(1, 0, 1, false);
            stats.snapshot().sim_io
        };
        assert!(cost(ModelId::Hdd7200) > cost(ModelId::SataSsd));
        assert!(cost(ModelId::SataSsd) > cost(ModelId::Nvme));
        assert!(cost(ModelId::Nvme) > cost(ModelId::Pmem));
    }
}
