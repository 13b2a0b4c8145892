//! Device specs: the one string grammar every layer uses to obtain a device.
//!
//! CLIs, bench configs and service callers describe storage as a spec
//! string and let [`DeviceSpec::build`] construct the backend, instead of
//! hard-wiring a constructor:
//!
//! ```text
//! sim[:<model>[:<page_size>]]     an in-memory simulated disk
//! real[:<path>[:<page_size>]]     real files, O_DIRECT where supported
//! striped:<n>:<spec>              n identical members behind one stripe
//! striped:[<spec>,<spec>,…]       an explicit (possibly mixed) member list
//! ```
//!
//! Examples: `"sim"` (the default `hdd-7200` model), `"sim:nvme"`,
//! `"sim:pmem:8192"`, `"real"` (a self-cleaning temp directory),
//! `"real:/mnt/bench"`, `"real:/mnt/bench:8192"`, `"striped:2:sim:nvme"`,
//! `"striped:[sim:nvme,real:/mnt/a]"`. The model names are the catalog ids
//! of [`ModelId`]; when a `real` spec contains a colon after the path, the
//! final segment must be a page size in bytes, and the path itself must not
//! contain a colon. Striped members follow the same grammar recursively,
//! except that stripes do not nest, hold at most 64 members, and member
//! paths must not contain commas (the list separator).
//!
//! [`build`](DeviceSpec::build) returns an [`AnyDevice`] — a closed enum
//! over the backends whose [`Forward`](crate::device::Forward) target is
//! the one it holds (and is `Clone + Send + 'static`), so it plugs into
//! `SortJob`/`SortService` like any concrete device.

use crate::device::{SimDevice, StorageDevice};
use crate::error::{Result, StorageError};
use crate::model::ModelId;
use crate::page::DEFAULT_PAGE_SIZE;
use crate::real_device::{DirectIoStatus, RealFileDevice};
use crate::striped::StripedDevice;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// The most members a parsed stripe may have (the bench matrix uses 4).
const MAX_STRIPE_MEMBERS: usize = 64;

/// A parsed device description: which backend, configured how.
///
/// Parse one from a string (`"sim:nvme"`, `"real:/path:8192"`) or build it
/// programmatically; [`DeviceSpec::build`] then constructs the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceSpec {
    /// An in-memory [`SimDevice`] charging costs from a catalog model.
    Sim {
        /// Catalog model the device charges access costs from.
        model: ModelId,
        /// Page size in bytes.
        page_size: usize,
    },
    /// A [`RealFileDevice`]; `path: None` means a self-cleaning temp
    /// directory.
    Real {
        /// Root directory for the device's files (kept on drop); `None`
        /// uses a fresh temp directory removed on drop.
        path: Option<PathBuf>,
        /// Page size in bytes.
        page_size: usize,
    },
    /// A [`StripedDevice`] over the listed member specs (round-robin file
    /// placement; members must agree on the page size and must not
    /// themselves be striped).
    Striped {
        /// The member device specs, in stripe order.
        members: Vec<DeviceSpec>,
    },
}

impl DeviceSpec {
    /// A simulated device with the given catalog model and the default page
    /// size.
    pub fn sim(model: ModelId) -> Self {
        DeviceSpec::Sim {
            model,
            page_size: DEFAULT_PAGE_SIZE,
        }
    }

    /// A stripe of `count` members built from the same spec.
    pub fn striped(count: usize, member: DeviceSpec) -> Self {
        DeviceSpec::Striped {
            members: vec![member; count],
        }
    }

    /// The page size the spec will build with.
    pub fn page_size(&self) -> usize {
        match self {
            DeviceSpec::Sim { page_size, .. } | DeviceSpec::Real { page_size, .. } => *page_size,
            DeviceSpec::Striped { members } => members
                .first()
                .map(DeviceSpec::page_size)
                .unwrap_or(DEFAULT_PAGE_SIZE),
        }
    }

    /// Constructs the described device.
    pub fn build(&self) -> Result<AnyDevice> {
        match self {
            DeviceSpec::Sim { model, page_size } => {
                Ok(AnyDevice::Sim(SimDevice::custom(*page_size, *model)))
            }
            DeviceSpec::Real {
                path: Some(path),
                page_size,
            } => Ok(AnyDevice::Real(RealFileDevice::at(path, *page_size)?)),
            DeviceSpec::Real {
                path: None,
                page_size,
            } => Ok(AnyDevice::Real(RealFileDevice::temp_with_page_size(
                *page_size,
            )?)),
            DeviceSpec::Striped { members } => {
                let built = members
                    .iter()
                    .map(DeviceSpec::build)
                    .collect::<Result<Vec<_>>>()?;
                Ok(AnyDevice::Striped(StripedDevice::new(built)?))
            }
        }
    }
}

impl Default for DeviceSpec {
    /// `sim:hdd-7200` — the historical default backend and model.
    fn default() -> Self {
        DeviceSpec::sim(ModelId::Hdd7200)
    }
}

impl fmt::Display for DeviceSpec {
    /// The canonical spec string, parseable back via [`FromStr`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceSpec::Sim { model, page_size } => {
                if *page_size == DEFAULT_PAGE_SIZE {
                    write!(f, "sim:{model}")
                } else {
                    write!(f, "sim:{model}:{page_size}")
                }
            }
            DeviceSpec::Real { path, page_size } => {
                match path {
                    Some(p) => write!(f, "real:{}", p.display())?,
                    None => write!(f, "real")?,
                }
                if *page_size != DEFAULT_PAGE_SIZE {
                    // `real:<ps>` alone would read as a path; spell the
                    // empty path out so the string round-trips.
                    if path.is_none() {
                        write!(f, ":")?;
                    }
                    write!(f, ":{page_size}")?;
                }
                Ok(())
            }
            DeviceSpec::Striped { members } => {
                // Homogeneous stripes render in the compact count form;
                // mixed ones spell the member list out.
                if let Some(first) = members.first() {
                    if members.iter().all(|m| m == first) {
                        return write!(f, "striped:{}:{first}", members.len());
                    }
                }
                write!(f, "striped:[")?;
                for (index, member) in members.iter().enumerate() {
                    if index > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{member}")?;
                }
                write!(f, "]")
            }
        }
    }
}

fn invalid(spec: &str, reason: impl Into<String>) -> StorageError {
    StorageError::InvalidDeviceSpec {
        spec: spec.to_string(),
        reason: reason.into(),
    }
}

fn too_many_members(spec: &str) -> StorageError {
    invalid(
        spec,
        format!("a stripe has at most {MAX_STRIPE_MEMBERS} members"),
    )
}

fn parse_page_size(spec: &str, text: &str) -> Result<usize> {
    let size: usize = text
        .parse()
        .map_err(|_| invalid(spec, format!("page size {text:?} is not a number")))?;
    if size == 0 {
        return Err(invalid(spec, "page size must be non-zero"));
    }
    Ok(size)
}

impl FromStr for DeviceSpec {
    type Err = StorageError;

    fn from_str(s: &str) -> Result<DeviceSpec> {
        let (kind, rest) = match s.split_once(':') {
            Some((kind, rest)) => (kind, Some(rest)),
            None => (s, None),
        };
        match kind {
            "sim" => {
                let (model_text, size_text) = match rest.map(|r| r.split_once(':')) {
                    None => ("", None),
                    Some(None) => (rest.unwrap_or(""), None),
                    Some(Some((model, size))) => (model, Some(size)),
                };
                let model = if model_text.is_empty() {
                    ModelId::Hdd7200
                } else {
                    model_text.parse()?
                };
                let page_size = match size_text {
                    Some(text) => parse_page_size(s, text)?,
                    None => DEFAULT_PAGE_SIZE,
                };
                Ok(DeviceSpec::Sim { model, page_size })
            }
            "real" => {
                // The page size, when present, is the segment after the
                // LAST colon (paths themselves must not contain colons).
                let (path_text, size_text) = match rest.map(|r| r.rsplit_once(':')) {
                    None => ("", None),
                    Some(None) => (rest.unwrap_or(""), None),
                    Some(Some((path, size))) => (path, Some(size)),
                };
                let page_size = match size_text {
                    Some(text) => parse_page_size(s, text)?,
                    None => DEFAULT_PAGE_SIZE,
                };
                if path_text.contains(':') {
                    return Err(invalid(s, "real paths must not contain ':'"));
                }
                let path = if path_text.is_empty() {
                    None
                } else {
                    Some(PathBuf::from(path_text))
                };
                Ok(DeviceSpec::Real { path, page_size })
            }
            "striped" => {
                let rest = rest.ok_or_else(|| {
                    invalid(
                        s,
                        "striped needs members: striped:<n>:<spec> or striped:[<spec>,…]",
                    )
                })?;
                let members = if let Some(body) = rest.strip_prefix('[') {
                    let body = body
                        .strip_suffix(']')
                        .ok_or_else(|| invalid(s, "unterminated member list (missing ']')"))?;
                    if body.trim().is_empty() {
                        return Err(invalid(s, "a stripe needs at least one member"));
                    }
                    if body.split(',').count() > MAX_STRIPE_MEMBERS {
                        return Err(too_many_members(s));
                    }
                    body.split(',')
                        .map(|member| member.trim().parse::<DeviceSpec>())
                        .collect::<Result<Vec<_>>>()?
                } else {
                    let (count_text, member_text) = rest.split_once(':').ok_or_else(|| {
                        invalid(
                            s,
                            "count form is striped:<n>:<spec>, e.g. striped:2:sim:nvme",
                        )
                    })?;
                    let count: usize = count_text.parse().map_err(|_| {
                        invalid(s, format!("member count {count_text:?} is not a number"))
                    })?;
                    if count == 0 {
                        return Err(invalid(s, "member count must be non-zero"));
                    }
                    if count > MAX_STRIPE_MEMBERS {
                        return Err(too_many_members(s));
                    }
                    vec![member_text.parse::<DeviceSpec>()?; count]
                };
                if members
                    .iter()
                    .any(|m| matches!(m, DeviceSpec::Striped { .. }))
                {
                    return Err(invalid(s, "stripes do not nest"));
                }
                Ok(DeviceSpec::Striped { members })
            }
            other => Err(invalid(
                s,
                format!("unknown backend {other:?} (expected \"sim\", \"real\" or \"striped\")"),
            )),
        }
    }
}

/// The device an evaluated [`DeviceSpec`] produces: a closed enum over the
/// backends, forwarding [`StorageDevice`] to whichever it holds.
#[derive(Clone)]
pub enum AnyDevice {
    /// An in-memory simulated device.
    Sim(SimDevice),
    /// A real-file device (O_DIRECT where supported).
    Real(RealFileDevice),
    /// A stripe of member devices behind one front.
    Striped(StripedDevice),
}

impl AnyDevice {
    /// The direct-I/O status when the backend is real; `None` for a
    /// simulated or striped device (a stripe may mix backends — ask each
    /// of its [`member_devices`](StripedDevice::member_devices)).
    pub fn direct_io(&self) -> Option<&DirectIoStatus> {
        match self {
            AnyDevice::Sim(_) | AnyDevice::Striped(_) => None,
            AnyDevice::Real(device) => Some(device.direct_io()),
        }
    }

    /// The striped backend, when this device is one.
    pub fn as_striped(&self) -> Option<&StripedDevice> {
        match self {
            AnyDevice::Striped(device) => Some(device),
            _ => None,
        }
    }
}

impl crate::device::Forward for AnyDevice {
    fn target(&self) -> &dyn StorageDevice {
        match self {
            AnyDevice::Sim(d) => d,
            AnyDevice::Real(d) => d,
            AnyDevice::Striped(d) => d,
        }
    }

    fn shard_view(&self, index: usize) -> Self {
        match self {
            AnyDevice::Striped(d) => AnyDevice::Striped(d.shard_view(index)),
            other => other.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_specs_parse_with_defaults() {
        assert_eq!("sim".parse::<DeviceSpec>().unwrap(), DeviceSpec::default());
        assert_eq!(
            "sim:nvme".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::sim(ModelId::Nvme)
        );
        assert_eq!(
            "sim:pmem:8192".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::Sim {
                model: ModelId::Pmem,
                page_size: 8192
            }
        );
        assert_eq!(
            "sim::8192".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::Sim {
                model: ModelId::Hdd7200,
                page_size: 8192
            }
        );
    }

    #[test]
    fn real_specs_parse_paths_and_page_sizes() {
        assert_eq!(
            "real".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::Real {
                path: None,
                page_size: DEFAULT_PAGE_SIZE
            }
        );
        assert_eq!(
            "real:/mnt/bench".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::Real {
                path: Some(PathBuf::from("/mnt/bench")),
                page_size: DEFAULT_PAGE_SIZE
            }
        );
        assert_eq!(
            "real:/mnt/bench:8192".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::Real {
                path: Some(PathBuf::from("/mnt/bench")),
                page_size: 8192
            }
        );
        assert_eq!(
            "real::8192".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::Real {
                path: None,
                page_size: 8192
            }
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for bad in [
            "",
            "disk",
            "sim:floppy",
            "sim:nvme:zero",
            "sim:nvme:0",
            "real:/p:big",
        ] {
            let err = bad.parse::<DeviceSpec>();
            assert!(err.is_err(), "{bad:?} should not parse");
        }
        assert!(matches!(
            "sim:floppy".parse::<DeviceSpec>(),
            Err(StorageError::UnknownDeviceModel(_))
        ));
        assert!(matches!(
            "disk".parse::<DeviceSpec>(),
            Err(StorageError::InvalidDeviceSpec { .. })
        ));
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "sim:hdd-7200",
            "sim:nvme",
            "sim:pmem:8192",
            "real",
            "real:/mnt/bench",
            "real:/mnt/bench:8192",
            "real::8192",
        ] {
            let spec: DeviceSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text);
            assert_eq!(spec.to_string().parse::<DeviceSpec>().unwrap(), spec);
        }
        // Non-canonical inputs normalize.
        assert_eq!(
            "sim".parse::<DeviceSpec>().unwrap().to_string(),
            "sim:hdd-7200"
        );
    }

    #[test]
    fn striped_specs_parse_in_both_forms() {
        assert_eq!(
            "striped:2:sim:nvme".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::striped(2, DeviceSpec::sim(ModelId::Nvme))
        );
        assert_eq!(
            "striped:[sim:nvme,sim:hdd-7200]"
                .parse::<DeviceSpec>()
                .unwrap(),
            DeviceSpec::Striped {
                members: vec![
                    DeviceSpec::sim(ModelId::Nvme),
                    DeviceSpec::sim(ModelId::Hdd7200)
                ],
            }
        );
        // Member specs keep their own page-size grammar; whitespace around
        // the list separator is tolerated.
        assert_eq!(
            "striped:[sim:pmem:8192, real:/mnt/a]"
                .parse::<DeviceSpec>()
                .unwrap(),
            DeviceSpec::Striped {
                members: vec![
                    DeviceSpec::Sim {
                        model: ModelId::Pmem,
                        page_size: 8192
                    },
                    DeviceSpec::Real {
                        path: Some(PathBuf::from("/mnt/a")),
                        page_size: DEFAULT_PAGE_SIZE
                    },
                ],
            }
        );
        assert_eq!(
            "striped:4:sim:hdd-7200"
                .parse::<DeviceSpec>()
                .unwrap()
                .page_size(),
            DEFAULT_PAGE_SIZE
        );
    }

    #[test]
    fn striped_specs_round_trip_and_normalize() {
        for text in [
            "striped:2:sim:nvme",
            "striped:4:sim:hdd-7200",
            "striped:[sim:nvme,sim:hdd-7200]",
            "striped:[sim:nvme,real:/mnt/a]",
        ] {
            let spec: DeviceSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text);
            assert_eq!(spec.to_string().parse::<DeviceSpec>().unwrap(), spec);
        }
        // A homogeneous member list normalizes to the compact count form.
        assert_eq!(
            "striped:[sim:nvme,sim:nvme]"
                .parse::<DeviceSpec>()
                .unwrap()
                .to_string(),
            "striped:2:sim:nvme"
        );
    }

    #[test]
    fn bad_striped_specs_are_rejected_with_reasons() {
        for bad in [
            "striped",                      // no members at all
            "striped:[]",                   // empty member list
            "striped:[ ]",                  // still empty
            "striped:[sim:nvme",            // missing ']'
            "striped:0:sim:nvme",           // zero count
            "striped:two:sim:nvme",         // non-numeric count
            "striped:2",                    // count without a member
            "striped:2:striped:2:sim:nvme", // nested, count form
            "striped:[striped:2:sim:nvme]", // nested, list form
            "striped:[sim:floppy]",         // bad member model
        ] {
            assert!(
                bad.parse::<DeviceSpec>().is_err(),
                "{bad:?} should not parse"
            );
        }
        assert!(matches!(
            "striped:[striped:2:sim:nvme]".parse::<DeviceSpec>(),
            Err(StorageError::InvalidDeviceSpec { .. })
        ));
        assert!(matches!(
            "striped:[sim:floppy]".parse::<DeviceSpec>(),
            Err(StorageError::UnknownDeviceModel(_))
        ));
    }

    #[test]
    fn striped_build_produces_a_working_stripe() {
        let device = "striped:3:sim:nvme"
            .parse::<DeviceSpec>()
            .unwrap()
            .build()
            .unwrap();
        assert!(device.direct_io().is_none());
        assert_eq!(device.stripe_members(), 3);
        let striped = device.as_striped().expect("striped backend");
        assert_eq!(striped.members(), 3);
        let page = vec![5u8; device.page_size()];
        let mut f = device.create("x").unwrap();
        f.write_page(0, &page).unwrap();
        let mut buf = vec![0u8; device.page_size()];
        device.open("x").unwrap().read_page(0, &mut buf).unwrap();
        assert_eq!(buf, page);
        // Per-member counters fold into the device totals.
        let per_member: u64 = striped.member_stats().iter().map(|s| s.pages_total()).sum();
        assert_eq!(per_member, device.stats().pages_total());
        // Mismatched member page sizes fail at build time.
        assert!(matches!(
            "striped:[sim:nvme:4096,sim:nvme:8192]"
                .parse::<DeviceSpec>()
                .unwrap()
                .build(),
            Err(StorageError::BadStripe(_))
        ));
    }

    #[test]
    fn wall_clock_latency_follows_the_backends() {
        let build = |spec: &str| spec.parse::<DeviceSpec>().unwrap().build().unwrap();
        for (spec, latency) in [
            ("sim:nvme", false),
            ("real:", true),
            ("striped:2:sim:hdd-7200", false),
            ("striped:[sim:nvme,real:]", true),
        ] {
            let device = build(spec);
            assert_eq!(device.has_wall_clock_latency(), latency, "{spec}");
            // Wrappers and shard views answer like the device they wrap.
            let scoped = crate::scoped::ScopedDevice::new(device.shard_view(1));
            assert_eq!(scoped.has_wall_clock_latency(), latency, "{spec}");
        }
        let stripe = build("striped:[sim:nvme,real:]");
        let members = stripe.as_striped().unwrap().member_devices();
        assert!(members[0].direct_io().is_none());
        assert!(members[1].direct_io().is_some());
    }

    #[test]
    fn build_produces_working_devices() {
        let sim = DeviceSpec::sim(ModelId::Nvme).build().unwrap();
        assert!(sim.direct_io().is_none());
        let real = "real".parse::<DeviceSpec>().unwrap().build().unwrap();
        assert!(real.direct_io().is_some());
        for device in [&sim, &real] {
            let page = vec![7u8; device.page_size()];
            let mut f = device.create("x").unwrap();
            f.write_page(0, &page).unwrap();
            let mut buf = vec![0u8; device.page_size()];
            device.open("x").unwrap().read_page(0, &mut buf).unwrap();
            assert_eq!(buf, page);
        }
    }
}
