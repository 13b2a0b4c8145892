//! Naming and lifecycle helpers for the temporary files of a sort.
//!
//! A single external sort creates many short-lived files: one per run during
//! run generation, plus intermediate merge outputs. [`SpillNamer`] hands out
//! unique, human-readable names within a namespace so concurrent sorts on
//! the same device never collide, and remembers what it created so the whole
//! set can be dropped at the end. [`remove_run_files`] removes one run's
//! files, whatever its format.

use crate::device::StorageDevice;
use crate::error::Result;
use crate::reverse_file::part_name;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocates unique file names inside a namespace and tracks them for
/// cleanup.
#[derive(Debug)]
pub struct SpillNamer {
    namespace: String,
    counter: AtomicU64,
    created: parking_lot::Mutex<Vec<String>>,
}

impl SpillNamer {
    /// Creates a namer whose files are all prefixed with `namespace`.
    pub fn new(namespace: impl Into<String>) -> Self {
        SpillNamer {
            namespace: namespace.into(),
            counter: AtomicU64::new(0),
            created: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Returns the next unique name with the given role (e.g. `"run"`,
    /// `"merge"`).
    pub fn next_name(&self, role: &str) -> String {
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        let name = format!("{}.{}.{:06}", self.namespace, role, id);
        self.created.lock().push(name.clone());
        name
    }

    /// Names handed out so far, in allocation order.
    pub fn created(&self) -> Vec<String> {
        self.created.lock().clone()
    }

    /// Number of names handed out so far.
    pub fn count(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Removes every file this namer created that still exists on `device`,
    /// through [`remove_run_files`].
    pub fn cleanup(&self, device: &dyn StorageDevice) -> Result<()> {
        let created = self.created.lock().clone();
        created
            .iter()
            .try_for_each(|name| remove_run_files(device, name))
    }
}

/// Removes the run stored under `name`: the file of that name and every
/// reverse-run part file `<name>.partN`, whichever exist. Files already
/// removed are skipped silently.
pub fn remove_run_files(device: &dyn StorageDevice, name: &str) -> Result<()> {
    if device.exists(name) {
        device.remove(name)?;
    }
    let mut index = 0;
    while device.exists(&part_name(name, index)) {
        device.remove(&part_name(name, index))?;
        index += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::model::ModelId;

    #[test]
    fn names_are_unique_and_ordered() {
        let namer = SpillNamer::new("sort1");
        let a = namer.next_name("run");
        let b = namer.next_name("run");
        let c = namer.next_name("merge");
        assert_ne!(a, b);
        assert!(a.starts_with("sort1.run."));
        assert!(c.starts_with("sort1.merge."));
        assert_eq!(namer.count(), 3);
        assert_eq!(namer.created(), vec![a, b, c]);
    }

    #[test]
    fn cleanup_removes_created_files_and_parts() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("job");
        let run = namer.next_name("run");
        let rev = namer.next_name("rev");
        device.create(&run).unwrap();
        device.create(&format!("{rev}.part0")).unwrap();
        device.create(&format!("{rev}.part1")).unwrap();
        device.create("unrelated").unwrap();

        namer.cleanup(&device).unwrap();
        assert!(!device.exists(&run));
        assert!(!device.exists(&format!("{rev}.part0")));
        assert!(!device.exists(&format!("{rev}.part1")));
        assert!(device.exists("unrelated"));
    }

    #[test]
    fn cleanup_tolerates_already_removed_files() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("job");
        let name = namer.next_name("run");
        device.create(&name).unwrap();
        device.remove(&name).unwrap();
        namer.cleanup(&device).unwrap();
    }

    #[test]
    fn namespaces_do_not_collide() {
        let a = SpillNamer::new("a");
        let b = SpillNamer::new("b");
        assert_ne!(a.next_name("run"), b.next_name("run"));
    }
}
