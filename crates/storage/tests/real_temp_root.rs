//! A rejected `RealFileDevice::temp_with_page_size` must not leave its
//! `twrs-real-<pid>-<n>` root behind in the temp directory. This is its own
//! test binary so that no other test in the process creates temp roots
//! while it looks.

use twrs_storage::RealFileDevice;

/// This process's temp roots, by name.
fn temp_roots() -> Vec<String> {
    let prefix = format!("twrs-real-{}-", std::process::id());
    let mut names: Vec<String> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&prefix))
        .collect();
    names.sort_unstable();
    names
}

#[test]
fn rejected_page_size_leaves_no_temp_root() {
    let before = temp_roots();
    assert!(RealFileDevice::temp_with_page_size(0).is_err());
    assert_eq!(temp_roots(), before, "a rejected device leaked its root");
}
