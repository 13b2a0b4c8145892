//! Fixture-based self-tests for the rule catalog, plus the workspace
//! self-check: each rule is driven over a small inline source file and
//! must report (or not report) the expected finding at the expected line.

use twrs_lint::rules::{
    CANCEL_POLL, DEVICE_LAYER, LOCK_DISCIPLINE, NO_DETACHED_THREADS, NO_LIB_PANIC, SCOPED_IO,
};
use twrs_lint::{check_source, default_root, scan_workspace};

/// Findings of one rule as `(line, rule)` pairs, so tests pin both.
fn findings_for(path: &str, source: &str, rule: &str) -> Vec<u32> {
    check_source(path, source)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// -------------------------------------------------------------------------
// R1: no-lib-panic
// -------------------------------------------------------------------------

#[test]
fn r1_flags_panic_family_with_correct_lines() {
    let src = "\
pub fn go(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect(\"present\");
    if a > b {
        panic!(\"impossible\");
    }
    unreachable!()
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", src, NO_LIB_PANIC),
        vec![2, 3, 5, 7]
    );
}

#[test]
fn r1_ignores_strings_comments_and_non_method_positions() {
    let src = "\
// a comment mentioning .unwrap() does not fire
/* nor does .expect(\"x\") in a block comment */
pub fn go() -> &'static str {
    let msg = \".unwrap() inside a string literal\";
    let raw = r#\"panic!(\"in a raw string\")\"#;
    // `unwrap` not in method position (no leading dot) is fine:
    let _ = unwrap(msg, raw);
    // a path mention is not an invocation:
    let _ = core::panic::Location::caller();
    msg
}
fn unwrap(a: &str, _b: &str) -> &str {
    a
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", src, NO_LIB_PANIC),
        vec![]
    );
}

#[test]
fn r1_skips_test_code_but_not_cfg_not_test() {
    let src = "\
pub fn lib_code(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        Some(1u32).unwrap();
    }
}

#[cfg(not(test))]
pub fn still_library(x: Option<u32>) -> u32 {
    x.unwrap()
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", src, NO_LIB_PANIC),
        vec![15]
    );
}

#[test]
fn waiver_covers_its_own_and_next_line_and_needs_a_reason() {
    let waived = "\
pub fn go(x: Option<u32>) -> u32 {
    // twrs-lint: allow(no-lib-panic) checked non-empty two lines up
    x.unwrap()
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", waived, NO_LIB_PANIC),
        vec![]
    );

    // The waiver covers only its own line and the next one.
    let too_far = "\
pub fn go(x: Option<u32>) -> u32 {
    // twrs-lint: allow(no-lib-panic) does not reach line 4
    let _ = x;
    x.unwrap()
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", too_far, NO_LIB_PANIC),
        vec![4]
    );

    // A waiver with no reason does not waive anything.
    let no_reason = "\
pub fn go(x: Option<u32>) -> u32 {
    // twrs-lint: allow(no-lib-panic)
    x.unwrap()
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", no_reason, NO_LIB_PANIC),
        vec![3]
    );

    // A waiver for a different rule does not apply.
    let wrong_rule = "\
pub fn go(x: Option<u32>) -> u32 {
    // twrs-lint: allow(scoped-io) wrong rule entirely
    x.unwrap()
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", wrong_rule, NO_LIB_PANIC),
        vec![3]
    );
}

// -------------------------------------------------------------------------
// R2: lock-discipline
// -------------------------------------------------------------------------

const SERVICE_PATH: &str = "crates/extsort/src/service/mod.rs";

#[test]
fn r2_accepts_declared_order_and_flags_inversions() {
    let ordered = "\
impl S {
    fn ok(&self) {
        let queue = self.state.lock();
        let counters = self.stats.lock();
        drop(counters);
        drop(queue);
    }
}
";
    assert_eq!(findings_for(SERVICE_PATH, ordered, LOCK_DISCIPLINE), vec![]);

    let inverted = "\
impl S {
    fn bad(&self) {
        let counters = self.stats.lock();
        let queue = self.state.lock();
        drop(queue);
        drop(counters);
    }
}
";
    assert_eq!(
        findings_for(SERVICE_PATH, inverted, LOCK_DISCIPLINE),
        vec![4]
    );
}

#[test]
fn r2_flags_blocking_calls_under_a_lock_and_honors_drop() {
    let held = "\
impl S {
    fn bad(&self, tx: &Sender<u32>) {
        let queue = self.state.lock();
        tx.send(1);
        drop(queue);
    }
}
";
    assert_eq!(findings_for(SERVICE_PATH, held, LOCK_DISCIPLINE), vec![4]);

    let released = "\
impl S {
    fn ok(&self, tx: &Sender<u32>) {
        let queue = self.state.lock();
        drop(queue);
        tx.send(1);
    }
}
";
    assert_eq!(
        findings_for(SERVICE_PATH, released, LOCK_DISCIPLINE),
        vec![]
    );

    // A guard that is never bound dies at its statement's semicolon.
    let temporary = "\
impl S {
    fn ok(&self, tx: &Sender<u32>) {
        self.state.lock().pending += 1;
        tx.send(1);
    }
}
";
    assert_eq!(
        findings_for(SERVICE_PATH, temporary, LOCK_DISCIPLINE),
        vec![]
    );

    // Leaving the guard's block releases it too.
    let scoped = "\
impl S {
    fn ok(&self, tx: &Sender<u32>) {
        {
            let queue = self.state.lock();
            queue.touch();
        }
        tx.send(1);
    }
}
";
    assert_eq!(findings_for(SERVICE_PATH, scoped, LOCK_DISCIPLINE), vec![]);
}

#[test]
fn r2_only_applies_to_manifest_files() {
    let inverted = "\
impl S {
    fn elsewhere(&self) {
        let counters = self.stats.lock();
        let queue = self.state.lock();
    }
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", inverted, LOCK_DISCIPLINE),
        vec![]
    );
}

// -------------------------------------------------------------------------
// R3: no-detached-threads
// -------------------------------------------------------------------------

#[test]
fn r3_flags_discarded_spawn_handles() {
    let bare = "\
pub fn go() {
    std::thread::spawn(move || work());
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", bare, NO_DETACHED_THREADS),
        vec![2]
    );

    let underscore = "\
pub fn go() {
    let _ = std::thread::spawn(move || work());
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", underscore, NO_DETACHED_THREADS),
        vec![2]
    );
}

#[test]
fn r3_accepts_bound_stored_or_returned_handles() {
    // Library code starts threads through `Builder` (a bare
    // `thread::spawn` is a finding of its own, see below).
    let bound = "\
pub fn go() -> std::io::Result<()> {
    let worker = std::thread::Builder::new().spawn(move || work())?;
    worker.join();
    Ok(())
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", bound, NO_DETACHED_THREADS),
        vec![]
    );

    let pushed = "\
pub fn go(workers: &mut Vec<JoinHandle<()>>) -> std::io::Result<()> {
    workers.push(std::thread::Builder::new().spawn(move || work())?);
    Ok(())
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", pushed, NO_DETACHED_THREADS),
        vec![]
    );

    let builder = "\
pub fn go() -> std::io::Result<()> {
    let worker = std::thread::Builder::new()
        .name(format!(\"w\"))
        .spawn(move || work())?;
    worker.join();
    Ok(())
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", builder, NO_DETACHED_THREADS),
        vec![]
    );

    // `.spawn(…)` on a non-thread receiver (e.g. a process Command) is
    // out of scope for this rule.
    let process = "\
pub fn go(cmd: &mut Command) {
    cmd.spawn();
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", process, NO_DETACHED_THREADS),
        vec![]
    );
}

#[test]
fn r3_flags_bare_thread_spawn_in_library_code_only() {
    // A bare `thread::spawn` panics when the OS refuses a thread, so
    // library code may not call it even when it keeps the handle; an
    // import or a function value of it is flagged too.
    let src = "\
use std::thread::{self, JoinHandle};
use std::thread::spawn;

pub fn go() -> JoinHandle<()> {
    let worker = thread::spawn(move || work());
    worker
}

pub fn start(workers: &mut Vec<JoinHandle<()>>) {
    workers.push(std::thread::spawn(move || work()));
    let make = thread::spawn::<fn(), ()>;
}

pub fn built() -> std::io::Result<JoinHandle<()>> {
    thread::Builder::new().name(\"w\".into()).spawn(move || work())
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn_bare() {
        std::thread::spawn(move || work()).join().unwrap();
    }
}
";
    assert_eq!(
        findings_for("crates/foo/src/lib.rs", src, NO_DETACHED_THREADS),
        vec![2, 5, 10, 11]
    );

    // A discarded bare spawn is one finding, not two.
    let discarded = "\
pub fn go() {
    std::thread::spawn(move || work());
}
";
    let findings: Vec<_> = check_source("crates/foo/src/lib.rs", discarded)
        .into_iter()
        .filter(|f| f.rule == NO_DETACHED_THREADS)
        .collect();
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("discarded"));
}

// -------------------------------------------------------------------------
// R4: cancel-poll
// -------------------------------------------------------------------------

const KWAY_PATH: &str = "crates/extsort/src/merge/kway.rs";

#[test]
fn r4_flags_phase_loops_that_never_poll() {
    let src = "\
fn reduce_to_fan_in(cancel: &CancellationToken) -> Result<()> {
    loop {
        cancel.check()?;
        step();
    }
}

fn merge_step(cancel: &CancellationToken) -> Result<()> {
    cancel.check()?;
    merge.drain()
}

fn drain() -> Result<()> {
    loop {
        step();
    }
}
";
    assert_eq!(findings_for(KWAY_PATH, src, CANCEL_POLL), vec![13]);

    // Wrapping an iterator in a token adapter is no poll: only the forms
    // that read the flag count.
    let adapter = "\
fn reduce_to_fan_in(cancel: &CancellationToken) -> Result<()> {
    cancel.check()
}

fn merge_step(cancel: &CancellationToken) -> Result<()> {
    let mut gated = cancel.gate(&mut input);
    merge.drain(&mut gated)
}

fn drain(written: u64) -> Result<()> {
    if written % CANCEL_CHECK_INTERVAL == 0 {
        poll()?;
    }
    Ok(())
}
";
    assert_eq!(findings_for(KWAY_PATH, adapter, CANCEL_POLL), vec![5]);
}

#[test]
fn r4_accepts_all_polling_forms_and_reports_missing_functions() {
    let src = "\
fn reduce_to_fan_in(token: &CancellationToken) -> Result<()> {
    if token.is_canceled() {
        return Err(canceled());
    }
    Ok(())
}

fn merge_step(cancel: &CancellationToken) -> Result<()> {
    check_cancel(cancel)?;
    Ok(())
}

fn drain(written: u64, token: &CancellationToken) -> Result<()> {
    if written % CANCEL_CHECK_INTERVAL == 0 {
        poll(token)?;
    }
    Ok(())
}
";
    assert_eq!(findings_for(KWAY_PATH, src, CANCEL_POLL), vec![]);

    // A manifest function that disappeared entirely is reported at line 1,
    // so a rename can't silently drop the invariant.
    let missing = "\
fn reduce_to_fan_in(cancel: &CancellationToken) -> Result<()> {
    cancel.check()
}

fn merge_step(cancel: &CancellationToken) -> Result<()> {
    cancel.check()
}
";
    assert_eq!(findings_for(KWAY_PATH, missing, CANCEL_POLL), vec![1]);
}

// -------------------------------------------------------------------------
// R5: scoped-io
// -------------------------------------------------------------------------

#[test]
fn r5_flags_raw_device_page_ops_in_service_code() {
    let src = "\
impl Worker {
    fn run(&self, device: &impl StorageDevice) {
        device.write_page(\"runs\", 0, &self.page);
        self.scoped.write_page(\"runs\", 1, &self.page);
    }
}
";
    assert_eq!(
        findings_for("crates/extsort/src/service/worker.rs", src, SCOPED_IO),
        vec![3]
    );
    // The same code outside the service directory is fine.
    assert_eq!(
        findings_for("crates/extsort/src/sorter.rs", src, SCOPED_IO),
        vec![]
    );
}

#[test]
fn r5_allows_bindings_wrapped_in_a_scoped_device() {
    // A `*_device` name is fine when the binding itself is the wrapper:
    // wrapping a RealFileDevice (or any backend) in a ScopedDevice is
    // exactly what the rule wants, whatever the local is called.
    let src = "\
fn attach(inner: RealFileDevice, stats: Arc<IoStats>) -> Result<()> {
    let real_device = ScopedDevice::new(inner, stats);
    real_device.create(\"runs\")?;
    real_device.write_page(\"runs\", 0, &[0u8; 64])?;
    Ok(())
}
";
    assert_eq!(
        findings_for("crates/extsort/src/service/worker.rs", src, SCOPED_IO),
        vec![]
    );
    // An unwrapped sibling in the same file still flags.
    let mixed = "\
fn attach(inner: RealFileDevice, device: &impl StorageDevice) {
    let job_device = ScopedDevice::new(inner);
    job_device.create(\"runs\");
    device.remove(\"runs\");
}
";
    assert_eq!(
        findings_for("crates/extsort/src/service/worker.rs", mixed, SCOPED_IO),
        vec![4]
    );
}

#[test]
fn r5_allows_bindings_wrapped_in_a_striped_device() {
    // A stripe front keeps per-member accounting exact (every access is
    // mirrored into the member IoStats), so building one in service code
    // is not an attribution leak — jobs still get their own ScopedDevice
    // on top of it.
    let src = "\
fn build(members: Vec<AnyDevice>) -> Result<()> {
    let spill_device = StripedDevice::new(members)?;
    spill_device.create(\"probe\")?;
    spill_device.remove(\"probe\")?;
    Ok(())
}
";
    assert_eq!(
        findings_for("crates/extsort/src/service/worker.rs", src, SCOPED_IO),
        vec![]
    );
    // But a raw `*_device` receiver next to it still flags.
    let mixed = "\
fn build(members: Vec<AnyDevice>, raw_device: &impl StorageDevice) -> Result<()> {
    let spill_device = StripedDevice::new(members)?;
    spill_device.create(\"probe\")?;
    raw_device.flush()?;
    Ok(())
}
";
    assert_eq!(
        findings_for("crates/extsort/src/service/worker.rs", mixed, SCOPED_IO),
        vec![4]
    );
}

// -------------------------------------------------------------------------
// R6: device-layer
// -------------------------------------------------------------------------

#[test]
fn r6_allows_hand_written_device_impls_only_where_the_manifest_says() {
    let src = "\
impl<D: StorageDevice + Clone> StorageDevice for Wrapper<D> {}
impl twrs_storage::StorageDevice for crate::Other where Self: Sized {}
impl<D: StorageDevice> twrs_storage::device::Forward for Wrapper<D> {}
impl PageFile for Wrapper<Box<dyn PageFile>> {}
fn run(device: &impl StorageDevice) { for name in device.list() {} }
#[cfg(test)]
mod tests { impl StorageDevice for FailingWrites {} }
";
    let r6 = |file: &str, src: &str| findings_for(&format!("crates/{file}"), src, DEVICE_LAYER);
    assert_eq!(r6("extsort/src/parallel.rs", src), vec![1, 2]);
    // The manifest's impls pass in their own files only, and one that can
    // no longer be found is reported at line 1.
    let device = "impl<T: Forward> StorageDevice for T {}\nimpl StorageDevice for SimDevice {}\n";
    assert_eq!(r6("storage/src/device.rs", device), vec![]);
    let striped = "impl StorageDevice for StripedDevice {}\n";
    assert_eq!(r6("storage/src/striped.rs", striped), vec![]);
    assert_eq!(r6("storage/src/real_device.rs", striped), vec![1, 1]);
}

// -------------------------------------------------------------------------
// The workspace self-check
// -------------------------------------------------------------------------

#[test]
fn a_fresh_workspace_scan_finds_nothing() {
    let findings = scan_workspace(&default_root()).expect("scan workspace");
    assert!(
        findings.is_empty(),
        "fix each finding or waive it inline with \
         `// twrs-lint: allow(<rule>) <reason>`: {findings:#?}"
    );
}
