//! `twrs-lint`: in-tree static analysis enforcing this workspace's
//! concurrency and error-handling invariants.
//!
//! The sort service ships with prose invariants — "a running job observes
//! `cancel()` at phase boundaries", "`sum(leases) <= global` at every
//! rebalance", "no detached threads", "service I/O goes through
//! `ScopedDevice`" — that ordinary tests can only probe, not prove at the
//! source level. This crate makes them machine-checked: a comment- and
//! string-aware token scanner ([`lexer`]) feeds a per-file rule engine
//! ([`rules`]) whose catalog is documented in `crates/lint/RULES.md`.
//!
//! Run it with
//!
//! ```text
//! cargo run --release -p twrs-lint -- --check            # CI gate
//! ```
//!
//! `--check` fails on any finding. The one way to waive a site is inline,
//! with `// twrs-lint: allow(<rule>) <reason>` — the reason is mandatory.

pub mod lexer;
pub mod rules;

use rules::Finding;
use std::io;
use std::path::{Path, PathBuf};

/// Source roots scanned relative to the workspace root. `crates/compat`
/// is excluded on purpose: those are stand-ins for *external* crates
/// (rand/proptest/criterion/parking_lot) and follow upstream's idioms,
/// not this workspace's invariants.
pub const SCAN_ROOTS: [&str; 2] = ["src", "crates"];

const EXCLUDED_PREFIXES: [&str; 1] = ["crates/compat"];

/// `true` when `path` (repo-relative, forward slashes) is library source
/// the linter must scan: `.rs` files under `src/` directories, excluding
/// compat stand-ins. Integration tests, benches and examples live outside
/// `src/` and are never scanned; `#[cfg(test)]` modules inside `src/` are
/// excluded token-by-token by the lexer.
pub fn is_scanned_source(path: &str) -> bool {
    if !path.ends_with(".rs") {
        return false;
    }
    if EXCLUDED_PREFIXES.iter().any(|p| path.starts_with(p)) {
        return false;
    }
    path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"))
}

/// Every scannable source file under `root`, repo-relative with forward
/// slashes, in sorted order.
pub fn source_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if let Some(rel) = relative(&path, root) {
            if is_scanned_source(&rel) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

fn relative(path: &Path, root: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let mut text = String::new();
    for component in rel.components() {
        if !text.is_empty() {
            text.push('/');
        }
        text.push_str(&component.as_os_str().to_string_lossy());
    }
    Some(text)
}

/// Scans source `text` belonging to repo-relative `path` and returns the
/// surviving (non-waived) findings.
pub fn check_source(path: &str, text: &str) -> Vec<Finding> {
    let scanned = lexer::scan(text);
    rules::check_file(path, &scanned)
}

/// Scans the whole workspace under `root` and returns every finding,
/// sorted by file, line and rule.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for file in source_files(root)? {
        let text = std::fs::read_to_string(root.join(&file))?;
        findings.extend(check_source(&file, &text));
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// Locates the workspace root from this crate's own manifest directory —
/// used by the self-check test and the CLI's default `--root`.
pub fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}
