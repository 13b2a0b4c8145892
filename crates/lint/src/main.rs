//! The `twrs-lint` CLI. See `crates/lint/RULES.md` for the rule catalog
//! and the README's "Static analysis" section for the workflow.

use std::path::PathBuf;
use std::process::ExitCode;
use twrs_lint::{default_root, scan_workspace};

const USAGE: &str = "\
twrs-lint: in-tree static analysis for the twrs workspace

USAGE:
    cargo run -p twrs-lint -- [--check] [--root <path>]

OPTIONS:
    --check             Scan the workspace (the default); exit 1 on any
                        finding.
    --root <path>       Workspace root (default: inferred from the crate).
";

/// The workspace root to scan, from the command line.
fn parse_args() -> Result<PathBuf, String> {
    let mut root = default_root();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a path")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_args() {
        Ok(root) => root,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let findings = match scan_workspace(&root) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("error: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    if findings.is_empty() {
        println!("twrs-lint: clean (0 findings)");
        ExitCode::SUCCESS
    } else {
        println!("twrs-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
