//! `prima-lint` — run the kernel static analysis over the repo.
//!
//! Usage: `cargo run -p prima-lint [--root <repo-root>]`. Prints one
//! finding per line (`path:line: [rule] message`) and exits non-zero if
//! any are found.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                eprintln!("usage: prima-lint [--root <repo-root>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("prima-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    // Default root: the workspace root two levels up from this crate, so
    // `cargo run -p prima-lint` works from anywhere in the tree.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
    });

    let report = match prima_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("prima-lint: failed to read sources under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let findings = report.findings;

    for f in &findings {
        println!("{f}");
    }
    eprintln!(
        "prima-lint: {} `lint: allow` sites (ceiling {})",
        report.allow_sites,
        prima_lint::ALLOW_CEILING
    );
    eprintln!(
        "prima-lint: {} kernel `pub fn`s without a non-test caller (ceiling {})",
        report.dead_surface,
        prima_lint::DEAD_SURFACE_CEILING
    );
    if findings.is_empty() {
        eprintln!("prima-lint: clean ({} rules over {:?})", 8, prima_lint::KERNEL_DIRS);
        ExitCode::SUCCESS
    } else {
        eprintln!("prima-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
