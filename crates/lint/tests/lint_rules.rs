//! End-to-end rule coverage: every fixture under `tests/fixtures/` seeds
//! exactly one violation of one rule, and the real kernel tree must be
//! clean. A fixture file is both the kernel and its only caller.

// Integration-test harness: panicking on a broken fixture is the point
// (clippy's allow-*-in-tests only covers `#[cfg(test)]` items).
#![allow(clippy::expect_used)]

use prima_lint::{
    allow_sites_in, analyze_file, check_allow_ceiling, check_dead_surface_ceiling,
    collect_result_fns, dead_surface_in, used_names, Rule,
};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> (PathBuf, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    (path, src)
}

fn analyze_fixture(name: &str) -> Vec<prima_lint::Finding> {
    let (path, src) = fixture(name);
    let sources = vec![(path.clone(), src.clone())];
    analyze_file(&path, &src, &collect_result_fns(&sources))
}

fn check(name: &str, rule: Rule) {
    let findings = analyze_fixture(name);
    assert_eq!(findings.len(), 1, "{name} must fire exactly once, got: {findings:#?}");
    assert_eq!(findings[0].rule, rule, "{name} fired the wrong rule: {findings:#?}");
}

#[test]
fn rank_inversion_fires_once() {
    check("rank_inversion.rs", Rule::LockRank);
}

#[test]
fn unannotated_sharded_lock_fires_once() {
    check("sharded_lock.rs", Rule::LockRank);
    let findings = analyze_fixture("sharded_lock.rs");
    assert!(findings[0].message.contains("`keys`"), "{findings:#?}");
    // Its acquisitions are ranked like any lock's: taking the directory
    // (access) while holding the address table (buffer) inverts.
    let (path, src) = fixture("sharded_lock.rs");
    let inverted = src.replace(
        "let d = self.directory.read();\n        // access (50) then buffer (61): ascending.\n        let mut a = self.addresses.write();",
        "let mut a = self.addresses.write();\n        let d = self.directory.read();",
    );
    assert_ne!(inverted, src, "the fixture's acquisition order changed");
    let findings = analyze_file(&path, &inverted, &collect_result_fns(&[]));
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().any(|f| f.message.contains("directory")), "{findings:#?}");
}

#[test]
fn lock_across_io_fires_once() {
    check("lock_across_io.rs", Rule::LockAcrossIo);
}

#[test]
fn bare_unwrap_fires_once_outside_tests() {
    check("bare_unwrap.rs", Rule::ErrorHygiene);
}

#[test]
fn ignored_result_fires_once() {
    check("ignored_result.rs", Rule::IgnoredResult);
}

#[test]
fn allow_without_reason_fires_once_and_suppresses() {
    check("allow_no_reason.rs", Rule::AllowWithoutReason);
}

#[test]
fn allow_ceiling_fires_once_above_the_ceiling() {
    assert!(analyze_fixture("allow_ceiling.rs").is_empty(), "the fixture's allows are valid");
    let sites = allow_sites_in(&fixture("allow_ceiling.rs").1);
    assert_eq!(sites, 2);
    assert!(check_allow_ceiling(sites, 2).is_none(), "at the ceiling is fine");
    let over = check_allow_ceiling(sites, 1).expect("one allow over the ceiling");
    assert_eq!(over.rule, Rule::AllowCeiling);
}

#[test]
fn dead_surface_fires_once_for_a_test_only_caller() {
    assert!(analyze_fixture("dead_surface.rs").is_empty(), "no other rule fires");
    let (path, src) = fixture("dead_surface.rs");
    let used = used_names(&[(path.clone(), src.clone())]);
    let (findings, count) = dead_surface_in(&path, &src, &used);
    assert_eq!(findings.len(), 1, "dead_surface.rs must fire exactly once, got: {findings:#?}");
    assert_eq!(findings[0].rule, Rule::DeadSurface);
    assert!(findings[0].message.contains("`pub fn called_only_from_tests`"), "{findings:#?}");
    // The allowed `pub fn` still counts towards the dead-surface ceiling,
    // and its allow not towards the allow ceiling.
    assert_eq!(count, 2);
    assert_eq!(allow_sites_in(&src), 0);
    // Without its allow, the uncalled `pub fn` fires as well.
    let bare = src.replace("// lint: allow(dead-surface, the fixture's kept entry point)\n", "");
    let (findings, _) = dead_surface_in(&path, &bare, &used);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings[1].message.contains("`pub fn kept`"), "{findings:#?}");
}

#[test]
fn dead_surface_does_not_count_a_function_mentioning_itself() {
    // Recursion, and delegation to a namesake, call nothing from outside.
    let src = "\
pub fn countdown(n: u32) -> u32 {
    if n == 0 { 0 } else { countdown(n - 1) }
}

pub struct Outer { inner: Inner }
pub struct Inner;

impl Outer {
    pub fn size(&self) -> usize { self.inner.size() }
}

impl Inner {
    pub fn size(&self) -> usize { 1 }
}
";
    let path = PathBuf::from("self_calls.rs");
    let dead = |src: &str| {
        let used = used_names(&[(path.clone(), src.to_string())]);
        let (findings, count) = dead_surface_in(&path, src, &used);
        assert_eq!(findings.len(), count, "no allows here");
        findings.iter().map(|f| f.line).collect::<Vec<_>>()
    };
    assert_eq!(dead(src), vec![1, 9, 13]);
    // A call from another function's body counts.
    let caller = "fn caller(o: &Outer) -> usize { o.size() + countdown(2) as usize }";
    let called = format!("{src}\n{caller}\n");
    assert!(dead(&called).is_empty(), "{called}");
}

#[test]
fn dead_surface_ceiling_fires_above_the_ceiling() {
    assert!(check_dead_surface_ceiling(2, 2).is_none(), "at the ceiling is fine");
    let over = check_dead_surface_ceiling(3, 2).expect("one over the ceiling");
    assert_eq!(over.rule, Rule::DeadSurfaceCeiling);
}

/// The self-check the CI `lint` job re-runs via the binary: the real
/// kernel tree has zero unexplained findings, no more allows than the
/// allow ceiling and no more uncalled `pub fn`s than theirs.
#[test]
fn real_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = prima_lint::run(&root).expect("kernel sources readable");
    assert!(report.allow_sites <= prima_lint::ALLOW_CEILING);
    assert!(report.dead_surface <= prima_lint::DEAD_SURFACE_CEILING);
    let findings = report.findings;
    assert!(
        findings.is_empty(),
        "prima-lint found {} problem(s) in the real tree:\n{}",
        findings.len(),
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
