//! Seeded-violation fixtures for the `repsim check` static analyzers.
//!
//! Each fixture under `fixtures/` plants exactly one class of defect; the
//! tests pin the stable diagnostic code it must trigger, and that the
//! check exits nonzero (an `Err`) on error-severity findings while the
//! clean fixtures pass. Codes are part of the tool's interface: changing
//! one is a breaking change and must show up here.

// Tests may panic freely: the workspace panic-freedom lints target
// library code, not assertions.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use repsim_cli::{run, CliError};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(|t| t.replace('~', " ")).collect()
}

/// Runs `repsim check` and returns the rendered report of a failing run.
fn check_fails(args: &str) -> String {
    match run(&argv(&format!("check {args}"))) {
        Err(CliError::Command(out)) => out,
        other => panic!("expected check to fail on {args:?}, got {other:?}"),
    }
}

/// Runs `repsim check` expecting success, returning the report.
fn check_passes(args: &str) -> String {
    match run(&argv(&format!("check {args}"))) {
        Ok(out) => out,
        Err(e) => panic!("expected check to pass on {args:?}, got {e}"),
    }
}

#[test]
fn clean_fixtures_pass() {
    let out = check_passes("fixtures/clean.graph --csr fixtures/sound.csr");
    assert!(out.contains("no issues found"), "{out}");
}

#[test]
fn shipped_example_dataset_passes_clean() {
    let dir = std::env::temp_dir().join("repsim-check-fixtures");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("movies.graph").to_string_lossy().into_owned();
    run(&argv(&format!(
        "generate --dataset movies --scale tiny --out {path}"
    )))
    .expect("generate");
    let out = check_passes(&format!(
        "{path} --meta-walk film~actor~film --transform imdb2fb"
    ));
    assert!(out.contains("no issues found"), "{out}");
}

#[test]
fn dangling_relationship_fixture_is_rs0101() {
    let out = check_fails("fixtures/dangling_rel.graph");
    assert!(out.contains("error[RS0101]"), "{out}");
    assert!(out.contains("error[RS0102]"), "{out}");
}

#[test]
fn malformed_meta_walk_is_rs0201() {
    let out = check_fails("fixtures/clean.graph --meta-walk film~nosuch~film");
    assert!(out.contains("error[RS0201]"), "{out}");
}

#[test]
fn non_adjacent_meta_walk_is_rs0202() {
    let out = check_fails("fixtures/clean.graph --meta-walk film~genre~film");
    assert!(out.contains("error[RS0202]"), "{out}");
}

#[test]
fn cyclic_fd_fixture_is_rs0302() {
    let out = check_fails("fixtures/cyclic_fd.graph --fd-max-len 2");
    assert!(out.contains("error[RS0302]"), "{out}");
}

#[test]
fn failing_fd_assertion_is_rs0301() {
    // One actor stars in two films, so actor -> film violates Definition 8.
    let out = check_fails("fixtures/clean.graph --fd actor~starring~film");
    assert!(out.contains("error[RS0301]"), "{out}");
}

#[test]
fn corrupt_csr_fixture_is_rs0402() {
    let out = check_fails("--csr fixtures/unsorted_columns.csr");
    assert!(out.contains("error[RS0402]"), "{out}");
    assert!(out.contains("unsorted_columns.csr"), "{out}");
}

#[test]
fn non_invertible_transform_fixture_is_rs0501() {
    let out = check_fails("fixtures/overloaded_cite.graph --transform dblp2snap");
    assert!(out.contains("error[RS0501]"), "{out}");
}

#[test]
fn mutation_batch_fixture_passes() {
    let out = check_passes("fixtures/clean.graph --mutations fixtures/mutations_ok.jsonl");
    assert!(out.contains("no issues found"), "{out}");
}

#[test]
fn seeded_mutation_defects_hit_every_rs06_code() {
    let out = check_fails("fixtures/clean.graph --mutations fixtures/mutations_bad.jsonl");
    for code in ["RS0601", "RS0602", "RS0603", "RS0604", "RS0605"] {
        assert!(out.contains(code), "missing {code} in:\n{out}");
    }
    assert!(out.contains("warning[RS0605]"), "{out}");
}

#[test]
fn mutation_batch_without_graph_runs_structural_checks_only() {
    // Resolve/precondition checks need the graph; the structural RS0601
    // and RS0602 defects must still fail the batch on its own.
    let out = check_fails("--mutations fixtures/mutations_bad.jsonl");
    assert!(out.contains("error[RS0601]"), "{out}");
    assert!(out.contains("error[RS0602]"), "{out}");
    assert!(!out.contains("RS0603"), "{out}");
    assert!(!out.contains("RS0604"), "{out}");
}
