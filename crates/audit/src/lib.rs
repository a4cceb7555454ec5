#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

//! Source-level invariant auditor + deterministic concurrency model
//! checker for the repsim workspace (`repsim audit`).
//!
//! The data analyzers in `repsim-check` verify *inputs* (graphs, plans,
//! matrices); this crate verifies the *codebase itself* — the structural
//! contracts the other crates document but the compiler cannot see:
//!
//! * [`lexer`] — a hand-rolled Rust lexer (comments, strings, raw
//!   strings, lifetimes handled exactly) producing the token streams
//!   every rule consumes, plus `// audit:allow(RA####, reason)`
//!   suppression directives;
//! * [`rules`] — the `RA####` rule families: budget coverage in kernel
//!   loops (`RA01xx`), observability-registry consistency (`RA02xx`),
//!   diagnostic-code registry discipline (`RA03xx`), protocol/WAL
//!   variant exhaustiveness (`RA04xx`), serve-layer lock order
//!   (`RA05xx`);
//! * [`codes`] — the single registry of every `RS####`/`RA####` code
//!   ever shipped;
//! * [`sync`] — the `std::sync` facade the serve layer imports, so the
//!   audited/sanitized surface is a single choke point;
//! * [`model`] — a bounded-preemption explicit-state model checker over
//!   abstracted serve-layer schedules (epoch publish, queue
//!   close/drain, breaker isolation).
//!
//! Entry points: [`audit_workspace`] walks `crates/*/src/**.rs` (plus
//! the pinned trace-schema test) under a repo root; [`audit_fixtures`]
//! audits a directory of seeded-violation fixtures, used by the golden
//! tests that pin every rule to a known finding.

pub mod codes;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod sync;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use repsim_check::Report;
use rules::exhaustive::EnumConfig;
use rules::locks::{LockOrderConfig, Wrapper};
use rules::{AllowTracker, Source};

/// Files on the budgeted kernel paths: every loop in a
/// `Budget`-accepting function here must poll (`RA0101`).
pub const KERNEL_FILES: &[&str] = &[
    "crates/sparse/src/ops.rs",
    "crates/sparse/src/chain.rs",
    "crates/baselines/src/rwr.rs",
];

/// The test that pins public span/counter names (`RA0201`).
pub const TRACE_SCHEMA_FILE: &str = "tests/trace_schema.rs";

/// Enums whose variant fan-out must reach every handler (`RA04xx`).
pub const ENUM_AUDITS: &[EnumConfig] = &[
    EnumConfig {
        name: "Request",
        defined_in: "crates/serve/src/protocol.rs",
        handlers: &["crates/serve/src/server.rs"],
    },
    EnumConfig {
        name: "Response",
        defined_in: "crates/serve/src/protocol.rs",
        handlers: &["crates/serve/src/server.rs"],
    },
    EnumConfig {
        name: "MutationOp",
        // Every op parseable off the wire must be encodable/replayable
        // in the WAL and applicable by the service.
        defined_in: "crates/graph/src/mutation.rs",
        handlers: &[
            "crates/serve/src/protocol.rs",
            "crates/serve/src/wal.rs",
            "crates/serve/src/service.rs",
        ],
    },
];

/// The declared global lock order of the serve layer (`RA05xx`).
///
/// `state(10) < wal(20) < seeds(30) < epoch(40)`; the admission queue's
/// `inner` mutex, the breaker's per-class mutexes and the coordinator's
/// per-replica `idle` pool are *leaves* (rank 1000): nothing may be
/// acquired while one is held.
pub const SERVE_LOCK_ORDER: &[LockOrderConfig] = &[
    LockOrderConfig {
        file: "crates/serve/src/service.rs",
        ranks: &[("state", 10), ("wal", 20), ("seeds", 30), ("epoch", 40)],
        wrappers: &[
            Wrapper {
                method: "state_lock",
                lock: "state",
                rank: 10,
                transient: false,
            },
            Wrapper {
                method: "epoch_snapshot",
                lock: "epoch",
                rank: 40,
                transient: true, // returns a clone; the guard dies inside
            },
        ],
    },
    LockOrderConfig {
        file: "crates/serve/src/queue.rs",
        ranks: &[("inner", 1000), ("notify", 1000)],
        wrappers: &[Wrapper {
            method: "lock",
            lock: "inner",
            rank: 1000,
            transient: false,
        }],
    },
    LockOrderConfig {
        file: "crates/serve/src/breaker.rs",
        ranks: &[("rank", 1000), ("mutate", 1000)],
        wrappers: &[Wrapper {
            method: "lock",
            lock: "breaker-class",
            rank: 1000,
            transient: false,
        }],
    },
    LockOrderConfig {
        file: "crates/serve/src/singleflight.rs",
        // The flight registry is a leaf: a leader completes its build
        // *outside* the registry lock (only the membership set is
        // guarded), so nothing may be acquired while it is held.
        ranks: &[("flights", 1000), ("done", 1000)],
        wrappers: &[],
    },
    LockOrderConfig {
        file: "crates/serve/src/coord.rs",
        // A replica's idle-connection pool is a leaf: held only to push
        // or pop a stream, never across a connect, read or write.
        ranks: &[("idle", 1000)],
        wrappers: &[],
    },
];

/// Fixture-mode configuration: the seeded-violation sources under
/// `fixtures/audit/` use fixed file names so the per-file rules
/// (`RA04xx`, `RA05xx`) know where to look.
const FIXTURE_ENUM_AUDITS: &[EnumConfig] = &[EnumConfig {
    name: "FixtureOp",
    defined_in: "ra04.rs",
    handlers: &["ra04.rs"],
}];

const FIXTURE_LOCK_ORDER: &[LockOrderConfig] = &[LockOrderConfig {
    file: "ra05.rs",
    ranks: &[
        ("state", 10),
        ("wal", 20),
        ("seeds", 30),
        ("epoch", 40),
        ("inner", 1000),
    ],
    wrappers: &[Wrapper {
        method: "state_lock",
        lock: "state",
        rank: 10,
        transient: false,
    }],
}];

/// Audits the real workspace rooted at `root` (the directory holding
/// `crates/`). Errors only on I/O failure; findings land in the report.
pub fn audit_workspace(root: &Path) -> io::Result<Report> {
    let mut sources = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src_dir = dir.join("src");
        if src_dir.is_dir() {
            collect_rs(&src_dir, root, &mut sources)?;
        }
    }
    let schema_path = root.join(TRACE_SCHEMA_FILE);
    let pinned = if schema_path.is_file() {
        let schema = Source::new(TRACE_SCHEMA_FILE, &fs::read_to_string(&schema_path)?);
        let names = rules::obs::pinned_names(&schema);
        sources.push(schema);
        names
    } else {
        Vec::new()
    };
    Ok(run_rules(
        &sources,
        &pinned,
        KERNEL_FILES,
        ENUM_AUDITS,
        SERVE_LOCK_ORDER,
        true,
    ))
}

/// Audits a directory of fixture sources (every `*.rs` directly in
/// `dir`, display path = file name). Every file counts as a kernel file
/// so `RA01xx` applies; registry coverage (`RA0302`) is skipped.
pub fn audit_fixtures(dir: &Path) -> io::Result<Report> {
    let mut sources = Vec::new();
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    let mut names: Vec<String> = Vec::new();
    for p in &paths {
        let name = p
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        sources.push(Source::new(name.clone(), &fs::read_to_string(p)?));
        names.push(name);
    }
    let kernel: Vec<&str> = names.iter().map(String::as_str).collect();
    Ok(run_rules(
        &sources,
        &[],
        &kernel,
        FIXTURE_ENUM_AUDITS,
        FIXTURE_LOCK_ORDER,
        false,
    ))
}

/// Runs every rule family over `sources` and folds in stale-allow
/// warnings (`RA0102`).
fn run_rules(
    sources: &[Source],
    pinned: &[String],
    kernel_files: &[&str],
    enums: &[EnumConfig],
    lock_order: &[LockOrderConfig],
    require_registry_coverage: bool,
) -> Report {
    let mut allows = AllowTracker::default();
    let mut report = Report::new();
    report.extend(rules::budget::check(sources, kernel_files, &mut allows));
    report.extend(rules::obs::check(sources, pinned, &mut allows));
    report.extend(rules::registry::check(
        sources,
        require_registry_coverage,
        &mut allows,
    ));
    report.extend(rules::exhaustive::check(sources, enums, &mut allows));
    report.extend(rules::locks::check(sources, lock_order, &mut allows));
    report.extend(allows.stale(sources));
    report
}

/// Recursively collects `*.rs` under `dir`, with display paths relative
/// to `root`.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<Source>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let display = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(Source::new(display, &fs::read_to_string(&p)?));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The configured kernel/handler/lock files must exist in the repo —
    /// a rename that silently empties a rule's scope would make the
    /// audit vacuous.
    #[test]
    fn configured_files_exist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for f in KERNEL_FILES {
            assert!(root.join(f).is_file(), "kernel file {f} missing");
        }
        for cfg in ENUM_AUDITS {
            assert!(
                root.join(cfg.defined_in).is_file(),
                "{} missing",
                cfg.defined_in
            );
            for h in cfg.handlers {
                assert!(root.join(h).is_file(), "handler {h} missing");
            }
        }
        for cfg in SERVE_LOCK_ORDER {
            assert!(
                root.join(cfg.file).is_file(),
                "lock file {} missing",
                cfg.file
            );
        }
        assert!(root.join(TRACE_SCHEMA_FILE).is_file());
    }

    /// The real workspace must audit clean — this is the same check CI
    /// runs through `repsim audit`.
    #[test]
    fn workspace_audits_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = audit_workspace(&root).expect("workspace walk");
        assert!(
            !report.has_errors(),
            "workspace audit found errors:\n{}",
            report.render()
        );
    }
}
