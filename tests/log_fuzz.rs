//! Fuzz-style robustness of the framed record log through both of its
//! codecs, the `RSIMCAP1` traffic capture and the `RSIMWAL1` mutation
//! WAL: arbitrary bytes, truncations, bit-flips, foreign headers and
//! CRLF noise must never panic. Damage follows one recovery taxonomy —
//! torn tails truncate in place, corrupt suffixes quarantine with the
//! intact prefix preserved, foreign files quarantine whole.

// Tests may panic freely: the workspace panic-freedom lints target
// library code, not assertions.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use repsim_graph::mutation::{self, MutationOp};
use repsim_graph::{Graph, GraphBuilder, NodeRef};
use repsim_serve::capture::{self, CaptureWriter};
use repsim_serve::snapshot::graph_fingerprint;
use repsim_serve::wal::{Wal, WalRecord};
use repsim_sparse::Budget;

/// A fresh scratch directory per case — quarantine rotation writes
/// sibling files, so cases must not share a directory.
fn scratch() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "repsim-logfuzz-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A well-formed capture with `n` records; returns its path and the
/// recorded request lines.
fn valid_capture(dir: &Path, n: usize, seed: u64) -> (PathBuf, Vec<String>) {
    let path = dir.join("cap.rsimcap");
    let mut w = CaptureWriter::create(&path, seed).unwrap();
    let mut lines = Vec::new();
    for i in 0..n {
        let line = format!(
            r#"{{"id":{},"op":"rank","walk":"conf paper dom","label":"conf","value":"c{}","k":3}}"#,
            i + 1,
            i % 5
        );
        w.append(1_000 * i as u64, (i % 2 == 0).then_some(250), &line)
            .unwrap();
        lines.push(line);
    }
    w.finish().unwrap();
    (path, lines)
}

fn boot_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let film = b.entity_label("film");
    let actor = b.entity_label("actor");
    let f0 = b.entity(film, "f0");
    let a0 = b.entity(actor, "a0");
    b.edge(f0, a0).unwrap();
    b.build()
}

/// A well-formed WAL over [`boot_graph`] with `n` records (new actors,
/// each then cast in `f0`); returns its path and the records.
fn valid_wal(dir: &Path, n: usize) -> (PathBuf, Vec<WalRecord>) {
    let path = dir.join("g.wal");
    let rec = Wal::recover(&path, &boot_graph()).unwrap();
    let (mut wal, mut g) = (rec.wal, rec.graph);
    let mut records = Vec::new();
    for i in 0..n {
        let actor = format!("n{}", i / 2);
        let op = if i % 2 == 0 {
            MutationOp::AddEntity {
                label: "actor".to_owned(),
                value: actor,
            }
        } else {
            MutationOp::AddEdge {
                a: NodeRef::Entity {
                    label: "film".to_owned(),
                    value: "f0".to_owned(),
                },
                b: NodeRef::Entity {
                    label: "actor".to_owned(),
                    value: actor,
                },
            }
        };
        g = mutation::apply(&g, &op).unwrap();
        let fp_after = graph_fingerprint(&g);
        let seq = wal.append(&op, fp_after, &Budget::unlimited()).unwrap();
        records.push(WalRecord { seq, fp_after, op });
    }
    (path, records)
}

/// Recovers the WAL at `path` twice: the second recovery must find
/// nothing left to repair. Returns the first.
fn recover_wal_twice(path: &Path) -> Vec<WalRecord> {
    let first = Wal::recover(path, &boot_graph()).unwrap();
    let again = Wal::recover(path, &boot_graph()).unwrap();
    assert!(!again.torn_truncated, "repair must be idempotent");
    assert!(again.quarantined_to.is_none());
    assert_eq!(again.records, first.records);
    first.records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes as a capture or a WAL: recovery never panics,
    /// and a surviving file re-recovers cleanly (repair is idempotent).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..400)) {
        let dir = scratch();
        let path = dir.join("cap.rsimcap");
        std::fs::write(&path, &bytes).unwrap();
        let first = capture::recover(&path).unwrap();
        if first.quarantined_to.is_none() || path.exists() {
            let again = capture::recover(&path).unwrap();
            prop_assert!(!again.torn_truncated, "repair must be idempotent");
            prop_assert!(again.quarantined_to.is_none());
            prop_assert_eq!(again.records.len(), first.records.len());
        }
        let path = dir.join("g.wal");
        std::fs::write(&path, &bytes).unwrap();
        recover_wal_twice(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every byte-level truncation of a valid capture or WAL: the prefix
    /// of intact records always survives, nothing panics, and the
    /// repaired file re-recovers cleanly.
    #[test]
    fn truncations_keep_the_intact_prefix(n in 1usize..6, cut_frac in 0.0f64..1.0) {
        let dir = scratch();
        let (path, lines) = valid_capture(&dir, n, 7);
        let full = std::fs::read(&path).unwrap();
        let cut = (cut_frac * full.len() as f64) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let rec = capture::recover(&path).unwrap();
        prop_assert!(rec.records.len() <= n);
        for (r, line) in rec.records.iter().zip(&lines) {
            prop_assert_eq!(&r.line, line, "prefix must be exact");
        }
        if path.exists() {
            let again = capture::recover(&path).unwrap();
            prop_assert!(!again.torn_truncated);
            prop_assert_eq!(again.records.len(), rec.records.len());
        }

        let (path, records) = valid_wal(&dir, n);
        let full = std::fs::read(&path).unwrap();
        let cut = (cut_frac * full.len() as f64) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let kept = recover_wal_twice(&path);
        prop_assert_eq!(&kept[..], &records[..kept.len()], "prefix must be exact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A single bit flip anywhere: never a panic. Any capture record the
    /// recovery returns is one of the originals, in order; the WAL keeps
    /// exactly a prefix of its records.
    #[test]
    fn single_bit_flips_never_panic(n in 1usize..5, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let dir = scratch();
        let (path, lines) = valid_capture(&dir, n, 9);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        let rec = capture::recover(&path).unwrap();
        // The flip hit the header (whole-file quarantine), a record
        // prefix/body (suffix quarantine), or a don't-care bit the
        // checksum still covers... which FNV makes impossible — so any
        // returned record is byte-exact one of the originals.
        let mut expect = lines.iter();
        for r in &rec.records {
            prop_assert!(
                expect.any(|l| l == &r.line),
                "recovered record is not an original: {}",
                r.line
            );
        }

        let (path, records) = valid_wal(&dir, n);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        let kept = recover_wal_twice(&path);
        prop_assert!(kept.len() < n, "a flipped bit must not go unnoticed");
        prop_assert_eq!(&kept[..], &records[..kept.len()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// CRLF / text noise appended by a misbehaving tool: the recorded
    /// prefix survives and the noise is repaired away, never replayed.
    #[test]
    fn trailing_text_noise_is_quarantined(n in 1usize..5, noise in "[ -~\r\n]{1,60}") {
        let dir = scratch();
        let (path, lines) = valid_capture(&dir, n, 11);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(noise.as_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let rec = capture::recover(&path).unwrap();
        prop_assert_eq!(rec.records.len(), n, "every real record survives");
        for (r, line) in rec.records.iter().zip(&lines) {
            prop_assert_eq!(&r.line, line);
        }
        prop_assert!(
            rec.torn_truncated || rec.quarantined_to.is_some(),
            "the noise must be repaired away"
        );
        let again = capture::recover(&path).unwrap();
        prop_assert_eq!(again.records.len(), n);
        prop_assert!(!again.torn_truncated && again.quarantined_to.is_none());

        let (path, records) = valid_wal(&dir, n);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(noise.as_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let rec = Wal::recover(&path, &boot_graph()).unwrap();
        prop_assert!(
            rec.torn_truncated || rec.quarantined_to.is_some(),
            "the noise must be repaired away"
        );
        prop_assert_eq!(&rec.records, &records);
        prop_assert_eq!(recover_wal_twice(&path), records);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Foreign headers — other formats' magics, short files, empty files,
/// future versions and, for the WAL, another graph's log — quarantine
/// whole without panicking. The capture leaves nothing behind; the WAL
/// starts a fresh header-only log for the boot graph.
#[test]
fn foreign_headers_quarantine_whole() {
    for foreign in [
        &b"RSIMWAL1everything about this file is some other format"[..],
        &b"RSIMSNP1snapshot bytes"[..],
        &b"PK\x03\x04zipfile"[..],
        &b""[..],
        &b"RSIMCAP"[..],                   // magic truncated
        &b"RSIMCAP2wrong version tag"[..], // future version
    ] {
        let dir = scratch();
        let path = dir.join("cap.rsimcap");
        std::fs::write(&path, foreign).unwrap();
        let rec = capture::recover(&path).unwrap();
        assert!(rec.records.is_empty());
        let dest = rec.quarantined_to.expect("whole file quarantined");
        assert!(dest.exists());
        assert!(!path.exists(), "original must be moved aside");
        let _ = std::fs::remove_dir_all(&dir);
    }

    let g = boot_graph();
    let fp = graph_fingerprint(&g);
    let fresh = [&b"RSIMWAL1"[..], &1u32.to_le_bytes(), &fp.to_le_bytes()].concat();
    let other_graph = [
        &b"RSIMWAL1"[..],
        &1u32.to_le_bytes(),
        &(fp ^ 1).to_le_bytes(),
    ]
    .concat();
    let future = [&b"RSIMWAL1"[..], &2u32.to_le_bytes(), &fp.to_le_bytes()].concat();
    for foreign in [
        &b"RSIMCAP1everything about this file is some other format"[..],
        &b"RSIMSNP1snapshot bytes"[..],
        &b"PK\x03\x04zipfile"[..],
        &b""[..],
        &b"RSIMWAL"[..], // magic truncated
        &future,
        &other_graph,
    ] {
        let dir = scratch();
        let path = dir.join("g.wal");
        std::fs::write(&path, foreign).unwrap();
        let rec = Wal::recover(&path, &g).unwrap();
        assert!(rec.records.is_empty() && !rec.torn_truncated);
        let dest = rec.quarantined_to.expect("whole file quarantined");
        assert_eq!(std::fs::read(&dest).unwrap(), foreign);
        assert_eq!(rec.fingerprint, fp);
        assert_eq!(rec.wal.next_seq(), 1);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            fresh,
            "fresh log for the boot graph"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
