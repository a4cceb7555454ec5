//! Golden bytes of the three on-disk formats, and every crash point of
//! the two framed logs: the mutation WAL (`RSIMWAL1`), the traffic
//! capture (`RSIMCAP1`) and the index snapshot (`RSIMSNAP`).
//!
//! `fixtures/golden/` holds one file of each, written from the fixed
//! inputs below. Rebuilding them must reproduce those files byte for
//! byte, so any change to the on-disk format shows up here first. The
//! snapshot must also restore every matrix bit for bit, and a snapshot
//! in the retired compact matrix record must quarantine. Log recovery
//! is then checked at every truncation offset of each log, and the
//! damage events and counters are pinned by name.

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
use std::sync::Arc;

use repsim_graph::mutation::{self, MutationOp};
use repsim_graph::{Graph, GraphBuilder, NodeRef};
use repsim_metawalk::commuting::{CacheKind, CommutingCache};
use repsim_metawalk::MetaWalk;
use repsim_obs::{CollectSink, EventKind, Registry, Sink};
use repsim_serve::capture::{self, CaptureRecord, CaptureWriter};
use repsim_serve::snapshot::{self, graph_fingerprint, LoadOutcome};
use repsim_serve::wal::{Wal, WalRecord};
use repsim_sparse::Budget;

const GOLDEN_WAL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/golden/mutations.wal");
const GOLDEN_CAP: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/golden/traffic.rsimcap"
);
const GOLDEN_SNAP: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/golden/index.rsimsnap"
);
/// The same index, written when snapshots stored each matrix in the
/// delta-encoded compact record.
const GOLDEN_SNAP_COMPACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/golden/index_compact_v1.rsimsnap"
);
const HEADER_LEN: usize = 20;
const CAPTURE_SEED: u64 = 0x5eed_cafe;

/// A fresh scratch directory per call: quarantine rotation writes
/// sibling files, so recoveries must not share a directory.
fn scratch() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "repsim-golden-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn entity(label: &str, value: &str) -> NodeRef {
    NodeRef::Entity {
        label: label.to_owned(),
        value: value.to_owned(),
    }
}

fn base_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let film = b.entity_label("film");
    let actor = b.entity_label("actor");
    let f0 = b.entity(film, "f0");
    let f1 = b.entity(film, "f1");
    let a0 = b.entity(actor, "a0");
    b.edge(f0, a0).unwrap();
    b.edge(f1, a0).unwrap();
    b.build()
}

/// One mutation of each kind, in an order that applies cleanly.
fn golden_ops() -> Vec<MutationOp> {
    vec![
        MutationOp::AddEntity {
            label: "actor".to_owned(),
            value: "b0".to_owned(),
        },
        MutationOp::AddEdge {
            a: entity("film", "f0"),
            b: entity("actor", "b0"),
        },
        MutationOp::RemoveEdge {
            a: entity("film", "f1"),
            b: entity("actor", "a0"),
        },
    ]
}

/// The records the golden WAL holds: each op with the fingerprint of
/// the graph after it.
fn golden_wal_records() -> Vec<WalRecord> {
    let mut g = base_graph();
    golden_ops()
        .into_iter()
        .enumerate()
        .map(|(i, op)| {
            g = mutation::apply(&g, &op).unwrap();
            WalRecord {
                seq: i as u64 + 1,
                fp_after: graph_fingerprint(&g),
                op,
            }
        })
        .collect()
}

fn golden_capture_records() -> Vec<CaptureRecord> {
    let lines = [
        r#"{"id":1,"walk":"film actor film","label":"film","value":"f0","k":5}"#,
        r#"{"id":2,"op":"mutate","action":"add_entity","label":"actor","value":"b0"}"#,
        r#"{"id":3,"walk":"film actor film","label":"film","value":"f1","k":3}"#,
        r#"{"id":4,"op":"ping"}"#,
    ];
    let deadlines = [Some(250), None, Some(1000), None];
    lines
        .iter()
        .zip(deadlines)
        .enumerate()
        .map(|(i, (line, deadline_ms))| CaptureRecord {
            seq: i as u64 + 1,
            arrival_offset_us: 1_500 * i as u64,
            deadline_ms,
            line: (*line).to_owned(),
        })
        .collect()
}

fn write_golden_wal(path: &Path) {
    let mut wal = Wal::recover(path, &base_graph()).unwrap().wal;
    for r in golden_wal_records() {
        assert_eq!(
            wal.append(&r.op, r.fp_after, &Budget::unlimited()).unwrap(),
            r.seq
        );
    }
}

fn write_golden_capture(path: &Path) {
    let mut w = CaptureWriter::create(path, CAPTURE_SEED).unwrap();
    for r in golden_capture_records() {
        assert_eq!(
            w.append(r.arrival_offset_us, r.deadline_ms, &r.line)
                .unwrap(),
            r.seq
        );
    }
    w.finish().unwrap();
}

/// A graph with several rows per matrix, one film without actors (an
/// empty row) and one actor shared by three films.
fn index_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let film = b.entity_label("film");
    let actor = b.entity_label("actor");
    let f: Vec<_> = (0..4).map(|i| b.entity(film, &format!("f{i}"))).collect();
    let a: Vec<_> = (0..3).map(|i| b.entity(actor, &format!("a{i}"))).collect();
    for (fi, ai) in [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2)] {
        b.edge(f[fi], a[ai]).unwrap();
    }
    b.build()
}

/// The entries the golden snapshot holds: square, rectangular, plain
/// and *-label matrices.
const SNAPSHOT_WALKS: [(CacheKind, &str); 5] = [
    (CacheKind::Plain, "film actor film"),
    (CacheKind::Informative, "film actor film"),
    (CacheKind::Informative, "actor film actor"),
    (CacheKind::Informative, "film actor"),
    (CacheKind::Informative, "film *actor film"),
];

fn golden_cache(g: &Graph) -> CommutingCache {
    let mut cache = CommutingCache::new();
    for (kind, text) in SNAPSHOT_WALKS {
        let mw = MetaWalk::parse_in(g, text).unwrap();
        match kind {
            CacheKind::Plain => cache.plain(g, &mw),
            CacheKind::Informative => cache.informative(g, &mw),
        };
    }
    cache
}

/// Byte offsets at which each record of a framed log ends, read from
/// the `len: u32 LE` prefix every record carries.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 12 + len;
        ends.push(pos);
    }
    assert_eq!(pos, bytes.len(), "golden file ends on a record boundary");
    ends
}

/// Copies `bytes` into a fresh directory and returns the copy's path.
fn copy_of(bytes: &[u8], name: &str) -> PathBuf {
    let path = scratch().join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn rebuilt_logs_match_the_golden_bytes() {
    let dir = scratch();
    let wal = dir.join("mutations.wal");
    write_golden_wal(&wal);
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        std::fs::read(GOLDEN_WAL).unwrap()
    );
    let cap = dir.join("traffic.rsimcap");
    write_golden_capture(&cap);
    assert_eq!(
        std::fs::read(&cap).unwrap(),
        std::fs::read(GOLDEN_CAP).unwrap()
    );
    let snap = dir.join("index.rsimsnap");
    let g = index_graph();
    snapshot::save(&snap, &g, &golden_cache(&g), &Budget::unlimited()).unwrap();
    assert_eq!(
        std::fs::read(&snap).unwrap(),
        std::fs::read(GOLDEN_SNAP).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-1 file whose matrices use the retired compact record is
/// rejected at the matrix decode and moved aside, never misread as a
/// matrix: its record magic reads as an implausible row count.
#[test]
fn compact_record_snapshot_quarantines() {
    // Quarantine emits a point event; keep it out of the damage test's
    // sink.
    let _x = repsim_obs::exclusive();
    let g = index_graph();
    let path = copy_of(
        &std::fs::read(GOLDEN_SNAP_COMPACT).unwrap(),
        "index.rsimsnap",
    );
    match snapshot::load(&path, &g).unwrap() {
        LoadOutcome::Quarantined {
            reason,
            quarantined_to,
        } => {
            assert!(reason.contains("matrix decode failed"), "{reason}");
            assert!(quarantined_to.exists() && !path.exists());
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn golden_logs_recover_every_field() {
    let g = base_graph();
    let path = copy_of(&std::fs::read(GOLDEN_WAL).unwrap(), "mutations.wal");
    let rec = Wal::recover(&path, &g).unwrap();
    let expect = golden_wal_records();
    assert_eq!(rec.records, expect);
    assert!(!rec.torn_truncated && rec.quarantined_to.is_none());
    assert_eq!(rec.fingerprint, expect[2].fp_after);
    assert_eq!(graph_fingerprint(&rec.graph), expect[2].fp_after);
    assert_eq!(rec.wal.next_seq(), 4);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());

    let path = copy_of(&std::fs::read(GOLDEN_CAP).unwrap(), "traffic.rsimcap");
    let rec = capture::recover(&path).unwrap();
    assert_eq!(rec.seed, CAPTURE_SEED);
    assert_eq!(rec.records, golden_capture_records());
    assert!(!rec.torn_truncated && rec.quarantined_to.is_none());
    let _ = std::fs::remove_dir_all(path.parent().unwrap());

    // Every snapshot matrix comes back with the exact bits of a cold
    // build.
    let g = index_graph();
    let cold = golden_cache(&g);
    let path = copy_of(&std::fs::read(GOLDEN_SNAP).unwrap(), "index.rsimsnap");
    let entries = match snapshot::load(&path, &g).unwrap() {
        LoadOutcome::Restored(entries) => entries,
        other => panic!("expected restore, got {other:?}"),
    };
    assert_eq!(entries.len(), SNAPSHOT_WALKS.len());
    for (kind, mw, m) in &entries {
        let want = cold.peek(*kind, mw).unwrap();
        assert_eq!((m.nrows(), m.ncols()), (want.nrows(), want.ncols()));
        for r in 0..want.nrows() {
            let ((cm, vm), (cw, vw)) = (m.row(r), want.row(r));
            assert_eq!(cm, cw, "{kind:?} {mw} row {r}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(vm), bits(vw), "{kind:?} {mw} row {r}");
        }
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// Every truncation offset of the golden WAL: exactly the records that
/// lie wholly before the cut survive, a cut header quarantines the file
/// and starts a fresh log, the repair is idempotent, and the repaired
/// log takes the next append.
#[test]
fn wal_recovers_at_every_crash_point() {
    // Tearing files ticks the damage counters; hold the obs lock so the
    // counter-delta test in this binary sees only its own damage.
    let _x = repsim_obs::exclusive();
    let g = base_graph();
    let full = std::fs::read(GOLDEN_WAL).unwrap();
    let ends = record_ends(&full);
    let expect = golden_wal_records();
    let extra = MutationOp::AddEntity {
        label: "film".to_owned(),
        value: "f9".to_owned(),
    };
    for cut in 0..=full.len() {
        let path = copy_of(&full[..cut], "g.wal");
        let rec = Wal::recover(&path, &g).unwrap();
        if cut < HEADER_LEN {
            assert!(rec.quarantined_to.is_some(), "cut {cut}");
            assert!(rec.records.is_empty() && !rec.torn_truncated, "cut {cut}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                &full[..HEADER_LEN],
                "cut {cut}"
            );
        } else {
            let survivors = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(rec.records, &expect[..survivors], "cut {cut}");
            let on_boundary = cut == HEADER_LEN || ends.contains(&cut);
            assert_eq!(rec.torn_truncated, !on_boundary, "cut {cut}");
            assert!(rec.quarantined_to.is_none(), "cut {cut}");
        }
        let kept = rec.records.len();

        let again = Wal::recover(&path, &g).unwrap();
        assert!(
            !again.torn_truncated && again.quarantined_to.is_none(),
            "cut {cut}"
        );
        assert_eq!(again.records.len(), kept, "cut {cut}");

        let mut wal = again.wal;
        let next = mutation::apply(&again.graph, &extra).unwrap();
        let seq = wal
            .append(&extra, graph_fingerprint(&next), &Budget::unlimited())
            .unwrap();
        assert_eq!(seq, kept as u64 + 1, "cut {cut}");
        let healed = Wal::recover(&path, &g).unwrap();
        assert_eq!(healed.records.len(), kept + 1, "cut {cut}");
        assert_eq!(healed.fingerprint, graph_fingerprint(&next), "cut {cut}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

/// Every truncation offset of the golden capture: the intact prefix
/// survives, a cut header quarantines the file whole, and the repair is
/// idempotent.
#[test]
fn capture_recovers_at_every_crash_point() {
    let _x = repsim_obs::exclusive();
    let full = std::fs::read(GOLDEN_CAP).unwrap();
    let ends = record_ends(&full);
    let expect = golden_capture_records();
    for cut in 0..=full.len() {
        let path = copy_of(&full[..cut], "t.rsimcap");
        let rec = capture::recover(&path).unwrap();
        if cut < HEADER_LEN {
            assert!(rec.quarantined_to.is_some(), "cut {cut}");
            assert!(rec.records.is_empty() && !rec.torn_truncated, "cut {cut}");
            assert!(!path.exists(), "cut {cut}: original moved aside");
        } else {
            let survivors = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(rec.seed, CAPTURE_SEED, "cut {cut}");
            assert_eq!(rec.records, &expect[..survivors], "cut {cut}");
            let on_boundary = cut == HEADER_LEN || ends.contains(&cut);
            assert_eq!(rec.torn_truncated, !on_boundary, "cut {cut}");
            assert!(rec.quarantined_to.is_none(), "cut {cut}");

            let again = capture::recover(&path).unwrap();
            assert!(
                !again.torn_truncated && again.quarantined_to.is_none(),
                "cut {cut}"
            );
            assert_eq!(again.records, rec.records, "cut {cut}");
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

/// The torn-tail and quarantine event names, and their counters, are
/// carried as data by the shared log format, where the audit's name scan
/// cannot see them; this pins them by emitting each one.
#[test]
fn damage_events_and_counters_keep_their_names() {
    let _x = repsim_obs::exclusive();
    let sink = Arc::new(CollectSink::new());
    let dyn_sink: Arc<dyn Sink> = sink.clone();
    repsim_obs::install(Arc::clone(&dyn_sink));
    let counter = |name: &'static str| Registry::global().counter(name).get();
    let names = [
        "repsim.graph.wal.torn_truncations",
        "repsim.graph.wal.quarantined",
        "repsim.serve.capture.torn_truncations",
        "repsim.serve.capture.quarantined",
    ];
    let before = names.map(counter);

    let g = base_graph();
    let torn_and_flipped = |path: &str| {
        let bytes = std::fs::read(path).unwrap();
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        [bytes[..bytes.len() - 1].to_vec(), flipped]
    };
    let mut copies = Vec::new();
    for bytes in torn_and_flipped(GOLDEN_WAL) {
        copies.push(copy_of(&bytes, "g.wal"));
        Wal::recover(copies.last().unwrap(), &g).unwrap();
    }
    for bytes in torn_and_flipped(GOLDEN_CAP) {
        copies.push(copy_of(&bytes, "t.rsimcap"));
        capture::recover(copies.last().unwrap()).unwrap();
    }

    repsim_obs::remove_sink(&dyn_sink);
    let points: Vec<&str> = sink
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Point { name, .. } => Some(*name),
            _ => None,
        })
        .collect();
    assert_eq!(
        points,
        [
            "repsim.graph.wal.torn_tail",
            "repsim.graph.wal.quarantine",
            "repsim.serve.capture.torn_tail",
            "repsim.serve.capture.quarantine",
        ]
    );
    let after = names.map(counter);
    for ((name, b), a) in names.iter().zip(before).zip(after) {
        assert_eq!(a, b + 1, "{name}");
    }
    for path in copies {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
