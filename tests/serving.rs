//! End-to-end robustness tests for the serving and persistence layer.
//!
//! Three contracts from the serving design are pinned here, across crate
//! boundaries (which is why these live in the workspace-level suite):
//!
//! 1. **Snapshots are faithful**: save → load round-trips every cached
//!    commuting matrix bit-identically, and a warm-restored engine ranks
//!    *exactly* like a cold rebuild — the paper's representation-
//!    independence claim extends to index persistence, checked by
//!    property over random graphs.
//! 2. **Corruption never propagates**: truncated or bit-flipped snapshot
//!    files are quarantined aside and the service rebuilds cold, with
//!    identical answers.
//! 3. **Overload is a typed answer, not a timeout**: a burst beyond the
//!    admission queue gets `overloaded` responses with a retry hint
//!    while admitted requests still succeed.

// Tests may panic freely: the workspace panic-freedom lints target
// library code, not assertions.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use repsim_core::QueryEngine;
use repsim_graph::{Graph, GraphBuilder};
use repsim_metawalk::commuting::{CacheKind, CommutingCache};
use repsim_metawalk::MetaWalk;
use repsim_serve::snapshot::{self, LoadOutcome};
use repsim_serve::{client_roundtrip, run, ServeConfig, ServiceConfig};
use repsim_sparse::budget::failpoints;
use repsim_sparse::{Budget, Parallelism};

/// A small random 3-layer graph (l0 — l1 — l2), the shape every
/// meta-walk in these tests traverses.
#[derive(Debug, Clone)]
struct RandomTripartite {
    sizes: [u8; 3],
    edges01: Vec<(u8, u8)>,
    edges12: Vec<(u8, u8)>,
}

fn tripartite_strategy() -> impl Strategy<Value = RandomTripartite> {
    (
        (1u8..5, 1u8..5, 1u8..5),
        prop::collection::vec((0u8..5, 0u8..5), 1..15),
        prop::collection::vec((0u8..5, 0u8..5), 1..15),
    )
        .prop_map(|((s0, s1, s2), edges01, edges12)| RandomTripartite {
            sizes: [s0, s1, s2],
            edges01,
            edges12,
        })
}

fn build(rt: &RandomTripartite) -> Graph {
    let mut b = GraphBuilder::new();
    let labels: Vec<_> = (0..3).map(|i| b.entity_label(&format!("l{i}"))).collect();
    let nodes: Vec<Vec<_>> = (0..3)
        .map(|i| {
            (0..rt.sizes[i])
                .map(|j| b.entity(labels[i], &format!("v{i}_{j}")))
                .collect()
        })
        .collect();
    for &(a, c) in &rt.edges01 {
        let a = nodes[0][a as usize % nodes[0].len()];
        let c = nodes[1][c as usize % nodes[1].len()];
        let _ = b.edge(a, c);
    }
    for &(a, c) in &rt.edges12 {
        let a = nodes[1][a as usize % nodes[1].len()];
        let c = nodes[2][c as usize % nodes[2].len()];
        let _ = b.edge(a, c);
    }
    b.build()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repsim-serving-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Populates a cache with the plain and informative matrices of the
/// given walks (plain is skipped for `*`-walks, which only exist in
/// informative form).
fn populate(g: &Graph, walks: &[&str]) -> CommutingCache {
    let mut cache = CommutingCache::new();
    let par = Parallelism::default();
    let budget = Budget::unlimited();
    for text in walks {
        let mw = MetaWalk::parse_in(g, text).expect("test walk parses");
        cache
            .try_informative_with(g, &mw, par, &budget)
            .expect("unlimited build");
        if !mw.has_star() {
            cache
                .try_plain_with(g, &mw, par, &budget)
                .expect("unlimited build");
        }
    }
    cache
}

/// Every ranking a restored engine can produce, as raw bits: one entry
/// per source node, scores compared exactly (f64 bit patterns), because
/// "bit-identical to a cold rebuild" is the snapshot contract.
fn all_rankings(g: &Graph, engine: &QueryEngine<'_>, k: usize) -> Vec<Vec<(u32, u64)>> {
    let label = engine.half().source();
    g.nodes_of_label(label)
        .iter()
        .map(|&q| {
            engine
                .rank_ref(q, label, k)
                .entries()
                .iter()
                .map(|&(n, s)| (n.0, s.to_bits()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot round-trip: the restored cache re-serializes to the very
    /// same bytes (bit-identical matrices, deterministic encoding), and
    /// an engine warm-started from the restored half matrix ranks
    /// exactly like a cold rebuild.
    #[test]
    fn snapshot_roundtrip_bit_identical_and_rank_preserving(rt in tripartite_strategy()) {
        let g = build(&rt);
        let dir = tmp_dir("prop");
        let cache = populate(&g, &["l0 l1", "l0 l1 l2"]);
        let budget = Budget::unlimited();

        let a = dir.join("a.snap");
        let stats = snapshot::save(&a, &g, &cache, &budget).expect("save");
        prop_assert_eq!(stats.entries, cache.len());

        let restored = match snapshot::load(&a, &g).expect("load") {
            LoadOutcome::Restored(entries) => entries,
            other => return Err(TestCaseError::fail(format!("expected restore, got {other:?}"))),
        };
        prop_assert_eq!(restored.len(), cache.len());

        // Bit-identical: re-importing and re-saving reproduces the file.
        let mut reimported = CommutingCache::new();
        let mut half_matrix = None;
        let half = MetaWalk::parse_in(&g, "l0 l1").unwrap();
        for (kind, mw, m) in restored {
            if kind == CacheKind::Informative && mw == half {
                half_matrix = Some(m.clone());
            }
            reimported.import(&g, kind, mw, m).expect("factors rebuild");
        }
        let b = dir.join("b.snap");
        snapshot::save(&b, &g, &reimported, &budget).expect("save reimported");
        prop_assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());

        // Rank-preserving: warm restore versus cold rebuild.
        let par = Parallelism::default();
        let warm = QueryEngine::try_from_half_matrix(
            &g, half.clone(), half_matrix.expect("half walk persisted"), par,
        ).expect("restore engine");
        let cold = QueryEngine::try_with_budget(&g, half, par, &budget).expect("cold build");
        prop_assert_eq!(all_rankings(&g, &warm, 5), all_rankings(&g, &cold, 5));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fixed graph for the corruption fixtures: big enough that the
/// snapshot has structure worth corrupting.
fn fixture_graph() -> Graph {
    build(&RandomTripartite {
        sizes: [4, 3, 2],
        edges01: vec![(0, 0), (0, 1), (1, 0), (2, 2), (3, 1), (3, 2)],
        edges12: vec![(0, 0), (1, 1), (2, 0), (2, 1)],
    })
}

fn assert_quarantined(path: &Path, g: &Graph, what: &str) {
    match snapshot::load(path, g).expect("load is not an I/O error") {
        LoadOutcome::Quarantined {
            reason,
            quarantined_to,
        } => {
            assert!(
                quarantined_to.exists(),
                "{what}: rejected bytes kept for forensics"
            );
            assert!(!path.exists(), "{what}: corrupt file moved aside");
            assert!(!reason.is_empty(), "{what}: reason populated");
        }
        other => panic!("{what}: expected quarantine, got {other:?}"),
    }
}

#[test]
fn truncated_snapshots_quarantine_and_rebuild_matches() {
    let g = fixture_graph();
    let dir = tmp_dir("trunc");
    let cache = populate(&g, &["l0 l1 l2"]);
    let budget = Budget::unlimited();
    let path = dir.join("idx.snap");
    snapshot::save(&path, &g, &cache, &budget).expect("save");
    let good = std::fs::read(&path).unwrap();

    // Baseline answers from the intact snapshot.
    let half = MetaWalk::parse_in(&g, "l0 l1 l2").unwrap();
    let par = Parallelism::default();
    let baseline = {
        let cold = QueryEngine::try_with_budget(&g, half.clone(), par, &budget).unwrap();
        all_rankings(&g, &cold, 5)
    };

    for cut in [
        1,
        snapshot::HEADER_LEN - 3,
        snapshot::HEADER_LEN + 1,
        good.len() - 1,
    ] {
        std::fs::write(&path, &good[..cut]).unwrap();
        assert_quarantined(&path, &g, &format!("truncated at {cut}"));

        // The rebuild path: quarantine left no snapshot, so the next
        // load is a cold start, and the cold engine answers match.
        assert!(matches!(
            snapshot::load(&path, &g).expect("load"),
            LoadOutcome::Absent
        ));
        let rebuilt = populate(&g, &["l0 l1 l2"]);
        snapshot::save(&path, &g, &rebuilt, &budget).expect("re-save");
        let LoadOutcome::Restored(entries) = snapshot::load(&path, &g).expect("load") else {
            panic!("re-saved snapshot must restore");
        };
        let (_, _, m) = entries
            .into_iter()
            .find(|(kind, mw, _)| *kind == CacheKind::Informative && *mw == half)
            .expect("half walk persisted");
        let warm = QueryEngine::try_from_half_matrix(&g, half.clone(), m, par).unwrap();
        assert_eq!(all_rankings(&g, &warm, 5), baseline);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_snapshots_quarantine() {
    let g = fixture_graph();
    let dir = tmp_dir("flip");
    let cache = populate(&g, &["l0 l1", "l0 l1 l2"]);
    let path = dir.join("idx.snap");
    snapshot::save(&path, &g, &cache, &Budget::unlimited()).expect("save");
    let good = std::fs::read(&path).unwrap();

    // Flip one bit at a spread of offsets: header magic, version,
    // fingerprint, checksum and payload body must all be caught.
    for pos in (0..good.len()).step_by((good.len() / 9).max(1)) {
        let mut bad = good.clone();
        bad[pos] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        assert_quarantined(&path, &g, &format!("bit flip at {pos}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_burst_answers_typed_overloaded() {
    let g = fixture_graph();
    let dir = tmp_dir("burst");
    let port_file = dir.join("port");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        snapshot: None,
        wal: None,
        queue_cap: 1,
        port_file: Some(port_file.clone()),
        metrics_journal: None,
        metrics_interval_ms: 1000,
        service: ServiceConfig {
            // Arm the slow-worker failpoint so the single worker holds
            // each request ~25ms and the burst piles up behind it.
            fault_injection: true,
            ..ServiceConfig::default()
        },
    };
    let _fp = failpoints::scoped(&[failpoints::SERVE_SLOW_WORKER]);
    let shutdown = AtomicBool::new(false);

    let (oks, overloaded) = std::thread::scope(|s| {
        let (g, cfg, shutdown) = (&g, &cfg, &shutdown);
        s.spawn(move || {
            let _ = run(g, cfg, shutdown);
        });
        let addr = loop {
            match std::fs::read_to_string(&port_file) {
                Ok(text) if text.trim().parse::<SocketAddr>().is_ok() => {
                    break text.trim().to_owned()
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        // One request per connection: a single connection serializes on
        // its reply channel and can never overflow the queue by itself.
        let results = std::thread::scope(|burst| {
            let handles: Vec<_> = (0..12)
                .map(|i| {
                    let addr = addr.clone();
                    burst.spawn(move || {
                        let line = format!(
                            r#"{{"id":{i},"walk":"l0 l1","label":"l0","value":"v0_0","k":3}}"#
                        );
                        client_roundtrip(&addr, &[line]).expect("roundtrip")
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        });
        shutdown.store(true, Ordering::SeqCst);

        let oks = results
            .iter()
            .filter(|r| r.contains(r#""ok":true"#))
            .count();
        let overloaded = results
            .iter()
            .filter(|r| r.contains(r#""code":"overloaded""#))
            .collect::<Vec<_>>();
        (
            oks,
            overloaded.iter().map(|s| (*s).clone()).collect::<Vec<_>>(),
        )
    });

    assert!(oks >= 1, "admitted requests still succeed");
    assert!(
        !overloaded.is_empty(),
        "a burst past the queue must shed with a typed rejection"
    );
    for line in &overloaded {
        assert!(
            line.contains("retry_after_ms"),
            "sheds carry a retry hint: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
