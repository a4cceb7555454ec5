//! The live-mutation correctness gate (ISSUE 7): after **any**
//! proptest-generated mutation sequence, the incrementally maintained
//! index is bit-identical to a cold rebuild on the mutated graph, and
//! replaying the write-ahead log from disk reproduces the exact same
//! state the live path acknowledged.
//!
//! Two layers are pinned:
//!
//! 1. **Maintainer level** — `DeltaMaintainer` over a `CommutingCache`:
//!    after every single operation, every warmed entry, plain and
//!    informative, is still present (an unlimited budget never fails a
//!    patch) and equals its commuting matrix recomputed from scratch,
//!    bit for bit, and the recovered WAL replays into a graph with the
//!    acknowledged fingerprint. The walks cover same-label hops, a
//!    \*-label, a single label and an asymmetric pair of end labels.
//! 2. **Service level** — `QueryService::handle_mutate` sequences: the
//!    warm service ranks exactly like a cold service built on the final
//!    graph, and a fresh service recovering the same WAL converges to
//!    the same fingerprint and the same rankings.
//!
//! Scores here are exact `f64` equality, not an ε-tolerance: R-PathSim
//! scores are ratios of integer walk counts, exact below 2^53.

// Tests may panic freely: the workspace panic-freedom lints target
// library code, not assertions.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use repsim_graph::mutation::{self, MutationOp, NodeRef, Touch};
use repsim_graph::{Graph, GraphBuilder};
use repsim_metawalk::commuting::{
    informative_commuting, plain_commuting, CacheKind, CommutingCache,
};
use repsim_metawalk::delta::DeltaMaintainer;
use repsim_metawalk::MetaWalk;
use repsim_serve::snapshot::graph_fingerprint;
use repsim_serve::{QueryService, ServiceConfig, Wal};
use repsim_sparse::Budget;

/// One abstract step of a mutation plan; resolved against whatever the
/// graph looks like when it is reached, skipping steps that are invalid
/// at that point (duplicate edges, already-removed edges, …).
#[derive(Debug, Clone)]
enum PlanOp {
    /// Add entity `paper:x{n}` (a duplicate is skipped, not an error).
    AddEntity(u8),
    /// Wire paper `i` (mod population) to cite node `j` (mod population).
    AddEdge(u8, u8),
    /// Unwire paper `i` from cite node `j` if the edge exists.
    RemoveEdge(u8, u8),
    /// Wire paper `i` to venue `j`, or unwire it if already wired.
    ToggleVenue(u8, u8),
}

fn plan_strategy(max_ops: usize) -> impl Strategy<Value = Vec<PlanOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..8).prop_map(PlanOp::AddEntity),
            (0u8..16, 0u8..16).prop_map(|(i, j)| PlanOp::AddEdge(i, j)),
            (0u8..16, 0u8..16).prop_map(|(i, j)| PlanOp::RemoveEdge(i, j)),
            (0u8..16, 0u8..4).prop_map(|(i, j)| PlanOp::ToggleVenue(i, j)),
        ],
        1..max_ops,
    )
}

/// Papers wired through cite nodes, each published at one of two
/// venues; every cite node has degree two so the §2.2 model assumptions
/// hold at the seed.
fn seed_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let paper = b.entity_label("paper");
    let venue = b.entity_label("venue");
    let cite = b.relationship_label("cite");
    let p: Vec<_> = (0..5).map(|i| b.entity(paper, &format!("p{i}"))).collect();
    for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] {
        let c = b.relationship(cite);
        b.edge(p[x], c).unwrap();
        b.edge(c, p[y]).unwrap();
    }
    let v: Vec<_> = (0..2).map(|i| b.entity(venue, &format!("v{i}"))).collect();
    for (i, &pi) in p.iter().enumerate() {
        b.edge(pi, v[i % 2]).unwrap();
    }
    b.build()
}

/// The maintained walks: same-label hops through a relationship label,
/// \*-labels in a relationship run and between entities, a single
/// label, and end labels that differ.
const MAINTAINED_WALKS: [&str; 6] = [
    "paper cite paper",
    "paper cite paper cite paper",
    "paper cite *paper cite paper",
    "venue *paper venue",
    "paper",
    "venue paper cite paper",
];

/// Resolves one abstract step into a concrete, valid [`MutationOp`]
/// against `g`, or `None` when the step is a no-op at this point.
fn concretize(g: &Graph, op: &PlanOp) -> Option<MutationOp> {
    let paper = g.labels().get("paper").unwrap();
    let cite = g.labels().get("cite").unwrap();
    let venue = g.labels().get("venue").unwrap();
    match op {
        PlanOp::AddEntity(n) => {
            let value = format!("x{n}");
            if g.entity(paper, &value).is_some() {
                return None;
            }
            Some(MutationOp::AddEntity {
                label: "paper".to_owned(),
                value,
            })
        }
        PlanOp::AddEdge(i, j) | PlanOp::RemoveEdge(i, j) => {
            let papers = g.nodes_of_label(paper);
            let cites = g.nodes_of_label(cite);
            let p = papers[*i as usize % papers.len()];
            let c = cites[*j as usize % cites.len()];
            let (a, b) = (NodeRef::of(g, p), NodeRef::of(g, c));
            match (op, g.has_edge(p, c)) {
                (PlanOp::AddEdge(..), false) => Some(MutationOp::AddEdge { a, b }),
                (PlanOp::RemoveEdge(..), true) => Some(MutationOp::RemoveEdge { a, b }),
                _ => None,
            }
        }
        PlanOp::ToggleVenue(i, j) => {
            let papers = g.nodes_of_label(paper);
            let venues = g.nodes_of_label(venue);
            let p = papers[*i as usize % papers.len()];
            let v = venues[*j as usize % venues.len()];
            let (a, b) = (NodeRef::of(g, p), NodeRef::of(g, v));
            Some(match g.has_edge(p, v) {
                true => MutationOp::RemoveEdge { a, b },
                false => MutationOp::AddEdge { a, b },
            })
        }
    }
}

/// Every stored entry with its value's bit pattern.
fn bits(m: &repsim_sparse::Csr) -> (usize, usize, Vec<(usize, usize, u64)>) {
    let entries = m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
    (m.nrows(), m.ncols(), entries)
}

/// A fresh WAL path for one proptest case (cases run concurrently).
fn wal_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("repsim-mutation-props");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{}.wal",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Maintainer-level gate: every warmed entry present and
    /// bit-identical after every op, and the WAL replays to the
    /// acknowledged fingerprint.
    #[test]
    fn maintained_index_is_bit_identical_to_cold_rebuild(plan in plan_strategy(12)) {
        let g0 = seed_graph();
        let walks: Vec<MetaWalk> = MAINTAINED_WALKS
            .iter()
            .map(|w| MetaWalk::parse_in(&g0, w).unwrap())
            .collect();
        let mut cache = CommutingCache::new();
        for mw in &walks {
            cache.informative(&g0, mw);
            if !mw.has_star() {
                cache.plain(&g0, mw);
            }
        }
        let warmed = cache.len();
        let mut maint = DeltaMaintainer::new();
        let budget = Budget::unlimited();
        let path = wal_path("maint");
        let mut wal = Wal::recover(&path, &g0).unwrap().wal;
        let mut cur = g0.clone();
        let mut applied = 0usize;
        for (step, abstract_op) in plan.iter().enumerate() {
            let Some(op) = concretize(&cur, abstract_op) else { continue };
            let touched = mutation::touch(&cur, &op).unwrap();
            let next = mutation::apply(&cur, &op).unwrap();
            // Durability before visibility: the WAL append precedes any
            // index maintenance, exactly like the serving layer.
            wal.append(&op, graph_fingerprint(&next), &budget).unwrap();
            match touched {
                Touch::Edge(a, b) => {
                    maint.apply_edge_change(&mut cache, &next, a, b, &budget);
                }
                Touch::Node(l) => {
                    maint.apply_node_change(&mut cache, l);
                }
            }
            cur = next;
            applied += 1;
            // The gate: every warmed entry survives the op and equals a
            // cold recomputation on the post-mutation graph, bit for bit.
            prop_assert_eq!(cache.len(), warmed, "step {}: an entry was evicted", step);
            for mw in &walks {
                let mut kinds = vec![(CacheKind::Informative, informative_commuting(&cur, mw))];
                if !mw.has_star() {
                    kinds.push((CacheKind::Plain, plain_commuting(&cur, mw)));
                }
                for (kind, cold) in kinds {
                    let m = cache.peek(kind, mw);
                    prop_assert!(m.is_some(), "step {}: {:?} {} absent", step, kind, mw);
                    prop_assert_eq!(bits(m.unwrap()), bits(&cold), "step {}: {:?} {}", step, kind, mw);
                }
            }
        }
        drop(wal);
        // Crash-safe replay: recovering the log onto the seed graph
        // reproduces the exact final state the live path acknowledged.
        let rec = Wal::recover(&path, &g0).unwrap();
        prop_assert_eq!(rec.records.len(), applied);
        prop_assert!(!rec.torn_truncated);
        prop_assert_eq!(rec.fingerprint, graph_fingerprint(&cur));
        for mw in &walks {
            prop_assert_eq!(
                informative_commuting(&rec.graph, mw),
                informative_commuting(&cur, mw)
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Service-level gate: a warm mutated service ranks exactly like a
    /// cold service on the final graph, and a fresh service recovering
    /// the same WAL converges to the same fingerprint and rankings.
    #[test]
    fn mutated_service_matches_cold_and_wal_replay(plan in plan_strategy(6)) {
        let g0 = seed_graph();
        let cfg = ServiceConfig::default();
        let svc = QueryService::new(&g0, cfg.clone());
        let path = wal_path("svc");
        svc.recover_wal(&path).unwrap();
        // Warm the index before mutating so maintenance has work to do.
        svc.handle_rank("paper cite paper", "paper", "p0", 5, None).unwrap();
        let mut acked = Vec::new();
        for abstract_op in &plan {
            let Some(op) = concretize(&svc.graph(), abstract_op) else { continue };
            let (fp, seq, _path) = svc.handle_mutate(&op, None).unwrap();
            acked.push((fp, seq));
        }
        let final_g = svc.graph();
        prop_assert_eq!(
            acked.last().map(|(fp, _)| fp.clone()).unwrap_or_else(|| svc.fingerprint_hex()),
            svc.fingerprint_hex()
        );

        // Cold rebuild on the final graph: identical tiers and scores.
        let cold = QueryService::new(&final_g, cfg.clone());
        // Fresh service recovering the same WAL: same state, same answers.
        let replayed = QueryService::new(&g0, cfg);
        let rec = replayed.recover_wal(&path).unwrap();
        prop_assert_eq!(rec.replayed, acked.len());
        prop_assert_eq!(replayed.fingerprint_hex(), svc.fingerprint_hex());

        let paper = final_g.labels().get("paper").unwrap();
        for &n in final_g.nodes_of_label(paper) {
            let value = final_g.value_of(n).unwrap();
            let warm = svc.handle_rank("paper cite paper", "paper", value, 5, None).unwrap();
            let from_cold = cold.handle_rank("paper cite paper", "paper", value, 5, None).unwrap();
            let from_wal = replayed.handle_rank("paper cite paper", "paper", value, 5, None).unwrap();
            prop_assert_eq!(&warm, &from_cold, "query {}", value);
            prop_assert_eq!(&warm, &from_wal, "query {}", value);
        }
        let _ = std::fs::remove_file(&path);
    }
}
