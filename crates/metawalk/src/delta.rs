//! Cache maintenance under live graph mutations: eviction.
//!
//! An edge change between labels `(a, b)` perturbs only the walks that
//! contain the pair as adjacent steps; a node addition to label `l`
//! changes the dimensions of every walk that mentions `l`. For each
//! mutation, [`DeltaMaintainer`] evicts exactly those entries of a
//! [`CommutingCache`] and leaves the rest alone. The next lookup of an
//! evicted walk rebuilds it cold on the new graph (in `repsim-serve`,
//! through the single-flight rank path), so every entry is either
//! bit-identical to a cold rebuild on the current graph or absent —
//! never stale.
//!
//! Eviction rather than an in-place update: on the movies `churn`
//! workload, updating entries in place cost more per mutation than the
//! rebuild it saved and kept a second copy of every maintained matrix
//! (DESIGN.md, "Index maintenance by eviction").

use repsim_graph::{Graph, LabelId};
use repsim_obs::CounterHandle;
use repsim_sparse::Budget;

use crate::commuting::{CacheKind, CommutingCache};
use crate::metawalk::MetaWalk;

static DELTA_EVICTIONS: CounterHandle = CounterHandle::new("repsim.cache.delta.evictions");

/// Whether a walk contains `(a, b)` as an adjacent label pair (in either
/// order) — the reach of a single edge change.
pub fn walk_touches_edge(mw: &MetaWalk, a: LabelId, b: LabelId) -> bool {
    let labels: Vec<LabelId> = mw.steps().iter().map(|s| s.label()).collect();
    labels
        .windows(2)
        .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
}

/// Whether a walk mentions a label at all — the reach of a node addition.
pub fn walk_mentions(mw: &MetaWalk, l: LabelId) -> bool {
    mw.steps().iter().any(|s| s.label() == l)
}

/// What happened across the cache for one mutation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainReport {
    /// Entries dropped (rebuilt lazily on next use).
    pub evicted: usize,
    /// Entries whose walk the mutation cannot reach.
    pub untouched: usize,
}

impl MaintainReport {
    /// The path taken, for response/telemetry labels: `"evict"` when any
    /// entry was dropped, `"none"` otherwise.
    pub fn path(&self) -> &'static str {
        if self.evicted > 0 {
            "evict"
        } else {
            "none"
        }
    }
}

/// Keeps a [`CommutingCache`] consistent across mutations by evicting
/// every entry a mutation can reach. Holds no state of its own.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeltaMaintainer;

impl DeltaMaintainer {
    /// A maintainer; it holds no state.
    pub fn new() -> Self {
        Self
    }

    /// Evicts every entry whose walk contains `(a, b)` as adjacent
    /// labels. Never fails. Eviction needs neither `_g_new` (the
    /// post-mutation graph) nor `_budget`; they are kept for source
    /// compatibility with existing callers.
    pub fn apply_edge_change(
        &mut self,
        cache: &mut CommutingCache,
        _g_new: &Graph,
        a: LabelId,
        b: LabelId,
        _budget: &Budget,
    ) -> MaintainReport {
        evict_where(cache, |mw| walk_touches_edge(mw, a, b))
    }

    /// Evicts every entry whose walk mentions `l`: a node addition to
    /// `l` changes those matrices' dimensions.
    pub fn apply_node_change(&mut self, cache: &mut CommutingCache, l: LabelId) -> MaintainReport {
        evict_where(cache, |mw| walk_mentions(mw, l))
    }
}

fn evict_where(cache: &mut CommutingCache, stale: impl Fn(&MetaWalk) -> bool) -> MaintainReport {
    let mut span = repsim_obs::span("repsim.metawalk.delta.apply");
    let entries: Vec<(CacheKind, MetaWalk)> = cache
        .entries()
        .map(|(kind, mw, _)| (kind, mw.clone()))
        .collect();
    let mut report = MaintainReport::default();
    for (kind, mw) in entries {
        if stale(&mw) {
            cache.evict(kind, &mw);
            report.evicted += 1;
            DELTA_EVICTIONS.add(1);
        } else {
            report.untouched += 1;
        }
    }
    if span.is_active() {
        span.attr("evicted", report.evicted);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commuting::informative_commuting;
    use repsim_graph::mutation::{self, MutationOp, NodeRef, Touch};
    use repsim_graph::GraphBuilder;
    use repsim_sparse::Parallelism;
    use std::sync::Arc;

    fn base() -> Graph {
        let mut b = GraphBuilder::new();
        let paper = b.entity_label("paper");
        let author = b.entity_label("author");
        let cite = b.relationship_label("cite");
        let p: Vec<_> = (0..6).map(|i| b.entity(paper, &format!("p{i}"))).collect();
        for (x, y) in [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)] {
            let c = b.relationship(cite);
            b.edge(p[x], c).unwrap();
            b.edge(c, p[y]).unwrap();
        }
        let al = b.entity(author, "alice");
        b.edge(al, p[0]).unwrap();
        b.build()
    }

    fn warm_cache(g: &Graph, walks: &[&str]) -> (CommutingCache, Vec<MetaWalk>) {
        let mut cache = CommutingCache::new();
        let mut mws = Vec::new();
        for w in walks {
            let mw = MetaWalk::parse_in(g, w).unwrap();
            cache.informative(g, &mw);
            mws.push(mw);
        }
        (cache, mws)
    }

    fn add_edge(g: &Graph, a: &str, b: &str) -> (Graph, LabelId, LabelId) {
        let op = MutationOp::AddEdge {
            a: NodeRef::parse(a).unwrap(),
            b: NodeRef::parse(b).unwrap(),
        };
        let Touch::Edge(la, lb) = mutation::touch(g, &op).unwrap() else {
            panic!("edge op must touch an edge");
        };
        (mutation::apply(g, &op).unwrap(), la, lb)
    }

    #[test]
    fn edge_change_evicts_exactly_the_touched_walks() {
        let g = base();
        let (mut cache, mws) = warm_cache(&g, &["paper cite paper", "author paper author"]);
        cache.plain(&g, &mws[1]);
        let mut maint = DeltaMaintainer::new();

        // An author–paper edge cannot reach the (paper, cite, paper) walk;
        // both entries of the author walk, plain and informative, go.
        let (g2, a, b) = add_edge(&g, "author:alice", "paper:p1");
        let before = cache
            .try_informative_shared(&g, &mws[0], Parallelism::serial(), &Budget::unlimited())
            .unwrap();
        let r = maint.apply_edge_change(&mut cache, &g2, a, b, &Budget::unlimited());
        assert_eq!(
            r,
            MaintainReport {
                evicted: 2,
                untouched: 1
            }
        );
        assert_eq!(r.path(), "evict");
        assert!(cache.peek(CacheKind::Informative, &mws[1]).is_none());
        assert!(cache.peek(CacheKind::Plain, &mws[1]).is_none());
        let kept = cache
            .try_informative_shared(&g2, &mws[0], Parallelism::serial(), &Budget::unlimited())
            .unwrap();
        assert!(
            Arc::ptr_eq(&before, &kept),
            "untouched entry is left in place"
        );
        // The next lookup rebuilds the evicted walk on the new graph.
        assert_eq!(
            cache.informative(&g2, &mws[1]),
            &informative_commuting(&g2, &mws[1])
        );
    }

    #[test]
    fn node_addition_evicts_dimension_changed_walks() {
        let g = base();
        let (mut cache, mws) = warm_cache(&g, &["paper cite paper", "author paper author"]);
        let op = MutationOp::AddEntity {
            label: "author".into(),
            value: "bob".into(),
        };
        let Touch::Node(l) = mutation::touch(&g, &op).unwrap() else {
            panic!("add_entity must touch a node label");
        };
        let g2 = mutation::apply(&g, &op).unwrap();
        let r = DeltaMaintainer::new().apply_node_change(&mut cache, l);
        assert_eq!(
            r,
            MaintainReport {
                evicted: 1,
                untouched: 1
            }
        );
        assert!(cache.peek(CacheKind::Informative, &mws[1]).is_none());
        assert_eq!(
            cache.informative(&g2, &mws[1]),
            &informative_commuting(&g2, &mws[1])
        );
    }

    #[test]
    fn an_empty_cache_reports_none() {
        let g = base();
        let mut cache = CommutingCache::new();
        let (g2, a, b) = add_edge(&g, "paper:p0", "cite:#3");
        let r =
            DeltaMaintainer::new().apply_edge_change(&mut cache, &g2, a, b, &Budget::unlimited());
        assert_eq!(r, MaintainReport::default());
        assert_eq!(r.path(), "none");
    }
}
