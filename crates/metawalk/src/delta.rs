//! Cache maintenance under live graph mutations: patch the rows a
//! mutation reaches.
//!
//! Every [`CommutingCache`] entry keeps the chain factors `S₁⋯S_m` its
//! matrix `H` is the product of: one per segment of the walk, §4.3's
//! "precompute, then concatenate". An edge change between labels
//! `(a, b)` changes only the factors whose label run holds the pair as
//! adjacent steps, and only a few rows of those. With `S′` the factors
//! on the new graph and `U_i` the rows in which `S′_i` and `S_i` differ,
//!
//! ```text
//! H′ − H = Σ_i S′₁⋯S′_{i−1} (S′_i − S_i) S_{i+1}⋯S_m,
//! ```
//!
//! so no row of `H` outside `R = U₁ ∪ ⋃_{i≥2} supp(S′₁⋯S′_{i−1} · 1_{U_i})`
//! can change. [`DeltaMaintainer`] rebuilds the touched factors on the
//! new graph, diffs their rows against the stored ones, finds `R`,
//! chains rows `R` of `S′₁` through `S′₂⋯S′_m` with the SpGEMM kernel and
//! splices the result into `H` ([`Csr::splice_rows`]), then re-sums the
//! entry's row norms on `R` only. The new rows are bit-identical to a
//! cold build: every entry is an integer count below 2^53, so any
//! association of the product gives the same bits.
//!
//! A node addition to label `l` adds a node without edges. Every stored
//! matrix whose rows are labelled `l` gains an empty row (norm 0) and
//! every one whose columns are labelled `l` an empty column; a
//! single-label walk's identity gains a diagonal 1 (norm 1). A walk with
//! `l` only inside keeps `H`.
//!
//! `H` and its norms are edited through `Arc::make_mut`: in place when
//! the cache holds the only handle, copy-on-write when an engine of the
//! previous graph still reads them. A patch that fails (its budget
//! trips) evicts the entry, which rebuilds cold on next use, so every
//! entry is bit-identical to a cold rebuild on the current graph or
//! absent — never stale. Measurements are in DESIGN.md, "Index maintenance by
//! row patching".

use std::sync::Arc;

use repsim_graph::{Graph, LabelId};
use repsim_obs::CounterHandle;
use repsim_sparse::chain::try_spmm_chain_with_budget_in;
use repsim_sparse::{Budget, Csr, ExecError, Parallelism, SpgemmArena};

use crate::commuting::{segment_matrix, segments, CacheKind, CommutingCache, Entry};
use crate::metawalk::{MetaWalk, Step};

static DELTA_APPLIED: CounterHandle = CounterHandle::new("repsim.cache.delta.applied");
static DELTA_EVICTIONS: CounterHandle = CounterHandle::new("repsim.cache.delta.evictions");

/// Whether a run of steps contains `(a, b)` as an adjacent label pair
/// (in either order) — the reach of a single edge change.
fn run_touches_edge(steps: &[Step], a: LabelId, b: LabelId) -> bool {
    steps.windows(2).any(|w| {
        let (x, y) = (w[0].label(), w[1].label());
        (x == a && y == b) || (x == b && y == a)
    })
}

/// What happened across the cache for one mutation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintainReport {
    /// Entries patched to the new graph.
    pub patched: usize,
    /// Entries dropped because their patch failed (rebuilt lazily on
    /// next use).
    pub evicted: usize,
    /// Entries whose walk the mutation cannot reach.
    pub untouched: usize,
}

impl MaintainReport {
    /// The path taken, for response/telemetry labels: `"evict"` when any
    /// entry was dropped, `"patch"` when entries were patched and none
    /// dropped, `"none"` when the mutation reached no entry.
    pub fn path(&self) -> &'static str {
        if self.evicted > 0 {
            "evict"
        } else if self.patched > 0 {
            "patch"
        } else {
            "none"
        }
    }
}

/// Keeps a [`CommutingCache`] consistent across mutations by patching
/// every entry a mutation can reach. Holds no state of its own.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeltaMaintainer;

impl DeltaMaintainer {
    /// A maintainer; it holds no state.
    pub fn new() -> Self {
        Self
    }

    /// Patches every entry whose walk contains `(a, b)` as adjacent
    /// labels to `g_new`, the post-mutation graph, under `budget`. An
    /// entry whose patch fails is evicted, so this never fails.
    pub fn apply_edge_change(
        &mut self,
        cache: &mut CommutingCache,
        g_new: &Graph,
        a: LabelId,
        b: LabelId,
        budget: &Budget,
    ) -> MaintainReport {
        maintain(cache, |kind, mw, entry| {
            match run_touches_edge(mw.steps(), a, b) {
                true => patch_edge(entry, g_new, kind, mw, a, b, budget).map(|()| true),
                false => Ok(false),
            }
        })
    }

    /// Grows every entry whose walk mentions `l` by the node just added
    /// to `l`, which has no edges yet. Never fails.
    pub fn apply_node_change(&mut self, cache: &mut CommutingCache, l: LabelId) -> MaintainReport {
        maintain(cache, |_, mw, entry| {
            // A node addition reaches every walk that mentions its label.
            let reached = mw.steps().iter().any(|s| s.label() == l);
            if reached {
                grow(entry, mw, l);
            }
            Ok(reached)
        })
    }
}

/// Runs `patch` over every entry: `Ok(false)` leaves it untouched,
/// `Ok(true)` reports it patched, an error evicts it.
fn maintain(
    cache: &mut CommutingCache,
    mut patch: impl FnMut(CacheKind, &MetaWalk, &mut Entry) -> Result<bool, ExecError>,
) -> MaintainReport {
    let mut span = repsim_obs::span("repsim.metawalk.delta.apply");
    let keys: Vec<(CacheKind, MetaWalk)> = cache
        .entries()
        .map(|(kind, mw, _)| (kind, mw.clone()))
        .collect();
    let mut report = MaintainReport::default();
    for (kind, walk) in keys {
        let Some(entry) = cache.entry_mut(kind, &walk) else {
            continue;
        };
        match patch(kind, &walk, entry) {
            Ok(false) => report.untouched += 1,
            Ok(true) => {
                report.patched += 1;
                DELTA_APPLIED.add(1);
            }
            Err(_) => {
                cache.evict(kind, &walk);
                report.evicted += 1;
                DELTA_EVICTIONS.add(1);
            }
        }
    }
    if span.is_active() {
        span.attr("patched", report.patched);
        span.attr("evicted", report.evicted);
    }
    report
}

/// Patches one entry to an edge change: rebuilds the factors whose run
/// holds `(a, b)`, recomputes the rows of `H` they reach, splices them
/// in and re-sums their norms. Everything fallible runs before the entry
/// is touched, so an error leaves it as it was.
fn patch_edge(
    entry: &mut Entry,
    g_new: &Graph,
    kind: CacheKind,
    mw: &MetaWalk,
    a: LabelId,
    b: LabelId,
    budget: &Budget,
) -> Result<(), ExecError> {
    let segs = segments(mw);
    if segs.len() != entry.factors.len() {
        return Err(ExecError::InvalidInput {
            op: "delta",
            message: format!(
                "{} factors for {} segments",
                entry.factors.len(),
                segs.len()
            ),
        });
    }
    let mut arena = SpgemmArena::new();
    let informative = kind == CacheKind::Informative;
    let mut rebuilt: Vec<Option<Csr>> = Vec::with_capacity(segs.len());
    let mut changed: Vec<Vec<usize>> = Vec::with_capacity(segs.len());
    for (&(lo, hi), old) in segs.iter().zip(&entry.factors) {
        if !run_touches_edge(&mw.steps()[lo..=hi], a, b) {
            rebuilt.push(None);
            changed.push(Vec::new());
            continue;
        }
        let serial = Parallelism::serial();
        let new = segment_matrix(g_new, mw, (lo, hi), informative, serial, budget, &mut arena)?;
        if (new.nrows(), new.ncols()) != (old.nrows(), old.ncols()) {
            return Err(ExecError::ShapeMismatch {
                op: "delta",
                lhs: (old.nrows(), old.ncols()),
                rhs: (new.nrows(), new.ncols()),
            });
        }
        changed.push(
            (0..new.nrows())
                .filter(|&r| new.row(r) != old.row(r))
                .collect(),
        );
        rebuilt.push(Some(new));
    }
    let factor = |i: usize| rebuilt[i].as_ref().unwrap_or(&entry.factors[i]);

    // Walk back from the last factor: a row of S′_i is reached when it
    // changed or leads into a reached row of S′_{i+1}.
    let mut reach: Vec<bool> = Vec::new();
    for i in (0..segs.len()).rev() {
        let f = factor(i);
        let mut hit = vec![false; f.nrows()];
        for &r in &changed[i] {
            hit[r] = true;
        }
        if reach.contains(&true) {
            for (r, h) in hit.iter_mut().enumerate() {
                *h = *h || f.row(r).0.iter().any(|&c| reach[c as usize]);
            }
        }
        reach = hit;
    }
    let rows: Vec<usize> = (0..reach.len()).filter(|&r| reach[r]).collect();

    if !rows.is_empty() {
        let head = factor(0).select_rows(&rows);
        let chain: Vec<&Csr> = std::iter::once(&head)
            .chain((1..segs.len()).map(factor))
            .collect();
        let fresh = try_spmm_chain_with_budget_in(&chain, 1, budget, &mut arena)?;
        let (nrows, ncols) = (entry.m.nrows(), entry.m.ncols());
        let m = Arc::make_mut(&mut entry.m);
        m.splice_rows(nrows, ncols, &rows, &fresh);
        let diag = Arc::make_mut(&mut entry.diag);
        for &r in &rows {
            diag[r] = m.row_sq_sum(r);
        }
    }
    for (slot, new) in entry.factors.iter_mut().zip(rebuilt) {
        if let Some(new) = new {
            *slot = new;
        }
    }
    Ok(())
}

/// Grows one entry by a node without edges added to `l`, norms
/// included.
fn grow(entry: &mut Entry, mw: &MetaWalk, l: LabelId) {
    let steps = mw.steps();
    for (f, (lo, hi)) in entry.factors.iter_mut().zip(segments(mw)) {
        widen(f, steps[lo].label() == l, steps[hi].label() == l);
    }
    let (row, col) = (mw.source() == l, mw.target() == l);
    if !(row || col) {
        return;
    }
    let m = Arc::make_mut(&mut entry.m);
    if entry.factors.is_empty() {
        // The identity of a single-label walk: the new node is its own
        // zero-length walk.
        let n = m.nrows();
        m.splice_rows(
            n + 1,
            n + 1,
            &[n],
            &Csr::from_triplets(1, n + 1, [(0, n as u32, 1.0)]),
        );
    } else {
        widen(m, row, col);
    }
    if row {
        let diag = Arc::make_mut(&mut entry.diag);
        diag.extend((diag.len()..m.nrows()).map(|r| m.row_sq_sum(r)));
    }
}

/// Appends an empty row and/or an empty column.
fn widen(m: &mut Csr, row: bool, col: bool) {
    let (nrows, ncols) = (m.nrows() + usize::from(row), m.ncols() + usize::from(col));
    m.splice_rows(nrows, ncols, &[], &Csr::zeros(0, ncols));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commuting::{informative_commuting, plain_commuting};
    use repsim_graph::mutation::{self, MutationOp, NodeRef, Touch};
    use repsim_graph::GraphBuilder;
    use repsim_sparse::Parallelism;

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
        b.edge(al, p[3]).unwrap();
        let bo = b.entity(author, "bob");
        b.edge(bo, p[3]).unwrap();
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

    fn bits(m: &Csr) -> Vec<(usize, usize, u64)> {
        m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect()
    }

    /// The cached norms of an entry against a cold build's, bit for bit.
    fn assert_diag(cache: &CommutingCache, kind: CacheKind, mw: &MetaWalk, cold: &Csr) {
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let diag = cache.peek_diag(kind, mw).unwrap();
        assert_eq!(bits(diag), bits(&cold.row_sq_sums()), "{kind:?} {mw:?}");
    }

    #[test]
    fn edge_change_patches_exactly_the_touched_walks() {
        let g = base();
        let (mut cache, mws) = warm_cache(&g, &["paper cite paper", "author paper author"]);
        cache.plain(&g, &mws[1]);
        let mut maint = DeltaMaintainer::new();

        // An author–paper edge cannot reach the (paper, cite, paper) walk;
        // both entries of the author walk, plain and informative, patch.
        let (g2, a, b) = add_edge(&g, "author:bob", "paper:p1");
        let (before, before_diag) = cache
            .try_informative_shared(&g, &mws[0], Parallelism::serial(), &Budget::unlimited())
            .unwrap();
        let r = maint.apply_edge_change(&mut cache, &g2, a, b, &Budget::unlimited());
        assert_eq!((r.patched, r.evicted, r.untouched), (2, 0, 1));
        assert_eq!(r.path(), "patch");
        for (kind, cold) in [
            (CacheKind::Informative, informative_commuting(&g2, &mws[1])),
            (CacheKind::Plain, plain_commuting(&g2, &mws[1])),
        ] {
            assert_eq!(bits(cache.peek(kind, &mws[1]).unwrap()), bits(&cold));
            assert_diag(&cache, kind, &mws[1], &cold);
        }
        let (kept, kept_diag) = cache
            .try_informative_shared(&g2, &mws[0], Parallelism::serial(), &Budget::unlimited())
            .unwrap();
        assert!(
            Arc::ptr_eq(&before, &kept) && Arc::ptr_eq(&before_diag, &kept_diag),
            "untouched entry is left in place"
        );
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn node_addition_grows_dimension_changed_walks() {
        let g = base();
        let (mut cache, mws) = warm_cache(
            &g,
            &[
                "paper cite paper",
                "author paper author",
                "author",
                "paper author",
            ],
        );
        let op = MutationOp::AddEntity {
            label: "author".into(),
            value: "carol".into(),
        };
        let Touch::Node(l) = mutation::touch(&g, &op).unwrap() else {
            panic!("add_entity must touch a node label");
        };
        let g2 = mutation::apply(&g, &op).unwrap();
        let r = DeltaMaintainer::new().apply_node_change(&mut cache, l);
        assert_eq!((r.patched, r.evicted, r.untouched), (3, 0, 1));
        for mw in &mws {
            // The single-label walk's identity gains a diagonal 1 and
            // its norm 1; every other added row is empty, norm 0.
            let cold = informative_commuting(&g2, mw);
            assert_eq!(
                bits(cache.peek(CacheKind::Informative, mw).unwrap()),
                bits(&cold),
                "{mw:?}"
            );
            assert_diag(&cache, CacheKind::Informative, mw, &cold);
        }
        // The grown factors carry later edge patches.
        let (g3, a, b) = add_edge(&g2, "author:carol", "paper:p3");
        let r =
            DeltaMaintainer::new().apply_edge_change(&mut cache, &g3, a, b, &Budget::unlimited());
        assert_eq!((r.patched, r.evicted), (2, 0));
        for mw in &mws {
            let cold = informative_commuting(&g3, mw);
            assert_eq!(
                bits(cache.peek(CacheKind::Informative, mw).unwrap()),
                bits(&cold),
                "{mw:?}"
            );
            assert_diag(&cache, CacheKind::Informative, mw, &cold);
        }
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

    #[test]
    fn a_patch_with_no_outside_holder_keeps_the_allocation() {
        let g = base();
        let (mut cache, mws) = warm_cache(&g, &["author paper author"]);
        let ptr = std::ptr::from_ref(cache.peek(CacheKind::Informative, &mws[0]).unwrap());
        let (g2, a, b) = add_edge(&g, "author:bob", "paper:p1");
        let r =
            DeltaMaintainer::new().apply_edge_change(&mut cache, &g2, a, b, &Budget::unlimited());
        assert_eq!(r.path(), "patch");
        let patched = cache.peek(CacheKind::Informative, &mws[0]).unwrap();
        assert_eq!(std::ptr::from_ref(patched), ptr, "patched in place");
        assert_eq!(bits(patched), bits(&informative_commuting(&g2, &mws[0])));
    }

    #[test]
    fn an_outside_holder_keeps_reading_the_old_values() {
        let g = base();
        let (mut cache, mws) = warm_cache(&g, &["author paper author"]);
        let (held, held_diag) = cache
            .try_informative_shared(&g, &mws[0], Parallelism::serial(), &Budget::unlimited())
            .unwrap();
        let (old, old_diag) = (bits(&held), held_diag.to_vec());
        let (g2, a, b) = add_edge(&g, "author:bob", "paper:p1");
        DeltaMaintainer::new().apply_edge_change(&mut cache, &g2, a, b, &Budget::unlimited());
        assert_eq!(
            (bits(&held), held_diag.to_vec()),
            (old, old_diag),
            "copy on write leaves the held matrix and norms alone"
        );
        assert_eq!(bits(&held), bits(&informative_commuting(&g, &mws[0])));
        let patched = cache.peek(CacheKind::Informative, &mws[0]).unwrap();
        assert!(!std::ptr::eq(&*held, patched));
        let cold = informative_commuting(&g2, &mws[0]);
        assert_eq!(bits(patched), bits(&cold));
        assert_diag(&cache, CacheKind::Informative, &mws[0], &cold);
    }

    #[test]
    fn cancelled_patch_evicts_and_the_next_lookup_rebuilds_failpoint() {
        use repsim_sparse::budget::failpoints;
        let _x = repsim_obs::exclusive();
        let sink: Arc<dyn repsim_obs::Sink> = Arc::new(repsim_obs::CollectSink::new());
        repsim_obs::install(Arc::clone(&sink));
        let evictions = repsim_obs::Registry::global().counter("repsim.cache.delta.evictions");
        let before = evictions.get();

        let g = base();
        let (mut cache, mws) = warm_cache(&g, &["author paper author"]);
        let (g2, a, b) = add_edge(&g, "author:bob", "paper:p1");
        let r = {
            let _guard = failpoints::scoped(&[failpoints::SPGEMM_CANCEL]);
            let inject = Budget::unlimited().with_fault_injection();
            DeltaMaintainer::new().apply_edge_change(&mut cache, &g2, a, b, &inject)
        };
        let moved = evictions.get() - before;
        repsim_obs::remove_sink(&sink);
        assert_eq!((r.patched, r.evicted), (0, 1));
        assert_eq!(r.path(), "evict");
        assert_eq!(moved, 1, "repsim.cache.delta.evictions counts the eviction");
        assert!(cache.peek(CacheKind::Informative, &mws[0]).is_none());
        let rebuilt = cache
            .try_informative_with(&g2, &mws[0], Parallelism::serial(), &Budget::unlimited())
            .unwrap();
        assert_eq!(bits(rebuilt), bits(&informative_commuting(&g2, &mws[0])));
    }
}
