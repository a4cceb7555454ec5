//! Commuting matrices: counting meta-walk instances with matrix products.
//!
//! The commuting matrix of `p = (l₁,…,l_k)` is
//! `M_p = A_{l₁l₂} · A_{l₂l₃} ⋯ A_{l_{k-1}l_k}` (§4.3); entry `(i, j)`
//! counts all instances of `p` between the `i`-th node of `l₁` and the
//! `j`-th node of `l_k` — informative or not.
//!
//! R-PathSim restricts to *informative* instances. §4.3 shows the fix: a
//! sub-meta-walk `s = (l, x₁,…,x_m, l)` that starts and ends with the same
//! entity label (passing only through relationship labels) produces its
//! non-informative walks exactly on the diagonal of `M_s`, so using
//! `M_s − M_s^d` in the product counts only informative walks. We organize
//! the computation around *hops*: the stretches between consecutive entity
//! labels. A hop whose endpoint labels are equal gets its diagonal removed
//! (for direct same-label edges the diagonal is already zero because the
//! graph is simple, which is why SNAP's `paper–paper–paper` needs no
//! correction while DBLP's `paper–cite–paper–cite–paper` does).
//!
//! §5.2's \*-labels collapse a stretch of the meta-walk to the mere
//! existence of a connection: the product over every maximal run of
//! \*-marked entity labels (including its flanking hops) is binarized.
//!
//! A build runs in two steps. It first forms the chain *factors*, one
//! per segment: the stretch of the walk that closes at each plain entity
//! label, with the per-hop diagonal removal and the \*-run binarization
//! already applied. The final cost-ordered chain product then multiplies
//! them. [`CommutingCache`] keeps each entry's factors and row norms
//! beside its matrix, so [`crate::delta`] can patch the rows a mutation
//! reaches and a ranking reads its PathSim denominators off the entry.

use std::collections::HashMap;
use std::sync::Arc;

use repsim_graph::biadjacency::biadjacency;
use repsim_graph::{Graph, LabelId};
use repsim_obs::CounterHandle;
use repsim_sparse::chain::try_spmm_chain_with_budget_in;
use repsim_sparse::{Budget, Csr, ExecError, Parallelism, SpgemmArena};

use crate::metawalk::MetaWalk;

/// Cache metrics (`repsim.metawalk.cache.*`), shared by every
/// [`CommutingCache`] instance in the process; per-instance stats are on
/// [`CommutingCache::stats`].
static CACHE_HIT: CounterHandle = CounterHandle::new("repsim.metawalk.cache.hit");
static CACHE_MISS: CounterHandle = CounterHandle::new("repsim.metawalk.cache.miss");
static CACHE_INSERT: CounterHandle = CounterHandle::new("repsim.metawalk.cache.insert");
static CACHE_EVICTION: CounterHandle = CounterHandle::new("repsim.metawalk.cache.eviction");

/// Computes the plain commuting matrix `M_p` (all instances, PathSim's
/// semantics) with the default [`Parallelism`].
///
/// # Panics
/// If `mw` contains a \*-label (plain PathSim has no \*-label semantics).
pub fn plain_commuting(g: &Graph, mw: &MetaWalk) -> Csr {
    plain_commuting_with(g, mw, Parallelism::default())
}

/// [`plain_commuting`] with an explicit thread budget.
#[allow(clippy::panic)] // documented infallible wrapper over the try_ API
pub fn plain_commuting_with(g: &Graph, mw: &MetaWalk, par: Parallelism) -> Csr {
    match try_plain_commuting_with(g, mw, par, &Budget::unlimited()) {
        Ok(m) => m,
        Err(e) => panic!("commuting build: {e}"),
    }
}

/// Budget-governed [`plain_commuting`]: the build aborts with a
/// structured [`ExecError`] when the budget's deadline, size cap, or
/// cancellation flag trips mid-chain, or when `mw` contains a \*-label
/// (plain PathSim has no \*-label semantics — [`ExecError::InvalidInput`]).
pub fn try_plain_commuting_with(
    g: &Graph,
    mw: &MetaWalk,
    par: Parallelism,
    budget: &Budget,
) -> Result<Csr, ExecError> {
    check_plain(mw)?;
    compute(g, mw, false, par, budget)
}

/// Plain PathSim has no \*-label semantics: a plain build of a walk with
/// a \*-label is an [`ExecError::InvalidInput`].
fn check_plain(mw: &MetaWalk) -> Result<(), ExecError> {
    match mw.has_star() {
        true => Err(ExecError::InvalidInput {
            op: "commuting",
            message: "plain commuting matrices cannot use *-labels".to_owned(),
        }),
        false => Ok(()),
    }
}

/// Computes the informative commuting matrix `M̂_p` (informative instances
/// only — R-PathSim's semantics), with \*-segments binarized, using the
/// default [`Parallelism`].
pub fn informative_commuting(g: &Graph, mw: &MetaWalk) -> Csr {
    informative_commuting_with(g, mw, Parallelism::default())
}

/// [`informative_commuting`] with an explicit thread budget.
#[allow(clippy::panic)] // documented infallible wrapper over the try_ API
pub fn informative_commuting_with(g: &Graph, mw: &MetaWalk, par: Parallelism) -> Csr {
    match try_informative_commuting_with(g, mw, par, &Budget::unlimited()) {
        Ok(m) => m,
        Err(e) => panic!("commuting build: {e}"),
    }
}

/// Budget-governed [`informative_commuting`].
pub fn try_informative_commuting_with(
    g: &Graph,
    mw: &MetaWalk,
    par: Parallelism,
    budget: &Budget,
) -> Result<Csr, ExecError> {
    compute(g, mw, true, par, budget)
}

fn compute(
    g: &Graph,
    mw: &MetaWalk,
    informative: bool,
    par: Parallelism,
    budget: &Budget,
) -> Result<Csr, ExecError> {
    build(g, mw, informative, par, budget).map(|(m, _)| m)
}

/// The commuting matrix of `mw` plus the chain factors it is the
/// product of ([`factors_in`]); a single-label walk has no factors and its
/// matrix is the identity.
fn build(
    g: &Graph,
    mw: &MetaWalk,
    informative: bool,
    par: Parallelism,
    budget: &Budget,
) -> Result<(Csr, Vec<Csr>), ExecError> {
    let mut build_span = repsim_obs::span("repsim.metawalk.commuting.build");
    if build_span.is_active() {
        build_span.attr("walk", mw.to_string());
        build_span.attr("informative", informative);
    }
    // One SpGEMM arena serves every product of the build — hop chains,
    // segment chains, and the final join all reuse the same accumulator
    // scratch, so a build allocates kernel workspace once per worker.
    let mut arena = SpgemmArena::new();
    let fs = factors_in(g, mw, informative, par, budget, &mut arena)?;
    let m = match fs.is_empty() {
        true => {
            // A single-label meta-walk: walks of length zero, one per node.
            budget.check()?;
            Csr::identity(g.nodes_of_label(mw.source()).len())
        }
        false => {
            let refs: Vec<&Csr> = fs.iter().collect();
            try_spmm_chain_with_budget_in(&refs, par.threads(), budget, &mut arena)?
        }
    };
    Ok((m, fs))
}

/// The step ranges `lo..=hi` of a walk's *segments*: the stretches that
/// close at each plain entity label, so a segment's interior holds only
/// relationship labels and \*-marked entity labels. A single-label walk
/// has none.
pub(crate) fn segments(mw: &MetaWalk) -> Vec<(usize, usize)> {
    let steps = mw.steps();
    let mut out = Vec::new();
    let mut lo = 0;
    for (i, s) in steps.iter().enumerate().skip(1) {
        if s.is_entity() && !s.is_star() {
            out.push((lo, i));
            lo = i;
        }
    }
    debug_assert!(steps.first().is_some_and(|s| s.is_entity()));
    debug_assert!(
        lo == steps.len() - 1,
        "meta-walk must end at a plain entity"
    );
    out
}

/// The chain factors of `mw`'s commuting matrix, one per segment
/// ([`segments`]), in walk order. The product of the factors is the
/// commuting matrix; a single-label walk has no factors.
fn factors_in(
    g: &Graph,
    mw: &MetaWalk,
    informative: bool,
    par: Parallelism,
    budget: &Budget,
    arena: &mut SpgemmArena,
) -> Result<Vec<Csr>, ExecError> {
    segments(mw)
        .into_iter()
        .map(|seg| segment_matrix(g, mw, seg, informative, par, budget, arena))
        .collect()
}

/// The factor of one segment `lo..=hi`: the product of its hops, binarized
/// when it crosses a \*-label. Corrections (diagonal removal per hop,
/// binarization per segment) happen before any cross-hop or
/// cross-segment product, so the chain planner is free to reassociate
/// each product level.
pub(crate) fn segment_matrix(
    g: &Graph,
    mw: &MetaWalk,
    (lo, hi): (usize, usize),
    informative: bool,
    par: Parallelism,
    budget: &Budget,
    arena: &mut SpgemmArena,
) -> Result<Csr, ExecError> {
    let steps = &mw.steps()[lo..=hi];
    let entity_pos: Vec<usize> = (0..steps.len()).filter(|&i| steps[i].is_entity()).collect();
    let hops = entity_pos
        .windows(2)
        .map(|w| {
            hop_matrix(
                g,
                steps[w[0]..=w[1]].iter().map(|s| s.label()),
                informative,
                par,
                budget,
                arena,
            )
        })
        .collect::<Result<Vec<Csr>, ExecError>>()?;
    let seg = chain_product(hops, par, budget, arena)?;
    Ok(match entity_pos.len() > 2 {
        // Interior entity labels of a segment are *-marked.
        true => seg.binarized(),
        false => seg,
    })
}

/// Cost-ordered product of an owned chain (single factors pass through
/// without a copy; an empty chain is an [`ExecError::InvalidInput`]).
fn chain_product(
    mut mats: Vec<Csr>,
    par: Parallelism,
    budget: &Budget,
    arena: &mut SpgemmArena,
) -> Result<Csr, ExecError> {
    if mats.len() > 1 {
        let refs: Vec<&Csr> = mats.iter().collect();
        return try_spmm_chain_with_budget_in(&refs, par.threads(), budget, arena);
    }
    // No product to run, but an expired deadline or set cancellation
    // flag still aborts — trivial builds observe the budget too.
    budget.check()?;
    mats.pop().ok_or(ExecError::InvalidInput {
        op: "commuting",
        message: "empty hop chain".to_owned(),
    })
}

/// The matrix of a single hop `l_i (rels…) l_j`: the cost-ordered product
/// of biadjacency matrices along the label sequence, with the diagonal
/// removed when the endpoint labels are equal and `informative` is set.
fn hop_matrix(
    g: &Graph,
    labels: impl IntoIterator<Item = LabelId>,
    informative: bool,
    par: Parallelism,
    budget: &Budget,
    arena: &mut SpgemmArena,
) -> Result<Csr, ExecError> {
    let labels: Vec<LabelId> = labels.into_iter().collect();
    debug_assert!(labels.len() >= 2);
    let mats: Vec<Csr> = labels
        .windows(2)
        .map(|pair| biadjacency(g, pair[0], pair[1]))
        .collect();
    let mut m = chain_product(mats, par, budget, arena)?;
    if informative && labels.first() == labels.last() {
        m = m.subtract_diagonal();
    }
    Ok(m)
}

/// A count lookup against a commuting matrix: `|p(e,f,D)|` or `|p̂(e,f,D)|`
/// depending on how `m` was computed. `e` must have label `mw.source()` and
/// `f` label `mw.target()`.
pub fn count_between(
    g: &Graph,
    mw: &MetaWalk,
    m: &Csr,
    e: repsim_graph::NodeId,
    f: repsim_graph::NodeId,
) -> f64 {
    assert_eq!(g.label_of(e), mw.source(), "source label mismatch");
    assert_eq!(g.label_of(f), mw.target(), "target label mismatch");
    m.get(g.index_in_label(e), g.index_in_label(f))
}

/// A cache of commuting matrices keyed by meta-walk.
///
/// PathSim's implementation pre-computes commuting matrices for short
/// meta-walks and concatenates them at query time; R-PathSim follows the
/// same plan (final paragraph of §4.3). The cache makes repeated queries
/// over the same meta-walk set amortize the matrix chain.
///
/// Each entry holds its matrix, its row norms `‖row_r‖²` (the PathSim
/// denominators, [`Csr::row_sq_sums`]) and the chain factors the matrix
/// is the product of, so [`crate::delta::DeltaMaintainer`] can patch the
/// rows a mutation reaches, norms included, instead of dropping the
/// entry. Matrix and norms are held as `Arc`s, so a caller that keeps
/// them beyond one lookup ([`CommutingCache::try_informative_shared`])
/// shares the cache's allocations instead of copying them.
///
/// Budgeted misses are abort-safe: a build that fails with an
/// [`ExecError`] inserts **nothing** — a matrix enters the cache only
/// after its chain completed, so an aborted build can never poison later
/// hits with a partial product (pinned by the `aborted_build_*` tests).
#[derive(Default)]
pub struct CommutingCache {
    plain: HashMap<MetaWalk, Entry>,
    informative: HashMap<MetaWalk, Entry>,
    stats: CacheStats,
}

/// One cached walk: its matrix, the matrix's row norms and the chain
/// factors (one per segment, walk order) whose product it is.
pub(crate) struct Entry {
    pub(crate) m: Arc<Csr>,
    /// `m.row_sq_sums()`, kept equal to it bit for bit.
    pub(crate) diag: Arc<Vec<f64>>,
    pub(crate) factors: Vec<Csr>,
}

impl Entry {
    fn new(m: Arc<Csr>, factors: Vec<Csr>) -> Entry {
        Entry {
            diag: Arc::new(m.row_sq_sums()),
            m,
            factors,
        }
    }
}

/// Lifetime statistics of one [`CommutingCache`]. The same counts are
/// mirrored to the global metrics (`repsim.metawalk.cache.*`) when
/// observability is enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Matrices inserted (misses whose build succeeded).
    pub inserts: u64,
    /// Matrices dropped by [`CommutingCache::clear`] or
    /// [`CommutingCache::evict`].
    pub evictions: u64,
}

impl CommutingCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime hit/miss/insert/eviction counts for this cache.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn map(&self, kind: CacheKind) -> &HashMap<MetaWalk, Entry> {
        match kind {
            CacheKind::Plain => &self.plain,
            CacheKind::Informative => &self.informative,
        }
    }

    fn map_mut(&mut self, kind: CacheKind) -> &mut HashMap<MetaWalk, Entry> {
        match kind {
            CacheKind::Plain => &mut self.plain,
            CacheKind::Informative => &mut self.informative,
        }
    }

    /// Drops every cached matrix (counted as evictions); stats survive.
    pub fn clear(&mut self) {
        let evicted = self.len() as u64;
        self.plain.clear();
        self.informative.clear();
        self.stats.evictions += evicted;
        CACHE_EVICTION.add(evicted);
    }

    /// The plain commuting matrix of `mw`, computed on first use.
    ///
    /// Misses pay one `mw.clone()` for the key; hits are allocation-free
    /// (the `entry` API would clone the key on every call).
    #[allow(clippy::panic)] // documented infallible wrapper over the try_ API
    pub fn plain<'a>(&'a mut self, g: &Graph, mw: &MetaWalk) -> &'a Csr {
        match self.try_plain_with(g, mw, Parallelism::default(), &Budget::unlimited()) {
            Ok(m) => m,
            Err(e) => panic!("commuting build: {e}"),
        }
    }

    /// Budget-governed [`CommutingCache::plain`]: hits are served without
    /// touching the budget; misses build under it and cache only on
    /// success.
    pub fn try_plain_with<'a>(
        &'a mut self,
        g: &Graph,
        mw: &MetaWalk,
        par: Parallelism,
        budget: &Budget,
    ) -> Result<&'a Csr, ExecError> {
        self.lookup(CacheKind::Plain, g, mw, par, budget)
            .map(|e| &*e.m)
    }

    /// The informative commuting matrix of `mw`, computed on first use.
    ///
    /// Misses pay one `mw.clone()` for the key; hits are allocation-free.
    #[allow(clippy::panic)] // documented infallible wrapper over the try_ API
    pub fn informative<'a>(&'a mut self, g: &Graph, mw: &MetaWalk) -> &'a Csr {
        match self.try_informative_with(g, mw, Parallelism::default(), &Budget::unlimited()) {
            Ok(m) => m,
            Err(e) => panic!("commuting build: {e}"),
        }
    }

    /// Budget-governed [`CommutingCache::informative`]: hits are served
    /// without touching the budget; misses build under it and cache only
    /// on success.
    pub fn try_informative_with<'a>(
        &'a mut self,
        g: &Graph,
        mw: &MetaWalk,
        par: Parallelism,
        budget: &Budget,
    ) -> Result<&'a Csr, ExecError> {
        self.lookup(CacheKind::Informative, g, mw, par, budget)
            .map(|e| &*e.m)
    }

    /// [`CommutingCache::try_informative_with`] returning handles on the
    /// entry's matrix and row norms themselves: every lookup of one entry
    /// returns the same `Arc`s, so a caller that keeps them (a query
    /// engine ranking outside the cache's lock) holds no second copy.
    pub fn try_informative_shared(
        &mut self,
        g: &Graph,
        mw: &MetaWalk,
        par: Parallelism,
        budget: &Budget,
    ) -> Result<(Arc<Csr>, Arc<Vec<f64>>), ExecError> {
        self.lookup(CacheKind::Informative, g, mw, par, budget)
            .map(|e| (Arc::clone(&e.m), Arc::clone(&e.diag)))
    }

    fn lookup<'a>(
        &'a mut self,
        kind: CacheKind,
        g: &Graph,
        mw: &MetaWalk,
        par: Parallelism,
        budget: &Budget,
    ) -> Result<&'a Entry, ExecError> {
        let mut lookup = repsim_obs::span("repsim.metawalk.cache.lookup");
        let hit = self.map(kind).contains_key(mw);
        if lookup.is_active() {
            lookup.attr(
                "kind",
                match kind {
                    CacheKind::Plain => "plain",
                    CacheKind::Informative => "informative",
                },
            );
            lookup.attr("walk", mw.to_string());
            lookup.attr("hit", hit);
        }
        if hit {
            self.stats.hits += 1;
            CACHE_HIT.add(1);
        } else {
            self.stats.misses += 1;
            CACHE_MISS.add(1);
            if kind == CacheKind::Plain {
                check_plain(mw)?;
            }
            let (m, factors) = build(g, mw, kind == CacheKind::Informative, par, budget)?;
            self.map_mut(kind)
                .insert(mw.clone(), Entry::new(Arc::new(m), factors));
            self.stats.inserts += 1;
            CACHE_INSERT.add(1);
        }
        #[allow(clippy::expect_used)] // hit or inserted just above
        let entry = self.map(kind).get(mw).expect("just inserted");
        Ok(entry)
    }

    /// Number of cached matrices.
    pub fn len(&self) -> usize {
        self.plain.len() + self.informative.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates every cached entry, in unspecified order — the snapshot
    /// export hook used by `repsim-serve` persistence.
    pub fn entries(&self) -> impl Iterator<Item = (CacheKind, &MetaWalk, &Csr)> {
        [CacheKind::Plain, CacheKind::Informative]
            .into_iter()
            .flat_map(move |kind| self.map(kind).iter().map(move |(mw, e)| (kind, mw, &*e.m)))
    }

    /// One entry, mutable — the maintainer's patch hook.
    pub(crate) fn entry_mut(&mut self, kind: CacheKind, mw: &MetaWalk) -> Option<&mut Entry> {
        self.map_mut(kind).get_mut(mw)
    }

    /// Looks up a cached matrix without building on miss (and without
    /// touching hit/miss stats) — the read-only twin of the `try_*`
    /// getters for callers that degrade instead of building.
    pub fn peek(&self, kind: CacheKind, mw: &MetaWalk) -> Option<&Csr> {
        self.map(kind).get(mw).map(|e| &*e.m)
    }

    /// The row norms kept beside a cached matrix, like
    /// [`CommutingCache::peek`].
    pub fn peek_diag(&self, kind: CacheKind, mw: &MetaWalk) -> Option<&[f64]> {
        self.map(kind).get(mw).map(|e| e.diag.as_slice())
    }

    /// Inserts a prebuilt matrix — the snapshot import hook. The matrix
    /// must have been produced by the matching build for `mw` on `g`
    /// (snapshot loading verifies this via checksums and graph
    /// fingerprints before calling). The entry's chain factors are
    /// rebuilt from `g`, which is milliseconds next to the product, and
    /// its row norms are summed from `m`; a factor build that fails
    /// inserts nothing. Counts as an insert; replaces any existing entry.
    pub fn import(
        &mut self,
        g: &Graph,
        kind: CacheKind,
        mw: MetaWalk,
        m: impl Into<Arc<Csr>>,
    ) -> Result<(), ExecError> {
        let factors = factors_in(
            g,
            &mw,
            kind == CacheKind::Informative,
            Parallelism::serial(),
            &Budget::unlimited(),
            &mut SpgemmArena::new(),
        )?;
        self.map_mut(kind).insert(mw, Entry::new(m.into(), factors));
        self.stats.inserts += 1;
        CACHE_INSERT.add(1);
        Ok(())
    }

    /// Drops a single entry (counted as an eviction when present) — the
    /// failure path of [`crate::delta::DeltaMaintainer`]: an entry whose
    /// patch could not complete is dropped rather than left stale.
    pub fn evict(&mut self, kind: CacheKind, mw: &MetaWalk) -> bool {
        let removed = self.map_mut(kind).remove(mw).is_some();
        if removed {
            self.stats.evictions += 1;
            CACHE_EVICTION.add(1);
        }
        removed
    }
}

/// Which of a [`CommutingCache`]'s two maps an entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// All instances — PathSim's semantics ([`CommutingCache::plain`]).
    Plain,
    /// Informative instances only — R-PathSim's semantics
    /// ([`CommutingCache::informative`]).
    Informative,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk;
    use repsim_graph::{GraphBuilder, NodeId};

    /// Figure 4a: DBLP form with `cite` nodes; p1→p3, p2→p3, p3→p4.
    fn dblp() -> (Graph, [NodeId; 4]) {
        let mut b = GraphBuilder::new();
        let paper = b.entity_label("paper");
        let cite = b.relationship_label("cite");
        let p: Vec<NodeId> = (1..=4).map(|i| b.entity(paper, &format!("p{i}"))).collect();
        for (a, bb) in [(0, 2), (1, 2), (2, 3)] {
            let c = b.relationship(cite);
            b.edge(p[a], c).unwrap();
            b.edge(c, p[bb]).unwrap();
        }
        (b.build(), [p[0], p[1], p[2], p[3]])
    }

    /// Figure 4b: SNAP form with direct paper–paper edges.
    fn snap() -> (Graph, [NodeId; 4]) {
        let mut b = GraphBuilder::new();
        let paper = b.entity_label("paper");
        let p: Vec<NodeId> = (1..=4).map(|i| b.entity(paper, &format!("p{i}"))).collect();
        for (a, bb) in [(0, 2), (1, 2), (2, 3)] {
            b.edge(p[a], p[bb]).unwrap();
        }
        (b.build(), [p[0], p[1], p[2], p[3]])
    }

    #[test]
    fn matrix_matches_enumeration_plain_and_informative() {
        let (g, ps) = dblp();
        let mw = MetaWalk::parse_in(&g, "paper cite paper cite paper").unwrap();
        let plain = plain_commuting(&g, &mw);
        let inf = informative_commuting(&g, &mw);
        for &e in &ps {
            for &f in &ps {
                assert_eq!(
                    count_between(&g, &mw, &plain, e, f),
                    walk::count_instances(&g, &mw, e, f) as f64,
                    "plain count mismatch {e:?}->{f:?}"
                );
                assert_eq!(
                    count_between(&g, &mw, &inf, e, f),
                    walk::count_informative(&g, &mw, e, f) as f64,
                    "informative count mismatch {e:?}->{f:?}"
                );
            }
        }
    }

    #[test]
    fn figure4_discrepancy_and_fix() {
        // PathSim counts 4 (non-informative) walks p3→p4 in DBLP but 0 in
        // SNAP; informative counts agree (0) — the exact Figure 4 story.
        let (gd, [_, _, d3, d4]) = dblp();
        let (gs, [_, _, s3, s4]) = snap();
        let mwd = MetaWalk::parse_in(&gd, "paper cite paper cite paper").unwrap();
        let mws = MetaWalk::parse_in(&gs, "paper paper paper").unwrap();
        let pd = plain_commuting(&gd, &mwd);
        let ps = plain_commuting(&gs, &mws);
        assert_eq!(count_between(&gd, &mwd, &pd, d3, d4), 4.0);
        assert_eq!(count_between(&gs, &mws, &ps, s3, s4), 0.0);
        let id = informative_commuting(&gd, &mwd);
        let is_ = informative_commuting(&gs, &mws);
        assert_eq!(count_between(&gd, &mwd, &id, d3, d4), 0.0);
        assert_eq!(count_between(&gs, &mws, &is_, s3, s4), 0.0);
    }

    #[test]
    fn snap_direct_edges_need_no_correction() {
        // On the SNAP form, plain == informative: simple graphs have no
        // self-loops, so same-label direct hops are already informative.
        let (g, _) = snap();
        let mw = MetaWalk::parse_in(&g, "paper paper paper").unwrap();
        assert_eq!(plain_commuting(&g, &mw), informative_commuting(&g, &mw));
    }

    #[test]
    fn single_label_meta_walk_is_identity() {
        let (g, _) = snap();
        let mw = MetaWalk::parse_in(&g, "paper").unwrap();
        assert_eq!(plain_commuting(&g, &mw), Csr::identity(4));
    }

    /// Figure 5a fragment: conf a has 2 papers, conf b has 1; both in dom d
    /// which has keyword k.
    fn mas5a() -> Graph {
        let mut b = GraphBuilder::new();
        let paper = b.entity_label("paper");
        let conf = b.entity_label("conf");
        let dom = b.entity_label("dom");
        let kw = b.entity_label("kw");
        let ca = b.entity(conf, "a");
        let cb = b.entity(conf, "b");
        let d = b.entity(dom, "d");
        let k = b.entity(kw, "k");
        for (i, c) in [(0, ca), (1, ca), (2, cb)] {
            let p = b.entity(paper, &format!("p{i}"));
            b.edge(p, c).unwrap();
            b.edge(p, d).unwrap();
        }
        // In Figure 5a, confs reach their domain only through papers.
        b.edge(d, k).unwrap();
        b.build()
    }

    #[test]
    fn star_segment_binarizes() {
        let g = mas5a();
        let conf = g.labels().get("conf").unwrap();
        let ca = g.entity(conf, "a").unwrap();
        let cb = g.entity(conf, "b").unwrap();
        // Without the star, conf a reaches dom twice (two papers).
        let plainw = MetaWalk::parse_in(&g, "conf paper dom").unwrap();
        let m = informative_commuting(&g, &plainw);
        assert_eq!(
            count_between(&g, &plainw, &m, ca, g.entity_by_name("dom", "d").unwrap()),
            2.0
        );
        // With the star, both confs reach dom exactly once.
        let starw = MetaWalk::parse_in(&g, "conf *paper dom").unwrap();
        let ms = informative_commuting(&g, &starw);
        let d = g.entity_by_name("dom", "d").unwrap();
        assert_eq!(count_between(&g, &starw, &ms, ca, d), 1.0);
        assert_eq!(count_between(&g, &starw, &ms, cb, d), 1.0);
        // Full §5.2 meta-walk: conf *paper dom kw dom *paper conf gives the
        // same count (1) for every conf pair — paper counts no longer bias.
        let full = MetaWalk::parse_in(&g, "conf *paper dom kw dom *paper conf").unwrap();
        let mf = informative_commuting(&g, &full);
        assert_eq!(count_between(&g, &full, &mf, ca, cb), 1.0);
        assert_eq!(count_between(&g, &full, &mf, ca, ca), 1.0);
        // And without stars the pair count is biased by paper counts (2*1=2).
        let fullp = MetaWalk::parse_in(&g, "conf paper dom kw dom paper conf").unwrap();
        let mp = informative_commuting(&g, &fullp);
        assert_eq!(count_between(&g, &fullp, &mp, ca, cb), 2.0);
    }

    #[test]
    fn star_run_between_same_plain_entities() {
        // (conf, *paper, conf): connection iff two confs share a paper —
        // here they never do (each paper has one conf), so off-diagonal is
        // zero and the diagonal is 1 for confs with at least one paper.
        let g = mas5a();
        let mw = MetaWalk::parse_in(&g, "conf *paper conf").unwrap();
        let m = informative_commuting(&g, &mw);
        let conf = g.labels().get("conf").unwrap();
        let ca = g.entity(conf, "a").unwrap();
        let cb = g.entity(conf, "b").unwrap();
        assert_eq!(count_between(&g, &mw, &m, ca, ca), 1.0);
        assert_eq!(count_between(&g, &mw, &m, cb, cb), 1.0);
        assert_eq!(count_between(&g, &mw, &m, ca, cb), 0.0);
    }

    #[test]
    fn star_walk_is_invalid_input_for_plain_commuting() {
        let g = mas5a();
        let mw = MetaWalk::parse_in(&g, "conf *paper dom").unwrap();
        let err = try_plain_commuting_with(&g, &mw, Parallelism::serial(), &Budget::unlimited())
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::InvalidInput {
                op: "commuting",
                message: "plain commuting matrices cannot use *-labels".to_owned(),
            }
        );
    }

    #[test]
    #[should_panic(expected = "cannot use *-labels")]
    fn star_walk_panics_in_infallible_plain_commuting() {
        let g = mas5a();
        let mw = MetaWalk::parse_in(&g, "conf *paper dom").unwrap();
        let _ = plain_commuting(&g, &mw);
    }

    #[test]
    fn aborted_build_never_poisons_cache_failpoint() {
        use repsim_sparse::budget::failpoints;
        let (g, _) = dblp();
        let mw = MetaWalk::parse_in(&g, "paper cite paper cite paper").unwrap();
        let exact = informative_commuting(&g, &mw);
        let mut cache = CommutingCache::new();
        {
            let _guard = failpoints::scoped(&[failpoints::SPGEMM_CANCEL]);
            let inject = Budget::unlimited().with_fault_injection();
            let err = cache
                .try_informative_with(&g, &mw, Parallelism::serial(), &inject)
                .unwrap_err();
            assert_eq!(err, ExecError::Cancelled);
            // The mid-chain abort must leave no entry behind — not for the
            // aborted walk, not for anything else.
            assert!(cache.is_empty(), "aborted build cached a partial matrix");
        }
        // A later un-faulted miss rebuilds from scratch and gets the exact
        // matrix, proving the abort left no partial state anywhere.
        let rebuilt = cache
            .try_informative_with(&g, &mw, Parallelism::serial(), &Budget::unlimited())
            .unwrap()
            .clone();
        assert_eq!(rebuilt, exact);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn mid_numeric_abort_never_poisons_cache_failpoint() {
        // Like the SPGEMM_CANCEL case, but firing *inside* the numeric
        // phase — after the symbolic pass sized the output, while tiles
        // are mid-flight — so an abort there must
        // also leave no cache entry and no reusable-scratch corruption.
        use repsim_sparse::budget::failpoints;
        let (g, _) = dblp();
        let mw = MetaWalk::parse_in(&g, "paper cite paper cite paper").unwrap();
        let exact = informative_commuting(&g, &mw);
        let mut cache = CommutingCache::new();
        {
            let _guard = failpoints::scoped(&[failpoints::SPGEMM_NUMERIC_CANCEL]);
            let inject = Budget::unlimited().with_fault_injection();
            let err = cache
                .try_informative_with(&g, &mw, Parallelism::serial(), &inject)
                .unwrap_err();
            assert_eq!(err, ExecError::Cancelled);
            assert!(
                cache.is_empty(),
                "mid-numeric abort cached a partial matrix"
            );
        }
        // The rebuild reuses the same code paths (fresh arena per build);
        // bit-exact equality proves the abort corrupted nothing.
        let rebuilt = cache
            .try_informative_with(&g, &mw, Parallelism::serial(), &Budget::unlimited())
            .unwrap()
            .clone();
        assert_eq!(rebuilt, exact);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn aborted_build_never_poisons_cache_nnz_cap() {
        let (g, _) = dblp();
        let mw = MetaWalk::parse_in(&g, "paper cite paper cite paper").unwrap();
        let mut cache = CommutingCache::new();
        // A zero-entry cap starves every intermediate product.
        let starved = Budget::unlimited().with_max_nnz(0);
        let err = cache
            .try_plain_with(&g, &mw, Parallelism::serial(), &starved)
            .unwrap_err();
        assert!(matches!(err, ExecError::MemoryExceeded { .. }));
        assert!(cache.is_empty());
        // Hits never consult the budget: populate, then ask again starved.
        let exact = cache
            .try_plain_with(&g, &mw, Parallelism::serial(), &Budget::unlimited())
            .unwrap()
            .clone();
        let hit = cache
            .try_plain_with(&g, &mw, Parallelism::serial(), &starved)
            .unwrap();
        assert_eq!(*hit, exact);
    }

    #[test]
    fn budgeted_build_matches_unbudgeted_when_it_fits() {
        let g = mas5a();
        for text in ["conf paper dom", "conf *paper dom kw dom *paper conf"] {
            let mw = MetaWalk::parse_in(&g, text).unwrap();
            let exact = informative_commuting(&g, &mw);
            let roomy = Budget::unlimited()
                .with_max_nnz(1_000_000)
                .with_deadline_ms(60_000);
            let got =
                try_informative_commuting_with(&g, &mw, Parallelism::serial(), &roomy).unwrap();
            assert_eq!(got, exact, "{text}");
        }
    }

    #[test]
    fn shared_lookups_return_one_allocation() {
        let (g, _) = dblp();
        let mw = MetaWalk::parse_in(&g, "paper cite paper cite paper").unwrap();
        let mut cache = CommutingCache::new();
        let (par, budget) = (Parallelism::serial(), Budget::unlimited());
        let (a, da) = cache.try_informative_shared(&g, &mw, par, &budget).unwrap();
        let (b, db) = cache.try_informative_shared(&g, &mw, par, &budget).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "both lookups share the cached matrix");
        assert!(Arc::ptr_eq(&da, &db), "and the cached row norms");
        assert!(std::ptr::eq(
            &*a,
            cache.peek(CacheKind::Informative, &mw).unwrap()
        ));
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
        assert_eq!(*a, informative_commuting(&g, &mw));
        assert_eq!(*da, a.row_sq_sums());
    }

    #[test]
    fn cache_reuses_matrices() {
        let (g, _) = dblp();
        let mw = MetaWalk::parse_in(&g, "paper cite paper").unwrap();
        let mut cache = CommutingCache::new();
        assert!(cache.is_empty());
        let a = cache.plain(&g, &mw).clone();
        let b = cache.plain(&g, &mw).clone();
        assert_eq!(a, b);
        let _ = cache.informative(&g, &mw);
        assert_eq!(cache.len(), 2);
    }
}
