//! Query-time scoring without materializing the full commuting matrix.
//!
//! §4.3's closing paragraph adopts PathSim's optimization: pre-compute
//! commuting matrices for short meta-walks and concatenate at query time.
//! For the symmetric closures `p = q·q⁻¹` used by ranking queries this
//! factorizes completely: with `M̂_q` the informative commuting matrix of
//! the *half* walk,
//!
//! ```text
//! M̂_p = M̂_q · M̂_qᵀ,
//! M̂_p(e,f) = ⟨row_e(M̂_q), row_f(M̂_q)⟩,   M̂_p(e,e) = ‖row_e(M̂_q)‖².
//! ```
//!
//! The factorization is exact: informative-walk corrections act per hop
//! and every hop lies entirely inside one half (the junction is a single
//! plain-entity occurrence, so no same-label hop and no \*-run can span
//! it). A ranking query then costs one sparse mat-vec over `M̂_q` instead
//! of a full sparse-matrix product — the ablation benchmark quantifies
//! the gap, and the unit tests assert score equality against
//! [`crate::rpathsim::RPathSim`].

use std::sync::Arc;

use repsim_graph::{Graph, LabelId, NodeId};
use repsim_metawalk::commuting::try_informative_commuting_with;
use repsim_metawalk::MetaWalk;
use repsim_sparse::{Budget, Csr, ExecError, Parallelism};

use repsim_baselines::ranking::{RankedList, SimilarityAlgorithm};

/// R-PathSim scoring over the symmetric closure of a half meta-walk,
/// backed by the half matrix only.
pub struct QueryEngine<'g> {
    g: &'g Graph,
    half: MetaWalk,
    /// Shared so `repsim-serve` can cache `(matrix, diag)` seeds across
    /// graph epochs and stamp out per-request engines without copying.
    m_half: Arc<Csr>,
    /// `M̂_p(e,e)` per source-label index.
    diag: Arc<Vec<f64>>,
    /// Thread budget for builds and query-time row sweeps.
    par: Parallelism,
}

impl<'g> QueryEngine<'g> {
    /// Builds the engine for ranking `half.source()` entities by the
    /// closed walk `half · half⁻¹`, with the default [`Parallelism`].
    pub fn new(g: &'g Graph, half: MetaWalk) -> Self {
        Self::with_parallelism(g, half, Parallelism::default())
    }

    /// [`QueryEngine::new`] with an explicit thread budget, used for both
    /// the half-matrix build and query-time cross-count sweeps.
    pub fn with_parallelism(g: &'g Graph, half: MetaWalk, par: Parallelism) -> Self {
        #[allow(clippy::expect_used)] // documented infallible wrapper over the try_ API
        Self::try_with_budget(g, half, par, &Budget::unlimited())
            .expect("unlimited engine build cannot fail")
    }

    /// Budget-governed [`QueryEngine::with_parallelism`]: the half-matrix
    /// build runs under `budget` and aborts with a structured
    /// [`ExecError`] instead of panicking when a limit trips.
    pub fn try_with_budget(
        g: &'g Graph,
        half: MetaWalk,
        par: Parallelism,
        budget: &Budget,
    ) -> Result<Self, ExecError> {
        let mut build_span = repsim_obs::span("repsim.core.engine.build");
        if build_span.is_active() {
            build_span.attr("half", half.to_string());
        }
        let m_half = try_informative_commuting_with(g, &half, par, budget)?;
        let diag = m_half.row_sq_sums();
        if build_span.is_active() {
            build_span.attr("half_nnz", m_half.nnz());
        }
        Ok(QueryEngine {
            g,
            half,
            m_half: Arc::new(m_half),
            diag: Arc::new(diag),
            par,
        })
    }

    /// Constructs an engine directly from a prebuilt half matrix — the
    /// snapshot-restore hook used by `repsim-serve`, which skips the
    /// commuting-matrix chain entirely on a warm start.
    ///
    /// `m_half` must be the informative commuting matrix of `half` on
    /// `g`. Its shape is validated against the graph's label partitions
    /// here; content integrity (checksums, graph fingerprint) is the
    /// snapshot loader's job before calling. An owned `Csr` is moved in;
    /// an `Arc<Csr>` (a commuting-cache entry) is shared, not copied.
    pub fn try_from_half_matrix(
        g: &'g Graph,
        half: MetaWalk,
        m_half: impl Into<Arc<Csr>>,
        par: Parallelism,
    ) -> Result<Self, ExecError> {
        let m_half = m_half.into();
        let nrows = g.nodes_of_label(half.source()).len();
        let ncols = g.nodes_of_label(half.target()).len();
        if m_half.nrows() != nrows || m_half.ncols() != ncols {
            return Err(ExecError::ShapeMismatch {
                op: "engine_restore",
                lhs: (nrows, ncols),
                rhs: (m_half.nrows(), m_half.ncols()),
            });
        }
        let diag = m_half.row_sq_sums();
        Ok(QueryEngine {
            g,
            half,
            m_half,
            diag: Arc::new(diag),
            par,
        })
    }

    /// Constructs an engine from a shared half matrix and its precomputed
    /// row-norm diagonal — the zero-copy epoch hook used by `repsim-serve`,
    /// which keeps `(Arc<Csr>, Arc<Vec<f64>>)` seeds per walk and stamps
    /// out a borrowing engine per request.
    ///
    /// Shape is validated like [`QueryEngine::try_from_half_matrix`];
    /// `diag` must be `m_half.row_sq_sums()` (also length-checked).
    pub fn try_from_shared(
        g: &'g Graph,
        half: MetaWalk,
        m_half: Arc<Csr>,
        diag: Arc<Vec<f64>>,
        par: Parallelism,
    ) -> Result<Self, ExecError> {
        let nrows = g.nodes_of_label(half.source()).len();
        let ncols = g.nodes_of_label(half.target()).len();
        if m_half.nrows() != nrows || m_half.ncols() != ncols || diag.len() != nrows {
            return Err(ExecError::ShapeMismatch {
                op: "engine_restore",
                lhs: (nrows, ncols),
                rhs: (m_half.nrows(), m_half.ncols()),
            });
        }
        Ok(QueryEngine {
            g,
            half,
            m_half,
            diag,
            par,
        })
    }

    /// The half meta-walk.
    pub fn half(&self) -> &MetaWalk {
        &self.half
    }

    /// The informative commuting matrix of the half walk — the snapshot
    /// export hook ([`QueryEngine::try_from_half_matrix`] restores from
    /// it).
    pub fn half_matrix(&self) -> &Csr {
        &self.m_half
    }

    /// The shared `(matrix, diag)` pair backing this engine — cheap to
    /// clone and free of the graph lifetime, so a server can park it in a
    /// cache keyed by walk and graph fingerprint.
    pub fn shared_parts(&self) -> (Arc<Csr>, Arc<Vec<f64>>) {
        (Arc::clone(&self.m_half), Arc::clone(&self.diag))
    }

    /// The closed meta-walk actually scored.
    pub fn closure(&self) -> MetaWalk {
        self.half.symmetric_closure()
    }

    /// The R-PathSim score of a pair under the closure.
    pub fn score(&self, e: NodeId, f: NodeId) -> f64 {
        let (i, j) = (self.g.index_in_label(e), self.g.index_in_label(f));
        let denom = self.diag[i] + self.diag[j];
        if denom == 0.0 {
            return 0.0;
        }
        let (ci, vi) = self.m_half.row(i);
        let (cj, vj) = self.m_half.row(j);
        let mut dot = 0.0;
        let (mut a, mut b) = (0, 0);
        while a < ci.len() && b < cj.len() {
            match ci[a].cmp(&cj[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    dot += vi[a] * vj[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        2.0 * dot / denom
    }

    /// All cross counts `M̂_p(e, ·)` for one query, via a single pass over
    /// the half matrix (the sparse mat-vec path used by `rank`).
    ///
    /// The row sweep splits into contiguous bands across the thread
    /// budget; each band writes a disjoint slice of the output, so the
    /// result is identical for any thread count.
    fn cross_counts(&self, e: NodeId) -> Vec<f64> {
        let qi = self.g.index_in_label(e);
        let (qc, qv) = self.m_half.row(qi);
        // dot of every row with row_e: accumulate column contributions.
        let mut weights = vec![0.0; self.m_half.ncols()];
        for (&c, &v) in qc.iter().zip(qv) {
            weights[c as usize] = v;
        }
        let nrows = self.m_half.nrows();
        let mut out = vec![0.0; nrows];
        // Banding pays off only when the sweep dwarfs thread start-up.
        let threads = if self.m_half.nnz() < 4096 {
            1
        } else {
            self.par.threads()
        };
        let bands = repsim_sparse::par::chunks(nrows, threads);
        let sweep = |lo: usize, band: &mut [f64]| {
            for (r, o) in (lo..).zip(band.iter_mut()) {
                let (cols, vals) = self.m_half.row(r);
                let mut sum = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    sum += v * weights[c as usize];
                }
                *o = sum;
            }
        };
        if bands.len() <= 1 {
            sweep(0, &mut out);
        } else {
            let mut rest = out.as_mut_slice();
            std::thread::scope(|scope| {
                for &(lo, hi) in &bands {
                    let (band, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
                    rest = tail;
                    let sweep = &sweep;
                    scope.spawn(move || sweep(lo, band));
                }
            });
        }
        out
    }
}

impl QueryEngine<'_> {
    /// The ranking of [`SimilarityAlgorithm::rank`] through a shared
    /// reference — the engine never mutates to rank, and the serve
    /// workers share one engine per walk across threads.
    pub fn rank_ref(&self, query: NodeId, target_label: LabelId, k: usize) -> RankedList {
        self.rank_band_ref(query, target_label, k, None)
    }

    /// [`QueryEngine::rank_ref`] restricted to a contiguous index band of
    /// the candidate label's node slice (`band = (lo, hi)`, half-open over
    /// `g.nodes_of_label(target_label)`). A fleet shard ranks only its own
    /// band; the coordinator merges the per-band top-k lists. `None` ranks
    /// every candidate — identical to [`QueryEngine::rank_ref`].
    ///
    /// # Panics
    /// If the band exceeds the candidate slice.
    pub fn rank_band_ref(
        &self,
        query: NodeId,
        target_label: LabelId,
        k: usize,
        band: Option<(usize, usize)>,
    ) -> RankedList {
        assert_eq!(
            target_label,
            self.half.source(),
            "engine ranks its source label"
        );
        assert_eq!(
            self.g.label_of(query),
            self.half.source(),
            "query label mismatch"
        );
        let mut rank_span = repsim_obs::span("repsim.core.engine.rank");
        if rank_span.is_active() {
            rank_span.attr("k", k);
            rank_span.attr("half_nnz", self.m_half.nnz());
        }
        let qi = self.g.index_in_label(query);
        let cross = self.cross_counts(query);
        let qd = self.diag[qi];
        let candidates = self.g.nodes_of_label(target_label);
        let (lo, hi) = band.unwrap_or((0, candidates.len()));
        RankedList::from_scores(
            self.g,
            candidates[lo..hi].iter().map(|&n| {
                let j = self.g.index_in_label(n);
                let denom = qd + self.diag[j];
                let s = if denom == 0.0 {
                    0.0
                } else {
                    2.0 * cross[j] / denom
                };
                (n, s)
            }),
            query,
            k,
        )
    }
}

impl SimilarityAlgorithm for QueryEngine<'_> {
    fn name(&self) -> String {
        "R-PathSim (query engine)".to_owned()
    }

    fn rank(&mut self, query: NodeId, target_label: LabelId, k: usize) -> RankedList {
        self.rank_ref(query, target_label, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpathsim::RPathSim;
    use repsim_graph::GraphBuilder;

    fn mas_like() -> Graph {
        let mut b = GraphBuilder::new();
        let conf = b.entity_label("conf");
        let paper = b.entity_label("paper");
        let dom = b.entity_label("dom");
        let kw = b.entity_label("kw");
        let confs: Vec<_> = (0..4).map(|i| b.entity(conf, &format!("c{i}"))).collect();
        let doms: Vec<_> = (0..2).map(|i| b.entity(dom, &format!("d{i}"))).collect();
        let kws: Vec<_> = (0..3).map(|i| b.entity(kw, &format!("k{i}"))).collect();
        b.edge(doms[0], kws[0]).unwrap();
        b.edge(doms[0], kws[1]).unwrap();
        b.edge(doms[1], kws[1]).unwrap();
        b.edge(doms[1], kws[2]).unwrap();
        for (i, (c, d)) in [(0, 0), (0, 0), (1, 0), (2, 1), (3, 1)]
            .into_iter()
            .enumerate()
        {
            let p = b.entity(paper, &format!("p{i}"));
            b.edge(p, confs[c]).unwrap();
            b.edge(p, doms[d]).unwrap();
        }
        b.build()
    }

    #[test]
    fn engine_matches_full_matrix_scores() {
        let g = mas_like();
        for half_text in [
            "conf paper dom kw",
            "conf *paper dom kw",
            "conf paper",
            "conf paper dom",
        ] {
            let half = MetaWalk::parse_in(&g, half_text).unwrap();
            let engine = QueryEngine::new(&g, half.clone());
            let full = RPathSim::new(&g, half.symmetric_closure());
            let conf = g.labels().get("conf").unwrap();
            for &e in g.nodes_of_label(conf) {
                for &f in g.nodes_of_label(conf) {
                    let (a, b) = (engine.score(e, f), full.score(e, f));
                    assert!(
                        (a - b).abs() < 1e-12,
                        "{half_text}: engine {a} vs full {b} at {e:?},{f:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_ranking_matches_full_matrix_ranking() {
        let g = mas_like();
        let half = MetaWalk::parse_in(&g, "conf paper dom kw").unwrap();
        let conf = g.labels().get("conf").unwrap();
        let mut engine = QueryEngine::new(&g, half.clone());
        let mut full = RPathSim::new(&g, half.symmetric_closure());
        for &q in g.nodes_of_label(conf) {
            assert_eq!(
                engine.rank(q, conf, 10).keyed(&g),
                full.rank(q, conf, 10).keyed(&g)
            );
        }
    }

    #[test]
    fn closure_reports_full_walk() {
        let g = mas_like();
        let half = MetaWalk::parse_in(&g, "conf paper dom").unwrap();
        let engine = QueryEngine::new(&g, half);
        assert_eq!(
            engine.closure().display(g.labels()),
            "conf paper dom paper conf"
        );
        assert_eq!(engine.half().display(g.labels()), "conf paper dom");
    }

    #[test]
    fn same_label_half_hops_supported() {
        // Half walks through equal adjacent labels (citations) still
        // factorize: corrections are per hop, inside the half.
        let mut b = GraphBuilder::new();
        let paper = b.entity_label("paper");
        let cite = b.relationship_label("cite");
        let p: Vec<_> = (0..5).map(|i| b.entity(paper, &format!("p{i}"))).collect();
        for (x, y) in [(0, 2), (1, 2), (2, 3), (3, 4)] {
            let c = b.relationship(cite);
            b.edge(p[x], c).unwrap();
            b.edge(c, p[y]).unwrap();
        }
        let g = b.build();
        let half = MetaWalk::parse_in(&g, "paper cite paper cite paper").unwrap();
        let engine = QueryEngine::new(&g, half.clone());
        let full = RPathSim::new(&g, half.symmetric_closure());
        for &e in g.nodes_of_label(g.labels().get("paper").unwrap()) {
            for &f in g.nodes_of_label(g.labels().get("paper").unwrap()) {
                assert!((engine.score(e, f) - full.score(e, f)).abs() < 1e-12);
            }
        }
    }
}
