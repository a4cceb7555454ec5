//! Budget-aware R-PathSim with graceful degradation.
//!
//! [`BudgetedRPathSim`] answers the same ranking queries as
//! [`crate::rpathsim::RPathSim`], but under a [`Budget`] it degrades
//! instead of failing when a limit trips, cascading through three tiers:
//!
//! 1. **Full closure** — materialize `M̂_{q·q⁻¹}` (the plan every other
//!    entry point uses). Scores are exact.
//! 2. **Half factorization** — on exhaustion, fall back to
//!    [`crate::engine::QueryEngine`]: only `M̂_q` is materialized and
//!    queries run as sparse row products. Still *exact* — the closure
//!    factorizes (`M̂_p = M̂_q·M̂_qᵀ`), so this tier trades per-query time
//!    for a much smaller build.
//! 3. **Affordable prefix** — if even the half matrix does not fit,
//!    shorten the walk: take the longest prefix of the half walk (ending
//!    at a plain entity step) whose *estimated* build cost fits what
//!    remains of the budget, and answer over that prefix's symmetric
//!    closure. Scores are exact *for the shortened walk*, which the
//!    caller can inspect via [`Degradation::PrefixWalk`]. The one-step
//!    prefix (identity matrix) is the last resort and always fits.
//!
//! Cost estimates reuse the chain planner's fan-out model
//! ([`repsim_sparse::chain::plan_chain`]), so the degradation ladder and
//! the SpGEMM association order share one cost model. Fallback tiers run
//! with fault injection disabled ([`Budget::without_fault_injection`]) so
//! the harness can force a primary-path failure while the recovery path
//! executes for real.

use repsim_graph::biadjacency::biadjacency;
use repsim_graph::{Graph, LabelId, NodeId};
use repsim_metawalk::MetaWalk;
use repsim_sparse::chain::{plan_chain, ChainStats};
use repsim_sparse::{Budget, ExecError, Parallelism};

use repsim_baselines::ranking::{RankedList, SimilarityAlgorithm};

use crate::engine::QueryEngine;
use crate::rpathsim::RPathSim;

/// Conservative SpGEMM throughput used to convert a remaining deadline
/// into an affordable flop count (tier 3's fit test). Deliberately low —
/// a pessimistic constant makes the prefix fallback admit less work, and
/// an admitted prefix that still blows the deadline is caught by the
/// build itself (the budget is threaded through it).
const FLOPS_PER_MS: f64 = 1e5;

/// How far a [`BudgetedRPathSim`] had to degrade to fit its budget.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Degradation {
    /// Tier 1: the full closure matrix was materialized. Exact.
    Exact,
    /// Tier 2: only the half matrix was materialized; queries run as row
    /// products. Score-identical to tier 1, slower per query.
    HalfFactorized,
    /// Tier 3: the walk itself was shortened to an affordable prefix of
    /// the half walk; scores are exact for `walk`'s symmetric closure.
    PrefixWalk {
        /// The half-walk prefix actually scored (closed symmetrically).
        walk: MetaWalk,
    },
    /// Fleet-only tier: a scatter-gathered ranking covers only `answered`
    /// of `total` shards because some shard (every replica of it) was
    /// unreachable. Scores are exact over the candidates that *were*
    /// ranked; candidates on dead shards are simply absent. Never produced
    /// by [`BudgetedRPathSim`] itself — the serve coordinator attaches it
    /// when merging partial shard responses.
    PartialShards {
        /// Shards whose band made it into the merged ranking.
        answered: usize,
        /// Shards the fleet is configured with.
        total: usize,
    },
}

enum TierImpl<'g> {
    Full(RPathSim<'g>),
    Half(QueryEngine<'g>),
}

/// R-PathSim over the symmetric closure of a half meta-walk, degrading
/// through cheaper tiers instead of failing when a [`Budget`] trips.
pub struct BudgetedRPathSim<'g> {
    tier: TierImpl<'g>,
    degradation: Degradation,
}

impl<'g> BudgetedRPathSim<'g> {
    /// Builds a ranker for the closure of `half` under `budget`,
    /// cascading through the degradation tiers (see module docs).
    ///
    /// Errs only when even the last-resort tier cannot run: the deadline
    /// is already exhausted, the caller's cancellation flag is set, or a
    /// shape bug surfaced (`ShapeMismatch` is never degraded around).
    pub fn try_new(
        g: &'g Graph,
        half: MetaWalk,
        par: Parallelism,
        budget: &Budget,
    ) -> Result<Self, ExecError> {
        // Tier transitions surface as `repsim.core.budgeted.*` point
        // events so fault-injection traces show *why* an answer degraded.
        let tier_event = |tier: &str| {
            repsim_obs::point(
                "repsim.core.budgeted.tier",
                repsim_obs::Level::Info,
                tier.to_owned(),
            );
        };
        let degrade_event = |from: &str, e: &ExecError| {
            if repsim_obs::enabled() {
                repsim_obs::point(
                    "repsim.core.budgeted.degrade",
                    repsim_obs::Level::Warn,
                    format!("{from} tier failed: {e}"),
                );
            }
        };
        // Tier 1: full closure.
        match RPathSim::try_with_budget(g, half.symmetric_closure(), par, budget) {
            Ok(rp) => {
                tier_event("exact");
                return Ok(BudgetedRPathSim {
                    tier: TierImpl::Full(rp),
                    degradation: Degradation::Exact,
                });
            }
            Err(e @ ExecError::ShapeMismatch { .. }) => return Err(e),
            Err(e) => degrade_event("exact", &e),
        }
        // Tier 2: half factorization, injection off so a harness-forced
        // tier-1 failure exercises this path for real.
        let fallback = budget.without_fault_injection();
        if prefix_fits(g, half.steps().iter().map(|s| s.label()), &fallback) {
            match QueryEngine::try_with_budget(g, half.clone(), par, &fallback) {
                Ok(qe) => {
                    tier_event("half-factorized");
                    return Ok(BudgetedRPathSim {
                        tier: TierImpl::Half(qe),
                        degradation: Degradation::HalfFactorized,
                    });
                }
                Err(e @ ExecError::ShapeMismatch { .. }) => return Err(e),
                Err(e) => degrade_event("half-factorized", &e),
            }
        }
        // Tier 3: longest affordable strict prefix of the half walk. The
        // one-step prefix builds an identity matrix and always fits, so
        // the loop only leaves an error if the budget is hard-exhausted
        // (expired deadline / set cancellation flag) or estimates were
        // optimistic all the way down.
        let steps = half.steps();
        let mut last_err = ExecError::Cancelled;
        for end in (0..steps.len() - 1).rev() {
            if !steps[end].is_entity() || steps[end].is_star() {
                continue;
            }
            let labels = steps[..=end].iter().map(|s| s.label());
            if end > 0 && !prefix_fits(g, labels, &fallback) {
                continue;
            }
            let prefix = MetaWalk::new(steps[..=end].to_vec());
            match QueryEngine::try_with_budget(g, prefix.clone(), par, &fallback) {
                Ok(qe) => {
                    if repsim_obs::enabled() {
                        repsim_obs::point(
                            "repsim.core.budgeted.tier",
                            repsim_obs::Level::Info,
                            format!("prefix-walk {prefix}"),
                        );
                    }
                    return Ok(BudgetedRPathSim {
                        tier: TierImpl::Half(qe),
                        degradation: Degradation::PrefixWalk { walk: prefix },
                    });
                }
                Err(e @ ExecError::ShapeMismatch { .. }) => return Err(e),
                Err(e) => {
                    degrade_event("prefix-walk", &e);
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// How far the build degraded to fit its budget.
    pub fn degradation(&self) -> &Degradation {
        &self.degradation
    }

    /// The half walk whose symmetric closure this instance actually
    /// scores: the requested half for [`Degradation::Exact`] and
    /// [`Degradation::HalfFactorized`], the shortened prefix for
    /// [`Degradation::PrefixWalk`].
    pub fn effective_half(&self) -> MetaWalk {
        match &self.tier {
            // The closure was built from a half walk, whose entity
            // endpoint is the closure's midpoint.
            #[allow(clippy::expect_used)]
            TierImpl::Full(rp) => rp.meta_walk().half().expect("a symmetric closure halves"),
            TierImpl::Half(qe) => qe.half().clone(),
        }
    }

    /// The R-PathSim score of a pair under the effective walk's closure.
    pub fn score(&self, e: NodeId, f: NodeId) -> f64 {
        match &self.tier {
            TierImpl::Full(rp) => rp.score(e, f),
            TierImpl::Half(qe) => qe.score(e, f),
        }
    }

    /// [`SimilarityAlgorithm::rank`] restricted to a contiguous index band
    /// of the candidate label's node slice (fleet shards rank only their
    /// own band); `None` ranks every candidate.
    pub fn rank_band(
        &self,
        query: NodeId,
        target_label: LabelId,
        k: usize,
        band: Option<(usize, usize)>,
    ) -> RankedList {
        match &self.tier {
            TierImpl::Full(rp) => rp.rank_band(query, target_label, k, band),
            TierImpl::Half(qe) => qe.rank_band_ref(query, target_label, k, band),
        }
    }
}

/// Whether the estimated cost of materializing the commuting matrix along
/// `labels` fits the budget's remaining headroom. Pure estimation — the
/// actual build still runs under the budget and has the final word.
fn prefix_fits(g: &Graph, labels: impl Iterator<Item = LabelId>, budget: &Budget) -> bool {
    let labels: Vec<LabelId> = labels.collect();
    if labels.len() < 2 {
        return true; // identity matrix: no product to run.
    }
    let stats: Vec<ChainStats> = labels
        .windows(2)
        .map(|pair| ChainStats {
            rows: g.nodes_of_label(pair[0]).len() as f64,
            cols: g.nodes_of_label(pair[1]).len() as f64,
            nnz: biadjacency(g, pair[0], pair[1]).nnz() as f64,
        })
        .collect();
    let plan = plan_chain(&stats);
    if let Some(cap) = budget.max_nnz() {
        if plan.est_nnz > cap as f64 {
            return false;
        }
    }
    if let Some(left) = budget.remaining_time() {
        if plan.est_flops > left.as_secs_f64() * 1e3 * FLOPS_PER_MS {
            return false;
        }
    }
    true
}

impl SimilarityAlgorithm for BudgetedRPathSim<'_> {
    fn name(&self) -> String {
        match &self.degradation {
            Degradation::Exact => "R-PathSim (budgeted)".to_owned(),
            Degradation::HalfFactorized => "R-PathSim (budgeted, half-factorized)".to_owned(),
            Degradation::PrefixWalk { .. } => "R-PathSim (budgeted, prefix walk)".to_owned(),
            Degradation::PartialShards { .. } => "R-PathSim (budgeted, partial shards)".to_owned(),
        }
    }

    fn rank(&mut self, query: NodeId, target_label: LabelId, k: usize) -> RankedList {
        self.rank_band(query, target_label, k, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repsim_graph::GraphBuilder;
    use repsim_sparse::budget::failpoints;

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

    fn assert_scores_match_exact(g: &Graph, budgeted: &BudgetedRPathSim<'_>) {
        let exact = RPathSim::new(g, budgeted.effective_half().symmetric_closure());
        let conf = g.labels().get("conf").unwrap();
        for &e in g.nodes_of_label(conf) {
            for &f in g.nodes_of_label(conf) {
                let (a, b) = (budgeted.score(e, f), exact.score(e, f));
                assert!(
                    (a - b).abs() < 1e-12,
                    "degraded {a} vs exact {b} at {e:?},{f:?}"
                );
            }
        }
    }

    #[test]
    fn unlimited_budget_stays_exact() {
        let g = mas_like();
        let half = MetaWalk::parse_in(&g, "conf paper dom kw").unwrap();
        let b = BudgetedRPathSim::try_new(
            &g,
            half.clone(),
            Parallelism::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(*b.degradation(), Degradation::Exact);
        assert_eq!(b.effective_half(), half);
        assert_scores_match_exact(&g, &b);
    }

    #[test]
    fn forced_cancellation_degrades_without_panicking() {
        // The acceptance scenario: failpoints force mid-chain cancellation
        // in the primary build; the answer comes back degraded, never as a
        // panic, and is score-identical to exact on the walk it answers.
        let g = mas_like();
        let half = MetaWalk::parse_in(&g, "conf paper dom kw").unwrap();
        let _guard = failpoints::scoped(&[failpoints::SPGEMM_CANCEL]);
        let budget = Budget::unlimited().with_fault_injection();
        let b = BudgetedRPathSim::try_new(&g, half.clone(), Parallelism::default(), &budget)
            .expect("degradation must absorb the injected failure");
        assert_eq!(*b.degradation(), Degradation::HalfFactorized);
        assert_eq!(b.effective_half(), half);
        assert_scores_match_exact(&g, &b);
    }

    #[test]
    fn starved_nnz_cap_falls_back_to_prefix_walk() {
        let g = mas_like();
        let half = MetaWalk::parse_in(&g, "conf paper dom kw").unwrap();
        // A one-entry cap starves every real product; only the identity
        // prefix ("conf") survives the estimate gate.
        let budget = Budget::unlimited().with_max_nnz(1);
        let b = BudgetedRPathSim::try_new(&g, half, Parallelism::default(), &budget).unwrap();
        match b.degradation() {
            Degradation::PrefixWalk { walk } => {
                assert_eq!(walk.display(g.labels()), "conf");
            }
            other => panic!("expected a prefix walk, got {other:?}"),
        }
        assert_scores_match_exact(&g, &b);
        // Identity closure: self-similarity 1, cross-similarity 0.
        let conf = g.labels().get("conf").unwrap();
        let nodes = g.nodes_of_label(conf);
        assert_eq!(b.score(nodes[0], nodes[0]), 1.0);
        assert_eq!(b.score(nodes[0], nodes[1]), 0.0);
    }

    #[test]
    fn moderate_cap_keeps_the_longest_affordable_prefix() {
        let g = mas_like();
        let half = MetaWalk::parse_in(&g, "conf paper dom kw").unwrap();
        // Generous enough for conf–paper biadjacency products but not the
        // full three-hop half matrix estimate: lands on a strict prefix
        // longer than the identity whenever the estimator admits one.
        let budget = Budget::unlimited().with_max_nnz(6);
        let b = BudgetedRPathSim::try_new(&g, half, Parallelism::default(), &budget).unwrap();
        match b.degradation() {
            Degradation::PrefixWalk { walk } => {
                assert!(!walk.steps().is_empty(), "prefix must be a valid walk");
                assert!(
                    b.effective_half() == *walk,
                    "effective walk reports the prefix"
                );
            }
            Degradation::HalfFactorized => {} // estimator admitted the half.
            Degradation::Exact => panic!("a 6-entry cap cannot admit the closure"),
            Degradation::PartialShards { .. } => {
                panic!("partial-shards is coordinator-only, never budget-produced")
            }
        }
        assert_scores_match_exact(&g, &b);
    }

    #[test]
    fn exhausted_deadline_errs_instead_of_looping() {
        let g = mas_like();
        let half = MetaWalk::parse_in(&g, "conf paper dom kw").unwrap();
        let budget = Budget::unlimited().with_deadline_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        match BudgetedRPathSim::try_new(&g, half, Parallelism::default(), &budget) {
            Err(ExecError::DeadlineExceeded { .. }) => {}
            Err(other) => panic!("expected DeadlineExceeded, got {other:?}"),
            Ok(b) => panic!(
                "an already-expired deadline reaches even the identity tier; got {:?}",
                b.degradation()
            ),
        }
    }

    #[test]
    fn ranking_delegates_to_the_active_tier() {
        let g = mas_like();
        let half = MetaWalk::parse_in(&g, "conf paper dom kw").unwrap();
        let conf = g.labels().get("conf").unwrap();
        let mut exact = RPathSim::new(&g, half.symmetric_closure());
        let mut b =
            BudgetedRPathSim::try_new(&g, half, Parallelism::default(), &Budget::unlimited())
                .unwrap();
        for &q in g.nodes_of_label(conf) {
            assert_eq!(
                b.rank(q, conf, 10).keyed(&g),
                exact.rank(q, conf, 10).keyed(&g)
            );
        }
        assert!(b.name().contains("budgeted"));
    }
}
