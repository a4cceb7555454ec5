//! Cost-ordered sparse matrix-chain multiplication.
//!
//! Commuting matrices are products of biadjacency chains (§4.3). The chain
//! product is associative, so the association order is a pure performance
//! choice — and a blind left fold can be orders of magnitude more expensive
//! than the optimum when a cheap join sits deep on the chain's right (e.g.
//! a wide hub label early in the walk). This module estimates each
//! intermediate product's nnz with the same independent-fan-out model the
//! core planner uses for physical-plan choice, runs the classic
//! matrix-chain DP over estimated Gustavson flops, and evaluates the chain
//! in the chosen order.
//!
//! The estimator is deliberately a function of the *sub-chain*, not of the
//! association order, so the DP's size table is well-defined.

use crate::accum::SpgemmArena;
use crate::budget::{failpoints, Budget, ExecError};
use crate::ops::try_spmm_with_budget_in;
use crate::Csr;
use repsim_obs::CounterHandle;

/// Planner metrics (`repsim.sparse.chain.*`).
static CHAIN_CALLS: CounterHandle = CounterHandle::new("repsim.sparse.chain.calls");
static CHAIN_JOINS: CounterHandle = CounterHandle::new("repsim.sparse.chain.joins");

/// Shape and occupancy statistics of one chain factor.
#[derive(Clone, Copy, Debug)]
pub struct ChainStats {
    /// Row count as a float (estimates only).
    pub rows: f64,
    /// Column count as a float.
    pub cols: f64,
    /// Stored-entry count as a float.
    pub nnz: f64,
}

impl ChainStats {
    /// Statistics of a concrete matrix.
    pub fn of(m: &Csr) -> ChainStats {
        ChainStats {
            rows: m.nrows() as f64,
            cols: m.ncols() as f64,
            nnz: m.nnz() as f64,
        }
    }
}

/// Estimated nnz of the product of the chain described by `stats`,
/// assuming independent-ish fan-out: running estimate
/// `nnz(AB) ≈ min(rows·cols, nnz(A)·nnz(B)/shared_dim)`.
///
/// This is the estimator the core planner applies to label chains; it is
/// lifted here so chain ordering and plan choice share one cost model.
/// Returns 0 for an empty chain.
pub fn estimate_chain_nnz(stats: &[ChainStats]) -> f64 {
    let rows = match stats.first() {
        Some(s) => s.rows,
        None => return 0.0,
    };
    let mut nnz = rows.max(1.0);
    for s in stats {
        nnz = (nnz * s.nnz / s.rows.max(1.0)).min(rows * s.cols).max(0.0);
    }
    nnz
}

/// A binary association order over chain indices `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainOrder {
    /// The chain factor at this index.
    Leaf(usize),
    /// The product of two sub-orders.
    Join(Box<ChainOrder>, Box<ChainOrder>),
}

impl ChainOrder {
    /// Renders the order as a parenthesized expression, e.g. `((0*1)*2)`.
    pub fn render(&self) -> String {
        match self {
            ChainOrder::Leaf(i) => i.to_string(),
            ChainOrder::Join(l, r) => format!("({}*{})", l.render(), r.render()),
        }
    }
}

/// The DP's output: an association order plus its estimated cost.
#[derive(Clone, Debug)]
pub struct ChainPlan {
    /// The chosen association order.
    pub order: ChainOrder,
    /// Estimated Gustavson flops of evaluating in that order.
    pub est_flops: f64,
    /// Estimated nnz of the final product.
    pub est_nnz: f64,
}

/// Chooses an association order for the chain by the standard O(n³)
/// matrix-chain DP, minimizing estimated Gustavson flops
/// `nnz(L)·nnz(R)/rows(R)` per join with [`estimate_chain_nnz`] sizing the
/// intermediates. Ties break toward the left fold (largest split point).
///
/// Panics on an empty chain.
pub fn plan_chain(stats: &[ChainStats]) -> ChainPlan {
    let n = stats.len();
    assert!(n > 0, "empty spmm chain");
    // est[i][j]: estimated nnz of the product of factors i..=j.
    let mut est = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in i..n {
            est[i][j] = estimate_chain_nnz(&stats[i..=j]);
        }
    }
    // cost[i][j]: minimal estimated flops for factors i..=j;
    // split[i][j]: the k achieving it (left part is i..=k).
    let mut cost = vec![vec![0.0f64; n]; n];
    let mut split = vec![vec![0usize; n]; n];
    for len in 2..=n {
        for i in 0..=n - len {
            let j = i + len - 1;
            let mut best = f64::INFINITY;
            let mut best_k = i;
            for k in i..j {
                // Gustavson flops of L·R ≈ nnz(L) · avg nnz per row of R.
                let flops = est[i][k] * est[k + 1][j] / stats[k + 1].rows.max(1.0);
                let total = cost[i][k] + cost[k + 1][j] + flops;
                if total <= best {
                    best = total;
                    best_k = k;
                }
            }
            cost[i][j] = best;
            split[i][j] = best_k;
        }
    }
    fn build(split: &[Vec<usize>], i: usize, j: usize) -> ChainOrder {
        if i == j {
            return ChainOrder::Leaf(i);
        }
        let k = split[i][j];
        ChainOrder::Join(
            Box::new(build(split, i, k)),
            Box::new(build(split, k + 1, j)),
        )
    }
    ChainPlan {
        order: build(&split, 0, n - 1),
        est_flops: cost[0][n - 1],
        est_nnz: est[0][n - 1],
    }
}

/// Either a borrowed chain factor or an owned intermediate product.
enum Factor<'a> {
    Borrowed(&'a Csr),
    Owned(Csr),
}

impl Factor<'_> {
    fn as_ref(&self) -> &Csr {
        match self {
            Factor::Borrowed(m) => m,
            Factor::Owned(m) => m,
        }
    }
}

fn eval<'a>(
    order: &ChainOrder,
    matrices: &[&'a Csr],
    threads: usize,
    budget: &Budget,
    arena: &mut SpgemmArena,
) -> Result<Factor<'a>, ExecError> {
    match order {
        ChainOrder::Leaf(i) => Ok(Factor::Borrowed(matrices[*i])),
        ChainOrder::Join(l, r) => {
            let left = eval(l, matrices, threads, budget, arena)?;
            let right = eval(r, matrices, threads, budget, arena)?;
            // Each join is a fresh cancellation point: a long chain aborts
            // between joins (and, via the banded kernel, within one).
            if budget.injected(failpoints::SPGEMM_CANCEL) {
                return Err(ExecError::Cancelled);
            }
            CHAIN_JOINS.add(1);
            // Every join reuses the one arena, so the chain performs a
            // single accumulator allocation per worker, not one per join.
            Ok(Factor::Owned(try_spmm_with_budget_in(
                left.as_ref(),
                right.as_ref(),
                threads,
                budget,
                arena,
            )?))
        }
    }
}

/// Multiplies a chain of sparse matrices in the order chosen by
/// [`plan_chain`], running each join on up to `threads` workers.
///
/// Panics on an empty chain or on any shape mismatch. Equal to the left
/// fold of [`crate::ops::spmm`] whenever the chain's values are exactly
/// representable integers (walk counts are — see the crate docs); for
/// general floats the results may differ by reassociation rounding.
pub fn spmm_chain_with_threads(matrices: &[&Csr], threads: usize) -> Csr {
    match try_spmm_chain_with_budget(matrices, threads, &Budget::unlimited()) {
        Ok(m) => m,
        #[allow(clippy::panic)] // documented infallible wrapper over the try_ API
        Err(e) => panic!("spmm chain: {e}"),
    }
}

/// Budget-governed [`spmm_chain_with_threads`]: shape mismatches and an
/// empty chain are returned as errors instead of panicking, every join
/// runs under `budget` (checked at row-band granularity inside the
/// kernel), and the budget is re-checked between joins so a cancelled
/// chain stops before its next intermediate product.
pub fn try_spmm_chain_with_budget(
    matrices: &[&Csr],
    threads: usize,
    budget: &Budget,
) -> Result<Csr, ExecError> {
    let mut arena = SpgemmArena::new();
    try_spmm_chain_with_budget_in(matrices, threads, budget, &mut arena)
}

/// [`try_spmm_chain_with_budget`] with caller-provided scratch: every
/// join of the chain (and, for callers like `metawalk`'s commuting
/// builds, every chain of a multi-chain construction) reuses the one
/// [`SpgemmArena`], so accumulator buffers are allocated once per worker
/// for the whole build instead of once per product.
pub fn try_spmm_chain_with_budget_in(
    matrices: &[&Csr],
    threads: usize,
    budget: &Budget,
    arena: &mut SpgemmArena,
) -> Result<Csr, ExecError> {
    if matrices.is_empty() {
        return Err(ExecError::InvalidInput {
            op: "spmm_chain",
            message: "empty spmm chain".to_owned(),
        });
    }
    // audit:allow(RA0101, shape validation over factor metadata only — no data touched)
    for pair in matrices.windows(2) {
        if pair[0].ncols() != pair[1].nrows() {
            return Err(ExecError::ShapeMismatch {
                op: "spmm_chain",
                lhs: (pair[0].nrows(), pair[0].ncols()),
                rhs: (pair[1].nrows(), pair[1].ncols()),
            });
        }
    }
    if matrices.len() == 1 {
        budget.check()?;
        return Ok(matrices[0].clone());
    }
    CHAIN_CALLS.add(1);
    let mut chain_span = repsim_obs::span("repsim.sparse.chain");
    let plan = {
        let mut plan_span = repsim_obs::span("repsim.sparse.chain.plan");
        let stats: Vec<ChainStats> = matrices.iter().map(|m| ChainStats::of(m)).collect();
        let plan = plan_chain(&stats);
        if plan_span.is_active() {
            plan_span.attr("n", matrices.len());
            plan_span.attr("order", plan.order.render());
            plan_span.attr("est_flops", plan.est_flops);
            plan_span.attr("est_nnz", plan.est_nnz);
        }
        plan
    };
    let out = match eval(&plan.order, matrices, threads, budget, arena)? {
        Factor::Owned(m) => m,
        Factor::Borrowed(m) => m.clone(),
    };
    if chain_span.is_active() {
        chain_span.attr("n", matrices.len());
        chain_span.attr("order", plan.order.render());
        chain_span.attr("out_nnz", out.nnz());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::spmm;

    fn stats(dims: &[(usize, usize, usize)]) -> Vec<ChainStats> {
        dims.iter()
            .map(|&(r, c, nnz)| ChainStats {
                rows: r as f64,
                cols: c as f64,
                nnz: nnz as f64,
            })
            .collect()
    }

    #[test]
    fn estimate_clamps_to_dense_and_zero() {
        // nnz can never exceed rows·cols of the product...
        let s = stats(&[(4, 1000, 4000), (1000, 4, 4000)]);
        assert!(estimate_chain_nnz(&s) <= 16.0);
        // ...and an empty factor zeroes the chain.
        let s = stats(&[(4, 8, 0), (8, 4, 32)]);
        assert_eq!(estimate_chain_nnz(&s), 0.0);
    }

    #[test]
    fn dp_avoids_expensive_left_fold() {
        // A·B joins two dense square factors (~10⁶ est. flops); C collapses
        // everything to one column, making B·C and then A·(B·C) nearly
        // free. The DP must start from the right.
        let s = stats(&[
            (100, 100, 10_000), // A: dense
            (100, 100, 10_000), // B: dense
            (100, 1, 100),      // C: a single column
        ]);
        let plan = plan_chain(&s);
        assert_eq!(plan.order.render(), "(0*(1*2))");
    }

    #[test]
    fn single_factor_plan_is_a_leaf() {
        let plan = plan_chain(&stats(&[(3, 4, 5)]));
        assert_eq!(plan.order, ChainOrder::Leaf(0));
        assert_eq!(plan.est_flops, 0.0);
    }

    #[test]
    fn budgeted_chain_reports_shape_mismatch_and_cancellation() {
        let a = crate::par::tests::sample(8, 5, 31);
        let b = crate::par::tests::sample(5, 6, 32);
        let bad = crate::par::tests::sample(9, 4, 33);
        assert!(matches!(
            try_spmm_chain_with_budget(&[&a, &bad], 1, &Budget::unlimited()).unwrap_err(),
            ExecError::ShapeMismatch {
                op: "spmm_chain",
                ..
            }
        ));
        let _guard = failpoints::scoped(&[failpoints::SPGEMM_CANCEL]);
        let inject = Budget::unlimited().with_fault_injection();
        assert_eq!(
            try_spmm_chain_with_budget(&[&a, &b], 1, &inject).unwrap_err(),
            ExecError::Cancelled
        );
        // A single-factor chain has no join, so no mid-chain cancellation
        // fires — but an explicit cancel flag still does.
        assert!(try_spmm_chain_with_budget(&[&a], 1, &inject).is_ok());
    }

    #[test]
    fn empty_chain_is_invalid_input_not_a_panic() {
        let e = try_spmm_chain_with_budget(&[], 1, &Budget::unlimited()).unwrap_err();
        assert_eq!(
            e,
            ExecError::InvalidInput {
                op: "spmm_chain",
                message: "empty spmm chain".to_owned(),
            }
        );
        assert_eq!(e.to_string(), "spmm_chain: empty spmm chain");
        assert!(!e.is_exhaustion());
    }

    #[test]
    fn planned_chain_equals_left_fold_on_integer_matrices() {
        let a = crate::par::tests::sample(30, 12, 21);
        let b = crate::par::tests::sample(12, 40, 22);
        let c = crate::par::tests::sample(40, 9, 23);
        let d = crate::par::tests::sample(9, 17, 24);
        let chain = [&a, &b, &c, &d];
        let folded = chain[1..].iter().fold(a.clone(), |acc, m| spmm(&acc, m));
        for threads in [1, 4] {
            assert_eq!(spmm_chain_with_threads(&chain, threads), folded);
        }
    }
}
