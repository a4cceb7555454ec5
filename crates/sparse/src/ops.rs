//! Matrix-matrix and matrix-vector kernels.
//!
//! Every kernel comes in two flavours: the historical infallible form
//! (`spmm`, `matvec`, …) that panics on shape mismatch and ignores
//! resource limits, and a fallible `try_*` form returning
//! [`ExecError`] that also honours a [`Budget`] — checked at row-band
//! granularity in both the symbolic and numeric SpGEMM phases, so a
//! cancelled or over-deadline product aborts mid-sweep. The infallible
//! wrappers delegate to the fallible ones with an unlimited budget.

use crate::accum::{NumericTally, SpgemmArena, WorkerScratch};
use crate::budget::{failpoints, Budget, ExecError};
use crate::par::weighted_chunks;
use crate::{Csr, Dense};
use repsim_obs::{CounterHandle, HistogramHandle};

/// Kernel metrics (`repsim.sparse.spgemm.*`): call/phase counters, log₂
/// histograms of phase latencies and output sizes, and the accumulator's
/// row and tile tallies. All no-ops until a sink is installed (see
/// [`repsim_obs::enabled`]).
static SPGEMM_CALLS: CounterHandle = CounterHandle::new("repsim.sparse.spgemm.calls");
static SPGEMM_SYMBOLIC_NS: HistogramHandle =
    HistogramHandle::new("repsim.sparse.spgemm.symbolic_ns");
static SPGEMM_NUMERIC_NS: HistogramHandle = HistogramHandle::new("repsim.sparse.spgemm.numeric_ns");
static SPGEMM_OUT_NNZ: HistogramHandle = HistogramHandle::new("repsim.sparse.spgemm.out_nnz");
static SPGEMM_FLOPS: HistogramHandle = HistogramHandle::new("repsim.sparse.spgemm.flops");
static SPGEMM_DENSE_ROWS: CounterHandle =
    CounterHandle::new("repsim.sparse.spgemm.numeric.dense_rows");
static SPGEMM_TILE_COUNT: CounterHandle =
    CounterHandle::new("repsim.sparse.spgemm.numeric.tile_count");

/// How many rows a band worker processes between budget checks. Checks
/// cost one `Instant::now` plus two atomic loads — negligible at this
/// granularity, yet an expired deadline aborts within ~a thousand rows.
const ROWS_PER_CHECK: usize = 1024;

/// A product's arrays are allocated with room for `1/HEADROOM_DIV` more
/// entries than it holds. A cached product patched in place
/// ([`Csr::splice_rows`]) grows into that room instead of reallocating,
/// and reallocating an array the allocator keeps on its heap copies it
/// whole: on the movies `film actor film` matrix that copy alone lifted
/// a served process's peak RSS by ~16 MiB. Untouched room is address
/// space, resident only where the allocator must zero reused pages.
const HEADROOM_DIV: usize = 64;

/// Sparse × sparse multiplication (`A · B`).
///
/// Two-phase row-by-row Gustavson algorithm: a symbolic pass sizes each
/// output row (distinct touched columns), then a numeric pass writes
/// sorted columns and values straight into the pre-allocated CSR arrays.
/// Output rows carry sorted column indices and no explicit zeros (an
/// exact-zero sum of products is dropped during the numeric pass).
pub fn spmm(a: &Csr, b: &Csr) -> Csr {
    spmm_with_threads(a, b, 1)
}

/// Fallible [`spmm`]: shape errors are returned, not panicked.
pub fn try_spmm(a: &Csr, b: &Csr) -> Result<Csr, ExecError> {
    try_spmm_with_budget(a, b, 1, &Budget::unlimited())
}

/// [`spmm`] over row bands on up to `threads` worker threads.
///
/// Serial and parallel runs share [`RowWorkspace`]'s per-row kernel, so
/// each output row is accumulated in the same order regardless of the
/// thread count and the results are bit-identical.
pub(crate) fn spmm_with_threads(a: &Csr, b: &Csr, threads: usize) -> Csr {
    match try_spmm_with_budget(a, b, threads, &Budget::unlimited()) {
        Ok(c) => c,
        #[allow(clippy::panic)] // documented infallible wrapper over the try_ API
        Err(e) => panic!("spmm shape mismatch: {e} ({a:?} x {b:?})"),
    }
}

/// Budget-governed [`spmm`]: the budget is checked at the start of every
/// row band and every [`ROWS_PER_CHECK`] rows within a band, in both the
/// symbolic and numeric phases; the output allocation (sized by the
/// symbolic phase) is checked against the budget's nnz cap. On any
/// failure every band stops at its next checkpoint and the first error is
/// returned — no partial matrix escapes.
///
/// Allocates a fresh [`SpgemmArena`] per call; chains of products should
/// use [`try_spmm_with_budget_in`] to reuse one arena throughout.
pub fn try_spmm_with_budget(
    a: &Csr,
    b: &Csr,
    threads: usize,
    budget: &Budget,
) -> Result<Csr, ExecError> {
    let mut arena = SpgemmArena::new();
    try_spmm_with_budget_in(a, b, threads, budget, &mut arena)
}

/// [`try_spmm_with_budget`] with caller-provided scratch.
///
/// The arena holds every transient the product needs — per-worker
/// accumulators, symbolic bounds and flop weights — so a chain of joins
/// driven through one arena performs one scratch allocation per worker
/// for the whole chain. Flop-balanced banding happens here; output is
/// bit-identical for every thread count (see [`crate::accum`]).
pub fn try_spmm_with_budget_in(
    a: &Csr,
    b: &Csr,
    threads: usize,
    budget: &Budget,
    arena: &mut SpgemmArena,
) -> Result<Csr, ExecError> {
    if a.ncols() != b.nrows() {
        return Err(ExecError::ShapeMismatch {
            op: "spmm",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.nrows(), b.ncols()),
        });
    }
    if budget.injected(failpoints::SPGEMM_CANCEL) {
        return Err(ExecError::Cancelled);
    }
    budget.check()?;
    let nrows = a.nrows();
    let ncols = b.ncols();
    let SpgemmArena {
        workers, row_flops, ..
    } = &mut *arena;

    // Exact per-row Gustavson flop counts (one b-row scan per stored
    // a-entry). These drive the flop-balanced bands and the numeric
    // phase's tiled/wide choice, so they are always computed — the sweep
    // is two pointer arrays, far cheaper than either phase it steers.
    let (a_ptr, a_cols, _) = a.parts();
    let (b_ptr, _, _) = b.parts();
    row_flops.clear();
    row_flops.reserve(nrows);
    let mut flops_total = 0u64;
    // audit:allow(RA0101, pointer-array flop sweep — strictly cheaper than the phases it steers)
    for w in a_ptr.windows(2) {
        let mut f = 0u64;
        // audit:allow(RA0101, inner half of the same bounded pointer sweep)
        for &k in &a_cols[w[0]..w[1]] {
            let k = k as usize;
            f += (b_ptr[k + 1] - b_ptr[k]) as u64;
        }
        flops_total += f;
        row_flops.push(f);
    }

    // Thread spawn/join costs ~10µs per worker; for tiny products one band
    // (run inline, no spawn) is faster than any parallel split.
    let threads = if a.nnz().max(b.nnz()) < 4096 {
        1
    } else {
        threads.max(1)
    };
    let bands = weighted_chunks(row_flops, threads);
    if workers.len() < bands.len() {
        workers.resize_with(bands.len(), WorkerScratch::default);
    }
    // audit:allow(RA0101, one prepare per worker band — bounded by thread count)
    for w in &mut workers[..bands.len()] {
        w.prepare(ncols);
    }

    SPGEMM_CALLS.add(1);
    let mut kernel_span = repsim_obs::span("repsim.sparse.spgemm");
    if kernel_span.is_active() {
        kernel_span.attr("rows", nrows);
        kernel_span.attr("cols", ncols);
        kernel_span.attr("nnz_a", a.nnz());
        kernel_span.attr("nnz_b", b.nnz());
        kernel_span.attr("bands", bands.len());
        // The chain planner's cost model for this pair, reported next to
        // the measured Gustavson flops so estimate quality is auditable.
        let est = crate::chain::estimate_chain_nnz(&[
            crate::chain::ChainStats::of(a),
            crate::chain::ChainStats::of(b),
        ]);
        kernel_span.attr("est_nnz", est);
        kernel_span.attr("flops", flops_total);
        SPGEMM_FLOPS.record(flops_total);
    }

    let (out, tally) = spgemm_phases(a, b, &bands, budget, arena)?;

    SPGEMM_DENSE_ROWS.add(tally.dense_rows);
    SPGEMM_TILE_COUNT.add(tally.tile_count);
    if kernel_span.is_active() {
        kernel_span.attr("out_nnz", out.nnz());
        kernel_span.attr("dense_rows", tally.dense_rows);
        kernel_span.attr("tile_count", tally.tile_count);
        SPGEMM_OUT_NNZ.record(out.nnz() as u64);
    }
    Ok(out)
}

/// The two-phase Gustavson engine over the arena the caller prepared
/// (flops in `row_flops`, one prepared worker per band). Each band's rows
/// run through the symbolic then numeric pass of its worker's dense
/// accumulator; output rows are bit-identical for every banding because
/// the accumulator adds each column's products in ascending-`k` order
/// (see [`crate::accum`]).
fn spgemm_phases(
    a: &Csr,
    b: &Csr,
    bands: &[(usize, usize)],
    budget: &Budget,
    arena: &mut SpgemmArena,
) -> Result<(Csr, NumericTally), ExecError> {
    let SpgemmArena {
        workers,
        bound,
        bound_ptr,
        row_flops,
        count,
    } = arena;
    let workers = &mut workers[..bands.len()];
    let row_flops: &[u64] = row_flops;
    let nrows = a.nrows();
    let ncols = b.ncols();
    let stop = std::sync::atomic::AtomicBool::new(false);

    // Phase 1 — symbolic: per-row nnz upper bounds (distinct columns;
    // exact-zero cancellation can only shrink them).
    let symbolic_t0 = if repsim_obs::enabled() {
        repsim_obs::now_ns()
    } else {
        0
    };
    let symbolic_span = repsim_obs::span("repsim.sparse.spgemm.symbolic");
    bound.clear();
    bound.resize(nrows, 0);
    let mut errs: Vec<Option<ExecError>> = vec![None; bands.len()];
    {
        let mut rest = bound.as_mut_slice();
        let mut err_rest = errs.as_mut_slice();
        let mut work_rest: &mut [WorkerScratch] = &mut *workers;
        run_bands(bands, |&(lo, hi)| {
            let (band, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
            rest = tail;
            let (err, etail) = std::mem::take(&mut err_rest).split_at_mut(1);
            err_rest = etail;
            let (w, wtail) = std::mem::take(&mut work_rest).split_at_mut(1);
            work_rest = wtail;
            let stop = &stop;
            move || {
                let ws = &mut w[0];
                for (i, (r, slot)) in (lo..hi).zip(band.iter_mut()).enumerate() {
                    if i % ROWS_PER_CHECK == 0 {
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            return;
                        }
                        if let Err(e) = budget.check() {
                            err[0] = Some(e);
                            stop.store(true, std::sync::atomic::Ordering::Relaxed);
                            return;
                        }
                    }
                    let (acols, _) = a.row(r);
                    *slot = ws.symbolic_row(acols, b);
                }
            }
        });
    }
    drop(symbolic_span);
    if repsim_obs::enabled() {
        SPGEMM_SYMBOLIC_NS.record(repsim_obs::now_ns().saturating_sub(symbolic_t0));
    }
    if let Some(e) = errs.iter_mut().find_map(Option::take) {
        return Err(e);
    }
    bound_ptr.clear();
    bound_ptr.reserve(nrows + 1);
    let mut total = 0usize;
    bound_ptr.push(0);
    // audit:allow(RA0101, prefix sum feeding the check_alloc admission right below)
    for &n in bound.iter() {
        total += n;
        bound_ptr.push(total);
    }
    let bound_ptr: &[usize] = bound_ptr;
    // The symbolic phase sized the output exactly (up to cancellation):
    // this is the allocation the memory budget caps.
    budget.check_alloc(total)?;

    // Phase 2 — numeric: write each row's entries at its bounded offset;
    // record the actual count (cancellation may fall short of the bound).
    let numeric_t0 = if repsim_obs::enabled() {
        repsim_obs::now_ns()
    } else {
        0
    };
    let numeric_span = repsim_obs::span("repsim.sparse.spgemm.numeric");
    // The result's own arrays at the symbolic size, plus headroom.
    // `vec![0; n]` takes zeroed pages from the allocator, so they fault
    // in during the banded writes below instead of in a serial fill here.
    let room = total + total / HEADROOM_DIV;
    let mut col_idx = vec![0u32; room];
    let mut values = vec![0.0f64; room];
    col_idx.truncate(total);
    values.truncate(total);
    count.clear();
    count.resize(nrows, 0);
    let mut tallies = vec![NumericTally::default(); bands.len()];
    {
        let mut col_rest = col_idx.as_mut_slice();
        let mut val_rest = values.as_mut_slice();
        let mut cnt_rest = count.as_mut_slice();
        let mut err_rest = errs.as_mut_slice();
        let mut tally_rest = tallies.as_mut_slice();
        let mut work_rest: &mut [WorkerScratch] = &mut *workers;
        run_bands(bands, |&(lo, hi)| {
            let width = bound_ptr[hi] - bound_ptr[lo];
            let (cols_band, ct) = std::mem::take(&mut col_rest).split_at_mut(width);
            col_rest = ct;
            let (vals_band, vt) = std::mem::take(&mut val_rest).split_at_mut(width);
            val_rest = vt;
            let (cnt_band, nt) = std::mem::take(&mut cnt_rest).split_at_mut(hi - lo);
            cnt_rest = nt;
            let (err, etail) = std::mem::take(&mut err_rest).split_at_mut(1);
            err_rest = etail;
            let (tally, ttail) = std::mem::take(&mut tally_rest).split_at_mut(1);
            tally_rest = ttail;
            let (w, wtail) = std::mem::take(&mut work_rest).split_at_mut(1);
            work_rest = wtail;
            let stop = &stop;
            move || {
                let ws = &mut w[0];
                let t = &mut tally[0];
                let base = bound_ptr[lo];
                for (i, (r, cnt)) in (lo..hi).zip(cnt_band.iter_mut()).enumerate() {
                    if i % ROWS_PER_CHECK == 0 {
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            return;
                        }
                        if budget.injected(failpoints::SPGEMM_NUMERIC_CANCEL) {
                            err[0] = Some(ExecError::Cancelled);
                            stop.store(true, std::sync::atomic::Ordering::Relaxed);
                            return;
                        }
                        if let Err(e) = budget.check() {
                            err[0] = Some(e);
                            stop.store(true, std::sync::atomic::Ordering::Relaxed);
                            return;
                        }
                    }
                    let off = bound_ptr[r] - base;
                    let len = bound_ptr[r + 1] - bound_ptr[r];
                    if len == 0 {
                        *cnt = 0;
                        continue;
                    }
                    let (acols, avals) = a.row(r);
                    let cols_out = &mut cols_band[off..off + len];
                    let vals_out = &mut vals_band[off..off + len];
                    let (n, tiles) =
                        ws.numeric_row(acols, avals, b, row_flops[r], cols_out, vals_out);
                    *cnt = n;
                    t.dense_rows += 1;
                    t.tile_count += tiles;
                }
            }
        });
    }
    drop(numeric_span);
    if repsim_obs::enabled() {
        SPGEMM_NUMERIC_NS.record(repsim_obs::now_ns().saturating_sub(numeric_t0));
    }
    if let Some(e) = errs.iter_mut().find_map(Option::take) {
        return Err(e);
    }
    let mut tally = NumericTally::default();
    // audit:allow(RA0101, one absorb per worker band — bounded by thread count)
    for t in &tallies {
        tally.absorb(*t);
    }

    // Phase 3 — close cancellation gaps in place. Walk counts never
    // cancel, so for them every row fills its bound and nothing moves;
    // a row of a mixed-sign product may fall short, and every later row
    // then shifts left over the gap. Rows only move left, so
    // `copy_within` never overwrites an entry that has yet to move.
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0);
    let mut nnz = 0usize;
    // audit:allow(RA0101, in-place compaction of entries already admitted by check_alloc)
    for (&src, &n) in bound_ptr[..nrows].iter().zip(&count[..nrows]) {
        if src != nnz {
            col_idx.copy_within(src..src + n, nnz);
            values.copy_within(src..src + n, nnz);
        }
        nnz += n;
        row_ptr.push(nnz);
    }
    if nnz < total {
        col_idx.truncate(nnz);
        col_idx.shrink_to_fit();
        values.truncate(nnz);
        values.shrink_to_fit();
    }
    Ok((
        Csr::from_parts(nrows, ncols, row_ptr, col_idx, values),
        tally,
    ))
}

/// Runs one closure per band: inline when there is a single band, on
/// scoped threads otherwise. `make_work` is called on the caller's thread
/// (it may carve out the band's mutable slices); the returned closure runs
/// on the worker.
fn run_bands<'s, F, W>(bands: &'s [(usize, usize)], mut make_work: F)
where
    F: FnMut(&'s (usize, usize)) -> W,
    W: FnOnce() + Send + 's,
{
    if bands.len() <= 1 {
        if let Some(band) = bands.first() {
            make_work(band)();
        }
        return;
    }
    std::thread::scope(|scope| {
        for band in bands {
            scope.spawn(make_work(band));
        }
    });
}

/// Multiplies a chain of sparse matrices.
///
/// Panics on an empty chain or on any shape mismatch. Multiplication is
/// associative; the association order is chosen by a matrix-chain DP over
/// estimated flops (see [`crate::chain`]), which beats a blind left fold
/// when a long chain has a cheap join deep on its right.
pub fn spmm_chain(matrices: &[&Csr]) -> Csr {
    crate::chain::spmm_chain_with_threads(matrices, 1)
}

/// Sparse matrix × dense vector (`A · x`).
pub fn matvec(a: &Csr, x: &[f64]) -> Vec<f64> {
    match try_matvec(a, x) {
        Ok(y) => y,
        #[allow(clippy::panic)] // documented infallible wrapper over the try_ API
        Err(e) => panic!("matvec shape mismatch: {e}"),
    }
}

/// Fallible [`matvec`].
pub fn try_matvec(a: &Csr, x: &[f64]) -> Result<Vec<f64>, ExecError> {
    try_matvec_with_budget(a, x, &Budget::unlimited())
}

/// Budget-governed [`matvec`]: the budget is checked every
/// [`ROWS_PER_CHECK`] rows of the sweep.
pub fn try_matvec_with_budget(a: &Csr, x: &[f64], budget: &Budget) -> Result<Vec<f64>, ExecError> {
    if a.ncols() != x.len() {
        return Err(ExecError::ShapeMismatch {
            op: "matvec",
            lhs: (a.nrows(), a.ncols()),
            rhs: (x.len(), 1),
        });
    }
    budget.check()?;
    let mut y = vec![0.0; a.nrows()];
    for (r, yr) in y.iter_mut().enumerate() {
        if r % ROWS_PER_CHECK == 0 && r > 0 {
            budget.check()?;
        }
        let (cols, vals) = a.row(r);
        let mut sum = 0.0;
        // audit:allow(RA0101, single row — bounded by the outer ROWS_PER_CHECK poll)
        for (&c, &v) in cols.iter().zip(vals) {
            sum += v * x[c as usize];
        }
        *yr = sum;
    }
    Ok(y)
}

/// Dense row vector × sparse matrix (`xᵀ · A`), returned as a dense vector.
pub fn vecmat(x: &[f64], a: &Csr) -> Vec<f64> {
    match try_vecmat(x, a) {
        Ok(y) => y,
        #[allow(clippy::panic)] // documented infallible wrapper over the try_ API
        Err(e) => panic!("vecmat shape mismatch: {e}"),
    }
}

/// Fallible [`vecmat`].
pub fn try_vecmat(x: &[f64], a: &Csr) -> Result<Vec<f64>, ExecError> {
    if a.nrows() != x.len() {
        return Err(ExecError::ShapeMismatch {
            op: "vecmat",
            lhs: (1, x.len()),
            rhs: (a.nrows(), a.ncols()),
        });
    }
    let mut y = vec![0.0; a.ncols()];
    for (r, &xr) in x.iter().enumerate() {
        if xr == 0.0 {
            continue;
        }
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            y[c as usize] += xr * v;
        }
    }
    Ok(y)
}

/// Dense × sparse multiplication (`D · A`), used by SimRank's `S·W` step.
pub fn dense_sparse_mul(d: &Dense, a: &Csr) -> Dense {
    match try_dense_sparse_mul(d, a) {
        Ok(out) => out,
        #[allow(clippy::panic)] // documented infallible wrapper over the try_ API
        Err(e) => panic!("dense_sparse_mul shape mismatch: {e}"),
    }
}

/// Fallible [`dense_sparse_mul`].
pub fn try_dense_sparse_mul(d: &Dense, a: &Csr) -> Result<Dense, ExecError> {
    if d.ncols() != a.nrows() {
        return Err(ExecError::ShapeMismatch {
            op: "dense_sparse_mul",
            lhs: (d.nrows(), d.ncols()),
            rhs: (a.nrows(), a.ncols()),
        });
    }
    let mut out = Dense::zeros(d.nrows(), a.ncols());
    for r in 0..d.nrows() {
        let drow = d.row(r);
        let orow = out.row_mut(r);
        for (k, &dv) in drow.iter().enumerate() {
            if dv == 0.0 {
                continue;
            }
            let (cols, vals) = a.row(k);
            for (&c, &av) in cols.iter().zip(vals) {
                orow[c as usize] += dv * av;
            }
        }
    }
    Ok(out)
}

/// Sparse-transpose × dense multiplication (`Aᵀ · D`), used by SimRank's
/// `Wᵀ·(S·W)` step without materializing `Aᵀ`.
pub fn sparse_t_dense_mul(a: &Csr, d: &Dense) -> Dense {
    match try_sparse_t_dense_mul(a, d) {
        Ok(out) => out,
        #[allow(clippy::panic)] // documented infallible wrapper over the try_ API
        Err(e) => panic!("sparse_t_dense_mul shape mismatch: {e}"),
    }
}

/// Fallible [`sparse_t_dense_mul`].
pub fn try_sparse_t_dense_mul(a: &Csr, d: &Dense) -> Result<Dense, ExecError> {
    if a.nrows() != d.nrows() {
        return Err(ExecError::ShapeMismatch {
            op: "sparse_t_dense_mul",
            lhs: (a.nrows(), a.ncols()),
            rhs: (d.nrows(), d.ncols()),
        });
    }
    let mut out = Dense::zeros(a.ncols(), d.ncols());
    for k in 0..a.nrows() {
        let (cols, vals) = a.row(k);
        let drow = d.row(k);
        for (&r, &av) in cols.iter().zip(vals) {
            let orow = out.row_mut(r as usize);
            for (o, &dv) in orow.iter_mut().zip(drow) {
                *o += av * dv;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Csr {
        // [1 2]
        // [0 3]
        Csr::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)])
    }

    fn b() -> Csr {
        // [4 0 1]
        // [5 6 0]
        Csr::from_triplets(
            2,
            3,
            vec![(0, 0, 4.0), (0, 2, 1.0), (1, 0, 5.0), (1, 1, 6.0)],
        )
    }

    #[test]
    fn spmm_matches_hand_computation() {
        let c = spmm(&a(), &b());
        // [1*4+2*5, 2*6, 1] = [14, 12, 1]
        // [15, 18, 0]
        assert_eq!(c.get(0, 0), 14.0);
        assert_eq!(c.get(0, 1), 12.0);
        assert_eq!(c.get(0, 2), 1.0);
        assert_eq!(c.get(1, 0), 15.0);
        assert_eq!(c.get(1, 1), 18.0);
        assert_eq!(c.get(1, 2), 0.0);
    }

    #[test]
    fn spmm_cancellation_pruned() {
        // [1 -1] x [1;1] = [0] — exact zero must not be stored.
        let a = Csr::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, -1.0)]);
        let b = Csr::from_triplets(2, 1, vec![(0, 0, 1.0), (1, 0, 1.0)]);
        let c = spmm(&a, &b);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn spmm_chain_matches_pairwise_product() {
        let i = Csr::identity(2);
        let c = spmm_chain(&[&a(), &i, &b()]);
        assert_eq!(c, spmm(&a(), &b()));
    }

    #[test]
    fn spmm_chain_single_matrix_is_identity_op() {
        let c = spmm_chain(&[&a()]);
        assert_eq!(c, a());
    }

    #[test]
    fn spmm_matches_seed_reference_kernel() {
        // The seed kernel built Vec<Vec<(u32,f64)>> rows then copied into
        // CSR; the two-phase kernel must produce bit-identical output.
        let a = crate::par::tests::sample(41, 29, 11);
        let b = crate::par::tests::sample(29, 31, 12);
        let expected = seed_reference_spmm(&a, &b);
        assert_eq!(spmm(&a, &b), expected);
    }

    /// The pre-two-phase kernel, kept verbatim as a reference oracle.
    fn seed_reference_spmm(a: &Csr, b: &Csr) -> Csr {
        let ncols = b.ncols();
        let mut acc = vec![0.0f64; ncols];
        let mut seen = vec![false; ncols];
        let mut touched: Vec<u32> = Vec::new();
        let mut rows: Vec<Vec<(u32, f64)>> = Vec::with_capacity(a.nrows());
        for r in 0..a.nrows() {
            touched.clear();
            let (ac, av) = a.row(r);
            for (&k, &va) in ac.iter().zip(av) {
                let (bc, bv) = b.row(k as usize);
                for (&c, &vb) in bc.iter().zip(bv) {
                    if !seen[c as usize] {
                        seen[c as usize] = true;
                        touched.push(c);
                    }
                    acc[c as usize] += va * vb;
                }
            }
            touched.sort_unstable();
            let mut row = Vec::with_capacity(touched.len());
            for &c in &touched {
                let v = acc[c as usize];
                acc[c as usize] = 0.0;
                seen[c as usize] = false;
                if v != 0.0 {
                    row.push((c, v));
                }
            }
            rows.push(row);
        }
        Csr::from_rows(ncols, &rows)
    }

    #[test]
    #[should_panic(expected = "empty spmm chain")]
    fn spmm_chain_rejects_empty() {
        let _ = spmm_chain(&[]);
    }

    #[test]
    fn matvec_and_vecmat() {
        let y = matvec(&b(), &[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![5.0, 11.0]);
        let z = vecmat(&[1.0, 1.0], &b());
        assert_eq!(z, vec![9.0, 6.0, 1.0]);
    }

    #[test]
    fn dense_sparse_agrees_with_spmm() {
        let d = a().to_dense();
        let prod = dense_sparse_mul(&d, &b());
        assert_eq!(prod, spmm(&a(), &b()).to_dense());
    }

    #[test]
    fn sparse_t_dense_agrees_with_transpose() {
        let d = b().to_dense();
        let prod = sparse_t_dense_mul(&a(), &d);
        assert_eq!(prod, spmm(&a().transpose(), &b()).to_dense());
    }

    #[test]
    fn try_apis_report_shape_mismatch() {
        let wide = Csr::zeros(3, 7);
        assert_eq!(
            try_spmm(&a(), &wide).unwrap_err(),
            ExecError::ShapeMismatch {
                op: "spmm",
                lhs: (2, 2),
                rhs: (3, 7),
            }
        );
        assert!(matches!(
            try_matvec(&b(), &[1.0]).unwrap_err(),
            ExecError::ShapeMismatch { op: "matvec", .. }
        ));
        assert!(matches!(
            try_vecmat(&[1.0], &b()).unwrap_err(),
            ExecError::ShapeMismatch { op: "vecmat", .. }
        ));
        assert!(matches!(
            try_dense_sparse_mul(&b().to_dense(), &b()).unwrap_err(),
            ExecError::ShapeMismatch {
                op: "dense_sparse_mul",
                ..
            }
        ));
        assert!(matches!(
            try_sparse_t_dense_mul(&a(), &Csr::zeros(3, 3).to_dense()).unwrap_err(),
            ExecError::ShapeMismatch {
                op: "sparse_t_dense_mul",
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "spmm shape mismatch")]
    fn infallible_spmm_still_panics_on_shape() {
        let _ = spmm(&a(), &Csr::zeros(3, 3));
    }

    #[test]
    fn budgeted_spmm_honours_nnz_cap() {
        let a = crate::par::tests::sample(30, 20, 7);
        let b = crate::par::tests::sample(20, 25, 8);
        let exact = spmm(&a, &b);
        // A cap at the exact size passes and is bit-identical...
        let fits = Budget::unlimited().with_max_nnz(exact.nnz());
        assert_eq!(try_spmm_with_budget(&a, &b, 1, &fits).unwrap(), exact);
        // ...but the symbolic bound is what the allocation check sees, so
        // budget one entry below it and the product must abort.
        let starved = Budget::unlimited().with_max_nnz(0);
        assert!(matches!(
            try_spmm_with_budget(&a, &b, 1, &starved).unwrap_err(),
            ExecError::MemoryExceeded { .. }
        ));
    }

    #[test]
    fn budgeted_spmm_observes_cancellation() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let a = crate::par::tests::sample(30, 20, 9);
        let b = crate::par::tests::sample(20, 25, 10);
        let flag = Arc::new(AtomicBool::new(true));
        let budget = Budget::unlimited().with_cancel(flag.clone());
        assert_eq!(
            try_spmm_with_budget(&a, &b, 2, &budget).unwrap_err(),
            ExecError::Cancelled
        );
        flag.store(false, Ordering::Relaxed);
        assert_eq!(
            try_spmm_with_budget(&a, &b, 2, &budget).unwrap(),
            spmm(&a, &b)
        );
    }

    #[test]
    fn budgeted_spmm_observes_expired_deadline() {
        let a = crate::par::tests::sample(30, 20, 11);
        let b = crate::par::tests::sample(20, 25, 12);
        let expired = Budget::unlimited().with_deadline_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(matches!(
            try_spmm_with_budget(&a, &b, 1, &expired).unwrap_err(),
            ExecError::DeadlineExceeded { .. }
        ));
    }

    #[test]
    fn spgemm_cancel_failpoint_aborts_injectable_products() {
        let a = crate::par::tests::sample(10, 10, 13);
        let b = crate::par::tests::sample(10, 10, 14);
        let _guard = failpoints::scoped(&[failpoints::SPGEMM_CANCEL]);
        let inject = Budget::unlimited().with_fault_injection();
        assert_eq!(
            try_spmm_with_budget(&a, &b, 1, &inject).unwrap_err(),
            ExecError::Cancelled
        );
        // Non-injectable budgets (and the infallible wrapper) are immune.
        assert_eq!(
            try_spmm_with_budget(&a, &b, 1, &Budget::unlimited()).unwrap(),
            spmm(&a, &b)
        );
    }

    #[test]
    fn numeric_cancel_failpoint_aborts_mid_product() {
        // Fires after the symbolic pass sized the output, at the numeric
        // phase's first in-band checkpoint — mid-tile from the caller's
        // point of view. No partial matrix escapes and the same inputs
        // multiply cleanly afterwards.
        let a = crate::par::tests::sample(30, 20, 16);
        let b = crate::par::tests::sample(20, 25, 17);
        let _guard = failpoints::scoped(&[failpoints::SPGEMM_NUMERIC_CANCEL]);
        let inject = Budget::unlimited().with_fault_injection();
        for threads in [1, 3] {
            assert_eq!(
                try_spmm_with_budget(&a, &b, threads, &inject).unwrap_err(),
                ExecError::Cancelled,
                "threads={threads}"
            );
        }
        assert_eq!(
            try_spmm_with_budget(&a, &b, 1, &Budget::unlimited()).unwrap(),
            spmm(&a, &b)
        );
    }

    #[test]
    fn arena_reuse_is_bit_identical_across_products() {
        // One arena through a sequence of differently-shaped products —
        // including one aborted mid-numeric — always matches the
        // fresh-arena kernel bit for bit.
        let mut arena = crate::accum::SpgemmArena::new();
        let shapes = [(40, 30, 25), (7, 9, 4), (120, 40, 60), (1, 5, 3)];
        for (i, &(n, k, m)) in shapes.iter().enumerate() {
            let a = crate::par::tests::sample(n, k, 40 + i as u64);
            let b = crate::par::tests::sample(k, m, 50 + i as u64);
            if i == 1 {
                let _guard = failpoints::scoped(&[failpoints::SPGEMM_NUMERIC_CANCEL]);
                let inject = Budget::unlimited().with_fault_injection();
                assert_eq!(
                    try_spmm_with_budget_in(&a, &b, 2, &inject, &mut arena).unwrap_err(),
                    ExecError::Cancelled
                );
            }
            let got = try_spmm_with_budget_in(&a, &b, 2, &Budget::unlimited(), &mut arena).unwrap();
            assert_eq!(got, spmm(&a, &b), "product {i}");
        }
    }

    #[test]
    fn cancelled_product_is_shrunk_to_its_nnz() {
        // Row 0 cancels to exact zero (1·1 − 1·1 in both columns), row 1
        // keeps its two entries: the symbolic bound of 4 falls to 2, and
        // the result must hold no capacity beyond its entries.
        let a = Csr::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, -1.0), (1, 0, 2.0)]);
        let b = Csr::from_triplets(
            2,
            2,
            vec![(0, 0, 1.0), (0, 1, 3.0), (1, 0, 1.0), (1, 1, 3.0)],
        );
        let c = spmm(&a, &b);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.row(1), (&[0u32, 1][..], &[2.0, 6.0][..]));
        assert_eq!(c.capacities(), (2, 2));
    }

    #[test]
    fn a_product_keeps_headroom_for_in_place_growth() {
        let a = crate::par::tests::sample(200, 40, 7);
        let b = crate::par::tests::sample(40, 200, 8);
        let mut c = spmm(&a, &b);
        let nnz = c.nnz();
        let room = nnz + nnz / HEADROOM_DIV;
        assert!(
            nnz >= HEADROOM_DIV,
            "the sample must be large enough to get room"
        );
        assert_eq!(c.capacities(), (room, room));
        // A splice that grows into the room keeps both arrays in place.
        let before = c.parts();
        let (cols, vals) = (before.1.as_ptr(), before.2.as_ptr());
        let width = (c.row(0).0.len() + nnz / HEADROOM_DIV).min(200) as u32;
        let row = Csr::from_triplets(1, 200, (0..width).map(|j| (0, j, 1.0)));
        c.splice_rows(200, 200, &[0], &row);
        assert!(c.nnz() > nnz && c.nnz() <= room);
        assert_eq!((c.parts().1.as_ptr(), c.parts().2.as_ptr()), (cols, vals));
    }

    #[test]
    fn budgeted_matvec_checks_shape_and_deadline() {
        let m = crate::par::tests::sample(10, 10, 15);
        let x = vec![1.0; 10];
        let expired = Budget::unlimited().with_deadline_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(matches!(
            try_matvec_with_budget(&m, &x, &expired).unwrap_err(),
            ExecError::DeadlineExceeded { .. }
        ));
        assert_eq!(
            try_matvec_with_budget(&m, &x, &Budget::unlimited()).unwrap(),
            matvec(&m, &x)
        );
    }
}
