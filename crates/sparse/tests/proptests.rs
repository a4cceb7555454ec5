//! Property tests for the two-phase SpGEMM kernel and the chain planner:
//!
//! 1. `spmm` equals a naive dense-reference product;
//! 2. `spmm_par` is bit-identical to `spmm` across thread counts;
//! 3. `spmm_chain` is invariant under the DP's association order versus a
//!    blind left fold (exact, because generated values are small integers
//!    and integer f64 arithmetic is associative below 2^53);
//! 4. both modes of the dense accumulator, tiled and wide, carry the dense
//!    reference's exact bits on fractional values at every output width
//!    and thread count;
//! 5. rows that cancel to exact zero, wholly or in part, at the first and
//!    last rows and at every band edge, leave a sound, gap-free result
//!    equal to the dense reference at every thread count.
//! 6. the binary snapshot record round-trips bit for bit and byte for byte;
//! 7. the in-place row splice equals a rebuild from triplets, whatever
//!    mix of growing, shrinking and appended rows it is given.

// Tests may panic freely: the workspace panic-freedom lints target
// library code, not assertions.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use proptest::prelude::*;
use repsim_sparse::chain::{spmm_chain_with_threads, try_spmm_chain_with_budget};
use repsim_sparse::ops::{spmm, spmm_chain, try_spmm_with_budget};
use repsim_sparse::par::{spmm_par, weighted_chunks};
use repsim_sparse::{Budget, Csr, ExecError};

/// Raw triplet material: positions are reduced modulo the actual matrix
/// dimensions, values map to non-zero integers in `-6..=6` so cancellation
/// happens but reassociation stays exact.
fn triplets() -> impl Strategy<Value = Vec<(usize, usize, u32)>> {
    proptest::collection::vec((0..10_000usize, 0..10_000usize, 0..12u32), 0..60)
}

fn build(nrows: usize, ncols: usize, raw: &[(usize, usize, u32)]) -> Csr {
    Csr::from_triplets(
        nrows,
        ncols,
        raw.iter().map(|&(r, c, v)| {
            let value = if v < 6 {
                v as f64 - 6.0
            } else {
                v as f64 - 5.0
            };
            ((r % nrows) as u32, (c % ncols) as u32, value)
        }),
    )
}

/// Naive reference: every output cell as an explicit ascending-k sum over
/// the shared dimension of the dense expansions, canonicalized through
/// `from_triplets`.
fn dense_reference(a: &Csr, b: &Csr) -> Csr {
    let (a, b) = (a.to_dense(), b.to_dense());
    let mut trips = Vec::new();
    for r in 0..a.nrows() {
        for c in 0..b.ncols() {
            let mut sum = 0.0;
            for k in 0..a.ncols() {
                sum += a[(r, k)] * b[(k, c)];
            }
            if sum != 0.0 {
                trips.push((r as u32, c as u32, sum));
            }
        }
    }
    Csr::from_triplets(a.nrows(), b.ncols(), trips)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn spmm_matches_dense_reference(
        nrows in 1..12usize,
        inner in 1..12usize,
        ncols in 1..12usize,
        raw_a in triplets(),
        raw_b in triplets(),
    ) {
        let a = build(nrows, inner, &raw_a);
        let b = build(inner, ncols, &raw_b);
        let product = spmm(&a, &b);
        prop_assert_eq!(&product, &dense_reference(&a, &b));
        // No explicit zeros may survive the numeric pass.
        for r in 0..product.nrows() {
            let (_, vals) = product.row(r);
            prop_assert!(vals.iter().all(|&v| v != 0.0));
        }
    }

    #[test]
    fn spmm_par_bit_identical_to_serial(
        nrows in 1..40usize,
        inner in 1..16usize,
        ncols in 1..16usize,
        raw_a in triplets(),
        raw_b in triplets(),
    ) {
        let a = build(nrows, inner, &raw_a);
        let b = build(inner, ncols, &raw_b);
        let serial = spmm(&a, &b);
        for threads in [1usize, 2, 7, 64] {
            prop_assert_eq!(&spmm_par(&a, &b, threads), &serial, "threads={}", threads);
        }
    }

    #[test]
    fn spmm_chain_invariant_under_planned_order(
        len in 3..=5usize,
        dims in proptest::collection::vec(1..10usize, 6),
        raws in proptest::collection::vec(triplets(), 5),
    ) {
        let mats: Vec<Csr> = (0..len)
            .map(|i| build(dims[i], dims[i + 1], &raws[i]))
            .collect();
        let refs: Vec<&Csr> = mats.iter().collect();
        let folded = refs[1..]
            .iter()
            .fold(mats[0].clone(), |acc, m| spmm(&acc, m));
        prop_assert_eq!(&spmm_chain(&refs), &folded);
        for threads in [1usize, 4] {
            prop_assert_eq!(
                &spmm_chain_with_threads(&refs, threads),
                &folded,
                "threads={}",
                threads
            );
        }
    }

    // Every kernel output is a structurally sound CSR: the invariants the
    // debug-build construction hooks assert (monotone row_ptr, strictly
    // increasing in-bounds columns, consistent entry counts) re-checked
    // through the public `validate` entry so they hold in release too.
    #[test]
    fn kernel_outputs_satisfy_csr_invariants(
        nrows in 1..14usize,
        inner in 1..14usize,
        ncols in 1..14usize,
        raw_a in triplets(),
        raw_b in triplets(),
    ) {
        let a = build(nrows, inner, &raw_a);
        let b = build(inner, ncols, &raw_b);
        prop_assert_eq!(a.validate(), Ok(()));
        prop_assert_eq!(a.transpose().validate(), Ok(()));
        prop_assert_eq!(spmm(&a, &b).validate(), Ok(()));
        let chained = try_spmm_chain_with_budget(&[&a, &b, &b.transpose()], 2, &Budget::unlimited());
        prop_assert_eq!(chained.expect("unlimited budget").validate(), Ok(()));
    }

    // Budgeted execution is all-or-nothing: a budget generous enough to
    // finish yields a product bit-identical to the unbudgeted kernel, and
    // a starved nnz cap yields MemoryExceeded — never a partial matrix,
    // never a panic.
    #[test]
    fn budgeted_spmm_all_or_nothing(
        nrows in 1..14usize,
        inner in 1..14usize,
        ncols in 1..14usize,
        raw_a in triplets(),
        raw_b in triplets(),
        cap in 0..40usize,
    ) {
        let a = build(nrows, inner, &raw_a);
        let b = build(inner, ncols, &raw_b);
        let exact = spmm(&a, &b);
        let budget = Budget::unlimited().with_max_nnz(cap);
        match try_spmm_with_budget(&a, &b, 2, &budget) {
            Ok(c) => {
                prop_assert_eq!(&c, &exact);
                // The symbolic bound (not the post-cancellation count) is
                // what the cap admits, so success implies the bound fit.
                prop_assert!(exact.nnz() <= cap);
            }
            Err(ExecError::MemoryExceeded { nnz, limit }) => {
                prop_assert_eq!(limit, cap);
                prop_assert!(nnz > cap);
            }
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }

    // The snapshot record is lossless: decoding restores the exact bits,
    // consumes exactly the record, and re-encoding reproduces its bytes.
    #[test]
    fn csr_record_round_trip_is_lossless(
        nrows in 1..30usize,
        ncols in 1..30usize,
        raw in triplets(),
    ) {
        let m = build(nrows, ncols, &raw);
        let bytes = m.encode();
        let (back, used) = Csr::decode(&bytes).expect("a fresh record decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(&back, &m);
        for r in 0..m.nrows() {
            let (_, mv) = m.row(r);
            let (_, bv) = back.row(r);
            for (x, y) in mv.iter().zip(bv) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        prop_assert_eq!(back.encode(), bytes);
    }

    // The in-place row splice equals rebuilding the spliced matrix from
    // triplets: any row set (rows growing, shrinking, emptied, appended
    // past the old end) and any growth in both dimensions.
    #[test]
    fn row_splice_equals_a_rebuild(
        nrows in 1..10usize,
        ncols in 1..10usize,
        grow in (0..4usize, 0..4usize),
        raw in triplets(),
        mask in 0..=u32::MAX,
        fresh in triplets(),
    ) {
        let m = build(nrows, ncols, &raw);
        let (rows_after, cols_after) = (nrows + grow.0, ncols + grow.1);
        let rows: Vec<usize> = (0..rows_after).filter(|r| mask >> r & 1 == 1).collect();
        let new = if rows.is_empty() {
            Csr::zeros(0, cols_after)
        } else {
            build(rows.len(), cols_after, &fresh)
        };
        let mut spliced = m.clone();
        spliced.splice_rows(rows_after, cols_after, &rows, &new);
        prop_assert!(spliced.validate().is_ok(), "{:?}", spliced.validate());

        let kept = m
            .iter()
            .filter(|(r, _, _)| !rows.contains(r))
            .map(|(r, c, v)| (r as u32, c as u32, v));
        let replaced = new.iter().map(|(k, c, v)| (rows[k] as u32, c as u32, v));
        let expected = Csr::from_triplets(rows_after, cols_after, kept.chain(replaced));
        prop_assert_eq!(&spliced, &expected);
        let bits = |m: &Csr| m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect::<Vec<_>>();
        prop_assert_eq!(bits(&spliced), bits(&expected));
        // Selecting the replaced rows that existed before reads them back.
        let old_rows: Vec<usize> = rows.iter().copied().filter(|&r| r < nrows).collect();
        let picked = m.select_rows(&old_rows);
        prop_assert!(picked.validate().is_ok());
        for (k, &r) in old_rows.iter().enumerate() {
            prop_assert_eq!(picked.row(k), m.row(r));
        }
    }

    // Same all-or-nothing property through the chain planner: whatever
    // association order the DP picks, a cap either admits the exact fold
    // or the chain aborts with a structured error.
    #[test]
    fn budgeted_chain_all_or_nothing(
        len in 2..=4usize,
        dims in proptest::collection::vec(1..9usize, 5),
        raws in proptest::collection::vec(triplets(), 4),
        cap in 0..60usize,
    ) {
        let mats: Vec<Csr> = (0..len)
            .map(|i| build(dims[i], dims[i + 1], &raws[i]))
            .collect();
        let refs: Vec<&Csr> = mats.iter().collect();
        let folded = refs[1..]
            .iter()
            .fold(mats[0].clone(), |acc, m| spmm(&acc, m));
        let budget = Budget::unlimited().with_max_nnz(cap);
        match try_spmm_chain_with_budget(&refs, 1, &budget) {
            Ok(c) => prop_assert_eq!(&c, &folded),
            Err(e) => prop_assert!(
                matches!(e, ExecError::MemoryExceeded { .. }),
                "unexpected error {:?}",
                e
            ),
        }
    }
}

/// Output widths on both sides of every switch in the dense accumulator:
/// narrow rows, the 2048-column tile edge, several tiles, and both sides
/// of the 32768-column wide-mode cap (beyond it every row tiles).
fn accumulator_widths() -> impl Strategy<Value = usize> {
    prop_oneof![
        1..64usize,
        2040..2060usize,
        5000..9000usize,
        32760..32780usize,
        32780..40000usize,
    ]
}

/// A small deterministic generator for the generated fixtures.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 17
    }

    fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }

    /// A non-zero integer in `-4..=4`.
    fn weight(&mut self) -> f64 {
        let w = (self.below(4) + 1) as f64;
        if self.next() & 1 == 0 {
            w
        } else {
            -w
        }
    }
}

/// A deterministic `nrows × ncols` matrix whose rows hold between
/// `per_row / 2` and `per_row` entries. Half of them land on a few hot
/// columns at the edges of the tiles and of the wide window, so output
/// columns collect several products; the rest spread over every column.
/// Values are `±1/d` fractions, so those column sums round differently
/// under any summation order other than ascending `k`.
fn spread(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr {
    let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let hot: Vec<usize> = [0, 2047, 2048, 32767, ncols - 1]
        .into_iter()
        .filter(|&c| c < ncols)
        .collect();
    let mut trips = Vec::new();
    for r in 0..nrows {
        let len = per_row / 2 + (rng.next() as usize) % (per_row / 2 + 1);
        for _ in 0..len {
            let pick = rng.next() as usize;
            let c = if pick & 1 == 0 {
                hot[(pick >> 1) % hot.len()]
            } else {
                (pick >> 1) % ncols
            };
            let d = rng.next();
            let sign = if d & 1 == 0 { 1.0 } else { -1.0 };
            trips.push((r as u32, c as u32, sign / ((d >> 1) % 29 + 1) as f64));
        }
    }
    Csr::from_triplets(nrows, ncols, trips)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Every row of every product goes through the one dense accumulator,
    // tiled or wide by the row's shape. Whichever mode a row takes, and
    // however the rows are banded over threads, the output must carry the
    // dense reference's exact bits. Short `b` rows under a wide output
    // take the wide mode; long ones, and every row wider than the cap,
    // take the tiled mode, resuming cursors across tiles. The long-row
    // class pushes `nnz(b)` past the kernel's serial cutoff, so rows are
    // really split into bands.
    #[test]
    fn dense_accumulator_modes_bit_identical_across_threads(
        nrows in 1..12usize,
        inner in 1..=12usize,
        ncols in accumulator_widths(),
        per_row in prop_oneof![0..8usize, 8..80usize, 1000..2000usize],
        seed in 0..u64::MAX,
    ) {
        let a = spread(nrows, inner, inner, seed);
        let b = spread(inner, ncols, per_row, seed ^ 0x5EED);
        let reference = dense_reference(&a, &b);
        for threads in [1usize, 3, 8] {
            let got = spmm_par(&a, &b, threads);
            prop_assert_eq!(&got, &reference, "threads={}", threads);
            for r in 0..got.nrows() {
                let (gc, gv) = got.row(r);
                let (rc, rv) = reference.row(r);
                prop_assert_eq!(gc, rc);
                for (x, y) in gv.iter().zip(rv) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "threads={} row {}", threads, r);
                }
            }
        }
    }
}

/// `2 · pairs` rows of exactly `width` entries each. The rows of pair `p`
/// agree on `shared[p]` columns (same column, same value) and are
/// disjoint elsewhere, so `v·b[2p] − v·b[2p+1]` cancels to exact zero on
/// the shared columns: wholly when `shared[p] == width`.
fn twin_rows(ncols: usize, width: usize, shared: &[usize], rng: &mut Lcg) -> Csr {
    let mut trips = Vec::new();
    let mut perm: Vec<u32> = (0..ncols as u32).collect();
    for (p, &s) in shared.iter().enumerate() {
        // A fresh partial shuffle picks 2·width − s distinct columns.
        for i in 0..2 * width - s {
            let j = i + rng.below(ncols - i);
            perm.swap(i, j);
        }
        let (even, odd) = ((2 * p) as u32, (2 * p + 1) as u32);
        for &c in &perm[..s] {
            let w = rng.weight();
            trips.push((even, c, w));
            trips.push((odd, c, w));
        }
        for &c in &perm[s..width] {
            trips.push((even, c, rng.weight()));
        }
        for &c in &perm[width..2 * width - s] {
            trips.push((odd, c, rng.weight()));
        }
    }
    Csr::from_triplets(2 * shared.len(), ncols, trips)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Mixed-sign products whose rows cancel to exact zero, wholly or in
    // part. Every `a` row holds two entries and every `b` row `width`, so
    // all rows weigh the same flops and the kernel's bands are the ones
    // `weighted_chunks` gives for uniform weights. Each band's first and
    // last rows (the matrix's first and last among them) cancel at every
    // thread count, and one more row cancels wholly. `nnz(b)` is past the
    // kernel's serial cutoff, so rows are really split into bands and the
    // gaps they leave are closed across band boundaries.
    #[test]
    fn cancelled_rows_leave_no_gaps(
        nrows in 1..48usize,
        pairs in 4..10usize,
        width in 512..700usize,
        extra in 0..2000usize,
        seed in 0..u64::MAX,
    ) {
        let mut rng = Lcg(seed | 1);
        let ncols = 2 * width + extra;
        // Pair 0 cancels wholly, pair 1 in part, the rest at random.
        let mut shared = vec![width, 1 + rng.below(width - 1)];
        shared.extend((2..pairs).map(|_| rng.below(width + 1)));
        let b = twin_rows(ncols, width, &shared, &mut rng);

        let mut edges = vec![false; nrows];
        for threads in [3usize, 8] {
            for (lo, hi) in weighted_chunks(&vec![2 * width as u64; nrows], threads) {
                edges[lo] = true;
                edges[hi - 1] = true;
            }
        }
        let whole_at = rng.below(nrows);
        let mut trips = Vec::new();
        for (r, &edge) in edges.iter().enumerate() {
            let r32 = r as u32;
            let v = rng.weight();
            let pair = if r == whole_at {
                Some(0)
            } else if edge {
                Some(rng.below(2))
            } else if rng.next() & 1 == 0 {
                Some(rng.below(pairs))
            } else {
                None
            };
            match pair {
                Some(p) => {
                    trips.push((r32, (2 * p) as u32, v));
                    trips.push((r32, (2 * p + 1) as u32, -v));
                }
                None => {
                    let k = rng.below(2 * pairs);
                    let k2 = (k + 1 + rng.below(2 * pairs - 1)) % (2 * pairs);
                    trips.push((r32, k as u32, v));
                    trips.push((r32, k2 as u32, rng.weight()));
                }
            }
        }
        let a = Csr::from_triplets(nrows, 2 * pairs, trips);

        let reference = dense_reference(&a, &b);
        prop_assert_eq!(reference.row(whole_at).0.len(), 0);
        for threads in [1usize, 3, 8] {
            let got = spmm_par(&a, &b, threads);
            prop_assert_eq!(got.validate(), Ok(()), "threads={}", threads);
            prop_assert_eq!(got.nnz(), reference.nnz(), "threads={}", threads);
            prop_assert_eq!(&got, &reference, "threads={}", threads);
            for r in 0..got.nrows() {
                let (gc, gv) = got.row(r);
                let (rc, rv) = reference.row(r);
                prop_assert_eq!(gc, rc);
                for (x, y) in gv.iter().zip(rv) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "threads={} row {}", threads, r);
                }
            }
        }
    }
}
