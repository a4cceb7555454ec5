//! Compressed sparse row matrices.

use std::fmt;

/// A violated structural invariant of a [`Csr`] (see the struct docs).
///
/// Produced by [`Csr::validate`] / [`Csr::try_from_parts`]; every variant
/// names the first offending location so diagnostics can point at it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrInvariant {
    /// `row_ptr.len()` is not `nrows + 1`.
    RowPtrLength {
        /// `nrows + 1`.
        expected: usize,
        /// Actual length.
        found: usize,
    },
    /// `row_ptr[0]` is not zero.
    RowPtrStart {
        /// The stored first offset.
        found: usize,
    },
    /// `row_ptr` decreases between two consecutive rows.
    RowPtrNotMonotone {
        /// First row whose extent is negative.
        row: usize,
        /// `row_ptr[row]`.
        lo: usize,
        /// `row_ptr[row + 1]`.
        hi: usize,
    },
    /// `row_ptr[nrows]` does not equal the stored-entry count.
    NnzMismatch {
        /// `row_ptr[nrows]`.
        row_ptr_end: usize,
        /// `col_idx.len()`.
        cols: usize,
        /// `values.len()`.
        values: usize,
    },
    /// A column index is `>= ncols`.
    ColumnOutOfBounds {
        /// Row holding the entry.
        row: usize,
        /// The offending column index.
        col: u32,
        /// The matrix column count.
        ncols: usize,
    },
    /// Within a row, column indices are not strictly increasing (covers
    /// both unsorted and duplicate columns).
    ColumnsNotSorted {
        /// Row holding the offending pair.
        row: usize,
        /// The column that is `<=` its predecessor.
        col: u32,
    },
}

impl fmt::Display for CsrInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrInvariant::RowPtrLength { expected, found } => {
                write!(f, "row_ptr has length {found}, expected {expected}")
            }
            CsrInvariant::RowPtrStart { found } => {
                write!(f, "row_ptr starts at {found}, expected 0")
            }
            CsrInvariant::RowPtrNotMonotone { row, lo, hi } => {
                write!(f, "row_ptr decreases at row {row}: {lo} -> {hi}")
            }
            CsrInvariant::NnzMismatch {
                row_ptr_end,
                cols,
                values,
            } => write!(
                f,
                "entry counts disagree: row_ptr ends at {row_ptr_end}, \
                 {cols} columns, {values} values"
            ),
            CsrInvariant::ColumnOutOfBounds { row, col, ncols } => {
                write!(
                    f,
                    "column {col} in row {row} out of bounds for ncols {ncols}"
                )
            }
            CsrInvariant::ColumnsNotSorted { row, col } => {
                write!(
                    f,
                    "columns of row {row} not strictly increasing at column {col}"
                )
            }
        }
    }
}

impl std::error::Error for CsrInvariant {}

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Invariants maintained by every constructor and operation:
///
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[nrows] == col_idx.len() == values.len()`;
/// * within each row, column indices are strictly increasing;
/// * all column indices are `< ncols`.
///
/// Explicit zeros may appear transiently (e.g. after subtraction); callers
/// that care can drop them with [`Csr::pruned`].
#[derive(Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Csr({}x{}, nnz={})", self.nrows, self.ncols, self.nnz())
    }
}

impl Csr {
    /// An all-zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed; zero sums are kept out of the
    /// result. Panics if any coordinate is out of bounds.
    ///
    /// ```
    /// use repsim_sparse::Csr;
    ///
    /// let m = Csr::from_triplets(2, 2, vec![(0, 1, 2.0), (0, 1, 3.0), (1, 0, 1.0)]);
    /// assert_eq!(m.get(0, 1), 5.0);
    /// assert_eq!(m.nnz(), 2);
    /// ```
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (u32, u32, f64)>,
    ) -> Self {
        let mut entries: Vec<(u32, u32, f64)> = triplets.into_iter().collect();
        for &(r, c, _) in &entries {
            assert!(
                (r as usize) < nrows && (c as usize) < ncols,
                "triplet ({r},{c}) out of bounds for {nrows}x{ncols}"
            );
        }
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut i = 0;
        while i < entries.len() {
            let (r, c, _) = entries[i];
            let mut sum = 0.0;
            while i < entries.len() && entries[i].0 == r && entries[i].1 == c {
                sum += entries[i].2;
                i += 1;
            }
            if sum != 0.0 {
                col_idx.push(c);
                values.push(sum);
                row_ptr[r as usize + 1] += 1;
            }
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a matrix from per-row `(col, value)` lists.
    ///
    /// Each row's list must have strictly increasing column indices; this is
    /// the cheapest constructor when the caller already has sorted adjacency.
    pub fn from_rows(ncols: usize, rows: &[Vec<(u32, f64)>]) -> Self {
        let nrows = rows.len();
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in rows {
            let mut last: Option<u32> = None;
            for &(c, v) in row {
                assert!((c as usize) < ncols, "column {c} out of bounds");
                assert!(
                    last.is_none_or(|l| l < c),
                    "row columns not strictly increasing"
                );
                last = Some(c);
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a matrix directly from its CSR parts.
    ///
    /// The caller must uphold the type's invariants (see the struct docs);
    /// they are checked in debug builds. This is the zero-copy constructor
    /// used by the two-phase SpGEMM kernel, which sizes the output arrays
    /// in a symbolic pass and writes them in place in the numeric pass.
    pub(crate) fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        let m = Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        };
        m.debug_validate();
        m
    }

    /// Builds a matrix from raw CSR parts, checking every structural
    /// invariant first (the fallible twin of the internal zero-copy
    /// constructor). This is the entry point for untrusted CSR data —
    /// e.g. matrices deserialized from disk by `repsim check`.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, CsrInvariant> {
        let m = Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// Checks every structural invariant of the CSR representation (see
    /// the struct docs), returning the first violation found.
    ///
    /// Every constructor and kernel in this crate maintains these
    /// invariants, so on a matrix built through the public API this
    /// always returns `Ok`; it exists as the public hook for property
    /// tests and for validating externally-sourced CSR data. Debug
    /// builds also run it after construction via `debug_assert!`.
    pub fn validate(&self) -> Result<(), CsrInvariant> {
        if self.row_ptr.len() != self.nrows + 1 {
            return Err(CsrInvariant::RowPtrLength {
                expected: self.nrows + 1,
                found: self.row_ptr.len(),
            });
        }
        if self.row_ptr[0] != 0 {
            return Err(CsrInvariant::RowPtrStart {
                found: self.row_ptr[0],
            });
        }
        for r in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if lo > hi {
                return Err(CsrInvariant::RowPtrNotMonotone { row: r, lo, hi });
            }
        }
        if self.row_ptr[self.nrows] != self.col_idx.len() || self.col_idx.len() != self.values.len()
        {
            return Err(CsrInvariant::NnzMismatch {
                row_ptr_end: self.row_ptr[self.nrows],
                cols: self.col_idx.len(),
                values: self.values.len(),
            });
        }
        for r in 0..self.nrows {
            let cols = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
            for (i, &c) in cols.iter().enumerate() {
                if c as usize >= self.ncols {
                    return Err(CsrInvariant::ColumnOutOfBounds {
                        row: r,
                        col: c,
                        ncols: self.ncols,
                    });
                }
                if i > 0 && cols[i - 1] >= c {
                    return Err(CsrInvariant::ColumnsNotSorted { row: r, col: c });
                }
            }
        }
        Ok(())
    }

    /// `debug_assert!` that [`Csr::validate`] passes; a no-op in release
    /// builds. Called at construction sites and after every SpGEMM.
    #[inline]
    pub(crate) fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.validate() {
            #[allow(clippy::panic)] // the debug-build analogue of debug_assert!
            {
                panic!("CSR invariant violated: {e}");
            }
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (including any explicit zeros).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The stored entries of row `r` as parallel `(columns, values)` slices.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The raw CSR arrays `(row_ptr, col_idx, values)` — the kernels'
    /// zero-copy view for operand streaming and compaction.
    pub(crate) fn parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Allocated capacities of the column and value arrays, so tests can
    /// check that a kernel returns no slack.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> (usize, usize) {
        (self.col_idx.capacity(), self.values.capacity())
    }

    /// The value at `(r, c)`, zero if not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// The transpose.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for c in 0..self.ncols {
            counts[c + 1] += counts[c];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = next[c as usize];
                next[c as usize] += 1;
                col_idx[slot] = r as u32;
                values[slot] = v;
            }
        }
        let t = Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        };
        t.debug_validate();
        t
    }

    /// The main diagonal as a dense vector of length `min(nrows, ncols)`.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Returns a copy with the main diagonal zeroed out.
    ///
    /// This is the `M_s - M_s^d` step of R-PathSim (§4.3): it removes, from a
    /// commuting matrix of a same-entity-label segment, the walks that leave
    /// an entity and come straight back to it (the non-informative walks).
    pub fn subtract_diagonal(&self) -> Csr {
        let mut out = self.clone();
        for r in 0..out.nrows.min(out.ncols) {
            let lo = out.row_ptr[r];
            let hi = out.row_ptr[r + 1];
            if let Ok(i) = out.col_idx[lo..hi].binary_search(&(r as u32)) {
                out.values[lo + i] = 0.0;
            }
        }
        out.pruned()
    }

    /// Returns a copy where every non-zero entry becomes `1.0`.
    ///
    /// This is the \*-label collapse of §5.2: the walks between two entities
    /// through a \*-labelled segment count as a single edge, so only the
    /// existence of a connection survives.
    pub fn binarized(&self) -> Csr {
        let mut out = self.pruned();
        for v in &mut out.values {
            *v = 1.0;
        }
        out
    }

    /// Returns a copy with explicit zeros removed.
    pub fn pruned(&self) -> Csr {
        if self.values.iter().all(|&v| v != 0.0) {
            return self.clone();
        }
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Returns a copy scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Csr {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= factor;
        }
        out
    }

    /// Per-row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| self.row(r).1.iter().sum())
            .collect()
    }

    /// Per-row sums of squared values (used for `M·Mᵀ` diagonals).
    pub fn row_sq_sums(&self) -> Vec<f64> {
        (0..self.nrows).map(|r| self.row_sq_sum(r)).collect()
    }

    /// The sum of squared values of row `r`: entry `r` of
    /// [`Csr::row_sq_sums`], summed in the same order, so a caller that
    /// refreshes a few rows of a diagonal gets the same bits.
    pub fn row_sq_sum(&self, r: usize) -> f64 {
        self.row(r).1.iter().map(|v| v * v).sum()
    }

    /// The sub-matrix of the listed rows, in the listed order, with all
    /// columns kept.
    pub fn select_rows(&self, rows: &[usize]) -> Csr {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0);
        for &r in rows {
            row_ptr.push(row_ptr[row_ptr.len() - 1] + self.row_ptr[r + 1] - self.row_ptr[r]);
        }
        let nnz = row_ptr[rows.len()];
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &r in rows {
            let (cols, vals) = self.row(r);
            col_idx.extend_from_slice(cols);
            values.extend_from_slice(vals);
        }
        Csr::from_parts(rows.len(), self.ncols, row_ptr, col_idx, values)
    }

    /// Replaces whole rows in place. The matrix first grows to
    /// `nrows × ncols`, added rows empty; then row `rows[i]` becomes row
    /// `i` of `new`, for every `i`. Every other row keeps its entries.
    ///
    /// The stored arrays are edited where they lie: the untouched runs
    /// between replaced rows move by the accumulated change in length,
    /// and a growing splice extends the arrays with `reserve`, never
    /// with a second full copy.
    ///
    /// # Panics
    /// If the shape would shrink, `rows` is not strictly increasing and
    /// below `nrows`, or `new` does not have `rows.len()` rows and at
    /// most `ncols` columns.
    pub fn splice_rows(&mut self, nrows: usize, ncols: usize, rows: &[usize], new: &Csr) {
        assert!(
            nrows >= self.nrows && ncols >= self.ncols,
            "splice cannot shrink {}x{} to {nrows}x{ncols}",
            self.nrows,
            self.ncols
        );
        assert!(
            new.nrows == rows.len() && new.ncols <= ncols,
            "splice of {} rows got a {}x{} replacement",
            rows.len(),
            new.nrows,
            new.ncols
        );
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]) && rows.last().is_none_or(|&r| r < nrows),
            "splice rows must be strictly increasing and below {nrows}"
        );
        let old_nnz = self.nnz();
        self.row_ptr.resize(nrows + 1, old_nnz);
        self.nrows = nrows;
        self.ncols = ncols;

        // The k-th untouched run `lo..hi` starts after `rows[k]` and
        // shifts by `d`, the change in length of every replaced row so far.
        let mut moves: Vec<(usize, usize, isize)> = Vec::with_capacity(rows.len());
        let mut acc = 0isize;
        for (k, &r) in rows.iter().enumerate() {
            let end = rows.get(k + 1).map_or(nrows, |&next| next);
            let old_len = self.row_ptr[r + 1] - self.row_ptr[r];
            acc += (new.row_ptr[k + 1] - new.row_ptr[k]) as isize - old_len as isize;
            moves.push((self.row_ptr[r + 1], self.row_ptr[end], acc));
        }
        let new_nnz = (old_nnz as isize + acc) as usize;
        if new_nnz > old_nnz {
            self.col_idx.reserve(new_nnz - old_nnz);
            self.values.reserve(new_nnz - old_nnz);
            self.col_idx.resize(new_nnz, 0);
            self.values.resize(new_nnz, 0.0);
        }
        // Runs moving left go front to back and runs moving right back to
        // front: no run lands on one that has yet to move.
        for &(lo, hi, d) in moves.iter().filter(|m| m.2 < 0) {
            let to = (lo as isize + d) as usize;
            self.col_idx.copy_within(lo..hi, to);
            self.values.copy_within(lo..hi, to);
        }
        for &(lo, hi, d) in moves.iter().rev().filter(|m| m.2 > 0) {
            let to = (lo as isize + d) as usize;
            self.col_idx.copy_within(lo..hi, to);
            self.values.copy_within(lo..hi, to);
        }
        self.col_idx.truncate(new_nnz);
        self.values.truncate(new_nnz);

        // Row ends from the first replaced row on move with their run.
        for (k, &r) in rows.iter().enumerate() {
            let end = rows.get(k + 1).map_or(nrows, |&next| next);
            for p in &mut self.row_ptr[r + 1..=end] {
                *p = (*p as isize + moves[k].2) as usize;
            }
        }
        for (k, &r) in rows.iter().enumerate() {
            let (cols, vals) = new.row(k);
            let lo = self.row_ptr[r];
            self.col_idx[lo..lo + cols.len()].copy_from_slice(cols);
            self.values[lo..lo + vals.len()].copy_from_slice(vals);
        }
        self.debug_validate();
    }

    /// Returns a copy with each row scaled so it sums to one.
    ///
    /// Rows that sum to zero are left as-is (a dangling node in a random
    /// walk keeps its zero out-distribution).
    pub fn row_normalized(&self) -> Csr {
        let sums = self.row_sums();
        let mut out = self.clone();
        for (r, &s) in sums.iter().enumerate() {
            if s != 0.0 {
                let lo = out.row_ptr[r];
                let hi = out.row_ptr[r + 1];
                for v in &mut out.values[lo..hi] {
                    *v /= s;
                }
            }
        }
        out
    }

    /// The Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Converts to a dense row-major buffer (for tests and small matrices).
    pub fn to_dense(&self) -> crate::Dense {
        let mut d = crate::Dense::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        Csr::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = Csr::from_triplets(2, 2, vec![(0, 1, 1.0), (0, 1, 2.5), (1, 0, -1.0)]);
        assert_eq!(m.get(0, 1), 3.5);
        assert_eq!(m.get(1, 0), -1.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn from_triplets_drops_zero_sums() {
        let m = Csr::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, -1.0)]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_triplets_bounds_checked() {
        let _ = Csr::from_triplets(2, 2, vec![(2, 0, 1.0)]);
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Csr::from_rows(
            3,
            &[vec![(0, 1.0), (2, 2.0)], vec![], vec![(0, 3.0), (1, 4.0)]],
        );
        assert_eq!(m, sample());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_rows_rejects_unsorted() {
        let _ = Csr::from_rows(3, &[vec![(2, 1.0), (0, 2.0)]]);
    }

    #[test]
    fn get_and_row() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        let (cols, vals) = m.row(2);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[3.0, 4.0]);
        assert_eq!(m.row(1).0.len(), 0);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 2), 4.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_rectangular() {
        let m = Csr::from_triplets(2, 4, vec![(0, 3, 1.0), (1, 0, 2.0)]);
        let t = m.transpose();
        assert_eq!((t.nrows(), t.ncols()), (4, 2));
        assert_eq!(t.get(3, 0), 1.0);
        assert_eq!(t.get(0, 1), 2.0);
    }

    #[test]
    fn diagonal_ops() {
        let m = Csr::from_triplets(
            2,
            2,
            vec![(0, 0, 5.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 7.0)],
        );
        assert_eq!(m.diagonal(), vec![5.0, 7.0]);
        let nd = m.subtract_diagonal();
        assert_eq!(nd.diagonal(), vec![0.0, 0.0]);
        assert_eq!(nd.get(0, 1), 1.0);
        assert_eq!(nd.nnz(), 2, "zeroed diagonal entries are pruned");
    }

    #[test]
    fn binarized_sets_ones() {
        let b = sample().binarized();
        assert_eq!(b.get(0, 2), 1.0);
        assert_eq!(b.get(2, 1), 1.0);
        assert_eq!(b.get(1, 1), 0.0);
    }

    #[test]
    fn identity_is_neutral() {
        let m = sample();
        let i = Csr::identity(3);
        assert_eq!(crate::ops::spmm(&m, &i), m);
        assert_eq!(crate::ops::spmm(&i, &m), m);
    }

    #[test]
    fn row_sums_and_normalization() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
        let n = m.row_normalized();
        assert!((n.row_sums()[0] - 1.0).abs() < 1e-12);
        assert_eq!(n.row_sums()[1], 0.0);
        assert_eq!(m.row_sq_sums(), vec![5.0, 0.0, 25.0]);
    }

    #[test]
    fn scaled_and_frobenius() {
        let m = sample();
        let s = m.scaled(2.0);
        assert_eq!(s.get(0, 2), 4.0);
        assert_eq!(s.get(2, 1), 8.0);
        // ‖M‖_F = √(1+4+9+16) = √30.
        assert!((m.frobenius_norm() - 30f64.sqrt()).abs() < 1e-12);
        assert_eq!(Csr::zeros(3, 3).frobenius_norm(), 0.0);
        assert_eq!(m.scaled(0.0).frobenius_norm(), 0.0, "scaling by zero");
    }

    #[test]
    fn zeros_shape_and_emptiness() {
        let z = Csr::zeros(2, 5);
        assert_eq!((z.nrows(), z.ncols()), (2, 5));
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.row(1).0.len(), 0);
        assert_eq!(crate::ops::spmm(&z, &Csr::zeros(5, 1)).nnz(), 0);
    }

    #[test]
    fn validate_accepts_constructed_matrices() {
        assert_eq!(sample().validate(), Ok(()));
        assert_eq!(Csr::zeros(4, 2).validate(), Ok(()));
        assert_eq!(Csr::identity(5).validate(), Ok(()));
        assert_eq!(sample().transpose().validate(), Ok(()));
    }

    #[test]
    fn try_from_parts_accepts_valid_parts() {
        let m = Csr::try_from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])
            .expect("valid parts");
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
    }

    #[test]
    fn try_from_parts_pins_each_invariant() {
        // row_ptr wrong length.
        let e = Csr::try_from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert_eq!(
            e,
            CsrInvariant::RowPtrLength {
                expected: 3,
                found: 2
            }
        );
        // row_ptr not starting at zero.
        let e = Csr::try_from_parts(1, 2, vec![1, 1], vec![], vec![]).unwrap_err();
        assert_eq!(e, CsrInvariant::RowPtrStart { found: 1 });
        // row_ptr decreasing.
        let e = Csr::try_from_parts(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).unwrap_err();
        assert_eq!(
            e,
            CsrInvariant::RowPtrNotMonotone {
                row: 1,
                lo: 2,
                hi: 1
            }
        );
        // nnz disagreement between row_ptr and the entry arrays.
        let e = Csr::try_from_parts(1, 2, vec![0, 2], vec![0], vec![1.0]).unwrap_err();
        assert_eq!(
            e,
            CsrInvariant::NnzMismatch {
                row_ptr_end: 2,
                cols: 1,
                values: 1
            }
        );
        // Column index out of bounds.
        let e = Csr::try_from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert_eq!(
            e,
            CsrInvariant::ColumnOutOfBounds {
                row: 0,
                col: 5,
                ncols: 2
            }
        );
        // Unsorted (and duplicate) columns within a row.
        let e = Csr::try_from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(e, CsrInvariant::ColumnsNotSorted { row: 0, col: 0 });
        let e = Csr::try_from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(e, CsrInvariant::ColumnsNotSorted { row: 0, col: 1 });
    }

    #[test]
    fn invariant_display_names_the_location() {
        let e = Csr::try_from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert_eq!(e.to_string(), "column 5 in row 0 out of bounds for ncols 2");
        let e = Csr::try_from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).unwrap_err();
        assert!(e.to_string().contains("not strictly increasing"));
    }

    #[test]
    fn iter_visits_all() {
        let entries: Vec<_> = sample().iter().collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }
}
