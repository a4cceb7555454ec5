//! Succinct CSR: narrowed, delta-encoded column storage.
//!
//! [`CsrCompact`] stores the same matrix as [`Csr`] in ~60% of the
//! column-structure bytes: row pointers narrowed to `u32` and column
//! indices as `u16` *deltas* from the previous column in the row (the
//! first entry of a row is its delta from column 0). Values stay `f64`
//! bit-for-bit — the representation is lossless, so a round trip through
//! it is bit-identical.
//!
//! Eligibility is a property of the shape: every column must fit a
//! `u16` delta (`ncols <= 65_536`; deltas of a strictly increasing row
//! are then `<= 65_535`) and the entry count must fit the narrowed row
//! pointers (`nnz <= u32::MAX`). [`CsrCompact::try_from_csr`] returns
//! `None` otherwise, and callers fall back to the plain representation.
//!
//! The form exists for storage: `binio` persists it as a versioned
//! record type so snapshots of eligible matrices shrink. Kernels read
//! the plain [`Csr`] it expands back into.

use crate::csr::Csr;

/// The widest matrix whose columns delta-encode into `u16`.
pub const MAX_COMPACT_NCOLS: usize = u16::MAX as usize + 1;

/// A structural invariant of the compact representation, violated by
/// untrusted raw parts. Mirrors [`crate::csr::CsrInvariant`] for the
/// delta-encoded layout; `repsim check` maps these onto the stable
/// `RS0406`–`RS0408` codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompactInvariant {
    /// `row_ptr.len()` is not `nrows + 1`, or it does not start at 0.
    RowPtrShape {
        /// `nrows + 1`.
        expected: usize,
        /// Actual length.
        found: usize,
        /// The stored first offset (must be 0).
        start: u32,
    },
    /// `row_ptr` decreases between two consecutive rows.
    RowPtrNotMonotone {
        /// First row whose extent is negative.
        row: usize,
        /// `row_ptr[row]`.
        lo: u32,
        /// `row_ptr[row + 1]`.
        hi: u32,
    },
    /// `row_ptr[nrows]`, the delta count and the value count disagree.
    PartsMismatch {
        /// `row_ptr[nrows]` (0 when `row_ptr` is empty).
        row_ptr_end: u32,
        /// `col_delta.len()`.
        deltas: usize,
        /// `values.len()`.
        values: usize,
    },
    /// A row's deltas prefix-sum past the last column: the record does
    /// not decode back to in-bounds column indices.
    DeltaOutOfBounds {
        /// Row holding the offending entry.
        row: usize,
        /// The decoded (out-of-range) column.
        col: u64,
        /// The matrix column count.
        ncols: usize,
    },
    /// The declared shape cannot be represented compactly at all
    /// (`ncols` too wide for `u16` deltas or `nnz` past the `u32` row
    /// pointers).
    Ineligible {
        /// The declared column count.
        ncols: usize,
        /// The stored-entry count.
        nnz: usize,
    },
}

impl std::fmt::Display for CompactInvariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactInvariant::RowPtrShape {
                expected,
                found,
                start,
            } => write!(
                f,
                "compact row_ptr malformed: expected length {expected} starting at 0, \
                 got length {found} starting at {start}"
            ),
            CompactInvariant::RowPtrNotMonotone { row, lo, hi } => {
                write!(f, "compact row_ptr decreases at row {row}: {lo} > {hi}")
            }
            CompactInvariant::PartsMismatch {
                row_ptr_end,
                deltas,
                values,
            } => write!(
                f,
                "compact parts disagree: row_ptr ends at {row_ptr_end}, \
                 {deltas} column deltas, {values} values"
            ),
            CompactInvariant::DeltaOutOfBounds { row, col, ncols } => write!(
                f,
                "row {row} deltas decode to column {col}, past the {ncols}-column shape"
            ),
            CompactInvariant::Ineligible { ncols, nnz } => write!(
                f,
                "shape ineligible for compact narrowing: ncols {ncols} (max \
                 {MAX_COMPACT_NCOLS}) or nnz {nnz} (max {})",
                u32::MAX
            ),
        }
    }
}

/// A sparse matrix in delta-encoded compressed sparse row format.
///
/// See the module docs for the layout; construct via
/// [`CsrCompact::try_from_csr`] and convert back with
/// [`CsrCompact::to_csr`]. Both directions are lossless.
#[derive(Clone, PartialEq)]
pub struct CsrCompact {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<u32>,
    /// Per-entry column deltas: entry `i` of row `r` stores
    /// `col[i] - col[i-1]` (`col[-1]` taken as 0), so columns decode by
    /// running prefix sum restarted at each row.
    col_delta: Vec<u16>,
    values: Vec<f64>,
}

impl std::fmt::Debug for CsrCompact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CsrCompact({}x{}, nnz={})",
            self.nrows,
            self.ncols,
            self.nnz()
        )
    }
}

impl CsrCompact {
    /// Whether a matrix of this shape can be represented compactly.
    pub fn eligible(ncols: usize, nnz: usize) -> bool {
        ncols <= MAX_COMPACT_NCOLS && nnz <= u32::MAX as usize
    }

    /// Compacts `m`, or returns `None` when the shape is ineligible
    /// (too many columns for `u16` deltas or too many entries for `u32`
    /// row pointers).
    pub fn try_from_csr(m: &Csr) -> Option<CsrCompact> {
        if !Self::eligible(m.ncols(), m.nnz()) {
            return None;
        }
        let mut row_ptr = Vec::with_capacity(m.nrows() + 1);
        let mut col_delta = Vec::with_capacity(m.nnz());
        let mut values = Vec::with_capacity(m.nnz());
        row_ptr.push(0u32);
        for r in 0..m.nrows() {
            let (cols, vals) = m.row(r);
            let mut prev = 0u32;
            for (&c, &v) in cols.iter().zip(vals) {
                // Strictly increasing in-bounds columns (a CSR invariant)
                // keep every delta within u16.
                col_delta.push((c - prev) as u16);
                values.push(v);
                prev = c;
            }
            row_ptr.push(col_delta.len() as u32);
        }
        Some(CsrCompact {
            nrows: m.nrows(),
            ncols: m.ncols(),
            row_ptr,
            col_delta,
            values,
        })
    }

    /// Expands back to plain CSR parts `(row_ptr, col_idx, values)` by
    /// prefix-summing the deltas. Values are moved/copied verbatim, so
    /// the expansion is bit-lossless.
    fn expand(&self) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let row_ptr: Vec<usize> = self.row_ptr.iter().map(|&p| p as usize).collect();
        let mut col_idx = Vec::with_capacity(self.col_delta.len());
        for r in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut prev = 0u32;
            for &d in &self.col_delta[lo..hi] {
                prev += u32::from(d);
                col_idx.push(prev);
            }
        }
        (row_ptr, col_idx, self.values.clone())
    }

    /// Expands back to a plain [`Csr`], bit-identical to the compacted
    /// input. Only call on values built by [`CsrCompact::try_from_csr`]
    /// (whose invariants came from a valid `Csr`); decoded untrusted
    /// data goes through [`CsrCompact::try_to_csr`] instead.
    pub fn to_csr(&self) -> Csr {
        let (row_ptr, col_idx, values) = self.expand();
        Csr::from_parts(self.nrows, self.ncols, row_ptr, col_idx, values)
    }

    /// Fallible expansion for untrusted (deserialized) data: the plain
    /// parts are re-checked against every CSR structural invariant.
    pub fn try_to_csr(&self) -> Result<Csr, crate::csr::CsrInvariant> {
        let (row_ptr, col_idx, values) = self.expand();
        Csr::try_from_parts(self.nrows, self.ncols, row_ptr, col_idx, values)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_delta.len()
    }

    /// Heap bytes of the three arrays — the number the succinct format
    /// is trying to shrink (plain CSR: `8·(nrows+1) + 12·nnz`).
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.len() * 4 + self.col_delta.len() * 2 + self.values.len() * 8
    }

    /// The raw parts `(row_ptr, col_delta, values)` — the record
    /// encoder's zero-copy view.
    pub(crate) fn raw(&self) -> (&[u32], &[u16], &[f64]) {
        (&self.row_ptr, &self.col_delta, &self.values)
    }

    /// Builds from untrusted raw parts (deserialized records, text
    /// fixtures), naming the first violated invariant. Column
    /// *sortedness* is not re-checked here — a zero delta after the
    /// first entry of a row decodes to a duplicate column, which
    /// [`CsrCompact::try_to_csr`] rejects — but decodability (every
    /// prefix sum lands inside the shape) is, so a hostile record
    /// cannot make the expansion index out of bounds.
    pub fn try_from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u32>,
        col_delta: Vec<u16>,
        values: Vec<f64>,
    ) -> Result<CsrCompact, CompactInvariant> {
        if row_ptr.len() != nrows + 1 || row_ptr.first() != Some(&0) {
            return Err(CompactInvariant::RowPtrShape {
                expected: nrows + 1,
                found: row_ptr.len(),
                start: row_ptr.first().copied().unwrap_or(0),
            });
        }
        if let Some(row) = row_ptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(CompactInvariant::RowPtrNotMonotone {
                row,
                lo: row_ptr[row],
                hi: row_ptr[row + 1],
            });
        }
        if row_ptr.last().copied() != Some(col_delta.len() as u32)
            || col_delta.len() != values.len()
        {
            return Err(CompactInvariant::PartsMismatch {
                row_ptr_end: row_ptr.last().copied().unwrap_or(0),
                deltas: col_delta.len(),
                values: values.len(),
            });
        }
        if !Self::eligible(ncols, col_delta.len()) {
            return Err(CompactInvariant::Ineligible {
                ncols,
                nnz: col_delta.len(),
            });
        }
        for r in 0..nrows {
            let (lo, hi) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
            let decoded: u64 = col_delta[lo..hi].iter().map(|&d| u64::from(d)).sum();
            if hi > lo && decoded >= ncols as u64 {
                return Err(CompactInvariant::DeltaOutOfBounds {
                    row: r,
                    col: decoded,
                    ncols,
                });
            }
        }
        Ok(CsrCompact {
            nrows,
            ncols,
            row_ptr,
            col_delta,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_triplets(
            4,
            7,
            vec![
                (0, 0, 1.0),
                (0, 6, 2.0),
                (1, 3, -3.5),
                (3, 0, 4.0),
                (3, 1, 5.0),
                (3, 6, 6.0),
            ],
        )
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let m = sample();
        let c = CsrCompact::try_from_csr(&m).expect("eligible");
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (4, 7, 6));
        let back = c.to_csr();
        assert_eq!(back, m);
        for r in 0..m.nrows() {
            let (ca, va) = m.row(r);
            let (cb, vb) = back.row(r);
            assert_eq!(ca, cb);
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn negative_zero_survives() {
        let m = Csr::try_from_parts(1, 2, vec![0, 1], vec![1], vec![-0.0]).unwrap();
        let c = CsrCompact::try_from_csr(&m).unwrap();
        let back = c.to_csr();
        assert_eq!(back.row(0).1[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn wide_matrices_are_ineligible() {
        assert!(!CsrCompact::eligible(MAX_COMPACT_NCOLS + 1, 0));
        assert!(CsrCompact::eligible(MAX_COMPACT_NCOLS, 10));
        let wide = Csr::zeros(2, MAX_COMPACT_NCOLS + 1);
        assert!(CsrCompact::try_from_csr(&wide).is_none());
    }

    #[test]
    fn boundary_columns_encode() {
        // First and last representable columns, adjacent duplicates of
        // the maximum delta.
        let n = MAX_COMPACT_NCOLS;
        let m = Csr::from_triplets(1, n, vec![(0, 0, 1.0), (0, (n - 1) as u32, 2.0)]);
        let c = CsrCompact::try_from_csr(&m).unwrap();
        assert_eq!(c.to_csr(), m);
    }

    #[test]
    fn heap_bytes_shrink() {
        let m = sample();
        let c = CsrCompact::try_from_csr(&m).unwrap();
        let plain = (m.nrows() + 1) * 8 + m.nnz() * 12;
        assert!(c.heap_bytes() < plain, "{} vs {plain}", c.heap_bytes());
    }

    #[test]
    fn try_from_raw_accepts_consistent_parts() {
        assert!(CsrCompact::try_from_raw(1, 4, vec![0, 1], vec![1], vec![1.0]).is_ok());
        // cols/values disagree.
        assert!(CsrCompact::try_from_raw(1, 4, vec![0, 1], vec![1], vec![]).is_err());
    }

    #[test]
    fn try_from_raw_names_the_violated_invariant() {
        let shape = CsrCompact::try_from_raw(2, 4, vec![0, 1], vec![1], vec![1.0]);
        assert!(
            matches!(
                shape,
                Err(CompactInvariant::RowPtrShape {
                    expected: 3,
                    found: 2,
                    ..
                })
            ),
            "{shape:?}"
        );
        let mono = CsrCompact::try_from_raw(2, 4, vec![0, 1, 0], vec![1], vec![1.0]);
        assert!(
            matches!(
                mono,
                Err(CompactInvariant::RowPtrNotMonotone { row: 1, .. })
            ),
            "{mono:?}"
        );
        let parts = CsrCompact::try_from_raw(1, 4, vec![0, 2], vec![1], vec![1.0]);
        assert!(
            matches!(
                parts,
                Err(CompactInvariant::PartsMismatch { deltas: 1, .. })
            ),
            "{parts:?}"
        );
        let wide =
            CsrCompact::try_from_raw(1, MAX_COMPACT_NCOLS + 1, vec![0, 1], vec![1], vec![1.0]);
        assert!(
            matches!(wide, Err(CompactInvariant::Ineligible { .. })),
            "{wide:?}"
        );
    }

    #[test]
    fn try_from_raw_rejects_undecodable_deltas() {
        // Row 0 decodes to column 3 + 2 = 5 in a 4-column shape.
        let oob = CsrCompact::try_from_raw(1, 4, vec![0, 2], vec![3, 2], vec![1.0, 2.0]);
        assert!(
            matches!(
                oob,
                Err(CompactInvariant::DeltaOutOfBounds {
                    row: 0,
                    col: 5,
                    ncols: 4
                })
            ),
            "{oob:?}"
        );
        // The same deltas fit once the shape is wide enough.
        assert!(CsrCompact::try_from_raw(1, 6, vec![0, 2], vec![3, 2], vec![1.0, 2.0]).is_ok());
        // A boundary delta landing exactly on the last column is fine.
        let edge = CsrCompact::try_from_raw(1, 4, vec![0, 1], vec![3], vec![1.0]);
        assert!(edge.is_ok(), "{edge:?}");
    }
}
