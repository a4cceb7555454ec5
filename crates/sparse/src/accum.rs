//! SpGEMM accumulation: the per-row dense accumulator and its
//! arena-reused scratch.
//!
//! The Gustavson numeric phase spends its time scattering `va·vb`
//! products into a per-row accumulator. Every row goes through one dense
//! accumulator ([`WorkerScratch::numeric_row`]), which has two modes
//! picked from the row's shape:
//!
//! * **tiled**: a [`TILE_WIDTH`]-column window of `f64` accumulators
//!   (16 KiB — L1-resident) swept left to right across the output row.
//!   Each operand row keeps a resumable cursor, so every `b` row is
//!   streamed exactly once; tiles no cursor points into are skipped
//!   entirely. Emission walks an occupancy bitmap in ascending bit order
//!   — no sort, and a sparsely hit tile costs its entries, not its width.
//! * **wide**: rows whose cursors would be re-probed across many tiles
//!   for few products each instead drain in one pass over a wider
//!   L2-resident window ([`WIDE_TILE_CAP`]), cursor-free.
//!
//! **Bit-identity invariant.** Both modes add the products contributing
//! to one output column in exactly the order the reference kernel does —
//! ascending `k` over the `a`-row's entries (each `b` row contributes at
//! most one product per column, and the tile sweep preserves
//! first-to-last visit order per column) — so the computed `f64` sums are
//! bit-identical to the historical dense `RowWorkspace` kernel for every
//! thread count. The proptests in `tests/proptests.rs` pin this against
//! an independent dense reference.
//!
//! Scratch lives in a [`SpgemmArena`] so a chain of products allocates
//! each worker's accumulators once per chain, not once per product.

use crate::csr::Csr;

/// Column-tile width of the tiled mode: 2048 `f64` slots is 16 KiB, half
/// a typical 32 KiB L1d, leaving the other half for the streamed operand
/// rows and output.
pub(crate) const TILE_WIDTH: usize = 2048;

/// Widest single-pass accumulator the wide mode may use: 32768 `f64`
/// slots is 256 KiB — L2-resident, not L1. When a row's operand cursors
/// would be re-probed across many tiles for only a few products each
/// (short `b` rows under a wide output), one L2-latency pass beats
/// `tiles × cursors` L1 passes, so the row drains cursor-free into this
/// wider window instead. Outputs wider than the cap always tile.
pub(crate) const WIDE_TILE_CAP: usize = 32768;

/// Per-worker accumulator scratch. All buffers grow to a high-water mark
/// and are reused across rows, products, and (via [`SpgemmArena`]) whole
/// chains. Between rows every buffer is restored to its resting state
/// (`seen` all-false, tile all-zero), so an aborted band leaves the
/// scratch immediately reusable.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    /// Dense symbolic occupancy bitmap, `>= ncols` entries.
    seen: Vec<bool>,
    /// Columns marked in `seen`, for O(touched) reset.
    touched: Vec<u32>,
    /// The accumulator window of column sums.
    tile: Vec<f64>,
    /// Occupancy bitmap over `tile`, one bit per slot: scan-out walks set
    /// bits (ascending — column order) instead of probing every slot, so
    /// a sparsely hit tile costs its entries, not its width.
    tile_bits: Vec<u64>,
    /// Per-`a`-entry resumable positions into `b`: `(next, end)`.
    cursor: Vec<(usize, usize)>,
    /// `a` values parallel to `cursor` (rows with empty `b` rows dropped).
    cursor_va: Vec<f64>,
}

/// Tallies of the numeric phase, surfaced as
/// `repsim.sparse.spgemm.numeric.{dense_rows,tile_count}`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NumericTally {
    /// Rows computed by the accumulator.
    pub dense_rows: u64,
    /// Column tiles actually swept (empty tiles are skipped).
    pub tile_count: u64,
}

impl NumericTally {
    pub(crate) fn absorb(&mut self, other: NumericTally) {
        self.dense_rows += other.dense_rows;
        self.tile_count += other.tile_count;
    }
}

impl WorkerScratch {
    /// Grows the fixed-size buffers for a product with `ncols` output
    /// columns. Called on the coordinating thread before bands spawn, so
    /// workers never allocate on the hot path.
    pub(crate) fn prepare(&mut self, ncols: usize) {
        if self.seen.len() < ncols {
            self.seen.resize(ncols, false);
        }
        let tile = WIDE_TILE_CAP.min(ncols.max(1));
        if self.tile.len() < tile {
            self.tile.resize(tile, 0.0);
        }
        let words = tile.div_ceil(64);
        if self.tile_bits.len() < words {
            self.tile_bits.resize(words, 0);
        }
    }

    /// Symbolic pass: counts the distinct columns of output row
    /// `r = a_row · B` with the occupancy bitmap (the historical kernel's
    /// exact loop).
    pub(crate) fn symbolic_row(&mut self, acols: &[u32], b: &Csr) -> usize {
        let (b_ptr, b_cols, _) = b.parts();
        self.touched.clear();
        for &k in acols {
            let k = k as usize;
            for &c in &b_cols[b_ptr[k]..b_ptr[k + 1]] {
                if !self.seen[c as usize] {
                    self.seen[c as usize] = true;
                    self.touched.push(c);
                }
            }
        }
        for &c in &self.touched {
            self.seen[c as usize] = false;
        }
        self.touched.len()
    }

    /// Numeric pass: sweeps a [`TILE_WIDTH`]-column accumulator window
    /// across the output row. Each `a`-entry's `b` row keeps a resumable
    /// cursor; within a tile, cursors drain in `a`-row order (ascending
    /// `k` — the reference accumulation order per column), and the
    /// occupancy bitmap then scans out set slots in ascending column
    /// order, so no sort is needed and a sparsely hit tile costs its
    /// entries rather than its width. Only tiles some cursor points into
    /// are visited. Returns `(entries, tiles swept)`.
    pub(crate) fn numeric_row(
        &mut self,
        acols: &[u32],
        avals: &[f64],
        b: &Csr,
        flops: u64,
        cols_out: &mut [u32],
        vals_out: &mut [f64],
    ) -> (usize, u64) {
        let ncols = b.ncols();
        let (b_ptr, b_cols, b_vals) = b.parts();
        // Wide single-pass mode: when the whole output row fits the
        // capped window and the tiled sweep would spend a significant
        // fraction of its time re-probing suspended cursors (`cursors ×
        // tiles`, each probe costing about as much as a multiply-add),
        // drain every `b` row start-to-finish instead — no cursors, one
        // tile, occupancy-bitmap emission. The L2-latency scatter is
        // ~30% dearer per flop than the L1 tile, so wide wins once the
        // probe volume passes a third of the flop count.
        if ncols <= WIDE_TILE_CAP
            && 3 * (acols.len() as u64) * (ncols.div_ceil(TILE_WIDTH) as u64) > flops
        {
            let tile = &mut self.tile;
            let bits = &mut self.tile_bits;
            for (&k, &va) in acols.iter().zip(avals) {
                let k = k as usize;
                let (lo, hi) = (b_ptr[k], b_ptr[k + 1]);
                for (&c, &vb) in b_cols[lo..hi].iter().zip(&b_vals[lo..hi]) {
                    let j = c as usize;
                    tile[j] += va * vb;
                    bits[j >> 6] |= 1u64 << (j & 63);
                }
            }
            let n = drain_tile(tile, &mut bits[..ncols.div_ceil(64)], 0, cols_out, vals_out);
            return (n, 1);
        }
        self.cursor.clear();
        self.cursor_va.clear();
        let mut first = usize::MAX;
        for (&k, &va) in acols.iter().zip(avals) {
            let k = k as usize;
            let (lo, hi) = (b_ptr[k], b_ptr[k + 1]);
            if lo == hi {
                continue;
            }
            first = first.min(b_cols[lo] as usize);
            self.cursor.push((lo, hi));
            self.cursor_va.push(va);
        }
        if self.cursor.is_empty() {
            return (0, 0);
        }
        let tile = &mut self.tile;
        // Only this tile's words — the buffer is sized for the wide mode.
        let nwords = self.tile_bits.len().min(TILE_WIDTH.div_ceil(64));
        let bits = &mut self.tile_bits[..nwords];
        let cursors = &mut self.cursor;
        let vas = &self.cursor_va;
        let mut n = 0usize;
        let mut tiles = 0u64;
        let mut live = cursors.len();
        let mut tile_base = (first / TILE_WIDTH) * TILE_WIDTH;
        while live > 0 {
            let tile_end = tile_base + TILE_WIDTH;
            // The next tile some cursor's pending column falls in; refreshed
            // from every cursor that suspends at this tile's edge.
            let mut next_col = usize::MAX;
            tiles += 1;
            for (cur, &va) in cursors.iter_mut().zip(vas) {
                if cur.0 == cur.1 {
                    continue;
                }
                loop {
                    let c = b_cols[cur.0] as usize;
                    if c >= tile_end {
                        next_col = next_col.min(c);
                        break;
                    }
                    let j = c - tile_base;
                    tile[j] += va * b_vals[cur.0];
                    bits[j >> 6] |= 1u64 << (j & 63);
                    cur.0 += 1;
                    if cur.0 == cur.1 {
                        live -= 1;
                        break;
                    }
                }
            }
            n += drain_tile(
                tile,
                bits,
                tile_base,
                &mut cols_out[n..],
                &mut vals_out[n..],
            );
            if live == 0 {
                break;
            }
            debug_assert_ne!(next_col, usize::MAX);
            tile_base = (next_col / TILE_WIDTH) * TILE_WIDTH;
        }
        (n, tiles)
    }
}

/// Scans the occupancy words out in column order, writing each non-zero
/// sum at `base + slot` and restoring the tile and bitmap to rest.
/// Cancelled (exact-zero) sums are skipped and are already the resting
/// 0.0, so only emitted slots need clearing. Returns the entries written.
#[inline]
fn drain_tile(
    tile: &mut [f64],
    bits: &mut [u64],
    base: usize,
    cols_out: &mut [u32],
    vals_out: &mut [f64],
) -> usize {
    let mut n = 0usize;
    for (w, word) in bits.iter_mut().enumerate() {
        let mut m = *word;
        if m == 0 {
            continue;
        }
        *word = 0;
        let word_base = w << 6;
        while m != 0 {
            let j = word_base + m.trailing_zeros() as usize;
            m &= m - 1;
            let v = tile[j];
            if v != 0.0 {
                tile[j] = 0.0;
                cols_out[n] = (base + j) as u32;
                vals_out[n] = v;
                n += 1;
            }
        }
    }
    n
}

/// Reusable SpGEMM scratch: per-worker accumulators plus the shared
/// per-product arrays (symbolic bounds, prefix sums, flop weights and
/// per-row entry counts). The output itself is no scratch: the numeric
/// phase writes straight into the result's arrays.
///
/// One arena serves an entire chain of products — `chain::eval` threads
/// it through every join, so a 6-factor commuting build performs one
/// scratch allocation per worker for the whole chain instead of one per
/// product. Buffers only ever grow; an aborted product leaves the arena
/// immediately reusable (worker scratch is restored between rows, and
/// the shared arrays are cleared at the start of each product).
#[derive(Default)]
pub struct SpgemmArena {
    pub(crate) workers: Vec<WorkerScratch>,
    pub(crate) bound: Vec<usize>,
    pub(crate) bound_ptr: Vec<usize>,
    pub(crate) row_flops: Vec<u64>,
    pub(crate) count: Vec<usize>,
}

impl SpgemmArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        SpgemmArena::default()
    }
}
