//! Binary encoding of [`Csr`] matrices for crash-safe snapshots.
//!
//! The serving layer persists commuting matrices across restarts; the
//! paper's whole point is that R-PathSim's answers survive
//! representational change, so a reloaded index must reproduce the exact
//! bits of a cold rebuild. The encoding is therefore deliberately
//! lossless and boring: little-endian fixed-width integers and raw
//! `f64::to_bits` values, no compression, no floating-point re-parsing.
//! Every matrix shape uses the one record layout of [`Csr::encode_into`].
//!
//! Decoding treats input as untrusted: lengths are validated against the
//! available bytes *before* any allocation, and the reconstructed matrix
//! passes through [`Csr::try_from_parts`] so every structural CSR
//! invariant is re-checked. Integrity of a whole snapshot file is the
//! caller's job (see `repsim-serve`), built on [`checksum`] — a 64-bit
//! FNV-1a over the encoded bytes.

use crate::csr::{Csr, CsrInvariant};
use std::fmt;

/// Errors from decoding an encoded [`Csr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the named section was complete.
    Truncated {
        /// Which section was being read (`"header"`, `"row_ptr"`, …).
        section: &'static str,
        /// Bytes the section needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A declared length is impossible for the available input (corrupt
    /// or hostile header; rejected before allocating).
    LengthOverflow {
        /// Which header field overflowed (`"nrows"`, `"nnz"`, …).
        field: &'static str,
        /// The declared value.
        declared: u64,
    },
    /// The decoded parts violate a CSR structural invariant.
    Invariant(CsrInvariant),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated {
                section,
                needed,
                have,
            } => write!(f, "truncated {section}: needed {needed} bytes, have {have}"),
            DecodeError::LengthOverflow { field, declared } => {
                write!(f, "implausible {field} {declared} for input size")
            }
            DecodeError::Invariant(e) => write!(f, "csr invariant violated: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<CsrInvariant> for DecodeError {
    fn from(e: CsrInvariant) -> Self {
        DecodeError::Invariant(e)
    }
}

/// 64-bit FNV-1a over `bytes` — the workspace's snapshot checksum.
///
/// Not cryptographic; it detects the torn writes, truncations and
/// bit-flips a crashed or corrupted snapshot file exhibits.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, section: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::LengthOverflow {
            field: section,
            declared: n as u64,
        })?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(DecodeError::Truncated {
                section,
                needed: n,
                have: self.bytes.len().saturating_sub(self.pos),
            })?;
        self.pos = end;
        Ok(slice)
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, section)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Validates that `count` elements of `width` bytes fit in the
    /// remaining input, guarding allocations against corrupt headers.
    fn check_len(
        &self,
        count: u64,
        width: usize,
        field: &'static str,
    ) -> Result<usize, DecodeError> {
        let n = usize::try_from(count).map_err(|_| DecodeError::LengthOverflow {
            field,
            declared: count,
        })?;
        let bytes = n.checked_mul(width).ok_or(DecodeError::LengthOverflow {
            field,
            declared: count,
        })?;
        if bytes > self.bytes.len().saturating_sub(self.pos) {
            return Err(DecodeError::Truncated {
                section: field,
                needed: bytes,
                have: self.bytes.len().saturating_sub(self.pos),
            });
        }
        Ok(n)
    }
}

impl Csr {
    /// Appends the lossless binary encoding of `self` to `out` and
    /// returns the number of bytes written.
    ///
    /// Layout (all little-endian): `nrows: u64`, `ncols: u64`,
    /// `nnz: u64`, then `nrows + 1` row-pointer `u64`s, `nnz` column
    /// `u32`s, and `nnz` value bit patterns (`f64::to_bits` as `u64`).
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        let (nrows, nnz) = (self.nrows(), self.nnz());
        out.reserve(24 + (nrows + 1) * 8 + nnz * 12);
        push_u64(out, nrows as u64);
        push_u64(out, self.ncols() as u64);
        push_u64(out, nnz as u64);
        // row_ptr reconstructed from the public row view: offset 0, then
        // one cumulative end per row.
        push_u64(out, 0);
        let mut end = 0u64;
        for r in 0..nrows {
            end += self.row(r).0.len() as u64;
            push_u64(out, end);
        }
        for r in 0..nrows {
            for &c in self.row(r).0 {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        for r in 0..nrows {
            for &v in self.row(r).1 {
                push_u64(out, v.to_bits());
            }
        }
        out.len() - start
    }

    /// The encoding of [`Csr::encode_into`] as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one matrix from the front of `bytes`, returning it with
    /// the number of bytes consumed. The reconstruction re-validates every
    /// CSR invariant, so corrupt input yields a [`DecodeError`], never a
    /// malformed matrix.
    pub fn decode(bytes: &[u8]) -> Result<(Csr, usize), DecodeError> {
        let mut r = Reader { bytes, pos: 0 };
        let nrows_decl = r.u64("header")?;
        let ncols_decl = r.u64("header")?;
        let nnz_decl = r.u64("header")?;
        // row_ptr is u64 on disk; col_idx u32; values u64 bit patterns.
        let nrows = r.check_len(nrows_decl.saturating_add(1), 8, "nrows")?;
        let ncols = usize::try_from(ncols_decl).map_err(|_| DecodeError::LengthOverflow {
            field: "ncols",
            declared: ncols_decl,
        })?;
        let mut row_ptr = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let v = r.u64("row_ptr")?;
            row_ptr.push(usize::try_from(v).map_err(|_| DecodeError::LengthOverflow {
                field: "row_ptr",
                declared: v,
            })?);
        }
        let nnz = r.check_len(nnz_decl, 4, "nnz")?;
        let mut col_idx = Vec::with_capacity(nnz);
        for chunk in r.take(nnz * 4, "col_idx")?.chunks_exact(4) {
            let mut arr = [0u8; 4];
            arr.copy_from_slice(chunk);
            col_idx.push(u32::from_le_bytes(arr));
        }
        let _ = r.check_len(nnz_decl, 8, "values")?;
        let mut values = Vec::with_capacity(nnz);
        for chunk in r.take(nnz * 8, "values")?.chunks_exact(8) {
            let mut arr = [0u8; 8];
            arr.copy_from_slice(chunk);
            values.push(f64::from_bits(u64::from_le_bytes(arr)));
        }
        let m = Csr::try_from_parts(
            usize::try_from(nrows_decl).map_err(|_| DecodeError::LengthOverflow {
                field: "nrows",
                declared: nrows_decl,
            })?,
            ncols,
            row_ptr,
            col_idx,
            values,
        )?;
        Ok((m, r.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // Built from raw parts so the explicit -0.0 survives (triplet
        // construction drops zero sums), keeping the bit-identity check
        // meaningful.
        Csr::try_from_parts(
            3,
            4,
            vec![0, 2, 3, 4],
            vec![1, 3, 0, 2],
            vec![2.5, -0.0, f64::MIN_POSITIVE, 1e300],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        for m in [
            sample(),
            Csr::zeros(0, 0),
            Csr::zeros(5, 2),
            Csr::identity(7),
        ] {
            let bytes = m.encode();
            let (back, used) = Csr::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back, m);
            // Bit-level equality, beyond PartialEq's -0.0 == 0.0.
            for r in 0..m.nrows() {
                let (ca, va) = m.row(r);
                let (cb, vb) = back.row(r);
                assert_eq!(ca, cb);
                for (x, y) in va.iter().zip(vb) {
                    assert_eq!(x.to_bits(), y.to_bits(), "row {r}");
                }
            }
        }
    }

    #[test]
    fn decode_consumes_only_its_own_bytes() {
        let a = sample();
        let b = Csr::identity(2);
        let mut bytes = a.encode();
        let first_len = bytes.len();
        b.encode_into(&mut bytes);
        let (da, used) = Csr::decode(&bytes).unwrap();
        assert_eq!(used, first_len);
        assert_eq!(da, a);
        let (db, used2) = Csr::decode(&bytes[used..]).unwrap();
        assert_eq!(db, b);
        assert_eq!(used + used2, bytes.len());
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Csr::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated { .. } | DecodeError::LengthOverflow { .. }
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_validation_or_shift_shape() {
        // Corrupting structural bytes must never yield a matrix that
        // passes validation *and* differs silently: decode either errs
        // or returns a matrix (whose checksum mismatch the snapshot
        // layer catches). Here we pin the structural cases.
        let m = sample();
        let bytes = m.encode();
        // Flip a row_ptr byte: monotonicity or nnz agreement breaks.
        let mut corrupt = bytes.clone();
        corrupt[24] ^= 0xff;
        assert!(Csr::decode(&corrupt).is_err());
        // Declare an absurd nnz: rejected before allocation.
        let mut huge = bytes.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Csr::decode(&huge).unwrap_err(),
            DecodeError::LengthOverflow { .. } | DecodeError::Truncated { .. }
        ));
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let bytes = sample().encode();
        let base = checksum(&bytes);
        assert_eq!(base, checksum(&bytes), "deterministic");
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1;
            assert_ne!(base, checksum(&flipped), "byte {i}");
        }
        assert_ne!(checksum(b""), checksum(b"\0"));
    }
}
