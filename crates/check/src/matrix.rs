//! CSR structural-invariant diagnostics.
//!
//! | code | severity | finding |
//! |---|---|---|
//! | `RS0400` | error | the matrix file is unparseable |
//! | `RS0401` | error | `row_ptr` malformed (length, start, monotonicity) |
//! | `RS0402` | error | columns within a row unsorted or duplicated |
//! | `RS0403` | error | a column index out of bounds |
//! | `RS0404` | error | `row_ptr` end, column count and value count disagree |
//! | `RS0405` | error | consecutive chain factors have incompatible shapes |
//!
//! The text format mirrors the graph format's line discipline (`#`
//! comments, one keyword per line):
//!
//! ```text
//! # 2x3 with entries (0,0)=1 (0,2)=2 (1,1)=3
//! shape 2 3
//! row_ptr 0 2 3
//! col_idx 0 2 1
//! values 1 2 3
//! ```
//!
//! Parsing is deliberately forgiving about *syntax* only; every structural
//! property is delegated to [`Csr::try_from_parts`] so the diagnostics
//! here are exactly the invariants the kernels rely on (and the same
//! [`CsrInvariant`] values the debug-mode assertion hooks would raise).

use repsim_sparse::{Csr, CsrInvariant};

use crate::diagnostic::{Analyzer, Diagnostic};

/// Maps a violated invariant onto its stable code, prefixing `name`
/// (usually a file path) to the message.
pub fn invariant_diagnostic(name: &str, e: &CsrInvariant) -> Diagnostic {
    let code = match e {
        CsrInvariant::RowPtrLength { .. }
        | CsrInvariant::RowPtrStart { .. }
        | CsrInvariant::RowPtrNotMonotone { .. } => "RS0401",
        CsrInvariant::ColumnsNotSorted { .. } => "RS0402",
        CsrInvariant::ColumnOutOfBounds { .. } => "RS0403",
        CsrInvariant::NnzMismatch { .. } => "RS0404",
    };
    Diagnostic::error(code, Analyzer::Matrix, format!("{name}: {e}"))
}

/// Parses the CSR text format and validates every structural invariant.
///
/// Returns the matrix when it is sound, plus any diagnostics; a parse
/// failure yields `RS0400`, an invariant violation the matching
/// `RS0401`–`RS0404`.
pub fn check_csr_text(name: &str, text: &str) -> (Option<Csr>, Vec<Diagnostic>) {
    let syntax = |line: usize, msg: String| {
        (
            None,
            vec![Diagnostic::error(
                "RS0400",
                Analyzer::Matrix,
                format!("{name}:{line}: {msg}"),
            )],
        )
    };
    let mut shape: Option<(usize, usize)> = None;
    let mut row_ptr: Option<Vec<usize>> = None;
    let mut col_idx: Option<Vec<u32>> = None;
    let mut values: Option<Vec<f64>> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut tokens = trimmed.split_whitespace();
        let keyword = tokens.next().unwrap_or_default();
        match keyword {
            "shape" => {
                let dims: Result<Vec<usize>, _> = tokens.map(str::parse).collect();
                match dims.as_deref() {
                    Ok([r, c]) => shape = Some((*r, *c)),
                    _ => return syntax(line, "shape expects two numbers".to_owned()),
                }
            }
            "row_ptr" => match tokens.map(str::parse).collect() {
                Ok(v) => row_ptr = Some(v),
                Err(_) => return syntax(line, "row_ptr expects numbers".to_owned()),
            },
            "col_idx" => match tokens.map(str::parse).collect() {
                Ok(v) => col_idx = Some(v),
                Err(_) => return syntax(line, "col_idx expects numbers".to_owned()),
            },
            "values" => match tokens.map(str::parse).collect() {
                Ok(v) => values = Some(v),
                Err(_) => return syntax(line, "values expects numbers".to_owned()),
            },
            other => return syntax(line, format!("unknown keyword {other:?}")),
        }
    }
    let ((nrows, ncols), row_ptr, col_idx, values) = match (shape, row_ptr, col_idx, values) {
        (Some(s), Some(r), Some(c), Some(v)) => (s, r, c, v),
        _ => {
            return syntax(
                text.lines().count().max(1),
                "missing section: shape, row_ptr, col_idx and values are all required".to_owned(),
            )
        }
    };
    match Csr::try_from_parts(nrows, ncols, row_ptr, col_idx, values) {
        Ok(m) => (Some(m), Vec::new()),
        Err(e) => (None, vec![invariant_diagnostic(name, &e)]),
    }
}

/// Checks that consecutive chain factors agree in shape (`RS0405`), the
/// static precondition of every spmm chain. `factors` pairs a display name
/// with the parsed matrix.
pub fn check_chain_shapes(factors: &[(String, Csr)]) -> Vec<Diagnostic> {
    factors
        .windows(2)
        .filter(|w| w[0].1.ncols() != w[1].1.nrows())
        .map(|w| {
            Diagnostic::error(
                "RS0405",
                Analyzer::Matrix,
                format!(
                    "chain factors {:?} ({}x{}) and {:?} ({}x{}) have \
                     incompatible shapes for multiplication",
                    w[0].0,
                    w[0].1.nrows(),
                    w[0].1.ncols(),
                    w[1].0,
                    w[1].1.nrows(),
                    w[1].1.ncols(),
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOUND: &str = "# comment\nshape 2 3\nrow_ptr 0 2 3\ncol_idx 0 2 1\nvalues 1 2 3\n";

    #[test]
    fn sound_matrix_parses_clean() {
        let (m, ds) = check_csr_text("m", SOUND);
        assert!(ds.is_empty(), "{ds:?}");
        let m = m.unwrap();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (2, 3, 3));
        assert!(m.validate().is_ok());
    }

    #[test]
    fn syntax_errors_are_rs0400_with_line_numbers() {
        let (m, ds) = check_csr_text("m", "shape 2\n");
        assert!(m.is_none());
        assert_eq!(ds[0].code, "RS0400");
        assert!(ds[0].message.starts_with("m:1:"), "{}", ds[0].message);
        let (_, ds) = check_csr_text("m", "shape 2 3\nbogus 1\n");
        assert!(ds[0].message.contains("m:2:"), "{}", ds[0].message);
        let (_, ds) = check_csr_text("m", "shape 2 3\n");
        assert!(
            ds[0].message.contains("missing section"),
            "{}",
            ds[0].message
        );
    }

    #[test]
    fn each_invariant_has_its_code() {
        // Wrong row_ptr length -> RS0401.
        let (_, ds) = check_csr_text("m", "shape 2 3\nrow_ptr 0 3\ncol_idx 0 2 1\nvalues 1 2 3\n");
        assert_eq!(ds[0].code, "RS0401", "{ds:?}");
        // Unsorted columns within a row -> RS0402.
        let (_, ds) = check_csr_text(
            "m",
            "shape 2 3\nrow_ptr 0 2 3\ncol_idx 2 0 1\nvalues 1 2 3\n",
        );
        assert_eq!(ds[0].code, "RS0402", "{ds:?}");
        // Column out of bounds -> RS0403.
        let (_, ds) = check_csr_text(
            "m",
            "shape 2 3\nrow_ptr 0 2 3\ncol_idx 0 9 1\nvalues 1 2 3\n",
        );
        assert_eq!(ds[0].code, "RS0403", "{ds:?}");
        // Value/column count disagreement -> RS0404.
        let (_, ds) = check_csr_text("m", "shape 2 3\nrow_ptr 0 2 3\ncol_idx 0 2 1\nvalues 1 2\n");
        assert_eq!(ds[0].code, "RS0404", "{ds:?}");
    }

    #[test]
    fn chain_shape_mismatch_is_rs0405() {
        let a = Csr::zeros(2, 3);
        let b = Csr::zeros(3, 4);
        let c = Csr::zeros(9, 1);
        let ok = vec![("a".to_owned(), a.clone()), ("b".to_owned(), b.clone())];
        assert!(check_chain_shapes(&ok).is_empty());
        let bad = vec![
            ("a".to_owned(), a),
            ("b".to_owned(), b),
            ("c".to_owned(), c),
        ];
        let ds = check_chain_shapes(&bad);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, "RS0405");
        assert!(ds[0].message.contains("\"b\""), "{}", ds[0].message);
    }
}
