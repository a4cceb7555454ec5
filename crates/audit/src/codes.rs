//! The single registry of stable diagnostic codes.
//!
//! Every `RS####` (data/plan analyzers, `repsim-check`) and `RA####`
//! (source auditor, this crate) code ships here exactly once. Codes are
//! never reused for a different meaning: a withdrawn code is marked
//! [`Status::Retired`] and its number stays burned. The `RA03xx` rules
//! enforce the contract mechanically — an unregistered code in source is
//! `RA0301`, a registered-but-never-used active code is `RA0302`, a
//! duplicate registry entry is `RA0303`, and resurrecting a retired code
//! is `RA0304`.

/// Whether a code is live or permanently withdrawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// In active use; must appear in workspace sources.
    Active,
    /// Withdrawn; the number is burned and must not reappear in source.
    Retired,
}

/// One registry entry.
#[derive(Clone, Copy, Debug)]
pub struct CodeSpec {
    /// The stable code, e.g. `"RS0101"`.
    pub code: &'static str,
    /// Live or burned.
    pub status: Status,
    /// One-line meaning (mirrored in DESIGN.md's tables).
    pub description: &'static str,
}

const fn active(code: &'static str, description: &'static str) -> CodeSpec {
    CodeSpec {
        code,
        status: Status::Active,
        description,
    }
}

const fn retired(code: &'static str, description: &'static str) -> CodeSpec {
    CodeSpec {
        code,
        status: Status::Retired,
        description,
    }
}

/// Every shipped diagnostic code, in numeric order per family.
pub const REGISTRY: &[CodeSpec] = &[
    // RS01xx — §2.2 model-assumption lints (repsim-check::model).
    active("RS0101", "dangling relationship node (degree < 2)"),
    active(
        "RS0102",
        "relationship region touching < 2 distinct entities",
    ),
    active("RS0103", "isolated entity (degree 0)"),
    // RS02xx — meta-walk / plan checks (repsim-check::plan).
    active("RS0201", "meta-walk text malformed"),
    active(
        "RS0202",
        "consecutive labels never adjacent; no instances by construction",
    ),
    active(
        "RS0203",
        "well-formed walk denotes no informative instance (Def 4)",
    ),
    active(
        "RS0204",
        "adjacent entity labels repeat; Thm 4.2 hypothesis fails",
    ),
    active("RS0205", "asymmetric walk under a symmetry-assuming scorer"),
    // RS03xx — functional-dependency chain preconditions (Defs 8/9).
    active("RS0301", "asserted FD witness walk fails Definition 8"),
    active(
        "RS0302",
        "two labels functionally determine each other (cyclic order)",
    ),
    active(
        "RS0303",
        "FD component not totally ordered; no Definition 9 chain",
    ),
    active("RS0304", "FD witness walk contains a *-label"),
    // RS04xx — CSR structural invariants (repsim-check::matrix).
    active("RS0400", "matrix file unparseable"),
    active("RS0401", "row_ptr malformed (length, start, monotonicity)"),
    active("RS0402", "columns within a row unsorted or duplicated"),
    active("RS0403", "column index out of bounds"),
    active(
        "RS0404",
        "row_ptr end, column count and value count disagree",
    ),
    active(
        "RS0405",
        "consecutive chain factors have incompatible shapes",
    ),
    retired(
        "RS0406",
        "compact record row_ptr malformed or part lengths disagree",
    ),
    retired(
        "RS0407",
        "compact record column deltas decode out of bounds",
    ),
    retired(
        "RS0408",
        "compact record shape ineligible for u16/u32 narrowing",
    ),
    // RS05xx — transformation applicability (repsim-check::transform).
    active(
        "RS0501",
        "transformation unknown or not applicable to this database",
    ),
    active("RS0502", "round trip through the inverse loses information"),
    active("RS0503", "transformation is not query preserving"),
    // RS06xx — mutation pre-flight (repsim-check::mutate).
    active(
        "RS0601",
        "mutate request malformed (missing/mistyped required field)",
    ),
    active("RS0602", "node reference text form invalid"),
    active("RS0603", "node reference does not resolve in the graph"),
    active("RS0604", "mutation precondition fails against the graph"),
    active(
        "RS0605",
        "unknown field in a mutate request (likely misnamed)",
    ),
    // RA00xx — reserved.
    retired(
        "RA0000",
        "reserved: registry self-test placeholder, never shipped",
    ),
    // RA01xx — budget coverage in kernel loops (repsim-audit).
    active(
        "RA0101",
        "loop in a budget-accepting kernel function never polls the budget",
    ),
    active("RA0102", "audit:allow directive suppresses nothing (stale)"),
    // RA02xx — observability-name consistency.
    active(
        "RA0201",
        "trace-schema pinned name missing from workspace sources",
    ),
    active(
        "RA0202",
        "observability name literal is malformed (not repsim.-namespaced)",
    ),
    active("RA0203", "metric handle name registered more than once"),
    active(
        "RA0204",
        "name in a pinned live-ops family is not pinned in the trace schema",
    ),
    // RA03xx — diagnostic-code registry consistency.
    active(
        "RA0301",
        "diagnostic code used in source but not registered",
    ),
    active("RA0302", "active registered code never used in source"),
    active("RA0303", "diagnostic code registered more than once"),
    active("RA0304", "retired diagnostic code used in source"),
    // RA04xx — protocol/WAL variant exhaustiveness.
    active(
        "RA0401",
        "enum variant not referenced in a required handler file",
    ),
    active(
        "RA0402",
        "audited enum definition or required handler file not found",
    ),
    // RA05xx — lock-order discipline in the serve layer.
    active(
        "RA0501",
        "lock acquired out of declared order (or while holding a leaf lock)",
    ),
    active(
        "RA0502",
        "lock-typed field not covered by the declared lock order",
    ),
];

/// Looks up one code.
pub fn spec(code: &str) -> Option<&'static CodeSpec> {
    REGISTRY.iter().find(|s| s.code == code)
}

/// Whether `s` has the shape of a diagnostic code (`RS`/`RA` + 4 digits).
pub fn is_code_shaped(s: &str) -> bool {
    s.len() == 6
        && (s.starts_with("RS") || s.starts_with("RA"))
        && s[2..].bytes().all(|b| b.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_duplicate_free_and_code_shaped() {
        for (i, a) in REGISTRY.iter().enumerate() {
            assert!(is_code_shaped(a.code), "{} is not code-shaped", a.code);
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.code, b.code, "duplicate registry entry");
            }
        }
    }

    #[test]
    fn shape_check_rejects_near_misses() {
        assert!(is_code_shaped("RS0101"));
        assert!(is_code_shaped("RA0501"));
        assert!(!is_code_shaped("RX0101"));
        assert!(!is_code_shaped("RS101"));
        assert!(!is_code_shaped("RS01011"));
        assert!(!is_code_shaped("RS01x1"));
    }
}
