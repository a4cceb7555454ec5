//! `RA05xx` — lock-order discipline in the serve layer.
//!
//! The serve layer holds up to three locks at once on the mutation path.
//! Deadlock freedom rests on one global acquisition order, declared in
//! [`crate::SERVE_LOCK_ORDER`] and checked here lexically:
//!
//! ```text
//! state(10) < wal(20) < epoch(40)                 service-level locks
//! queue.inner, breaker.rank, breaker.mutate, coord.idle = leaf (1000)
//! ```
//!
//! A *leaf* lock is terminal: nothing may be acquired while holding
//! one. The rule simulates each function's guard lifetimes over the
//! token stream — `let`-bound guards live to `drop(guard)` or the end
//! of their block; a guard that is never bound (a statement temporary
//! like `self.state_lock().cache.len()`) dies at the next `;`/`,` —
//! and flags:
//!
//! * `RA0501` — acquiring a lock whose rank is below one already held,
//!   re-acquiring a lock already held (self-deadlock), or acquiring
//!   anything while holding a leaf;
//! * `RA0502` — a `Mutex`/`RwLock`/`Condvar` field declared in an
//!   audited file but absent from the declared order (the order rotted).
//!
//! Wrapper methods (`self.state_lock()`, `self.epoch_snapshot()`,
//! `self.lock()`) are mapped to the lock they acquire via per-file
//! configuration; a wrapper marked `transient` releases its guard
//! before returning (e.g. `epoch_snapshot` returns a clone) and only
//! participates in the order check at the acquisition instant.
//!
//! The check is per-function and lexical: alternative `match` arms look
//! sequential, and closures are treated as running inline. Both
//! approximations are conservative for the current code; a justified
//! exception takes `// audit:allow(RA0501, reason)`.

use repsim_check::{Analyzer, Diagnostic};

use super::{body_after, fn_params, path_matches, AllowTracker, Source};
use crate::lexer::{Tok, TokKind};

/// Ranks at or above this are leaf locks: terminal acquisitions.
pub const LEAF_RANK: u32 = 1000;

/// A wrapper method that acquires a known lock.
pub struct Wrapper {
    /// Method name as called on `self`.
    pub method: &'static str,
    /// The lock it acquires (for messages and re-entrancy checks).
    pub lock: &'static str,
    /// Its rank in the global order.
    pub rank: u32,
    /// Whether the guard is released before the wrapper returns.
    pub transient: bool,
}

/// Per-file lock-order configuration.
pub struct LockOrderConfig {
    /// File (path suffix) this entry audits.
    pub file: &'static str,
    /// `(field name, rank)` for every lock field declared in the file.
    pub ranks: &'static [(&'static str, u32)],
    /// Wrapper methods callable as `self.<method>(…)`.
    pub wrappers: &'static [Wrapper],
}

/// Lock-typed field declarations audited by `RA0502`.
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Runs `RA0501`/`RA0502` over every configured file present in
/// `sources`.
pub fn check(
    sources: &[Source],
    configs: &[LockOrderConfig],
    allows: &mut AllowTracker,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for cfg in configs {
        for src in sources {
            if !path_matches(&src.path, cfg.file) {
                continue;
            }
            check_declared_fields(src, cfg, allows, &mut out);
            scan_fns(
                src,
                &src.lexed.tokens,
                0,
                src.lexed.tokens.len(),
                cfg,
                allows,
                &mut out,
            );
        }
    }
    out
}

/// `RA0502`: every `field: Mutex<…>` / `RwLock<…>` / `Condvar` in the
/// file must appear in the declared order. Struct-literal initializers
/// (`epoch: RwLock::new(..)`) are skipped by requiring the type name to
/// be followed by `<`, `,` or `}` — a declaration, not a path.
fn check_declared_fields(
    src: &Source,
    cfg: &LockOrderConfig,
    allows: &mut AllowTracker,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &src.lexed.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        let [f, colon, ty, after] = [&toks[i], &toks[i + 1], &toks[i + 2], &toks[i + 3]];
        let is_decl = f.kind == TokKind::Ident
            && colon.is_punct(':')
            && ty.kind == TokKind::Ident
            && LOCK_TYPES.contains(&ty.text.as_str())
            && (after.is_punct('<') || after.is_punct(',') || after.is_punct('}'));
        if !is_decl || cfg.ranks.iter().any(|(n, _)| *n == f.text) {
            continue;
        }
        if !allows.suppressed(src, "RA0502", f.line) {
            out.push(Diagnostic::error(
                "RA0502",
                Analyzer::Audit,
                format!(
                    "{}:{}: lock-typed field `{}: {}` is not covered by the \
                     declared lock order — extend SERVE_LOCK_ORDER or justify",
                    src.path, f.line, f.text, ty.text
                ),
            ));
        }
    }
}

/// Finds every `fn` body in `tokens[start..end]` and simulates it.
fn scan_fns(
    src: &Source,
    tokens: &[Tok],
    start: usize,
    end: usize,
    cfg: &LockOrderConfig,
    allows: &mut AllowTracker,
    out: &mut Vec<Diagnostic>,
) {
    let mut i = start;
    while i < end {
        if tokens[i].is_ident("fn") {
            if let Some((_, pclose)) = fn_params(tokens, i) {
                if let Some((bopen, bclose)) = body_after(tokens, pclose) {
                    let bclose = bclose.min(end);
                    simulate(src, tokens, bopen, bclose, cfg, allows, out);
                    scan_fns(src, tokens, bopen + 1, bclose, cfg, allows, out);
                    i = bclose + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// One lock currently held at a simulation point.
struct Held {
    lock: String,
    rank: u32,
    var: Option<String>,
    depth: u32,
    transient: bool,
}

/// Simulates guard lifetimes through one function body
/// (`tokens[bopen..=bclose]`, braces included). Nested `fn` items are
/// skipped — they run in their own frame and are simulated separately
/// by [`scan_fns`].
fn simulate(
    src: &Source,
    tokens: &[Tok],
    bopen: usize,
    bclose: usize,
    cfg: &LockOrderConfig,
    allows: &mut AllowTracker,
    out: &mut Vec<Diagnostic>,
) {
    let mut held: Vec<Held> = Vec::new();
    let mut depth: u32 = 0;
    let mut pending_let: Option<String> = None;
    let mut i = bopen;
    while i <= bclose && i < tokens.len() {
        let t = &tokens[i];
        if t.is_ident("fn") && i > bopen {
            if let Some((_, pclose)) = fn_params(tokens, i) {
                if let Some((_, nested_close)) = body_after(tokens, pclose) {
                    i = nested_close + 1;
                    continue;
                }
            }
        }
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            held.retain(|h| h.depth <= depth);
        } else if t.is_punct(';') || t.is_punct(',') {
            held.retain(|h| !h.transient);
            if t.is_punct(';') {
                pending_let = None;
            }
        } else if t.is_ident("let") {
            let mut j = i + 1;
            while tokens.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            pending_let = tokens
                .get(j)
                .filter(|n| n.kind == TokKind::Ident)
                .map(|n| n.text.clone());
        } else if t.is_ident("drop")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(name) = tokens.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                held.retain(|h| h.var.as_deref() != Some(name.text.as_str()));
            }
        } else if t.is_ident("self") && tokens.get(i + 1).is_some_and(|n| n.is_punct('.')) {
            // Pattern A: `self.<field>.<lock|read|write>(` on a ranked field.
            let field = tokens.get(i + 2);
            let dot2 = tokens.get(i + 3);
            let method = tokens.get(i + 4);
            let open = tokens.get(i + 5);
            let direct =
                field
                    .filter(|f| f.kind == TokKind::Ident)
                    .zip(dot2.filter(|d| d.is_punct('.')))
                    .zip(method.filter(|m| {
                        m.is_ident("lock") || m.is_ident("read") || m.is_ident("write")
                    }))
                    .zip(open.filter(|o| o.is_punct('(')))
                    .and_then(|(((f, _), _), _)| {
                        cfg.ranks
                            .iter()
                            .find(|(n, _)| *n == f.text)
                            .map(|(n, r)| (*n, *r, false))
                    });
            // Pattern B: `self.<wrapper>(`.
            let wrapped = field
                .filter(|f| f.kind == TokKind::Ident)
                .zip(dot2.filter(|d| d.is_punct('(')))
                .and_then(|(f, _)| cfg.wrappers.iter().find(|w| w.method == f.text))
                .map(|w| (w.lock, w.rank, w.transient));
            if let Some((lock, rank, callee_releases)) = direct.or(wrapped) {
                acquire(
                    src,
                    t.line,
                    lock,
                    rank,
                    callee_releases,
                    depth,
                    &mut pending_let,
                    &mut held,
                    allows,
                    out,
                );
            }
        }
        i += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn acquire(
    src: &Source,
    line: u32,
    lock: &str,
    rank: u32,
    callee_releases: bool,
    depth: u32,
    pending_let: &mut Option<String>,
    held: &mut Vec<Held>,
    allows: &mut AllowTracker,
    out: &mut Vec<Diagnostic>,
) {
    for h in held.iter() {
        let problem = if h.lock == lock {
            Some(format!(
                "re-acquires `{lock}` while already holding it (self-deadlock)"
            ))
        } else if h.rank >= LEAF_RANK {
            Some(format!(
                "acquires `{lock}` while holding leaf lock `{}` — leaves are terminal",
                h.lock
            ))
        } else if rank < h.rank {
            Some(format!(
                "acquires `{lock}` (rank {rank}) while holding `{}` (rank {}) — \
                 violates the declared order",
                h.lock, h.rank
            ))
        } else {
            None
        };
        if let Some(problem) = problem {
            if !allows.suppressed(src, "RA0501", line) {
                out.push(Diagnostic::error(
                    "RA0501",
                    Analyzer::Audit,
                    format!("{}:{}: {problem}", src.path, line),
                ));
            }
        }
    }
    if callee_releases {
        return; // order checked; the wrapper drops its guard internally
    }
    let var = pending_let.take();
    held.push(Held {
        lock: lock.to_owned(),
        rank,
        transient: var.is_none(),
        var,
        depth,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "crates/serve/src/service.rs";

    fn cfg() -> LockOrderConfig {
        LockOrderConfig {
            file: FILE,
            ranks: &[
                ("state", 10),
                ("wal", 20),
                ("seeds", 30),
                ("epoch", 40),
                ("inner", 1000),
            ],
            wrappers: &[
                Wrapper {
                    method: "state_lock",
                    lock: "state",
                    rank: 10,
                    transient: false,
                },
                Wrapper {
                    method: "epoch_snapshot",
                    lock: "epoch",
                    rank: 40,
                    transient: true,
                },
            ],
        }
    }

    fn run(text: &str) -> Vec<Diagnostic> {
        let src = Source::new(FILE, text);
        let mut allows = AllowTracker::default();
        check(&[src], &[cfg()], &mut allows)
    }

    #[test]
    fn in_order_acquisition_passes() {
        let ds = run("fn f(&self) {
                let st = self.state_lock();
                let mut wal = self.wal.lock().unwrap();
                let mut ep = self.epoch.write().unwrap();
            }");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn out_of_order_acquisition_is_ra0501() {
        let ds = run("fn f(&self) {
                let mut ep = self.epoch.write().unwrap();
                let st = self.state_lock();
            }");
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "RA0501");
        assert!(
            ds[0].message.contains("declared order"),
            "{}",
            ds[0].message
        );
    }

    #[test]
    fn reacquisition_is_ra0501() {
        let ds =
            run("fn f(&self) { let a = self.state_lock(); let b = self.state.lock().unwrap(); }");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("self-deadlock"));
    }

    #[test]
    fn acquiring_over_a_leaf_is_ra0501() {
        let ds =
            run("fn f(&self) { let g = self.inner.lock().unwrap(); let st = self.state_lock(); }");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("leaf"));
    }

    #[test]
    fn block_scoping_releases_guards() {
        let ds = run("fn f(&self) {
                { let mut ep = self.epoch.write().unwrap(); }
                let st = self.state_lock();
            }");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn drop_releases_guards() {
        let ds = run("fn f(&self) {
                let mut ep = self.epoch.write().unwrap();
                drop(ep);
                let st = self.state_lock();
            }");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn statement_temporaries_die_at_statement_end() {
        let ds = run("fn f(&self) {
                self.epoch.read().unwrap().touch();
                let st = self.state_lock();
            }");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn let_bound_guards_persist_across_statements() {
        let ds = run("fn f(&self) {
                let g = self.epoch.read().unwrap();
                let st = self.state_lock();
            }");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, "RA0501");
    }

    #[test]
    fn transient_wrapper_checks_order_but_does_not_hold() {
        // epoch_snapshot under the state lock is legal (40 > 10) and the
        // wal acquisition after it must not see epoch as held.
        let ds = run("fn f(&self) {
                let st = self.state_lock();
                let epoch = self.epoch_snapshot();
                let mut wal = self.wal.lock().unwrap();
            }");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn transient_wrapper_still_participates_in_the_order_check() {
        let ds = run(
            "fn f(&self) { let g = self.inner.lock().unwrap(); let e = self.epoch_snapshot(); }",
        );
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("leaf"));
    }

    #[test]
    fn undeclared_lock_field_is_ra0502() {
        let ds = run("struct S { state: Mutex<u32>, rogue: Mutex<bool>, notify2: Condvar }");
        assert_eq!(ds.len(), 2, "{ds:?}");
        assert!(ds.iter().all(|d| d.code == "RA0502"));
        assert!(ds[0].message.contains("rogue"));
        assert!(ds[1].message.contains("notify2"));
    }

    #[test]
    fn struct_literal_initializers_are_not_declarations() {
        let ds = run("fn f() { let s = S { state: Mutex::new(0), epoch: RwLock::new(1) }; }");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn allow_suppresses_ra0501() {
        let ds = run("fn f(&self) {
                let mut ep = self.epoch.write().unwrap();
                // audit:allow(RA0501, single-threaded recovery path)
                let st = self.state_lock();
            }");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn unconfigured_files_are_ignored() {
        let src = Source::new(
            "crates/other/src/lib.rs",
            "fn f(&self) { let e = self.epoch.write().unwrap(); let s = self.state_lock(); }",
        );
        let mut allows = AllowTracker::default();
        assert!(check(&[src], &[cfg()], &mut allows).is_empty());
    }
}
