//! Resource-governed execution: budgets, structured errors, failpoints.
//!
//! A production similarity-search service cannot let one query run an
//! unbounded SpGEMM chain: every kernel in this crate therefore accepts a
//! [`Budget`] — a wall-clock deadline, an output-size cap, and a
//! cooperative cancellation flag — and reports exhaustion through the
//! [`ExecError`] taxonomy instead of panicking. Budgets are checked at
//! row-band granularity inside the kernels (see [`crate::ops`]), so a
//! cancelled or over-deadline multiplication aborts within one band
//! sweep rather than running to completion.
//!
//! Defaults mirror the thread-budget precedence from
//! [`crate::Parallelism`]: a process-wide override installed by the CLI's
//! `--deadline-ms` / `--max-nnz` flags wins, then the `REPSIM_DEADLINE_MS`
//! / `REPSIM_MAX_NNZ` environment variables, then unlimited.
//!
//! The [`failpoints`] module is the fault-injection harness: named
//! abort sites (`spgemm-cancel`, `alloc-fail`, `deadline-now`) that are
//! zero-cost unless armed via the `REPSIM_FAILPOINTS` environment
//! variable or a scoped test guard — and even then only fire on budgets
//! that opted in with [`Budget::with_fault_injection`], so an armed
//! process still runs its unbudgeted work normally.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Errors from budgeted (fallible) execution paths.
///
/// The infallible wrappers (`spmm`, `matvec`, …) keep their historical
/// panicking behaviour by unwrapping these; the `try_*` APIs surface them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The wall-clock deadline passed before the computation finished.
    DeadlineExceeded {
        /// The configured limit in milliseconds (0 when injected by a
        /// failpoint rather than a real deadline).
        limit_ms: u64,
    },
    /// An output or intermediate would exceed the stored-entry cap.
    MemoryExceeded {
        /// Entries the computation needed to allocate.
        nnz: usize,
        /// The configured cap (0 when injected by a failpoint).
        limit: usize,
    },
    /// The cooperative cancellation flag was raised.
    Cancelled,
    /// The operands' shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// The operation name (`"spmm"`, `"matvec"`, …).
        op: &'static str,
        /// `(rows, cols)` of the left operand.
        lhs: (usize, usize),
        /// `(rows, cols)` of the right operand (vectors report `(len, 1)`).
        rhs: (usize, usize),
    },
    /// A structural precondition on the inputs (other than shape
    /// agreement) does not hold — e.g. an empty multiplication chain or
    /// a \*-label where a plain meta-walk is required.
    InvalidInput {
        /// The operation name (`"spmm_chain"`, `"commuting"`, …).
        op: &'static str,
        /// What was wrong with the input.
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DeadlineExceeded { limit_ms } => {
                write!(f, "deadline exceeded ({limit_ms} ms)")
            }
            ExecError::MemoryExceeded { nnz, limit } => {
                write!(
                    f,
                    "memory budget exceeded ({nnz} entries needed, cap {limit})"
                )
            }
            ExecError::Cancelled => write!(f, "cancelled"),
            ExecError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "{op} shape mismatch: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            ExecError::InvalidInput { op, message } => write!(f, "{op}: {message}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl ExecError {
    /// Whether the error is resource exhaustion (and a cheaper execution
    /// tier might still answer), as opposed to cancellation or misuse.
    pub fn is_exhaustion(&self) -> bool {
        matches!(
            self,
            ExecError::DeadlineExceeded { .. } | ExecError::MemoryExceeded { .. }
        )
    }
}

/// `--deadline-ms` override; 0 means "not set".
static GLOBAL_DEADLINE_MS: AtomicU64 = AtomicU64::new(0);
/// `--max-nnz` override; 0 means "not set".
static GLOBAL_MAX_NNZ: AtomicUsize = AtomicUsize::new(0);

fn env_limit<T: std::str::FromStr + PartialOrd + Default>(var: &str) -> Option<T> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<T>().ok())
        .filter(|n| *n > T::default())
}

/// A per-computation resource budget.
///
/// Cheap to clone (an `Option<Instant>`, two integers, and an optional
/// `Arc`), so callers hand copies down to worker threads freely. The
/// default is [`Budget::from_env`].
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    /// The original limit, kept for error reporting.
    deadline_ms: u64,
    max_nnz: Option<usize>,
    cancel: Option<Arc<AtomicBool>>,
    /// Whether armed [`failpoints`] may fire on this budget's checks.
    inject: bool,
}

impl Budget {
    /// No deadline, no size cap, no cancellation: checks never fail.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// The process default: CLI overrides ([`Budget::set_global_deadline_ms`]
    /// / [`Budget::set_global_max_nnz`]) first, then the `REPSIM_DEADLINE_MS`
    /// and `REPSIM_MAX_NNZ` environment variables, then unlimited.
    /// Unparsable or zero values fall through to the next source. The
    /// deadline clock starts at this call.
    pub fn from_env() -> Budget {
        static ENV_DEADLINE: OnceLock<Option<u64>> = OnceLock::new();
        static ENV_MAX_NNZ: OnceLock<Option<usize>> = OnceLock::new();
        let deadline_ms = match GLOBAL_DEADLINE_MS.load(Ordering::Relaxed) {
            0 => *ENV_DEADLINE.get_or_init(|| env_limit::<u64>("REPSIM_DEADLINE_MS")),
            n => Some(n),
        };
        let max_nnz = match GLOBAL_MAX_NNZ.load(Ordering::Relaxed) {
            0 => *ENV_MAX_NNZ.get_or_init(|| env_limit::<usize>("REPSIM_MAX_NNZ")),
            n => Some(n),
        };
        let mut b = Budget::unlimited();
        if let Some(ms) = deadline_ms {
            b = b.with_deadline_ms(ms);
        }
        if let Some(cap) = max_nnz {
            b = b.with_max_nnz(cap);
        }
        b
    }

    /// Installs a process-wide deadline override (the CLI's
    /// `--deadline-ms` flag), taking precedence over the environment.
    pub fn set_global_deadline_ms(ms: u64) {
        GLOBAL_DEADLINE_MS.store(ms, Ordering::Relaxed);
    }

    /// Installs a process-wide output-size cap override (the CLI's
    /// `--max-nnz` flag), taking precedence over the environment.
    pub fn set_global_max_nnz(cap: usize) {
        GLOBAL_MAX_NNZ.store(cap, Ordering::Relaxed);
    }

    /// Caps wall-clock time at `ms` milliseconds from now.
    pub fn with_deadline_ms(mut self, ms: u64) -> Budget {
        self.deadline = Some(Instant::now() + Duration::from_millis(ms));
        self.deadline_ms = ms;
        self
    }

    /// Caps any single allocation of output/intermediate entries at `cap`.
    pub fn with_max_nnz(mut self, cap: usize) -> Budget {
        self.max_nnz = Some(cap);
        self
    }

    /// Attaches a cooperative cancellation flag; raising it makes the next
    /// check fail with [`ExecError::Cancelled`].
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Budget {
        self.cancel = Some(flag);
        self
    }

    /// Opts this budget into armed [`failpoints`]. Fault injection never
    /// fires on budgets that did not opt in, so arming a whole process
    /// (`REPSIM_FAILPOINTS=…`) only perturbs computations that asked.
    pub fn with_fault_injection(mut self) -> Budget {
        self.inject = true;
        self
    }

    /// A copy with fault injection disabled — used by degradation tiers so
    /// the harness can force the *primary* path to fail while the
    /// fallback path runs for real.
    pub fn without_fault_injection(&self) -> Budget {
        let mut b = self.clone();
        b.inject = false;
        b
    }

    /// Whether no limit, flag, or injection is attached (checks are
    /// then constant and can never fail).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_nnz.is_none() && self.cancel.is_none() && !self.inject
    }

    /// The stored-entry cap, if any.
    pub fn max_nnz(&self) -> Option<usize> {
        self.max_nnz
    }

    /// Time left before the deadline (None when no deadline is set).
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the cancellation flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Whether the named failpoint should fire for this budget. A firing
    /// failpoint is reported to the trace stream
    /// (`repsim.sparse.failpoint`) so fault-injection runs show *where*
    /// the fault was injected.
    pub fn injected(&self, point: &str) -> bool {
        let fires = self.inject && failpoints::armed(point);
        if fires && repsim_obs::enabled() {
            repsim_obs::point(
                "repsim.sparse.failpoint",
                repsim_obs::Level::Warn,
                point.to_owned(),
            );
        }
        fires
    }

    /// Reports a failed budget check to the trace stream
    /// (`repsim.sparse.budget.trip`), so traces show where execution was
    /// cut short.
    fn trip(e: ExecError) -> ExecError {
        if repsim_obs::enabled() {
            repsim_obs::point(
                "repsim.sparse.budget.trip",
                repsim_obs::Level::Warn,
                e.to_string(),
            );
        }
        e
    }

    /// The cancellation/deadline check, called at row-band granularity
    /// inside the kernels. The `deadline-now` failpoint forces expiry here.
    /// Failures are reported to the trace stream as
    /// `repsim.sparse.budget.trip` point events.
    pub fn check(&self) -> Result<(), ExecError> {
        if self.injected(failpoints::DEADLINE_NOW) {
            return Err(Self::trip(ExecError::DeadlineExceeded {
                limit_ms: self.deadline_ms,
            }));
        }
        if self.is_cancelled() {
            return Err(Self::trip(ExecError::Cancelled));
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Self::trip(ExecError::DeadlineExceeded {
                    limit_ms: self.deadline_ms,
                }));
            }
        }
        Ok(())
    }

    /// The allocation check, called before sizing output arrays. The
    /// `alloc-fail` failpoint forces failure here. Failures are reported
    /// to the trace stream as `repsim.sparse.budget.trip` point events.
    pub fn check_alloc(&self, nnz: usize) -> Result<(), ExecError> {
        if self.injected(failpoints::ALLOC_FAIL) {
            return Err(Self::trip(ExecError::MemoryExceeded { nnz, limit: 0 }));
        }
        match self.max_nnz {
            Some(cap) if nnz > cap => {
                Err(Self::trip(ExecError::MemoryExceeded { nnz, limit: cap }))
            }
            _ => Ok(()),
        }
    }
}

/// Named abort sites for fault injection.
///
/// A failpoint fires when (a) it is *armed* — listed in the
/// `REPSIM_FAILPOINTS` environment variable (comma-separated) or in a live
/// [`scoped`] guard — and (b) the executing [`Budget`] opted in with
/// [`Budget::with_fault_injection`]. The un-armed fast path is one relaxed
/// atomic load.
pub mod failpoints {
    use super::*;

    /// Forces [`ExecError::Cancelled`] at the start of every SpGEMM band
    /// and between chain joins.
    pub const SPGEMM_CANCEL: &str = "spgemm-cancel";
    /// Forces [`ExecError::Cancelled`] at the first in-band checkpoint of
    /// the SpGEMM *numeric* phase — after the symbolic pass has sized the
    /// output and accumulator tiles are in flight — exercising the
    /// mid-tile abort path (no partial matrix, no poisoned caches).
    pub const SPGEMM_NUMERIC_CANCEL: &str = "spgemm-numeric-cancel";
    /// Forces [`ExecError::MemoryExceeded`] where SpGEMM sizes its output.
    pub const ALLOC_FAIL: &str = "alloc-fail";
    /// Forces [`ExecError::DeadlineExceeded`] at the next budget check.
    pub const DEADLINE_NOW: &str = "deadline-now";
    /// Makes snapshot persistence fail mid-write (after the temp file has
    /// partial contents, before the atomic rename), exercising the
    /// crash-during-save recovery path in `repsim-serve`.
    pub const SNAPSHOT_WRITE: &str = "snapshot.write";
    /// Makes snapshot persistence flip a byte in the payload before the
    /// checksum is stamped, so the next load sees a checksum mismatch and
    /// must quarantine-and-rebuild.
    pub const SNAPSHOT_CORRUPT: &str = "snapshot.corrupt";
    /// Stalls a serve worker mid-request, backing up the bounded queue so
    /// admission control (shedding, breaker) can be driven in tests.
    pub const SERVE_SLOW_WORKER: &str = "serve.slow_worker";
    /// Makes a write-ahead-log append fail before any bytes reach the
    /// file: the mutation is rejected cleanly and the log is unchanged.
    pub const WAL_APPEND: &str = "wal.append";
    /// Makes a write-ahead-log append write only a prefix of the record
    /// and then fail, simulating a crash mid-append; recovery must detect
    /// the torn tail and truncate it.
    pub const WAL_TORN_TAIL: &str = "wal.torn_tail";

    /// 0 = uninitialized, 1 = known off, 2 = possibly armed.
    static STATE: AtomicU8 = AtomicU8::new(0);
    static SCOPED: Mutex<Vec<String>> = Mutex::new(Vec::new());
    /// Serializes tests that arm failpoints programmatically.
    static SCOPE_LOCK: Mutex<()> = Mutex::new(());

    fn env_points() -> &'static Vec<String> {
        static POINTS: OnceLock<Vec<String>> = OnceLock::new();
        POINTS.get_or_init(|| {
            std::env::var("REPSIM_FAILPOINTS")
                .map(|v| {
                    v.split(',')
                        .map(str::trim)
                        .filter(|p| !p.is_empty())
                        .map(str::to_owned)
                        .collect()
                })
                .unwrap_or_default()
        })
    }

    fn lock_scoped() -> MutexGuard<'static, Vec<String>> {
        SCOPED.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the named failpoint is currently armed (by environment or a
    /// live scoped guard). Zero-cost when nothing was ever armed.
    pub fn armed(point: &str) -> bool {
        match STATE.load(Ordering::Relaxed) {
            1 => false,
            2 => {
                env_points().iter().any(|p| p == point) || lock_scoped().iter().any(|p| p == point)
            }
            _ => {
                let armed_env = !env_points().is_empty();
                STATE.store(if armed_env { 2 } else { 1 }, Ordering::Relaxed);
                armed_env && env_points().iter().any(|p| p == point)
            }
        }
    }

    /// Whether any failpoint is armed via the environment.
    pub fn env_armed() -> bool {
        !env_points().is_empty()
    }

    /// Arms `points` until the returned guard drops. Guards serialize on a
    /// global lock so concurrently running tests cannot interleave
    /// injections; the armed set reverts (to the environment set, if any)
    /// on drop.
    pub fn scoped(points: &[&str]) -> ScopedFailpoints {
        let lock = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        *lock_scoped() = points.iter().map(|p| (*p).to_owned()).collect();
        STATE.store(2, Ordering::Relaxed);
        ScopedFailpoints { _lock: lock }
    }

    /// RAII guard from [`scoped`]; disarms its failpoints on drop.
    pub struct ScopedFailpoints {
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for ScopedFailpoints {
        fn drop(&mut self) {
            lock_scoped().clear();
            STATE.store(if env_armed() { 2 } else { 1 }, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check().is_ok());
        assert!(b.check_alloc(usize::MAX).is_ok());
    }

    #[test]
    fn expired_deadline_fails_check() {
        let b = Budget::unlimited().with_deadline_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.check(), Err(ExecError::DeadlineExceeded { limit_ms: 0 }));
        let generous = Budget::unlimited().with_deadline_ms(60_000);
        assert!(generous.check().is_ok());
        assert!(generous.remaining_time().unwrap() > Duration::from_secs(1));
    }

    #[test]
    fn nnz_cap_fails_alloc_check() {
        let b = Budget::unlimited().with_max_nnz(10);
        assert!(b.check_alloc(10).is_ok());
        assert_eq!(
            b.check_alloc(11),
            Err(ExecError::MemoryExceeded { nnz: 11, limit: 10 })
        );
    }

    #[test]
    fn cancellation_flag_is_cooperative() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited().with_cancel(flag.clone());
        assert!(b.check().is_ok());
        flag.store(true, Ordering::Relaxed);
        assert_eq!(b.check(), Err(ExecError::Cancelled));
        assert!(b.is_cancelled());
    }

    #[test]
    fn scoped_failpoints_fire_only_on_injectable_budgets() {
        let plain = Budget::unlimited();
        let inject = Budget::unlimited().with_fault_injection();
        {
            let _guard = failpoints::scoped(&[failpoints::DEADLINE_NOW, failpoints::ALLOC_FAIL]);
            assert!(plain.check().is_ok(), "non-injectable budgets are immune");
            assert!(matches!(
                inject.check(),
                Err(ExecError::DeadlineExceeded { .. })
            ));
            assert!(matches!(
                inject.check_alloc(1),
                Err(ExecError::MemoryExceeded { .. })
            ));
            assert!(inject.injected(failpoints::ALLOC_FAIL));
        }
        // Disarmed on drop (unless the environment armed them for the
        // whole process — the CI fault-injection job does exactly that).
        if !failpoints::env_armed() {
            assert!(inject.check().is_ok());
            assert!(inject.check_alloc(1).is_ok());
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(
            ExecError::DeadlineExceeded { limit_ms: 50 }.to_string(),
            "deadline exceeded (50 ms)"
        );
        assert_eq!(
            ExecError::MemoryExceeded { nnz: 12, limit: 10 }.to_string(),
            "memory budget exceeded (12 entries needed, cap 10)"
        );
        assert_eq!(ExecError::Cancelled.to_string(), "cancelled");
        let s = ExecError::ShapeMismatch {
            op: "spmm",
            lhs: (2, 3),
            rhs: (4, 5),
        }
        .to_string();
        assert_eq!(s, "spmm shape mismatch: 2x3 vs 4x5");
        assert!(!ExecError::Cancelled.is_exhaustion());
        assert!(ExecError::DeadlineExceeded { limit_ms: 1 }.is_exhaustion());
    }
}
