//! Write-ahead delta log for live graph mutations.
//!
//! Every accepted mutation is appended — and fsynced — to the log
//! *before* it is acknowledged, so an acknowledged write survives any
//! crash. The file is a framed record log (`framed.rs`): magic
//! `b"RSIMWAL1"`, the base graph fingerprint as header word, and per
//! record `fp_after: u64 LE` (the graph fingerprint *after* the
//! mutation) followed by the [`MutationOp`] in its binary encoding.
//!
//! **Recovery** ([`Wal::recover`]) re-derives rather than trusts the
//! log: each mutation is re-applied to the boot graph and must land on
//! its recorded `fp_after`, or it starts a corrupt suffix. A torn tail
//! is truncated and a corrupt suffix quarantined, keeping the prefix. A
//! missing log, or one whose header names another graph, is replaced by
//! a fresh one.
//!
//! The `wal.append` failpoint fails an append before any byte is
//! written (clean typed error, log unchanged); `wal.torn_tail` writes
//! half a record and then errors, manufacturing the crash-mid-append
//! state deterministically. Both are double-gated behind
//! [`Budget::with_fault_injection`].

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use repsim_graph::mutation::{self, MutationOp};
use repsim_graph::Graph;
use repsim_sparse::budget::failpoints;
use repsim_sparse::Budget;

use repsim_obs::{CounterHandle, HistogramHandle};

use crate::framed::{self, duration_ns, le_u64, Format, IoFailure, Writer};
use crate::snapshot::graph_fingerprint;

static WAL_APPENDS: CounterHandle = CounterHandle::new("repsim.graph.wal.appends");
static WAL_BYTES: CounterHandle = CounterHandle::new("repsim.graph.wal.bytes");
static WAL_REPLAYED: CounterHandle = CounterHandle::new("repsim.graph.wal.replayed");
static WAL_TORN: CounterHandle = CounterHandle::new("repsim.graph.wal.torn_truncations");
static WAL_QUARANTINED: CounterHandle = CounterHandle::new("repsim.graph.wal.quarantined");
static WAL_APPEND_NS: HistogramHandle = HistogramHandle::new("repsim.graph.wal.append_ns");

static FORMAT: Format = Format {
    magic: b"RSIMWAL1",
    version: VERSION,
    durable: true,
    foreign_reason: "log header invalid or base fingerprint mismatch",
    torn_event: "repsim.graph.wal.torn_tail",
    quarantine_event: "repsim.graph.wal.quarantine",
    torn: &WAL_TORN,
    quarantined: &WAL_QUARANTINED,
    replayed: &WAL_REPLAYED,
};

/// Current log format version.
pub const VERSION: u32 = 1;
/// Fixed header size (magic + version + base fingerprint).
pub const HEADER_LEN: usize = framed::HEADER_LEN;

/// Errors from the log itself. Corruption found during recovery is
/// *not* an error — it is repaired (truncate/quarantine) and reported
/// in [`RecoveredLog`]; only environment failures surface here.
#[derive(Debug)]
pub enum WalError {
    /// A filesystem operation failed.
    Io {
        /// The operation (`"append"`, `"truncate"`, …).
        op: &'static str,
        /// The log path.
        path: PathBuf,
        /// The OS error.
        message: String,
    },
    /// The `wal.append` failpoint rejected the append before any byte
    /// was written; the log and the in-memory state are unchanged.
    Injected,
    /// The `wal.torn_tail` failpoint wrote a partial record and then
    /// simulated a crash; the tail will be truncated on recovery.
    InjectedTorn,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { op, path, message } => {
                write!(f, "wal {op} {}: {message}", path.display())
            }
            WalError::Injected => write!(f, "wal append rejected by failpoint"),
            WalError::InjectedTorn => write!(f, "wal append torn mid-write by failpoint"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<IoFailure> for WalError {
    fn from(IoFailure { op, path, message }: IoFailure) -> WalError {
        WalError::Io { op, path, message }
    }
}

/// One replayed log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// 1-based, gap-free sequence number.
    pub seq: u64,
    /// Graph fingerprint after the mutation applied.
    pub fp_after: u64,
    /// The mutation itself.
    pub op: MutationOp,
}

/// An open, append-positioned log.
#[derive(Debug)]
pub struct Wal {
    log: Writer,
}

/// What [`Wal::recover`] reconstructed.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The log, positioned for further appends.
    pub wal: Wal,
    /// The graph after replaying every valid record onto the boot graph.
    pub graph: Graph,
    /// Fingerprint of [`RecoveredLog::graph`].
    pub fingerprint: u64,
    /// Every record that replayed cleanly, in order.
    pub records: Vec<WalRecord>,
    /// A partial trailing record was truncated away.
    pub torn_truncated: bool,
    /// A corrupt suffix (or a foreign/corrupt whole file) was moved
    /// aside; where it went.
    pub quarantined_to: Option<PathBuf>,
}

impl Wal {
    /// Opens (or creates) the log at `path` and replays it against the
    /// boot graph `g`. Always returns a usable log: corruption is
    /// repaired in place (truncation + quarantine), never fatal. A log
    /// whose base fingerprint does not match `g` — or whose header is
    /// unreadable — belongs to some other graph and is quarantined
    /// whole; recovery then starts a fresh log.
    pub fn recover(path: &Path, g: &Graph) -> Result<RecoveredLog, WalError> {
        let mut span = repsim_obs::span("repsim.graph.wal.replay");
        let base_fp = graph_fingerprint(g);
        let mut graph = g.clone();
        let mut fingerprint = base_fp;
        // Re-derive, don't trust: each mutation must apply and land on
        // exactly the fingerprint that was acknowledged.
        let replay = |seq: u64, payload: &[u8]| {
            let Some(op_bytes) = payload.get(8..) else {
                return Err("body too short".to_owned());
            };
            let fp_after = le_u64(payload, 0);
            let (op, used) = MutationOp::decode(op_bytes)?;
            if used != op_bytes.len() {
                return Err("trailing bytes in body".to_owned());
            }
            let next = mutation::apply(&graph, &op).map_err(|e| format!("replay failed: {e}"))?;
            let fp = graph_fingerprint(&next);
            if fp != fp_after {
                return Err(format!(
                    "fingerprint diverged (log {fp_after:#018x}, replay {fp:#018x})"
                ));
            }
            graph = next;
            fingerprint = fp;
            Ok(WalRecord { seq, fp_after, op })
        };
        if !path.exists() {
            Writer::create(path, &FORMAT, base_fp)?;
        }
        let bytes = fs::read(path).map_err(framed::io_err("read", path))?;
        let scan = framed::recover(path, &bytes, &FORMAT, Some(base_fp), &mut span, replay)?;
        let log = match scan.word {
            Some(_) => Writer::reopen(path, &FORMAT, scan.records.len() as u64 + 1)?,
            // A foreign log was moved aside: start a fresh one.
            None => Writer::create(path, &FORMAT, base_fp)?,
        };
        Ok(RecoveredLog {
            wal: Wal { log },
            graph,
            fingerprint,
            records: scan.records,
            torn_truncated: scan.torn_truncated,
            quarantined_to: scan.quarantined_to,
        })
    }

    /// The sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.log.next_seq()
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Appends one mutation (durably: write + fsync) and returns its
    /// sequence number. This is the acknowledgment barrier: callers
    /// must not report a mutation as applied until this returns `Ok`.
    ///
    /// `budget` gates the `wal.append` (reject cleanly before writing)
    /// and `wal.torn_tail` (write half a record, then "crash")
    /// failpoints.
    pub fn append(
        &mut self,
        op: &MutationOp,
        fp_after: u64,
        budget: &Budget,
    ) -> Result<u64, WalError> {
        let start = Instant::now();
        let mut span = repsim_obs::span("repsim.graph.wal.append");
        if budget.injected(failpoints::WAL_APPEND) {
            return Err(WalError::Injected);
        }
        let rec = self.log.frame(|b| {
            b.extend_from_slice(&fp_after.to_le_bytes());
            op.encode_into(b);
        });
        if budget.injected(failpoints::WAL_TORN_TAIL) {
            // Crash-mid-append simulation: half the record reaches the
            // disk, the acknowledgment never happens. Recovery must
            // truncate this tail.
            self.log.write(rec.get(..rec.len() / 2).unwrap_or(&rec))?;
            return Err(WalError::InjectedTorn);
        }
        let seq = self.log.append(&rec)?;
        WAL_APPENDS.add(1);
        WAL_BYTES.add(rec.len() as u64);
        WAL_APPEND_NS.record(duration_ns(start));
        if span.is_active() {
            span.attr("seq", seq);
            span.attr("bytes", rec.len());
        }
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::{le_u32, RECORD_PREFIX};
    use repsim_graph::{GraphBuilder, NodeRef};

    fn base_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let film = b.entity_label("film");
        let actor = b.entity_label("actor");
        let f0 = b.entity(film, "f0");
        let f1 = b.entity(film, "f1");
        let a0 = b.entity(actor, "a0");
        b.edge(f0, a0).unwrap();
        b.edge(f1, a0).unwrap();
        b.build()
    }

    fn ops() -> Vec<MutationOp> {
        let actor_b = NodeRef::Entity {
            label: "actor".to_owned(),
            value: "b0".to_owned(),
        };
        let f0 = NodeRef::Entity {
            label: "film".to_owned(),
            value: "f0".to_owned(),
        };
        let f1 = NodeRef::Entity {
            label: "film".to_owned(),
            value: "f1".to_owned(),
        };
        vec![
            MutationOp::AddEntity {
                label: "actor".to_owned(),
                value: "b0".to_owned(),
            },
            MutationOp::AddEdge {
                a: f0.clone(),
                b: actor_b.clone(),
            },
            MutationOp::AddEdge { a: f1, b: actor_b },
            MutationOp::RemoveEdge {
                a: f0,
                b: NodeRef::Entity {
                    label: "actor".to_owned(),
                    value: "a0".to_owned(),
                },
            },
        ]
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repsim-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Appends every op from `ops()` to a fresh log.
    fn populate(path: &Path, g: &Graph) {
        let rec = Wal::recover(path, g).unwrap();
        let (mut wal, mut cur) = (rec.wal, rec.graph);
        for op in ops() {
            cur = mutation::apply(&cur, &op).unwrap();
            wal.append(&op, graph_fingerprint(&cur), &Budget::unlimited())
                .unwrap();
        }
    }

    #[test]
    fn corrupt_suffix_is_quarantined_prefix_survives() {
        let g = base_graph();
        let dir = tmp_dir("corrupt");
        let path = dir.join("g.wal");
        populate(&path, &g);
        let full = fs::read(&path).unwrap();
        // Flip a byte inside the second record's body: records 1 keeps,
        // 2.. quarantined. Record 1 starts at HEADER_LEN; find record 2.
        let r1_body = le_u32(&full, HEADER_LEN) as usize;
        let r2_at = HEADER_LEN + RECORD_PREFIX + r1_body;
        let mut bad = full.clone();
        bad[r2_at + RECORD_PREFIX + 3] ^= 0x40;
        fs::write(&path, &bad).unwrap();

        let rec = Wal::recover(&path, &g).unwrap();
        assert_eq!(rec.records.len(), 1, "only the intact prefix replays");
        let dest = rec.quarantined_to.expect("suffix quarantined");
        assert!(dest.exists());
        assert_eq!(fs::read(&dest).unwrap(), &bad[r2_at..]);
        assert_eq!(fs::read(&path).unwrap().len(), r2_at);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_failpoints_are_double_gated() {
        let g = base_graph();
        let dir = tmp_dir("failpoints");
        let path = dir.join("g.wal");
        let rec = Wal::recover(&path, &g).unwrap();
        let mut wal = rec.wal;
        let op = ops().remove(0);
        let next = mutation::apply(&g, &op).unwrap();
        let fp = graph_fingerprint(&next);

        let _guard = failpoints::scoped(&[failpoints::WAL_APPEND]);
        // Armed but the budget does not opt in: append succeeds.
        wal.append(&op, fp, &Budget::unlimited()).unwrap();
        let len_after_ok = fs::read(&path).unwrap().len();
        // Armed and opted in: clean rejection, not one byte written.
        let inject = Budget::unlimited().with_fault_injection();
        match wal.append(&op, fp, &inject) {
            Err(WalError::Injected) => {}
            other => panic!("expected injected rejection, got {other:?}"),
        }
        assert_eq!(fs::read(&path).unwrap().len(), len_after_ok);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_failpoint_manufactures_a_recoverable_tear() {
        let g = base_graph();
        let dir = tmp_dir("torn-fp");
        let path = dir.join("g.wal");
        let rec = Wal::recover(&path, &g).unwrap();
        let mut wal = rec.wal;
        let op = ops().remove(0);
        let next = mutation::apply(&g, &op).unwrap();
        let fp = graph_fingerprint(&next);

        {
            let _guard = failpoints::scoped(&[failpoints::WAL_TORN_TAIL]);
            let inject = Budget::unlimited().with_fault_injection();
            match wal.append(&op, fp, &inject) {
                Err(WalError::InjectedTorn) => {}
                other => panic!("expected torn append, got {other:?}"),
            }
        }
        assert!(
            fs::read(&path).unwrap().len() > HEADER_LEN,
            "partial record reached the disk"
        );
        // The unacknowledged half-record must vanish on recovery.
        let rec = Wal::recover(&path, &g).unwrap();
        assert!(rec.torn_truncated);
        assert!(rec.records.is_empty());
        assert_eq!(rec.fingerprint, graph_fingerprint(&g));
        assert_eq!(fs::read(&path).unwrap().len(), HEADER_LEN);
        let _ = fs::remove_dir_all(&dir);
    }
}
