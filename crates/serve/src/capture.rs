//! Traffic capture files for record/replay (`RSIMCAP1`).
//!
//! A capture records every request a workload sent to a server —
//! arrival offset, deadline, and the raw request line — so the exact
//! mix can be replayed offline against another build, another config,
//! or the same server twice to assert bit-identical answers. The file
//! is a framed record log (`framed.rs`), like the WAL: the header word
//! is the workload seed, and each record holds `arrival_offset_us: u64
//! LE`, `deadline_ms: u64 LE` (`u64::MAX` = no deadline) and the UTF-8
//! request line (no trailing newline).
//!
//! **Recovery** ([`recover`]) repairs damage as the WAL's does. Two
//! differences are deliberate: a missing capture is an error, not an
//! empty log, and appends are not fsynced one by one.

use std::fs;
use std::path::{Path, PathBuf};

use repsim_obs::CounterHandle;

use crate::framed::{self, le_u64, Format, IoFailure, Writer};

static CAP_APPENDS: CounterHandle = CounterHandle::new("repsim.serve.capture.appends");
static CAP_REPLAYED: CounterHandle = CounterHandle::new("repsim.serve.capture.replayed");
static CAP_TORN: CounterHandle = CounterHandle::new("repsim.serve.capture.torn_truncations");
static CAP_QUARANTINED: CounterHandle = CounterHandle::new("repsim.serve.capture.quarantined");

static FORMAT: Format = Format {
    magic: b"RSIMCAP1",
    version: VERSION,
    durable: false,
    foreign_reason: "capture header invalid",
    torn_event: "repsim.serve.capture.torn_tail",
    quarantine_event: "repsim.serve.capture.quarantine",
    torn: &CAP_TORN,
    quarantined: &CAP_QUARANTINED,
    replayed: &CAP_REPLAYED,
};

/// Current capture format version.
pub const VERSION: u32 = 1;
/// Fixed header size (magic + version + workload seed).
pub const HEADER_LEN: usize = framed::HEADER_LEN;
/// Fixed payload prefix: arrival offset + deadline.
const PAYLOAD_FIXED: usize = 16;
/// `deadline_ms` wire value meaning "no deadline".
const NO_DEADLINE: u64 = u64::MAX;

/// Environment failures only; corruption inside the file is repaired
/// and reported in [`RecoveredCapture`], never an error.
#[derive(Debug)]
pub enum CaptureError {
    /// A filesystem operation failed.
    Io {
        /// The operation (`"create"`, `"append"`, `"read"`, …).
        op: &'static str,
        /// The capture path.
        path: PathBuf,
        /// The OS error.
        message: String,
    },
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::Io { op, path, message } => {
                write!(f, "capture {op} {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for CaptureError {}

impl From<IoFailure> for CaptureError {
    fn from(IoFailure { op, path, message }: IoFailure) -> CaptureError {
        CaptureError::Io { op, path, message }
    }
}

/// One recorded request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureRecord {
    /// 1-based, gap-free sequence number.
    pub seq: u64,
    /// Microseconds after the workload started that this request was
    /// issued (open-loop replay re-creates the arrival process).
    pub arrival_offset_us: u64,
    /// The request's deadline; `None` = none recorded.
    pub deadline_ms: Option<u64>,
    /// The raw request line (newline-delimited JSON, no newline).
    pub line: String,
}

/// An open, append-positioned capture.
#[derive(Debug)]
pub struct CaptureWriter {
    log: Writer,
}

/// What [`recover`] reconstructed.
#[derive(Debug)]
pub struct RecoveredCapture {
    /// The workload seed recorded in the header (0 for a quarantined
    /// foreign file).
    pub seed: u64,
    /// Every record that validated, in order.
    pub records: Vec<CaptureRecord>,
    /// A partial trailing record was truncated away.
    pub torn_truncated: bool,
    /// A corrupt suffix (or a foreign whole file) was moved aside;
    /// where it went.
    pub quarantined_to: Option<PathBuf>,
}

impl CaptureWriter {
    /// Creates a fresh capture at `path` (header only). Truncates an
    /// existing file — a capture is a recording, not a log to extend.
    pub fn create(path: &Path, seed: u64) -> Result<CaptureWriter, CaptureError> {
        Ok(CaptureWriter {
            log: Writer::create(path, &FORMAT, seed)?,
        })
    }

    /// Appends one request, returning its sequence number. Unlike the
    /// WAL there is no fsync per record — a capture is not an
    /// acknowledgment barrier; call [`CaptureWriter::finish`] to make
    /// the recording durable.
    pub fn append(
        &mut self,
        arrival_offset_us: u64,
        deadline_ms: Option<u64>,
        line: &str,
    ) -> Result<u64, CaptureError> {
        let rec = self.log.frame(|b| {
            b.extend_from_slice(&arrival_offset_us.to_le_bytes());
            b.extend_from_slice(&deadline_ms.unwrap_or(NO_DEADLINE).to_le_bytes());
            b.extend_from_slice(line.as_bytes());
        });
        let seq = self.log.append(&rec)?;
        CAP_APPENDS.add(1);
        Ok(seq)
    }

    /// The sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.log.next_seq()
    }

    /// Flushes and fsyncs the recording.
    pub fn finish(self) -> Result<(), CaptureError> {
        Ok(self.log.sync()?)
    }
}

/// Reads and validates the capture at `path`, repairing damage in
/// place: torn tails truncate, corrupt suffixes quarantine, foreign
/// files quarantine whole (leaving nothing to replay). Only I/O
/// failures are errors; a missing file is one too — replaying a
/// capture that does not exist is a caller mistake, not damage.
pub fn recover(path: &Path) -> Result<RecoveredCapture, CaptureError> {
    let mut span = repsim_obs::span("repsim.serve.capture.replay");
    let bytes = fs::read(path).map_err(framed::io_err("read", path))?;
    let scan = framed::recover(path, &bytes, &FORMAT, None, &mut span, |seq, payload| {
        let Some(text) = payload.get(PAYLOAD_FIXED..) else {
            return Err("body too short".to_owned());
        };
        let deadline = le_u64(payload, 8);
        let line = std::str::from_utf8(text).map_err(|e| format!("request not UTF-8: {e}"))?;
        Ok(CaptureRecord {
            seq,
            arrival_offset_us: le_u64(payload, 0),
            deadline_ms: (deadline != NO_DEADLINE).then_some(deadline),
            line: line.to_owned(),
        })
    })?;
    Ok(RecoveredCapture {
        seed: scan.word.unwrap_or(0),
        records: scan.records,
        torn_truncated: scan.torn_truncated,
        quarantined_to: scan.quarantined_to,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::{le_u32, RECORD_PREFIX};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repsim-cap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn lines() -> Vec<String> {
        vec![
            r#"{"id":1,"walk":"conf paper dom","label":"conf","value":"c0","k":5}"#.to_owned(),
            r#"{"id":2,"op":"mutate","action":"add_entity","label":"dom","value":"d9"}"#.to_owned(),
            r#"{"id":3,"walk":"conf paper dom","label":"conf","value":"c1","k":3}"#.to_owned(),
            r#"{"id":4,"op":"ping"}"#.to_owned(),
        ]
    }

    fn populate(path: &Path, seed: u64) {
        let mut w = CaptureWriter::create(path, seed).unwrap();
        for (i, line) in lines().iter().enumerate() {
            let deadline = (i % 2 == 0).then_some(250);
            let seq = w.append(1000 * i as u64, deadline, line).unwrap();
            assert_eq!(seq, i as u64 + 1);
        }
        w.finish().unwrap();
    }

    #[test]
    fn corrupt_suffix_is_quarantined_prefix_survives() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("t.rsimcap");
        populate(&path, 7);
        let full = fs::read(&path).unwrap();
        // Flip a byte in record 2's body: record 1 keeps, 2.. quarantines.
        let r1_body = le_u32(&full, HEADER_LEN) as usize;
        let r2_at = HEADER_LEN + RECORD_PREFIX + r1_body;
        let mut bad = full.clone();
        bad[r2_at + RECORD_PREFIX + 9] ^= 0x20;
        fs::write(&path, &bad).unwrap();

        let rec = recover(&path).unwrap();
        assert_eq!(rec.records.len(), 1, "only the intact prefix replays");
        let dest = rec.quarantined_to.expect("suffix quarantined");
        assert!(dest.exists());
        assert_eq!(fs::read(&dest).unwrap(), &bad[r2_at..]);
        assert_eq!(fs::read(&path).unwrap().len(), r2_at);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_capture_is_an_error_not_a_fresh_file() {
        let dir = tmp_dir("missing");
        let path = dir.join("nope.rsimcap");
        assert!(recover(&path).is_err());
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_request_body_quarantines() {
        let dir = tmp_dir("utf8");
        let path = dir.join("t.rsimcap");
        let mut w = CaptureWriter::create(&path, 1).unwrap();
        w.append(0, None, r#"{"op":"ping"}"#).unwrap();
        // A second record whose text bytes are invalid UTF-8 but whose
        // framing and checksum are correct.
        let rec = w.log.frame(|b| {
            b.extend_from_slice(&0u64.to_le_bytes());
            b.extend_from_slice(&NO_DEADLINE.to_le_bytes());
            b.extend_from_slice(&[0xff, 0xfe, 0x80]);
        });
        w.log.append(&rec).unwrap();
        w.finish().unwrap();

        let out = recover(&path).unwrap();
        assert_eq!(out.records.len(), 1);
        assert!(out.quarantined_to.is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
