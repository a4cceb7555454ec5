//! The checksummed framed record log behind the WAL ([`crate::wal`]) and
//! the traffic capture ([`crate::capture`]).
//!
//! Both files share one layout; only the magic and the meaning of the
//! header word and of each record's payload differ:
//!
//! ```text
//! offset  size  field
//! 0       8     magic
//! 8       4     version (u32 LE)
//! 12      8     header word (u64 LE)
//! 20      …     records, back to back
//! ```
//!
//! Each record is `len: u32 LE` (body length), `checksum: u64 LE`
//! (FNV-1a over the body), then the body: `seq: u64 LE` (1-based,
//! gap-free) followed by the codec's payload.
//!
//! [`recover`] hands each payload to the codec's decoder and repairs
//! damage in place, with a Warn event and a counter tick each time. A
//! **torn tail** (the file ends mid-record, the classic
//! crash-during-append) was never acknowledged and is truncated. A
//! **corrupt suffix** (checksum, sequence or decode failure) is moved
//! aside through the bounded [`crate::quarantine`] rotation, then
//! truncated; every record before it is kept. A file whose header is
//! not the codec's is quarantined whole.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use repsim_obs::{CounterHandle, SpanGuard};
use repsim_sparse::checksum;

/// Fixed header size (magic + version + header word).
pub(crate) const HEADER_LEN: usize = 20;
/// Per-record prefix: body length (u32) + body checksum (u64).
pub(crate) const RECORD_PREFIX: usize = 12;

/// One codec's format table: its header, whether every write is
/// fsynced before it returns (`durable`), the reason logged for a
/// whole-file quarantine, and its damage event and counter names.
pub(crate) struct Format {
    pub magic: &'static [u8; 8],
    pub version: u32,
    pub durable: bool,
    pub foreign_reason: &'static str,
    pub torn_event: &'static str,
    pub quarantine_event: &'static str,
    pub torn: &'static CounterHandle,
    pub quarantined: &'static CounterHandle,
    pub replayed: &'static CounterHandle,
}

/// A failed filesystem operation (`op` is `"create"`, `"append"`,
/// `"truncate"`, …); each codec's error type converts it.
#[derive(Debug)]
pub(crate) struct IoFailure {
    pub op: &'static str,
    pub path: PathBuf,
    pub message: String,
}

pub(crate) fn io_err<'a>(
    op: &'static str,
    path: &'a Path,
) -> impl FnOnce(std::io::Error) -> IoFailure + 'a {
    move |e| IoFailure {
        op,
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// The little-endian `u32` at `at`, or 0 past the end of `b`.
pub(crate) fn le_u32(b: &[u8], at: usize) -> u32 {
    b.get(at..at + 4)
        .and_then(|s| s.try_into().ok())
        .map_or(0, u32::from_le_bytes)
}

/// The little-endian `u64` at `at`, or 0 past the end of `b`.
pub(crate) fn le_u64(b: &[u8], at: usize) -> u64 {
    b.get(at..at + 8)
        .and_then(|s| s.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

/// Nanoseconds since `start`, saturating.
pub(crate) fn duration_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An open log, positioned for appends.
#[derive(Debug)]
pub(crate) struct Writer {
    path: PathBuf,
    file: File,
    next_seq: u64,
    durable: bool,
}

impl Writer {
    /// Creates (or truncates) the log at `path` and writes its header.
    pub(crate) fn create(path: &Path, format: &Format, word: u64) -> Result<Writer, IoFailure> {
        let mut file = File::create(path).map_err(io_err("create", path))?;
        let mut header = format.magic.to_vec();
        header.extend_from_slice(&format.version.to_le_bytes());
        header.extend_from_slice(&word.to_le_bytes());
        file.write_all(&header).map_err(io_err("write", path))?;
        if format.durable {
            file.sync_all().map_err(io_err("fsync", path))?;
        }
        Writer::reopen(path, format, 1)
    }

    /// Opens the log at `path` for appends, the next of which carries
    /// `next_seq`.
    pub(crate) fn reopen(path: &Path, format: &Format, next_seq: u64) -> Result<Writer, IoFailure> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(io_err("open", path))?;
        Ok(Writer {
            path: path.to_path_buf(),
            file,
            next_seq,
            durable: format.durable,
        })
    }

    /// The sequence number the next record will carry.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The log's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Frames the next record: the payload `write_payload` produces,
    /// behind the length, checksum and sequence number.
    pub(crate) fn frame(&self, write_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = self.next_seq.to_le_bytes().to_vec();
        write_payload(&mut body);
        let mut rec = Vec::with_capacity(RECORD_PREFIX + body.len());
        rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
        rec.extend_from_slice(&checksum(&body).to_le_bytes());
        rec.extend_from_slice(&body);
        rec
    }

    /// Writes raw bytes at the end of the log (fsynced for a durable
    /// format) without advancing the sequence.
    pub(crate) fn write(&mut self, bytes: &[u8]) -> Result<(), IoFailure> {
        self.file
            .write_all(bytes)
            .map_err(io_err("append", &self.path))?;
        if self.durable {
            self.sync()?;
        }
        Ok(())
    }

    /// Writes a record from [`Writer::frame`] and returns its sequence
    /// number.
    pub(crate) fn append(&mut self, rec: &[u8]) -> Result<u64, IoFailure> {
        self.write(rec)?;
        self.next_seq += 1;
        Ok(self.next_seq - 1)
    }

    /// Fsyncs the log.
    pub(crate) fn sync(&self) -> Result<(), IoFailure> {
        self.file.sync_all().map_err(io_err("fsync", &self.path))
    }
}

/// What [`recover`] kept and repaired. `word` is the header word, or
/// `None` when the header was foreign and the whole file was
/// quarantined.
pub(crate) struct Scan<T> {
    pub word: Option<u64>,
    pub records: Vec<T>,
    pub torn_truncated: bool,
    pub quarantined_to: Option<PathBuf>,
}

/// What the record scan decided about the bytes after the last good
/// record.
enum TailFate {
    Clean,
    Torn,
    Corrupt(String),
}

/// Validates `bytes` (the contents of `path`) as a `format` log and
/// repairs the file in place. `word`, when given, is the header word the
/// file must carry to be this caller's. `decode` turns one record's
/// sequence number and payload into a record, or says why it is corrupt.
/// A scanned file sets the `records` and `torn` attributes on `span`.
pub(crate) fn recover<T>(
    path: &Path,
    bytes: &[u8],
    format: &Format,
    word: Option<u64>,
    span: &mut SpanGuard,
    mut decode: impl FnMut(u64, &[u8]) -> Result<T, String>,
) -> Result<Scan<T>, IoFailure> {
    let header_ok = bytes.len() >= HEADER_LEN
        && bytes.get(..8) == Some(&format.magic[..])
        && le_u32(bytes, 8) == format.version
        && word.is_none_or(|w| le_u64(bytes, 12) == w);
    if !header_ok {
        let dest = crate::quarantine::rotate_file(path).map_err(io_err("quarantine", path))?;
        format.quarantined.add(1);
        repsim_obs::point(
            format.quarantine_event,
            repsim_obs::Level::Warn,
            format!("{}; moved to {}", format.foreign_reason, dest.display()),
        );
        return Ok(Scan {
            word: None,
            records: Vec::new(),
            torn_truncated: false,
            quarantined_to: Some(dest),
        });
    }

    // `pos` always marks the end of the last fully validated record.
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let fate = loop {
        let rest = bytes.get(pos..).unwrap_or(&[]);
        if rest.is_empty() {
            break TailFate::Clean;
        }
        let expected = records.len() as u64 + 1;
        let body_len = le_u32(rest, 0) as usize;
        let Some(body) = rest.get(RECORD_PREFIX..).and_then(|b| b.get(..body_len)) else {
            break TailFate::Torn;
        };
        if checksum(body) != le_u64(rest, 4) {
            break TailFate::Corrupt(format!("record {expected}: checksum mismatch"));
        }
        if body.len() < 8 {
            break TailFate::Corrupt(format!("record {expected}: body too short"));
        }
        let seq = le_u64(body, 0);
        if seq != expected {
            break TailFate::Corrupt(format!("sequence gap (expected {expected}, found {seq})"));
        }
        match decode(seq, body.get(8..).unwrap_or(&[])) {
            Ok(record) => records.push(record),
            Err(e) => break TailFate::Corrupt(format!("record {seq}: {e}")),
        }
        pos += RECORD_PREFIX + body_len;
    };

    let (torn_truncated, quarantined_to) = match fate {
        TailFate::Clean => (false, None),
        TailFate::Torn => {
            format.torn.add(1);
            repsim_obs::point(
                format.torn_event,
                repsim_obs::Level::Warn,
                format!(
                    "truncating {} torn byte(s) after record {}",
                    bytes.len() - pos,
                    records.len()
                ),
            );
            (true, None)
        }
        TailFate::Corrupt(reason) => {
            let tail = bytes.get(pos..).unwrap_or(&[]);
            let dest =
                crate::quarantine::rotate_bytes(path, tail).map_err(io_err("quarantine", path))?;
            format.quarantined.add(1);
            repsim_obs::point(
                format.quarantine_event,
                repsim_obs::Level::Warn,
                format!(
                    "{reason}; {} suffix byte(s) moved to {}",
                    tail.len(),
                    dest.display()
                ),
            );
            (false, Some(dest))
        }
    };
    if pos < bytes.len() {
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(io_err("open", path))?;
        f.set_len(pos as u64).map_err(io_err("truncate", path))?;
        f.sync_all().map_err(io_err("fsync", path))?;
    }
    format.replayed.add(records.len() as u64);
    if span.is_active() {
        span.attr("records", records.len());
        span.attr("torn", u64::from(torn_truncated));
    }
    Ok(Scan {
        word: Some(le_u64(bytes, 12)),
        records,
        torn_truncated,
        quarantined_to,
    })
}
