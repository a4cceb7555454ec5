//! Crash-safe persistence for commuting-matrix indexes.
//!
//! A snapshot holds every [`CommutingCache`] entry (which double as the
//! query engines' half-matrix indexes) in one file:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"RSIMSNAP"
//! 8       4     version (u32 LE, currently 1)
//! 12      8     graph fingerprint (u64 LE, FNV-1a over labels/nodes/edges)
//! 20      8     entry count (u64 LE)
//! 28      8     payload length in bytes (u64 LE)
//! 36      8     payload checksum (u64 LE, FNV-1a)
//! 44      …     payload: entries, sorted by (kind, walk text)
//! ```
//!
//! Each payload entry is `kind: u8` (0 = plain, 1 = informative),
//! `walk_len: u64 LE`, the walk's UTF-8 text form, then the matrix in
//! [`Csr::encode_into`]'s layout. Walks persist as *text* and are
//! re-parsed against the live graph on load, so label-id renumbering or
//! schema drift is caught structurally, not trusted. An older version-1
//! file whose matrices use the retired delta-encoded record fails the
//! matrix decode and is quarantined like any corrupt file, so the index
//! is rebuilt.
//!
//! **Save** is atomic: payload is built in memory, written to
//! `<path>.tmp`, fsynced, renamed over `<path>`, and the parent
//! directory fsynced — a crash at any point leaves either the old
//! snapshot or none, never a torn one. **Load** validates magic,
//! version, fingerprint, length and checksum before decoding, and every
//! decoded matrix re-passes CSR validation; anything suspect is
//! *quarantined* (renamed to `<path>.corrupt`, with prior generations
//! rotated through [`crate::quarantine`]'s bounded scheme) and reported
//! as [`LoadOutcome::Quarantined`] so the caller rebuilds transparently.
//! The `snapshot.write` and `snapshot.corrupt` failpoints force the
//! crash-mid-save and corrupt-file paths under the fault-injection
//! harness.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use repsim_graph::Graph;
use repsim_metawalk::commuting::{CacheKind, CommutingCache};
use repsim_metawalk::MetaWalk;
use repsim_sparse::budget::failpoints;
use repsim_sparse::{checksum, Budget, Csr};

use repsim_obs::HistogramHandle;

use crate::framed::{duration_ns, io_err, le_u32, le_u64, IoFailure};

static SNAPSHOT_SAVE_NS: HistogramHandle = HistogramHandle::new("repsim.serve.snapshot.save_ns");
static SNAPSHOT_LOAD_NS: HistogramHandle = HistogramHandle::new("repsim.serve.snapshot.load_ns");

const MAGIC: &[u8; 8] = b"RSIMSNAP";
/// Current snapshot format version.
pub const VERSION: u32 = 1;
/// Fixed header size (magic through checksum); the payload follows.
pub const HEADER_LEN: usize = 44;

/// Errors from snapshot persistence itself (environment failures; a
/// *corrupt file* is not an error but a [`LoadOutcome::Quarantined`]).
#[derive(Debug)]
pub enum SnapshotError {
    /// A filesystem operation failed.
    Io {
        /// The operation (`"write"`, `"rename"`, …).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The OS error.
        message: String,
    },
    /// The `snapshot.write` failpoint aborted the save mid-write,
    /// leaving a partial temp file (the crash-during-save simulation).
    Injected,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { op, path, message } => {
                write!(f, "snapshot {op} {}: {message}", path.display())
            }
            SnapshotError::Injected => write!(f, "snapshot write aborted by failpoint"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<IoFailure> for SnapshotError {
    fn from(IoFailure { op, path, message }: IoFailure) -> SnapshotError {
        SnapshotError::Io { op, path, message }
    }
}

/// What [`load`] found.
#[derive(Debug)]
pub enum LoadOutcome {
    /// A valid snapshot: entries ready to import.
    Restored(Vec<(CacheKind, MetaWalk, Csr)>),
    /// No snapshot file exists (cold start).
    Absent,
    /// The file failed validation and was renamed aside; rebuild.
    Quarantined {
        /// Why the file was rejected.
        reason: String,
        /// Where the rejected bytes were moved.
        quarantined_to: PathBuf,
    },
}

/// Stats from a successful [`save`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SaveStats {
    /// Entries persisted.
    pub entries: usize,
    /// Total file size (header + payload).
    pub bytes: usize,
}

/// A deterministic fingerprint of the graph a snapshot was built
/// against: FNV-1a over labels (name + kind), nodes (label + value) and
/// edges, in graph order. Loading validates it so a snapshot from a
/// different or transformed database can never silently serve wrong
/// rankings — representation independence is a property of answers, not
/// of index bytes.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    for l in g.labels().ids() {
        bytes.extend_from_slice(g.labels().name(l).as_bytes());
        bytes.push(0xff);
        bytes.push(g.labels().is_entity(l) as u8);
    }
    bytes.extend_from_slice(&(g.num_nodes() as u64).to_le_bytes());
    for n in g.node_ids() {
        bytes.extend_from_slice(&g.label_of(n).0.to_le_bytes());
        if let Some(v) = g.value_of(n) {
            bytes.extend_from_slice(v.as_bytes());
        }
        bytes.push(0xfe);
    }
    for (a, b) in g.edges() {
        bytes.extend_from_slice(&a.0.to_le_bytes());
        bytes.extend_from_slice(&b.0.to_le_bytes());
    }
    checksum(&bytes)
}

/// Serializes the cache into snapshot bytes (header + payload). Entries
/// are sorted by (kind, walk text) so equal caches produce identical
/// bytes.
fn encode(g: &Graph, cache: &CommutingCache, graph_fp: u64) -> Vec<u8> {
    let mut entries: Vec<(u8, String, &Csr)> = cache
        .entries()
        .map(|(kind, mw, m)| {
            let kind_byte = match kind {
                CacheKind::Plain => 0u8,
                CacheKind::Informative => 1u8,
            };
            (kind_byte, mw.display(g.labels()), m)
        })
        .collect();
    entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));

    let mut payload = Vec::new();
    for (kind, text, m) in &entries {
        payload.push(*kind);
        payload.extend_from_slice(&(text.len() as u64).to_le_bytes());
        payload.extend_from_slice(text.as_bytes());
        m.encode_into(&mut payload);
    }
    frame(graph_fp, entries.len(), &payload)
}

/// Prefixes `payload` with the header that stamps its length and
/// checksum.
fn frame(graph_fp: u64, entries: usize, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&graph_fp.to_le_bytes());
    out.extend_from_slice(&(entries as u64).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Persists the cache atomically. `budget` gates the `snapshot.write`
/// (abort mid-write, leaving a partial temp file) and `snapshot.corrupt`
/// (flip a payload byte after the checksum is stamped, so the next load
/// must quarantine) failpoints.
pub fn save(
    path: &Path,
    g: &Graph,
    cache: &CommutingCache,
    budget: &Budget,
) -> Result<SaveStats, SnapshotError> {
    let start = Instant::now();
    let mut span = repsim_obs::span("repsim.serve.snapshot.save");
    let graph_fp = graph_fingerprint(g);
    let mut bytes = encode(g, cache, graph_fp);
    let entries = cache.len();

    if budget.injected(failpoints::SNAPSHOT_CORRUPT) && bytes.len() > HEADER_LEN {
        // Stamped checksum no longer matches the payload: the load side
        // must detect this and quarantine.
        bytes[HEADER_LEN] ^= 0x01;
    }

    let tmp = tmp_path(path);
    if budget.injected(failpoints::SNAPSHOT_WRITE) {
        // Simulate a crash mid-save: half the bytes land in the temp
        // file, the rename never happens, the real snapshot (if any) is
        // untouched.
        let half = &bytes[..bytes.len() / 2];
        fs::write(&tmp, half).map_err(io_err("write", &tmp))?;
        return Err(SnapshotError::Injected);
    }

    let mut f = File::create(&tmp).map_err(io_err("create", &tmp))?;
    f.write_all(&bytes).map_err(io_err("write", &tmp))?;
    f.sync_all().map_err(io_err("fsync", &tmp))?;
    drop(f);
    fs::rename(&tmp, path).map_err(io_err("rename", path))?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        // Make the rename itself durable. Directory fsync can be
        // unsupported on some filesystems; the rename already happened,
        // so failure here downgrades to best-effort.
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }

    SNAPSHOT_SAVE_NS.record(duration_ns(start));
    if span.is_active() {
        span.attr("entries", entries);
        span.attr("bytes", bytes.len());
    }
    Ok(SaveStats {
        entries,
        bytes: bytes.len(),
    })
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Loads and validates a snapshot. Corruption in any form — bad magic,
/// version or fingerprint mismatch, checksum failure, truncation, a
/// walk that no longer parses, a matrix that fails CSR validation —
/// quarantines the file and reports [`LoadOutcome::Quarantined`]; only
/// I/O failures are hard errors.
pub fn load(path: &Path, g: &Graph) -> Result<LoadOutcome, SnapshotError> {
    let start = Instant::now();
    let mut span = repsim_obs::span("repsim.serve.snapshot.load");
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LoadOutcome::Absent),
        Err(e) => return Err(io_err("read", path)(e).into()),
    };
    match validate_and_decode(&bytes, g) {
        Ok(entries) => {
            SNAPSHOT_LOAD_NS.record(duration_ns(start));
            if span.is_active() {
                span.attr("entries", entries.len());
                span.attr("bytes", bytes.len());
            }
            Ok(LoadOutcome::Restored(entries))
        }
        Err(reason) => {
            let quarantined_to =
                crate::quarantine::rotate_file(path).map_err(io_err("quarantine", path))?;
            repsim_obs::point(
                "repsim.serve.snapshot.quarantine",
                repsim_obs::Level::Warn,
                format!("{reason}; moved to {}", quarantined_to.display()),
            );
            Ok(LoadOutcome::Quarantined {
                reason,
                quarantined_to,
            })
        }
    }
}

/// Full validation pipeline; any `Err` means quarantine.
fn validate_and_decode(bytes: &[u8], g: &Graph) -> Result<Vec<(CacheKind, MetaWalk, Csr)>, String> {
    let header = bytes
        .get(..HEADER_LEN)
        .ok_or_else(|| format!("file too short for header ({} bytes)", bytes.len()))?;
    if &header[..8] != MAGIC {
        return Err("bad magic".to_owned());
    }
    let version = le_u32(header, 8);
    if version != VERSION {
        return Err(format!(
            "unsupported version {version} (expected {VERSION})"
        ));
    }
    let file_fp = le_u64(header, 12);
    let live_fp = graph_fingerprint(g);
    if file_fp != live_fp {
        return Err(format!(
            "graph fingerprint mismatch (snapshot {file_fp:#018x}, live graph {live_fp:#018x})"
        ));
    }
    let entry_count = le_u64(header, 20);
    let payload_len = le_u64(header, 28);
    let declared_sum = le_u64(header, 36);
    let payload = bytes.get(HEADER_LEN..).unwrap_or(&[]); // header slice above proved HEADER_LEN bytes exist
    if payload.len() as u64 != payload_len {
        return Err(format!(
            "payload length mismatch (header says {payload_len}, file has {})",
            payload.len()
        ));
    }
    let actual_sum = checksum(payload);
    if actual_sum != declared_sum {
        return Err(format!(
            "payload checksum mismatch (header {declared_sum:#018x}, computed {actual_sum:#018x})"
        ));
    }

    let mut entries = Vec::new();
    let mut pos = 0usize;
    for i in 0..entry_count {
        let kind = match payload.get(pos) {
            Some(0) => CacheKind::Plain,
            Some(1) => CacheKind::Informative,
            Some(k) => return Err(format!("entry {i}: unknown kind byte {k}")),
            None => return Err(format!("entry {i}: truncated at kind byte")),
        };
        pos += 1;
        if payload.len() < pos + 8 {
            return Err(format!("entry {i}: truncated walk length"));
        }
        let walk_len = usize::try_from(le_u64(payload, pos))
            .map_err(|_| format!("entry {i}: implausible walk length"))?;
        pos += 8;
        let text_bytes = pos
            .checked_add(walk_len)
            .and_then(|end| payload.get(pos..end))
            .ok_or_else(|| format!("entry {i}: truncated walk text"))?;
        let text = std::str::from_utf8(text_bytes)
            .map_err(|_| format!("entry {i}: walk text is not UTF-8"))?;
        pos += walk_len;
        // Re-parse against the live graph: unknown labels or shape
        // violations mean the snapshot predates a schema change.
        let mw = MetaWalk::parse_in(g, text)
            .ok_or_else(|| format!("entry {i}: walk {text:?} does not parse against the graph"))?;
        if kind == CacheKind::Plain && mw.has_star() {
            return Err(format!("entry {i}: plain entry with a *-label"));
        }
        let (m, used) = Csr::decode(payload.get(pos..).unwrap_or(&[]))
            .map_err(|e| format!("entry {i}: matrix decode failed: {e}"))?;
        pos += used;
        entries.push((kind, mw, m));
    }
    if pos != payload.len() {
        return Err(format!(
            "trailing bytes after last entry ({} of {})",
            pos,
            payload.len()
        ));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repsim_graph::GraphBuilder;
    use repsim_sparse::Parallelism;

    fn mas_like() -> Graph {
        let mut b = GraphBuilder::new();
        let conf = b.entity_label("conf");
        let paper = b.entity_label("paper");
        let dom = b.entity_label("dom");
        let confs: Vec<_> = (0..3).map(|i| b.entity(conf, &format!("c{i}"))).collect();
        let d = b.entity(dom, "d0");
        for (i, c) in [(0, 0), (1, 0), (2, 1), (3, 2)] {
            let p = b.entity(paper, &format!("p{i}"));
            b.edge(p, confs[c]).unwrap();
            b.edge(p, d).unwrap();
        }
        b.build()
    }

    fn populated_cache(g: &Graph) -> CommutingCache {
        let mut cache = CommutingCache::new();
        for text in ["conf paper dom", "conf paper", "conf *paper dom"] {
            let mw = MetaWalk::parse_in(g, text).unwrap();
            cache
                .try_informative_with(g, &mw, Parallelism::serial(), &Budget::unlimited())
                .unwrap();
        }
        let plain = MetaWalk::parse_in(g, "conf paper dom").unwrap();
        cache
            .try_plain_with(g, &plain, Parallelism::serial(), &Budget::unlimited())
            .unwrap();
        cache
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repsim-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_roundtrip_is_bit_identical() {
        let g = mas_like();
        let cache = populated_cache(&g);
        let dir = tmp_dir("roundtrip");
        let path = dir.join("idx.snap");
        let stats = save(&path, &g, &cache, &Budget::unlimited()).unwrap();
        assert_eq!(stats.entries, 4);

        let outcome = load(&path, &g).unwrap();
        let entries = match outcome {
            LoadOutcome::Restored(e) => e,
            other => panic!("expected restore, got {other:?}"),
        };
        assert_eq!(entries.len(), 4);
        for (kind, mw, m) in &entries {
            let orig = cache.peek(*kind, mw).expect("entry existed");
            assert_eq!(orig, m);
            // Bit-level, not just PartialEq.
            for r in 0..orig.nrows() {
                let (ca, va) = orig.row(r);
                let (cb, vb) = m.row(r);
                assert_eq!(ca, cb);
                for (x, y) in va.iter().zip(vb) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
        // Determinism: a second save produces byte-identical files.
        let path2 = dir.join("idx2.snap");
        save(&path2, &g, &cache, &Budget::unlimited()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), fs::read(&path2).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overlong_walk_length_is_quarantined_not_a_panic() {
        // The checksum holds, so only the entry parser stands between a
        // walk length of u64::MAX and an overflowing bounds check.
        let g = mas_like();
        let mut payload = vec![0u8];
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        let dir = tmp_dir("walk-len");
        let path = dir.join("idx.snap");
        fs::write(&path, frame(graph_fingerprint(&g), 1, &payload)).unwrap();
        match load(&path, &g).unwrap() {
            LoadOutcome::Quarantined { reason, .. } => {
                assert!(reason.contains("truncated walk text"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_file_is_a_cold_start() {
        let g = mas_like();
        let dir = tmp_dir("absent");
        match load(&dir.join("nope.snap"), &g).unwrap() {
            LoadOutcome::Absent => {}
            other => panic!("expected absent, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_quarantined() {
        let g = mas_like();
        let cache = populated_cache(&g);
        let dir = tmp_dir("trunc");
        let path = dir.join("idx.snap");
        save(&path, &g, &cache, &Budget::unlimited()).unwrap();
        let bytes = fs::read(&path).unwrap();
        for cut in [10, HEADER_LEN, HEADER_LEN + 9, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            match load(&path, &g).unwrap() {
                LoadOutcome::Quarantined { quarantined_to, .. } => {
                    assert!(quarantined_to.exists());
                    assert!(!path.exists(), "original moved aside");
                    fs::remove_file(&quarantined_to).unwrap();
                }
                other => panic!("cut {cut}: expected quarantine, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_quarantined_everywhere() {
        let g = mas_like();
        let cache = populated_cache(&g);
        let dir = tmp_dir("flip");
        let path = dir.join("idx.snap");
        save(&path, &g, &cache, &Budget::unlimited()).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Flip one bit in every 37th byte (covering header and payload).
        for at in (0..bytes.len()).step_by(37) {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x10;
            fs::write(&path, &corrupt).unwrap();
            match load(&path, &g).unwrap() {
                LoadOutcome::Quarantined { quarantined_to, .. } => {
                    fs::remove_file(&quarantined_to).unwrap();
                }
                other => panic!("flip at {at}: expected quarantine, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_quarantined() {
        let g = mas_like();
        let cache = populated_cache(&g);
        let dir = tmp_dir("fp");
        let path = dir.join("idx.snap");
        save(&path, &g, &cache, &Budget::unlimited()).unwrap();
        // A different graph (one extra node) must reject the snapshot.
        let mut b = GraphBuilder::new();
        let conf = b.entity_label("conf");
        b.entity_label("paper");
        b.entity_label("dom");
        b.entity(conf, "only");
        let g2 = b.build();
        match load(&path, &g2).unwrap() {
            LoadOutcome::Quarantined { reason, .. } => {
                assert!(reason.contains("fingerprint"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_failure_leaves_old_snapshot_intact() {
        let g = mas_like();
        let cache = populated_cache(&g);
        let dir = tmp_dir("inject-write");
        let path = dir.join("idx.snap");
        save(&path, &g, &cache, &Budget::unlimited()).unwrap();
        let good = fs::read(&path).unwrap();

        let _guard = failpoints::scoped(&[failpoints::SNAPSHOT_WRITE]);
        let inject = Budget::unlimited().with_fault_injection();
        match save(&path, &g, &cache, &inject) {
            Err(SnapshotError::Injected) => {}
            other => panic!("expected injected abort, got {other:?}"),
        }
        // The crash simulation leaves a partial temp file but the real
        // snapshot still loads.
        assert!(tmp_path(&path).exists(), "partial temp file left behind");
        assert_eq!(fs::read(&path).unwrap(), good);
        match load(&path, &g).unwrap() {
            LoadOutcome::Restored(e) => assert_eq!(e.len(), 4),
            other => panic!("expected restore, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_corruption_is_caught_on_load() {
        let g = mas_like();
        let cache = populated_cache(&g);
        let dir = tmp_dir("inject-corrupt");
        let path = dir.join("idx.snap");
        {
            let _guard = failpoints::scoped(&[failpoints::SNAPSHOT_CORRUPT]);
            let inject = Budget::unlimited().with_fault_injection();
            save(&path, &g, &cache, &inject).unwrap();
        }
        match load(&path, &g).unwrap() {
            LoadOutcome::Quarantined { reason, .. } => {
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // Rebuild-after-quarantine serves the exact same matrices as the
        // cold path: re-save and reload to prove the cycle closes.
        save(&path, &g, &cache, &Budget::unlimited()).unwrap();
        match load(&path, &g).unwrap() {
            LoadOutcome::Restored(e) => assert_eq!(e.len(), 4),
            other => panic!("expected restore, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsupported_version_is_quarantined_not_misread() {
        let g = mas_like();
        let cache = populated_cache(&g);
        let dir = tmp_dir("version");
        let path = dir.join("idx.snap");
        save(&path, &g, &cache, &Budget::unlimited()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 99;
        fs::write(&path, &bytes).unwrap();
        match load(&path, &g).unwrap() {
            LoadOutcome::Quarantined { reason, .. } => {
                assert!(reason.contains("version"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
