//! The TCP transport: accept loop, worker pool, graceful drain.
//!
//! One connection per client thread, newline-delimited JSON both ways
//! (see [`crate::protocol`]). Control ops (`ping`, `stats`, `snapshot`,
//! `shutdown`) answer inline on the connection thread — they must keep
//! working while the rank pipeline is saturated, or operators lose
//! sight of an overloaded server exactly when they need it. Rank
//! requests go through the bounded queue to the worker pool; a full
//! queue answers `overloaded` immediately instead of stacking latency.
//!
//! Shutdown (the `shutdown` op, or the caller's flag — the CLI wires
//! SIGTERM/ctrl-c to it) is graceful: stop accepting, close the queue,
//! drain queued work, join the workers, write a final snapshot. The
//! accept blocks, with a receive timeout that wakes it to check the
//! flag (see `accept_until_shutdown`).

use std::io::{Read as _, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::path::PathBuf;
use std::sync::mpsc;

use repsim_audit::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use repsim_graph::Graph;
use repsim_obs::{CounterHandle, DeltaBaseline, GaugeHandle};

use crate::error::ServiceError;
use crate::protocol::{ReqId, Request, Response};
use crate::queue::Bounded;
use crate::service::{QueryService, Restore, ServiceConfig, WalRecovery};
use crate::snapshot::SaveStats;

static QUEUE_DEPTH: GaugeHandle = GaugeHandle::new("repsim.serve.queue.depth");
static STATS_STREAMS: CounterHandle = CounterHandle::new("repsim.serve.stats.streams");
static STATS_LINES: CounterHandle = CounterHandle::new("repsim.serve.stats.lines");
static JOURNAL_LINES: CounterHandle = CounterHandle::new("repsim.serve.stats.journal_lines");

/// How long a blocked read or accept waits before re-checking the
/// shutdown flag.
pub(crate) const POLL: Duration = Duration::from_millis(50);

/// Pause after a failed `accept` before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Server tuning over and above [`ServiceConfig`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (written to `port_file`).
    pub addr: String,
    /// Snapshot path: loaded at startup, written on `snapshot` ops and
    /// at shutdown. `None` disables persistence.
    pub snapshot: Option<PathBuf>,
    /// Write-ahead log path: recovered (replayed, torn tail truncated)
    /// at startup, appended on every acknowledged mutation. `None`
    /// disables mutation durability (mutations still apply, but do not
    /// survive a crash).
    pub wal: Option<PathBuf>,
    /// Rank-queue capacity; pushes beyond it shed with `overloaded`.
    pub queue_cap: usize,
    /// Written with the actual `ip:port` once bound — how tests and
    /// scripts find a port-0 server.
    pub port_file: Option<PathBuf>,
    /// Metrics journal path: when set, one stats+delta-metrics JSON
    /// line is appended per `metrics_interval_ms` for the server's
    /// lifetime (same line shape as the `stats-stream` push, minus the
    /// request id). Lives next to the snapshot/WAL files; `repsim top
    /// --journal` renders it offline.
    pub metrics_journal: Option<PathBuf>,
    /// Journal cadence in milliseconds (ignored without a journal).
    pub metrics_interval_ms: u64,
    /// The service tuning.
    pub service: ServiceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            snapshot: None,
            wal: None,
            queue_cap: 64,
            port_file: None,
            metrics_journal: None,
            metrics_interval_ms: 1000,
            service: ServiceConfig::default(),
        }
    }
}

/// What a completed [`run`] did, for the CLI's summary line.
#[derive(Debug)]
pub struct ServeReport {
    /// The address actually bound.
    pub addr: SocketAddr,
    /// Startup snapshot outcome (`None` when persistence is off).
    pub restore: Option<Restore>,
    /// Startup WAL recovery outcome (`None` when no log is configured).
    pub wal: Option<WalRecovery>,
    /// Final shutdown snapshot (`None` when persistence is off or the
    /// final save failed — the failure is reported as a Warn event, not
    /// an error: the server is exiting either way and the previous
    /// snapshot on disk is still valid thanks to atomic replace).
    pub final_snapshot: Option<SaveStats>,
    /// Requests admitted over the server's lifetime.
    pub requests: u64,
    /// Requests shed by admission control.
    pub shed: u64,
}

/// Transport-level failures (the per-request taxonomy is
/// [`ServiceError`] and travels in response envelopes instead).
#[derive(Debug)]
pub enum ServeError {
    /// Binding or configuring the listener failed.
    Bind {
        /// The requested address.
        addr: String,
        /// The OS error.
        message: String,
    },
    /// Reading or writing the snapshot at startup failed at the I/O
    /// level (a *corrupt* snapshot is not an error; it quarantines).
    Snapshot(crate::snapshot::SnapshotError),
    /// Opening, repairing or replaying the write-ahead log failed at
    /// the I/O level (corruption inside the log is repaired, not an
    /// error).
    Wal(crate::wal::WalError),
    /// Writing the port file failed.
    PortFile {
        /// The configured path.
        path: PathBuf,
        /// The OS error.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, message } => write!(f, "cannot bind {addr}: {message}"),
            ServeError::Snapshot(e) => write!(f, "snapshot: {e}"),
            ServeError::Wal(e) => write!(f, "wal: {e}"),
            ServeError::PortFile { path, message } => {
                write!(f, "cannot write port file {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<crate::snapshot::SnapshotError> for ServeError {
    fn from(e: crate::snapshot::SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl From<crate::wal::WalError> for ServeError {
    fn from(e: crate::wal::WalError) -> Self {
        ServeError::Wal(e)
    }
}

/// One queued rank request plus the reply channel back to its
/// connection thread.
struct Job {
    id: ReqId,
    walk: String,
    label: String,
    value: String,
    k: usize,
    deadline_ms: Option<u64>,
    reply: mpsc::Sender<String>,
}

/// Runs the server until `shutdown` is set (by a signal handler or a
/// `shutdown` request). Blocks the calling thread for the server's
/// lifetime; returns a summary after the graceful drain.
pub fn run(g: &Graph, cfg: &ServeConfig, shutdown: &AtomicBool) -> Result<ServeReport, ServeError> {
    // Keep the metric registry recording for the server's lifetime even
    // when no trace sink is attached: the stats stream, the metrics
    // journal and `repsim top` all read the registry, and a silent
    // registry would render an idle-looking dashboard under full load.
    let metrics_on: std::sync::Arc<dyn repsim_obs::Sink> =
        std::sync::Arc::new(repsim_obs::NullSink);
    repsim_obs::install(std::sync::Arc::clone(&metrics_on));
    let report = run_inner(g, cfg, shutdown);
    repsim_obs::remove_sink(&metrics_on);
    report
}

fn run_inner(
    g: &Graph,
    cfg: &ServeConfig,
    shutdown: &AtomicBool,
) -> Result<ServeReport, ServeError> {
    let svc = QueryService::new(g, cfg.service.clone());

    // Boot order matters: the WAL replays first (rebuilding the graph
    // the process died with), then the snapshot validates against the
    // *post-replay* fingerprint — a snapshot taken before the logged
    // mutations simply quarantines and the index rebuilds on demand.
    let wal = match &cfg.wal {
        Some(path) => Some(svc.recover_wal(path)?),
        None => None,
    };
    let restore = match &cfg.snapshot {
        Some(path) => Some(svc.restore(path)?),
        None => None,
    };

    let (listener, addr) = bind_listener(&cfg.addr)?;
    if let Some(pf) = &cfg.port_file {
        std::fs::write(pf, format!("{addr}\n")).map_err(|e| ServeError::PortFile {
            path: pf.clone(),
            message: e.to_string(),
        })?;
    }
    repsim_obs::point(
        "repsim.serve.listening",
        repsim_obs::Level::Info,
        format!("listening on {addr}"),
    );

    let queue: Bounded<Job> = Bounded::new(cfg.queue_cap);
    let workers = cfg.service.par.threads().max(1);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| worker_loop(&svc, &queue));
        }
        if let Some(path) = &cfg.metrics_journal {
            let (svc, queue) = (&svc, &queue);
            let interval_ms = cfg.metrics_interval_ms.max(10);
            let path = path.clone();
            s.spawn(move || journal_loop(&path, svc, queue, shutdown, interval_ms));
        }

        let (svc, queue) = (&svc, &queue);
        let snapshot = cfg.snapshot.as_deref();
        accept_until_shutdown(&listener, shutdown, |stream| {
            s.spawn(move || serve_connection(stream, svc, queue, shutdown, snapshot));
        });
        // Graceful drain: no new work, queued requests still answer.
        queue.close();
    });

    let final_snapshot = match &cfg.snapshot {
        Some(path) => match svc.save_snapshot(path) {
            Ok(stats) => Some(stats),
            Err(e) => {
                repsim_obs::point(
                    "repsim.serve.snapshot.final_save_failed",
                    repsim_obs::Level::Warn,
                    e.to_string(),
                );
                None
            }
        },
        None => None,
    };

    let stats = svc.stats_body(0, cfg.queue_cap);
    Ok(ServeReport {
        addr,
        restore,
        wal,
        final_snapshot,
        requests: stats.requests,
        shed: stats.shed,
    })
}

/// Binds `addr` for [`accept_until_shutdown`] and returns the address
/// actually bound. The listening socket gets a receive timeout of
/// [`POLL`], which Linux applies to `accept`. std has no timeout setter
/// on a listener, so a duplicate of its descriptor, viewed as a stream,
/// sets the option on the same socket.
pub(crate) fn bind_listener(addr: &str) -> Result<(TcpListener, SocketAddr), ServeError> {
    let bind_err = |e: std::io::Error| ServeError::Bind {
        addr: addr.to_owned(),
        message: e.to_string(),
    };
    let listener = TcpListener::bind(addr).map_err(bind_err)?;
    let bound = listener.local_addr().map_err(bind_err)?;
    let alias = TcpStream::from(OwnedFd::from(listener.try_clone().map_err(bind_err)?));
    alias.set_read_timeout(Some(POLL)).map_err(bind_err)?;
    Ok((listener, bound))
}

/// Blocks in `accept` until `shutdown` is set, handing every client
/// connection (nodelay already set) to `on_accept`. A client is taken
/// the moment it connects; with none, the receive timeout armed by
/// [`bind_listener`] wakes the call every [`POLL`] to check the flag,
/// however it was set: a signal handler, the `shutdown` op or the
/// embedding caller.
pub(crate) fn accept_until_shutdown(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    mut on_accept: impl FnMut(TcpStream),
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Request/response lines are small; without nodelay
                // Nagle + delayed ACK cost ~40ms per round trip.
                stream.set_nodelay(true).ok();
                on_accept(stream);
            }
            // The timeout: go round and check the flag.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            // EMFILE and the like: back off instead of spinning.
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// One stats+metrics line: the [`crate::protocol::StatsBody`] plus a
/// delta snapshot of the metric registry against `base`. Shared by the
/// `stats-stream` push (with a request id) and the metrics journal
/// (without). `t_ms` is milliseconds on the process-wide monotonic
/// clock ([`repsim_obs::now_ns`]).
fn stats_line(
    svc: &QueryService,
    queue: &Bounded<Job>,
    id: Option<&ReqId>,
    stream_seq: u64,
    base: &mut DeltaBaseline,
) -> String {
    let body = svc.stats_body(queue.depth(), queue.capacity());
    let metrics = repsim_obs::Registry::global().delta_snapshot(base);
    let mut out = String::from("{");
    if let Some(id) = id {
        id.render(&mut out);
    }
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(
            "\"ok\":true,\"stream_seq\":{stream_seq},\"t_ms\":{},\"stats\":{},\"metrics\":{}}}",
            repsim_obs::now_ns() / 1_000_000,
            body.to_json(),
            metrics.render_json()
        ),
    );
    out
}

/// Sleeps `ms` in short slices, returning early once `shutdown` is set.
fn sleep_poll(ms: u64, shutdown: &AtomicBool) {
    let mut left = ms;
    while left > 0 && !shutdown.load(Ordering::SeqCst) {
        let step = left.min(20);
        std::thread::sleep(Duration::from_millis(step));
        left -= step;
    }
}

/// The metrics journal: one [`stats_line`] appended per interval until
/// shutdown. Uses the [`repsim_obs::JsonLinesSink`] writer directly —
/// the journal is a metrics timeline, not a trace, so the sink is never
/// installed and captures no events.
fn journal_loop(
    path: &std::path::Path,
    svc: &QueryService,
    queue: &Bounded<Job>,
    shutdown: &AtomicBool,
    interval_ms: u64,
) {
    let sink = match repsim_obs::JsonLinesSink::create(&path.to_string_lossy()) {
        Ok(sink) => sink,
        Err(e) => {
            repsim_obs::point(
                "repsim.serve.stats.journal_failed",
                repsim_obs::Level::Warn,
                format!("cannot create metrics journal {}: {e}", path.display()),
            );
            return;
        }
    };
    let mut base = DeltaBaseline::default();
    let mut seq = 0u64;
    loop {
        sink.write_line(&stats_line(svc, queue, None, seq, &mut base));
        JOURNAL_LINES.add(1);
        seq += 1;
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        sleep_poll(interval_ms, shutdown);
    }
}

/// Pushes `count` stats lines (0 = unbounded) at `interval_ms` over the
/// connection. Returns `Ok` when the count is reached or the server is
/// shutting down — the connection then resumes normal request handling —
/// and `Err` when the client went away.
fn stream_stats(
    stream: &TcpStream,
    svc: &QueryService,
    queue: &Bounded<Job>,
    shutdown: &AtomicBool,
    id: &ReqId,
    interval_ms: u64,
    count: u64,
) -> std::io::Result<()> {
    STATS_STREAMS.add(1);
    let mut base = DeltaBaseline::default();
    let mut sent = 0u64;
    loop {
        write_line(stream, &stats_line(svc, queue, Some(id), sent, &mut base))?;
        STATS_LINES.add(1);
        sent += 1;
        if count != 0 && sent >= count {
            return Ok(());
        }
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        sleep_poll(interval_ms, shutdown);
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

fn worker_loop(svc: &QueryService, queue: &Bounded<Job>) {
    while let Some(job) = queue.pop() {
        QUEUE_DEPTH.set(queue.depth() as i64);
        let resp = match svc.handle_rank_epoch(
            &job.walk,
            &job.label,
            &job.value,
            job.k,
            job.deadline_ms,
        ) {
            Ok(answer) => Response::Rank {
                id: job.id,
                tier: answer.tier,
                results: answer.results,
                // Fleet members stamp the answering epoch so the
                // coordinator can refuse to merge diverged shards; a
                // single node omits it, keeping the line byte-identical
                // to the pre-fleet wire format.
                shard: svc.shard_spec().map(|s| crate::protocol::ShardIdent {
                    id: s.index,
                    fingerprint: answer.fingerprint,
                    seq: answer.seq,
                }),
                coverage: None,
            },
            Err(error) => Response::Error { id: job.id, error },
        };
        // A dropped receiver means the connection died; nothing to do.
        let _ = job.reply.send(resp.to_json_line());
    }
}

/// Drives one client connection: reads newline-delimited requests,
/// answers in order. Control ops answer inline; rank ops go through the
/// queue (shedding when full) and the thread waits for the worker's
/// reply to preserve ordering.
fn serve_connection(
    stream: TcpStream,
    svc: &QueryService,
    queue: &Bounded<Job>,
    shutdown: &AtomicBool,
    snapshot: Option<&std::path::Path>,
) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut acc: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Drain complete lines before reading more.
        while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = acc.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            match handle_line(text.trim(), svc, queue, shutdown, snapshot) {
                LineOutcome::Silent => {}
                LineOutcome::Reply(reply) => {
                    if write_line(&stream, &reply).is_err() {
                        return;
                    }
                }
                LineOutcome::Stream {
                    id,
                    interval_ms,
                    count,
                } => {
                    // The push loop owns the connection until the count
                    // is reached (or forever for count 0); pipelined
                    // requests in `acc` are answered afterwards.
                    if stream_stats(&stream, svc, queue, shutdown, &id, interval_ms, count).is_err()
                    {
                        return;
                    }
                }
            }
        }
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match (&stream).read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => acc.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// What one request line asks of the connection thread.
enum LineOutcome {
    /// Blank line: nothing to send.
    Silent,
    /// One response line.
    Reply(String),
    /// Switch the connection into the periodic stats push.
    Stream {
        /// Echoed into every push line.
        id: ReqId,
        /// Push cadence.
        interval_ms: u64,
        /// Lines to push; 0 = unbounded.
        count: u64,
    },
}

/// Handles one request line.
fn handle_line(
    line: &str,
    svc: &QueryService,
    queue: &Bounded<Job>,
    shutdown: &AtomicBool,
    snapshot: Option<&std::path::Path>,
) -> LineOutcome {
    if line.is_empty() {
        return LineOutcome::Silent;
    }
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(message) => {
            return LineOutcome::Reply(
                Response::Error {
                    id: ReqId::Absent,
                    error: ServiceError::BadRequest(message),
                }
                .to_json_line(),
            );
        }
    };
    let resp = match req {
        Request::Ping { id } => Response::Pong { id },
        Request::Stats { id } => Response::Stats {
            id,
            body: svc.stats_body(queue.depth(), queue.capacity()),
        },
        Request::StatsStream {
            id,
            interval_ms,
            count,
        } => {
            return LineOutcome::Stream {
                id,
                interval_ms,
                count,
            };
        }
        Request::Snapshot { id } => match snapshot {
            Some(path) => match svc.save_snapshot(path) {
                Ok(stats) => Response::Snapshot {
                    id,
                    entries: stats.entries,
                    bytes: stats.bytes,
                },
                Err(e) => Response::Error {
                    id,
                    error: ServiceError::BadRequest(format!("snapshot failed: {e}")),
                },
            },
            None => Response::Error {
                id,
                error: ServiceError::BadRequest("no snapshot path configured".to_owned()),
            },
        },
        Request::Shutdown { id } => {
            shutdown.store(true, Ordering::SeqCst);
            Response::ShuttingDown { id }
        }
        Request::Mutate {
            id,
            op,
            deadline_ms,
        } => {
            if shutdown.load(Ordering::SeqCst) {
                Response::Error {
                    id,
                    error: ServiceError::ShuttingDown,
                }
            } else {
                match svc.handle_mutate(&op, deadline_ms) {
                    Ok((fingerprint, seq, path)) => Response::Mutate {
                        id,
                        fingerprint,
                        seq,
                        path,
                    },
                    Err(error) => Response::Error { id, error },
                }
            }
        }
        Request::Rank {
            id,
            walk,
            label,
            value,
            k,
            deadline_ms,
        } => {
            if shutdown.load(Ordering::SeqCst) {
                Response::Error {
                    id,
                    error: ServiceError::ShuttingDown,
                }
            } else {
                let (tx, rx) = mpsc::channel();
                let job = Job {
                    id: id.clone(),
                    walk,
                    label,
                    value,
                    k,
                    deadline_ms,
                    reply: tx,
                };
                match queue.try_push(job) {
                    Ok(depth) => {
                        QUEUE_DEPTH.set(depth as i64);
                        // Ordering: wait for this request's answer before
                        // reading the next line of this connection.
                        match rx.recv() {
                            Ok(reply) => return LineOutcome::Reply(reply),
                            Err(_) => Response::Error {
                                id,
                                error: ServiceError::ShuttingDown,
                            },
                        }
                    }
                    Err(crate::queue::Full(job)) => {
                        svc.note_shed();
                        let error = if shutdown.load(Ordering::SeqCst) {
                            ServiceError::ShuttingDown
                        } else {
                            ServiceError::Overloaded {
                                retry_after_ms: shed_retry_hint(queue),
                            }
                        };
                        Response::Error { id: job.id, error }
                    }
                }
            }
        }
    };
    LineOutcome::Reply(resp.to_json_line())
}

/// Retry hint for queue sheds: proportional to how much work is already
/// queued, so clients back off harder the deeper the backlog.
fn shed_retry_hint(queue: &Bounded<Job>) -> u64 {
    10 + 5 * queue.depth() as u64
}

/// Writes `line` and its terminating `\n` in a single `write`, so a
/// `TCP_NODELAY` socket sends the reply as one segment and the reader
/// never wakes on a line without its newline. Every reply the server,
/// the coordinator and `client_roundtrip` send goes through here.
pub(crate) fn write_line<W: Write>(mut out: W, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    out.write_all(&buf)?;
    out.flush()
}

/// A one-shot client for scripts and CI: connects, sends each request
/// line, collects one response line per request. Not a general client —
/// requests are sent up front and responses read back in order, which
/// is exactly the protocol contract.
pub fn client_roundtrip(addr: &str, lines: &[String]) -> std::io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    for line in lines {
        write_line(&stream, line)?;
    }
    let mut out = Vec::with_capacity(lines.len());
    let mut acc = Vec::new();
    let mut chunk = [0u8; 4096];
    while out.len() < lines.len() {
        match (&stream).read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                acc.extend_from_slice(&chunk[..n]);
                while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = acc.drain(..=pos).collect();
                    out.push(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repsim_graph::GraphBuilder;
    use repsim_obs::json::{self, Json};

    fn mas_like() -> Graph {
        let mut b = GraphBuilder::new();
        let conf = b.entity_label("conf");
        let paper = b.entity_label("paper");
        let dom = b.entity_label("dom");
        let confs: Vec<_> = (0..3).map(|i| b.entity(conf, &format!("c{i}"))).collect();
        let doms: Vec<_> = (0..2).map(|i| b.entity(dom, &format!("d{i}"))).collect();
        // Dom attachments vary per conf so self-similarity is strictly
        // maximal (an all-one-dom graph ties every conf at 1.0 and the
        // top-1 assertion would hinge on tie-break order).
        for (i, (c, d)) in [(0, 0), (0, 1), (1, 0), (2, 1), (0, 0), (1, 1)]
            .iter()
            .enumerate()
        {
            let p = b.entity(paper, &format!("p{i}"));
            b.edge(p, confs[*c]).unwrap();
            b.edge(p, doms[*d]).unwrap();
        }
        b.build()
    }

    /// A writer that counts its `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_sends_each_reply_in_one_write() {
        let mut out = CountingWriter::default();
        for (i, line) in [r#"{"id":1,"ok":true}"#, ""].iter().enumerate() {
            write_line(&mut out, line).unwrap();
            assert_eq!(out.writes, i + 1, "one write per reply");
        }
        assert_eq!(out.bytes, b"{\"id\":1,\"ok\":true}\n\n");
    }

    /// Boots a server on a free port, runs `f` against it, shuts down.
    fn with_server<F: FnOnce(SocketAddr)>(cfg: ServeConfig, f: F) {
        let g = mas_like();
        let shutdown = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let (shutdown, cfgref, gref) = (&shutdown, &cfg, &g);
            s.spawn(move || {
                let report = run(gref, cfgref, shutdown);
                let _ = tx.send(report.map(|r| r.addr));
            });
            // The port file is written once bound.
            let pf = cfg.port_file.clone().expect("tests use a port file");
            let addr = loop {
                if let Ok(text) = std::fs::read_to_string(&pf) {
                    if let Ok(a) = text.trim().parse::<SocketAddr>() {
                        break a;
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            // A panicking assertion must still stop the server, or the
            // scope would wait on the accept loop forever and the whole
            // suite hangs instead of reporting the failure.
            let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
            shutdown.store(true, Ordering::SeqCst);
            if let Err(p) = verdict {
                std::panic::resume_unwind(p);
            }
        });
        rx.recv().unwrap().unwrap();
    }

    fn test_cfg(name: &str) -> (ServeConfig, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("repsim-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            snapshot: Some(dir.join("idx.snap")),
            wal: Some(dir.join("g.wal")),
            queue_cap: 8,
            port_file: Some(dir.join("port")),
            metrics_journal: None,
            metrics_interval_ms: 1000,
            service: ServiceConfig::default(),
        };
        (cfg, dir)
    }

    #[test]
    fn rank_ping_stats_over_tcp() {
        let (cfg, dir) = test_cfg("basic");
        with_server(cfg, |addr| {
            let lines = vec![
                r#"{"id":1,"op":"ping"}"#.to_owned(),
                r#"{"id":2,"walk":"conf paper dom","label":"conf","value":"c0","k":3}"#.to_owned(),
                r#"{"id":3,"op":"stats"}"#.to_owned(),
            ];
            let out = client_roundtrip(&addr.to_string(), &lines).unwrap();
            assert_eq!(out.len(), 3);
            let pong = json::parse(&out[0]).unwrap();
            assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
            let rank = json::parse(&out[1]).unwrap();
            assert_eq!(rank.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(rank.get("tier").and_then(Json::as_str), Some("exact"));
            let results = rank.get("results").and_then(Json::as_arr).unwrap();
            assert!(!results.is_empty());
            // The query (c0) is excluded; c1 is its nearest other conf.
            assert_eq!(results[0].get("value").and_then(Json::as_str), Some("c1"));
            let stats = json::parse(&out[2]).unwrap();
            let body = stats.get("stats").unwrap();
            assert_eq!(body.get("requests").and_then(Json::as_num), Some(1.0));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_get_typed_errors_not_hangs() {
        let (cfg, dir) = test_cfg("bad");
        with_server(cfg, |addr| {
            let lines = vec![
                "this is not json".to_owned(),
                r#"{"op":"frobnicate"}"#.to_owned(),
                r#"{"id":9,"walk":"conf paper dom","label":"dom","value":"d0"}"#.to_owned(),
            ];
            let out = client_roundtrip(&addr.to_string(), &lines).unwrap();
            assert_eq!(out.len(), 3);
            for line in &out {
                let v = json::parse(line).unwrap();
                assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line}");
                assert_eq!(
                    v.get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Json::as_str),
                    Some("bad_request"),
                    "{line}"
                );
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_stream_pushes_finite_count_then_resumes_requests() {
        let (cfg, dir) = test_cfg("stream");
        with_server(cfg, |addr| {
            // One rank to make activity, then a 3-line stream at a fast
            // cadence, then a ping — the connection must come back to
            // normal request handling after the finite stream.
            // Two trailing blank lines elicit no response, so the
            // roundtrip helper (one reply per request line) collects
            // all five replies: rank + 3 pushes + pong.
            let lines = vec![
                r#"{"id":1,"walk":"conf paper dom","label":"conf","value":"c0","k":3}"#.to_owned(),
                r#"{"id":2,"op":"stats-stream","interval_ms":10,"count":3}"#.to_owned(),
                r#"{"id":3,"op":"ping"}"#.to_owned(),
                String::new(),
                String::new(),
            ];
            let out = client_roundtrip(&addr.to_string(), &lines).unwrap();
            assert_eq!(out.len(), 5, "{out:?}");
            let push = json::parse(&out[1]).unwrap();
            assert_eq!(push.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(push.get("id").and_then(Json::as_num), Some(2.0));
            assert_eq!(push.get("stream_seq").and_then(Json::as_num), Some(0.0));
            let stats = push.get("stats").unwrap();
            assert_eq!(stats.get("requests").and_then(Json::as_num), Some(1.0));
            assert!(stats.get("uptime_ms").and_then(Json::as_num).is_some());
            assert!(push
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .is_some());
            let second = json::parse(&out[2]).unwrap();
            assert_eq!(second.get("stream_seq").and_then(Json::as_num), Some(1.0));
            let pong = json::parse(&out[4]).unwrap();
            assert_eq!(pong.get("pong"), Some(&Json::Bool(true)), "{}", out[4]);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_journal_records_lines_while_serving() {
        let (mut cfg, dir) = test_cfg("journal");
        let journal = dir.join("metrics.jsonl");
        cfg.metrics_journal = Some(journal.clone());
        cfg.metrics_interval_ms = 10;
        with_server(cfg, |addr| {
            let lines =
                vec![r#"{"id":1,"walk":"conf paper dom","label":"conf","value":"c0"}"#.to_owned()];
            client_roundtrip(&addr.to_string(), &lines).unwrap();
            // Let a couple of journal intervals elapse.
            std::thread::sleep(Duration::from_millis(60));
        });
        let text = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "expected >=2 journal lines:\n{text}");
        for (i, line) in lines.iter().enumerate() {
            let v = json::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}: {line}"));
            assert_eq!(v.get("stream_seq").and_then(Json::as_num), Some(i as f64));
            assert!(v.get("stats").is_some(), "line {i}");
            assert!(v.get("metrics").is_some(), "line {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_op_drains_and_writes_final_snapshot() {
        let (cfg, dir) = test_cfg("drain");
        let snap = cfg.snapshot.clone().unwrap();
        let g = mas_like();
        let shutdown = AtomicBool::new(false);
        let report = std::thread::scope(|s| {
            let (shutdown, cfgref, gref) = (&shutdown, &cfg, &g);
            let h = s.spawn(move || run(gref, cfgref, shutdown));
            let pf = cfg.port_file.clone().unwrap();
            let addr = loop {
                if let Ok(text) = std::fs::read_to_string(&pf) {
                    if let Ok(a) = text.trim().parse::<SocketAddr>() {
                        break a;
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            let lines = vec![
                r#"{"id":1,"walk":"conf paper dom","label":"conf","value":"c1","k":2}"#.to_owned(),
                r#"{"id":2,"op":"shutdown"}"#.to_owned(),
            ];
            let out = client_roundtrip(&addr.to_string(), &lines).unwrap();
            assert_eq!(out.len(), 2);
            assert!(out[1].contains("shutting_down"), "{}", out[1]);
            h.join().unwrap()
        })
        .unwrap();
        assert!(report.requests >= 1);
        let final_snap = report.final_snapshot.expect("final snapshot written");
        assert!(final_snap.entries >= 1, "index persisted at shutdown");
        assert!(snap.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
