//! The scatter-gather coordinator for a sharded fleet.
//!
//! A fleet splits the candidate label's node list into contiguous row
//! bands ([`repsim_sparse::par::shard_band`]); each band is served by a
//! replica set of ordinary [`crate::server`] instances started with
//! `--shard-index/--shard-count`. The coordinator speaks the same
//! newline-delimited JSON protocol to clients, scatters every rank
//! request across the shards, and merges the band-local top-k lists with
//! the single-node comparator (score descending, then the `(label,
//! value)` sort key ascending) — so a fleet answer is *byte-identical*
//! to the single-node answer for the same graph and walk.
//!
//! The failure discipline, in order of application:
//!
//! 1. **Admission** — a bounded in-flight gate sheds excess requests
//!    with a typed `overloaded` error whose retry hint is clamped to the
//!    request's remaining deadline (a hint past the deadline is useless).
//! 2. **Per-shard deadline slicing** — each shard attempt inherits the
//!    request's remaining deadline; retries against other replicas spend
//!    the same budget, never extend it.
//! 3. **Retry with backoff** — replica failures rotate through the
//!    shard's replica set with a per-endpoint [`CircuitBreaker`], so a
//!    dead replica is skipped after a few failures instead of eating a
//!    connect timeout per request.
//! 4. **Hedging** — once a shard's latency histogram has enough samples,
//!    an attempt that exceeds the shard's observed p99 launches a second
//!    attempt against the next replica; first answer wins.
//! 5. **Epoch consistency** — every shard response carries the graph
//!    fingerprint it answered from. Responses whose fingerprint differs
//!    from the merge's reference epoch are *failed*, never silently
//!    merged (a mid-mutation fleet returns partial coverage, not a
//!    frankenranking).
//! 6. **Partial degradation** — when a whole shard's replica set is
//!    down, the merged ranking of the live shards is returned with tier
//!    `partial-shards:A/T` and an explicit `coverage` object. Zero live
//!    shards is the floor: a typed `shards_unavailable` error.
//!
//! The transport keeps connections. Each replica pools up to
//! `IDLE_CAP` idle connections (a fixed cap, no knob); an attempt takes
//! one if it can and connects otherwise. Every forwarded request carries
//! a process-wide attempt id that the shard echoes. A connection returns
//! to the pool only after exactly one complete reply line with the
//! attempt's own id and nothing after it; a timeout, an I/O or parse
//! error or a foreign id drops it. A pooled connection that meets EOF or
//! a reset before any reply byte was closed by a replica that restarted
//! or stopped: the attempt empties that replica's pool and retries once
//! on a fresh connection, which a dead replica refuses. The resend is
//! safe because `rank`, an idempotent read, is the only op routed here.
//! The accept loop blocks, waking every `POLL` only to check shutdown.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use repsim_audit::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use repsim_audit::sync::{Arc, Mutex};
use repsim_obs::{CounterHandle, Histogram, HistogramHandle, HistogramSummary};

use crate::breaker::{BreakerConfig, CircuitBreaker, OpClass};
use crate::error::ServiceError;
use crate::protocol::{
    parse_shard_reply_with_id, render_rank_request, RankEntry, ReqId, Request, Response,
    ShardIdent, ShardReply,
};
use crate::server::{accept_until_shutdown, bind_listener, write_line, ServeError, POLL};

static REQUESTS: CounterHandle = CounterHandle::new("repsim.serve.coord.requests");
static SHED: CounterHandle = CounterHandle::new("repsim.serve.coord.shed");
static RETRIES: CounterHandle = CounterHandle::new("repsim.serve.coord.retries");
static HEDGES: CounterHandle = CounterHandle::new("repsim.serve.coord.hedges");
static HEDGE_WINS: CounterHandle = CounterHandle::new("repsim.serve.coord.hedge_wins");
static PARTIAL: CounterHandle = CounterHandle::new("repsim.serve.coord.partial");
static EPOCH_MISMATCH: CounterHandle = CounterHandle::new("repsim.serve.coord.epoch_mismatch");
static SHARD_FAILED: CounterHandle = CounterHandle::new("repsim.serve.coord.shard_failed");
static CONNECTS: CounterHandle = CounterHandle::new("repsim.serve.coord.connects");
static LATENCY_NS: HistogramHandle = HistogramHandle::new("repsim.serve.coord.latency_ns");

/// Attempt timeout when the request carries no deadline: generous, but
/// bounded — a wedged replica must not pin a connection thread forever.
const DEFAULT_ATTEMPT_TIMEOUT: Duration = Duration::from_secs(10);

/// Minimum latency samples before the p99 estimate is trusted enough to
/// hedge on. Below this the estimate is noise and hedging would double
/// the fleet's load for nothing.
const HEDGE_MIN_SAMPLES: u64 = 20;

/// Idle connections kept per replica. One closed-loop client needs one
/// per replica; the rest is headroom for hedges and overlapping
/// requests. A connection finishing while the pool is full is closed.
const IDLE_CAP: usize = 4;

/// Process-wide attempt ids, stamped on every forwarded request and
/// echoed by the shard.
static NEXT_ATTEMPT_ID: AtomicU64 = AtomicU64::new(1);

/// Coordinator tuning.
#[derive(Clone, Debug)]
pub struct CoordConfig {
    /// Bind address; port 0 picks a free port (written to `port_file`).
    pub addr: String,
    /// `shards[i]` is shard `i`'s replica set (`host:port` addresses).
    pub shards: Vec<Vec<String>>,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline_ms: Option<u64>,
    /// Per-endpoint circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Concurrent rank requests admitted before shedding.
    pub max_inflight: usize,
    /// Written with the actual `ip:port` once bound.
    pub port_file: Option<PathBuf>,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: Vec::new(),
            default_deadline_ms: None,
            breaker: BreakerConfig::default(),
            max_inflight: 256,
            port_file: None,
        }
    }
}

/// What a completed [`run_coordinator`] did, for the CLI summary line.
#[derive(Debug)]
pub struct CoordReport {
    /// The address actually bound.
    pub addr: SocketAddr,
    /// Rank requests admitted over the coordinator's lifetime.
    pub requests: u64,
    /// Rank requests shed by the in-flight gate.
    pub shed: u64,
}

/// One replica endpoint of a shard, with its private breaker — endpoint
/// health is per-endpoint, not per-shard — and its idle connections.
struct Replica {
    addr: String,
    breaker: CircuitBreaker,
    /// Connections with no request in flight and no unread byte. A leaf
    /// lock, held only to push or pop: never across a connect, read or
    /// write.
    idle: Mutex<Vec<TcpStream>>,
    /// Fresh connections opened to this replica.
    connects: AtomicU64,
}

impl Replica {
    fn new(addr: String, breaker: BreakerConfig) -> Replica {
        Replica {
            addr,
            breaker: CircuitBreaker::new(breaker),
            idle: Mutex::new(Vec::new()),
            connects: AtomicU64::new(0),
        }
    }

    fn take_idle(&self) -> Option<TcpStream> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    /// Pools `stream` unless the pool is full; a refused stream closes
    /// after the lock is released.
    fn put_idle(&self, stream: TcpStream) {
        let refused = {
            let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
            if idle.len() < IDLE_CAP {
                idle.push(stream);
                None
            } else {
                Some(stream)
            }
        };
        drop(refused);
    }

    /// Empties the pool; the caller drops the streams outside the lock.
    fn drain_idle(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.idle.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// One shard's replica set plus its observed latency distribution (the
/// hedging trigger).
struct ShardState {
    replicas: Vec<Replica>,
    latency: Histogram,
    /// Rotates the first replica tried, spreading steady-state load
    /// across the set instead of hammering replica 0.
    rr: AtomicUsize,
}

/// A shard's mergeable answer.
struct ShardSuccess {
    tier: String,
    results: Vec<RankEntry>,
    ident: ShardIdent,
}

/// The scatter-gather fan-out state. One per coordinator process;
/// shared (via `Arc`) with every connection thread.
pub struct Coordinator {
    cfg: CoordConfig,
    shards: Vec<Arc<ShardState>>,
    inflight: AtomicUsize,
    requests: AtomicU64,
    shed: AtomicU64,
    // Arc'd: the per-shard gatherer threads outlive `&self` borrows.
    retries: Arc<AtomicU64>,
    hedges: Arc<AtomicU64>,
    hedge_wins: Arc<AtomicU64>,
    partial: AtomicU64,
    epoch_mismatch: AtomicU64,
    shard_failed: AtomicU64,
    started_ns: u64,
}

impl Coordinator {
    /// A coordinator over `cfg.shards`. The fleet shape is fixed for
    /// the process lifetime.
    pub fn new(cfg: CoordConfig) -> Coordinator {
        let shards = cfg
            .shards
            .iter()
            .map(|replicas| {
                Arc::new(ShardState {
                    replicas: replicas
                        .iter()
                        .map(|addr| Replica::new(addr.clone(), cfg.breaker))
                        .collect(),
                    latency: Histogram::default(),
                    rr: AtomicUsize::new(0),
                })
            })
            .collect();
        Coordinator {
            cfg,
            shards,
            inflight: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            retries: Arc::new(AtomicU64::new(0)),
            hedges: Arc::new(AtomicU64::new(0)),
            hedge_wins: Arc::new(AtomicU64::new(0)),
            partial: AtomicU64::new(0),
            epoch_mismatch: AtomicU64::new(0),
            shard_failed: AtomicU64::new(0),
            started_ns: repsim_obs::now_ns(),
        }
    }

    /// Answers one rank request by scatter-gathering the fleet.
    pub fn handle_rank(
        &self,
        walk: &str,
        label: &str,
        value: &str,
        k: usize,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ServiceError> {
        let mut span = repsim_obs::span("repsim.serve.coord.request");
        if span.is_active() {
            span.attr("walk", walk);
            span.attr("query", format!("{label}={value}"));
            span.attr("k", k);
        }
        let start = Instant::now();
        let deadline_ms = deadline_ms.or(self.cfg.default_deadline_ms);
        let deadline = deadline_ms.map(|ms| start + Duration::from_millis(ms));

        // Admission: a bounded in-flight gate. The decrement guard runs
        // on every exit path, including panics in the merge.
        let gate = InflightGuard::enter(&self.inflight);
        if gate.depth > self.cfg.max_inflight {
            self.shed.fetch_add(1, Ordering::Relaxed);
            SHED.add(1);
            // The hint is useless past the request's own deadline.
            let hint = 10 + 5 * gate.depth as u64;
            let remaining = deadline
                .map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64)
                .unwrap_or(u64::MAX);
            return Err(ServiceError::Overloaded {
                retry_after_ms: hint.min(remaining),
            });
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        REQUESTS.add(1);

        // Scatter: one gatherer thread per shard; each reports exactly
        // once. Attempt threads may outlive the request (they hold only
        // owned data and a dead channel sender).
        // A shard's verdict: a mergeable answer, or the text of why its
        // whole replica set produced none.
        let (tx, rx) = mpsc::channel::<(usize, Result<ShardSuccess, String>)>();
        let req = Arc::new(ShardRequest {
            walk: walk.to_owned(),
            label: label.to_owned(),
            value: value.to_owned(),
            k,
            deadline_ms: remaining_ms(deadline),
        });
        for (i, shard) in self.shards.iter().enumerate() {
            let shard = Arc::clone(shard);
            let tx = tx.clone();
            let req = Arc::clone(&req);
            let counters = GatherCounters {
                retries: CounterPair {
                    local: Arc::clone(&self.retries),
                    handle: &RETRIES,
                },
                hedges: CounterPair {
                    local: Arc::clone(&self.hedges),
                    handle: &HEDGES,
                },
                hedge_wins: CounterPair {
                    local: Arc::clone(&self.hedge_wins),
                    handle: &HEDGE_WINS,
                },
            };
            std::thread::spawn(move || {
                let verdict = query_shard(&shard, &req, deadline, &counters);
                let _ = tx.send((i, verdict));
            });
        }
        drop(tx);

        // Gather until every shard reported or the deadline passed.
        let total = self.shards.len();
        let mut answers: Vec<Option<Result<ShardSuccess, String>>> =
            (0..total).map(|_| None).collect();
        let mut reported = 0usize;
        while reported < total {
            let wait = deadline
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(DEFAULT_ATTEMPT_TIMEOUT + Duration::from_secs(1));
            match rx.recv_timeout(wait) {
                Ok((i, verdict)) => {
                    if let Some(slot) = answers.get_mut(i) {
                        *slot = Some(verdict);
                    }
                    reported += 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }

        let resp = self.merge(answers, k, total);
        LATENCY_NS.record(start.elapsed().as_nanos() as u64);
        resp
    }

    /// Merges the gathered per-shard verdicts into the client response.
    fn merge(
        &self,
        answers: Vec<Option<Result<ShardSuccess, String>>>,
        k: usize,
        total: usize,
    ) -> Result<Response, ServiceError> {
        // Epoch consensus: the reference fingerprint is the first
        // successful shard's, in shard-index order (deterministic for a
        // healthy fleet — all shards agree). Later answers from another
        // epoch are failed, not merged.
        let mut reference: Option<u64> = None;
        let mut merged: Vec<RankEntry> = Vec::new();
        let mut answered = 0usize;
        let mut worst_tier: Option<String> = None;
        for (i, slot) in answers.into_iter().enumerate() {
            let verdict = match slot {
                Some(v) => v,
                None => {
                    self.note_shard_failed(i, "deadline expired before the shard answered");
                    continue;
                }
            };
            let success = match verdict {
                Ok(s) => s,
                Err(why) => {
                    self.note_shard_failed(i, &why);
                    continue;
                }
            };
            if success.ident.id != i as u32 {
                self.note_shard_failed(i, "response from the wrong shard index");
                continue;
            }
            match reference {
                None => reference = Some(success.ident.fingerprint),
                Some(fp) if fp != success.ident.fingerprint => {
                    self.epoch_mismatch.fetch_add(1, Ordering::Relaxed);
                    EPOCH_MISMATCH.add(1);
                    self.note_shard_failed(i, "answered from a diverged epoch");
                    continue;
                }
                Some(_) => {}
            }
            answered += 1;
            let worse = worst_tier
                .as_deref()
                .is_none_or(|t| tier_rank(&success.tier) > tier_rank(t));
            if worse {
                worst_tier = Some(success.tier.clone());
            }
            merged.extend(success.results);
        }

        if answered == 0 {
            return Err(ServiceError::ShardsUnavailable { total });
        }

        // The single-node comparator: score descending, then the
        // `(label, value)` sort key ascending. Disjoint covering bands
        // make this reproduce the unsharded ranking exactly.
        merged.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    (a.label.as_str(), a.value.as_str()).cmp(&(b.label.as_str(), b.value.as_str()))
                })
        });
        merged.truncate(k);

        let (tier, coverage) = if answered < total {
            self.partial.fetch_add(1, Ordering::Relaxed);
            PARTIAL.add(1);
            (
                format!("partial-shards:{answered}/{total}"),
                Some((answered, total)),
            )
        } else {
            (worst_tier.unwrap_or_else(|| "exact".to_owned()), None)
        };
        Ok(Response::Rank {
            id: ReqId::Absent, // stamped by the connection handler
            tier,
            results: merged,
            shard: None,
            coverage,
        })
    }

    fn note_shard_failed(&self, index: usize, why: &str) {
        self.shard_failed.fetch_add(1, Ordering::Relaxed);
        SHARD_FAILED.add(1);
        repsim_obs::point(
            "repsim.serve.coord.shard_failed",
            repsim_obs::Level::Warn,
            format!("shard {index}: {why}"),
        );
    }

    /// The coordinator's stats payload (a `coord` object, not the
    /// single-node `stats` body — the fleets' per-node bodies are one
    /// `stats` hop away on each shard).
    fn stats_json(&self) -> String {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let breakers: Vec<String> = self
            .shards
            .iter()
            .map(|s| {
                let states: Vec<String> = s
                    .replicas
                    .iter()
                    .map(|r| format!("\"{}\"", r.breaker.state_name_class(OpClass::Rank)))
                    .collect();
                format!("[{}]", states.join(","))
            })
            .collect();
        let connects: u64 = self
            .shards
            .iter()
            .flat_map(|s| &s.replicas)
            .map(|r| c(&r.connects))
            .sum();
        format!(
            "{{\"requests\":{},\"shed\":{},\"retries\":{},\"hedges\":{},\
             \"hedge_wins\":{},\"partial\":{},\"epoch_mismatch\":{},\
             \"shard_failed\":{},\"connects\":{},\"shards\":{},\"breakers\":[{}],\
             \"uptime_ms\":{}}}",
            c(&self.requests),
            c(&self.shed),
            c(&self.retries),
            c(&self.hedges),
            c(&self.hedge_wins),
            c(&self.partial),
            c(&self.epoch_mismatch),
            c(&self.shard_failed),
            connects,
            self.shards.len(),
            breakers.join(","),
            (repsim_obs::now_ns().saturating_sub(self.started_ns)) / 1_000_000,
        )
    }
}

/// Milliseconds until `deadline`, for the forwarded request line.
fn remaining_ms(deadline: Option<Instant>) -> Option<u64> {
    deadline.map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64)
}

/// Degradation tiers ordered worst-last; the coordinator reports the
/// worst tier any merged shard answered at.
fn tier_rank(tier: &str) -> u8 {
    match tier {
        "exact" => 0,
        "half-factorized" => 1,
        _ => 2, // prefix:<walk> and anything newer
    }
}

/// An RAII decrement for the in-flight gate.
struct InflightGuard<'a> {
    inflight: &'a AtomicUsize,
    depth: usize,
}

impl<'a> InflightGuard<'a> {
    fn enter(inflight: &'a AtomicUsize) -> InflightGuard<'a> {
        let depth = inflight.fetch_add(1, Ordering::SeqCst) + 1;
        InflightGuard { inflight, depth }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Counter pairs (struct atomic + registry handle) threaded into the
/// per-shard gatherers, which outlive no request but run off-struct.
struct GatherCounters {
    retries: CounterPair,
    hedges: CounterPair,
    hedge_wins: CounterPair,
}

/// One shared counter: the coordinator's own atomic (for the stats
/// body) plus the global metric handle (for traces and journals).
#[derive(Clone)]
struct CounterPair {
    local: Arc<AtomicU64>,
    handle: &'static CounterHandle,
}

impl CounterPair {
    fn add(&self, n: u64) {
        self.local.fetch_add(n, Ordering::Relaxed);
        self.handle.add(n);
    }
}

/// The shard-bound part of one rank request. Each attempt renders it
/// with an attempt id of its own.
struct ShardRequest {
    walk: String,
    label: String,
    value: String,
    k: usize,
    /// The request's remaining deadline when it was scattered.
    deadline_ms: Option<u64>,
}

impl ShardRequest {
    /// The newline-terminated request line for attempt `id`.
    fn line(&self, id: u64) -> String {
        let mut line = render_rank_request(
            id,
            &self.walk,
            &self.label,
            &self.value,
            self.k,
            self.deadline_ms,
        );
        line.push('\n');
        line
    }
}

/// The outcome one connection attempt reports to its shard gatherer.
enum AttemptOutcome {
    Success(ShardSuccess),
    Failed(String),
}

/// Queries one shard: first replica by rotation, retry/backoff through
/// the rest of the replica set on failure, and a hedged second attempt
/// when the first exceeds the shard's observed p99.
fn query_shard(
    shard: &Arc<ShardState>,
    req: &Arc<ShardRequest>,
    deadline: Option<Instant>,
    counters: &GatherCounters,
) -> Result<ShardSuccess, String> {
    let started = shard.rr.fetch_add(1, Ordering::Relaxed);
    let n = shard.replicas.len();
    if n == 0 {
        return Err("empty replica set".to_owned());
    }
    let mut last_error = String::from("no replica attempted");
    let (tx, rx) = mpsc::channel::<(usize, AttemptOutcome)>();
    let mut launched = 0usize;
    let mut first_attempt_at: Option<Instant> = None;
    let hedge_after = hedge_timeout(&shard.latency);

    // Walk the replica rotation; each iteration either launches an
    // attempt or consumes a failure. The loop ends on the first
    // success, on deadline, or when every replica failed.
    let mut failures = 0usize;
    let mut next = 0usize;
    let mut hedged = false;
    let mut hedge_idx: Option<usize> = None;
    // Attempt index -> replica index, for breaker bookkeeping when the
    // attempt reports back.
    let mut attempt_replica: Vec<usize> = Vec::new();
    loop {
        let now = Instant::now();
        if deadline.is_some_and(|d| now >= d) {
            return Err(format!("deadline expired ({last_error})"));
        }
        // Launch the next attempt when none is outstanding, or hedge
        // when the outstanding one is past the shard's p99.
        let outstanding = launched - failures;
        let should_hedge = outstanding == 1
            && !hedged
            && next < n
            && hedge_after
                .zip(first_attempt_at)
                .is_some_and(|(h, t0)| now.saturating_duration_since(t0) >= h);
        if outstanding == 0 || should_hedge {
            if next >= n {
                if outstanding == 0 {
                    return Err(last_error);
                }
            } else {
                let replica_idx = (started + next) % n;
                let replica = &shard.replicas[replica_idx];
                next += 1;
                match replica.breaker.admit_class(OpClass::Rank) {
                    Ok(()) => {
                        let idx = launched;
                        if launched > 0 {
                            if should_hedge {
                                hedged = true;
                                hedge_idx = Some(idx);
                                counters.hedges.add(1);
                            } else {
                                counters.retries.add(1);
                            }
                        }
                        let attempt_deadline =
                            deadline.unwrap_or_else(|| now + DEFAULT_ATTEMPT_TIMEOUT);
                        launched += 1;
                        attempt_replica.push(replica_idx);
                        if first_attempt_at.is_none() {
                            first_attempt_at = Some(now);
                        }
                        spawn_attempt(
                            Arc::clone(shard),
                            replica_idx,
                            Arc::clone(req),
                            attempt_deadline,
                            idx,
                            tx.clone(),
                        );
                    }
                    Err(retry_ms) => {
                        // Breaker-open replicas are skipped, not failed:
                        // the rotation moves on without an attempt.
                        last_error = format!("breaker open on {} ({} ms)", replica.addr, retry_ms);
                        continue;
                    }
                }
            }
        }
        // Wait for an attempt to report, bounded by the hedge trigger
        // (so a slow first attempt wakes us to launch the hedge) and
        // the deadline.
        let wait_deadline = deadline.unwrap_or_else(|| now + DEFAULT_ATTEMPT_TIMEOUT);
        let mut wait = wait_deadline.saturating_duration_since(Instant::now());
        if let (Some(h), Some(t0), false) = (hedge_after, first_attempt_at, hedged) {
            let until_hedge = (t0 + h).saturating_duration_since(Instant::now());
            wait = wait.min(until_hedge.max(Duration::from_millis(1)));
        }
        match rx.recv_timeout(wait.max(Duration::from_millis(1))) {
            Ok((idx, AttemptOutcome::Success(success))) => {
                if let Some(t0) = first_attempt_at {
                    shard.latency.record(t0.elapsed().as_nanos() as u64);
                }
                if let Some(r) = attempt_replica
                    .get(idx)
                    .and_then(|&r| shard.replicas.get(r))
                {
                    r.breaker.on_success_class(OpClass::Rank);
                }
                if hedge_idx == Some(idx) {
                    counters.hedge_wins.add(1);
                }
                return Ok(success);
            }
            Ok((idx, AttemptOutcome::Failed(e))) => {
                failures += 1;
                last_error = e;
                if let Some(r) = attempt_replica
                    .get(idx)
                    .and_then(|&r| shard.replicas.get(r))
                {
                    // Failures feed the per-endpoint breaker; enough in
                    // a row opens it and the rotation skips the replica.
                    let _ = r.breaker.on_exhausted_class(OpClass::Rank);
                }
                if failures >= launched && next >= n {
                    return Err(last_error);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Either the hedge trigger fired (loop launches it) or
                // the deadline passed (checked at loop top).
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(last_error);
            }
        }
    }
}

/// The shard's p99 as a hedge trigger, once enough samples exist.
fn hedge_timeout(latency: &Histogram) -> Option<Duration> {
    if latency.count() < HEDGE_MIN_SAMPLES {
        return None;
    }
    let summary = HistogramSummary::from_parts(latency.buckets(), latency.sum());
    let p99_ns = summary.quantile(0.99);
    Some(Duration::from_nanos(p99_ns.max(1_000_000))) // floor 1ms
}

/// One attempt on its own thread: send on a pooled or fresh connection,
/// read one line, parse. Owns everything it touches so it may outlive
/// the request that launched it (the send then just fails).
fn spawn_attempt(
    shard: Arc<ShardState>,
    replica: usize,
    req: Arc<ShardRequest>,
    attempt_deadline: Instant,
    idx: usize,
    tx: mpsc::Sender<(usize, AttemptOutcome)>,
) {
    std::thread::spawn(move || {
        let outcome = run_attempt(&shard.replicas[replica], &req, attempt_deadline);
        let _ = tx.send((idx, outcome));
    });
}

/// Runs one attempt against `replica`: an idle pooled connection if
/// there is one, else a fresh connect. The connection goes back to the
/// pool only after exactly one complete reply line carrying this
/// attempt's id and nothing after it; a timeout, an I/O error, a parse
/// error or a foreign id drops it. So a hedge loser, or an attempt
/// abandoned at its deadline, never leaves a reply unread on a pooled
/// connection.
fn run_attempt(replica: &Replica, req: &ShardRequest, attempt_deadline: Instant) -> AttemptOutcome {
    let addr = replica.addr.as_str();
    let id = NEXT_ATTEMPT_ID.fetch_add(1, Ordering::Relaxed);
    let line = req.line(id);
    let mut pooled = replica.take_idle();
    loop {
        let reused = pooled.is_some();
        let stream = match pooled.take() {
            Some(stream) => stream,
            None => match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    replica.connects.fetch_add(1, Ordering::Relaxed);
                    CONNECTS.add(1);
                    stream
                }
                Err(e) => return AttemptOutcome::Failed(format!("connect {addr}: {e}")),
            },
        };
        let (reply, clean) = match exchange(&stream, &line, attempt_deadline, addr) {
            Exchange::Reply { line, clean } => (line, clean),
            // The replica closed a connection while it sat idle (it
            // restarted or shut down): empty its pool and retry once on
            // a fresh connection, which a dead replica refuses. The
            // resend is safe because only `rank`, an idempotent read, is
            // routed through the coordinator (`coord_line` rejects
            // mutations).
            Exchange::Closed(_) if reused => {
                drop(replica.drain_idle());
                continue;
            }
            Exchange::Closed(why) | Exchange::Failed(why) => return AttemptOutcome::Failed(why),
        };
        return match parse_shard_reply_with_id(&reply) {
            Ok((echo, _)) if echo != Some(id) => {
                AttemptOutcome::Failed(format!("{addr}: reply for attempt {echo:?}, not {id}"))
            }
            Ok((_, reply)) => {
                if clean {
                    replica.put_idle(stream);
                }
                match reply {
                    ShardReply::Rank {
                        tier,
                        results,
                        shard,
                    } => AttemptOutcome::Success(ShardSuccess {
                        tier,
                        results,
                        ident: shard,
                    }),
                    ShardReply::Error { code, message, .. } => {
                        AttemptOutcome::Failed(format!("{addr}: {code}: {message}"))
                    }
                }
            }
            Err(e) => AttemptOutcome::Failed(format!("{addr}: {e}")),
        };
    }
}

/// How one request/reply exchange on a connection ended.
enum Exchange {
    /// One complete reply line; `clean` when no byte followed it.
    Reply { line: String, clean: bool },
    /// EOF or reset before any reply byte arrived.
    Closed(String),
    /// A timeout, or any other I/O failure.
    Failed(String),
}

/// Sends `line` (newline included) on `stream` and reads one reply line
/// before `attempt_deadline`.
fn exchange(stream: &TcpStream, line: &str, attempt_deadline: Instant, addr: &str) -> Exchange {
    let closed = |e: &std::io::Error| {
        matches!(
            e.kind(),
            ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe
        )
    };
    let budget = attempt_deadline.saturating_duration_since(Instant::now());
    if budget.is_zero() {
        return Exchange::Failed(format!("deadline expired before sending to {addr}"));
    }
    if stream.set_read_timeout(Some(budget)).is_err()
        || stream.set_write_timeout(Some(budget)).is_err()
    {
        return Exchange::Failed(format!("cannot arm timeouts on {addr}"));
    }
    if let Err(e) = (&*stream).write_all(line.as_bytes()) {
        let why = format!("send to {addr}: {e}");
        return if closed(&e) {
            Exchange::Closed(why)
        } else {
            Exchange::Failed(why)
        };
    }
    let mut acc: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(pos) = acc.iter().position(|&b| b == b'\n') {
            return Exchange::Reply {
                line: String::from_utf8_lossy(&acc[..pos]).trim().to_owned(),
                clean: pos + 1 == acc.len(),
            };
        }
        if Instant::now() >= attempt_deadline {
            return Exchange::Failed(format!("read from {addr} timed out"));
        }
        match (&*stream).read(&mut chunk) {
            Ok(0) if acc.is_empty() => {
                return Exchange::Closed(format!("{addr} closed the connection"))
            }
            Ok(0) => return Exchange::Failed(format!("{addr} closed the connection mid-reply")),
            Ok(got) => acc.extend_from_slice(&chunk[..got]),
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted => {}
            Err(e) if closed(&e) && acc.is_empty() => {
                return Exchange::Closed(format!("read from {addr}: {e}"))
            }
            Err(e) => return Exchange::Failed(format!("read from {addr}: {e}")),
        }
    }
}

/// Runs the coordinator until `shutdown` is set. Blocks the calling
/// thread; returns a summary after the accept loop exits.
pub fn run_coordinator(
    cfg: &CoordConfig,
    shutdown: &AtomicBool,
) -> Result<CoordReport, ServeError> {
    let metrics_on: Arc<dyn repsim_obs::Sink> = Arc::new(repsim_obs::NullSink);
    repsim_obs::install(Arc::clone(&metrics_on));
    let report = run_coordinator_inner(cfg, shutdown);
    repsim_obs::remove_sink(&metrics_on);
    report
}

fn run_coordinator_inner(
    cfg: &CoordConfig,
    shutdown: &AtomicBool,
) -> Result<CoordReport, ServeError> {
    let coord = Arc::new(Coordinator::new(cfg.clone()));
    let (listener, addr) = bind_listener(&cfg.addr)?;
    if let Some(pf) = &cfg.port_file {
        std::fs::write(pf, format!("{addr}\n")).map_err(|e| ServeError::PortFile {
            path: pf.clone(),
            message: e.to_string(),
        })?;
    }
    repsim_obs::point(
        "repsim.serve.coord.listening",
        repsim_obs::Level::Info,
        format!("coordinating {} shards on {addr}", coord.shards.len()),
    );

    std::thread::scope(|s| {
        accept_until_shutdown(&listener, shutdown, |stream| {
            let coord = Arc::clone(&coord);
            s.spawn(move || coord_connection(stream, &coord, shutdown));
        });
    });

    Ok(CoordReport {
        addr,
        requests: coord.requests.load(Ordering::Relaxed),
        shed: coord.shed.load(Ordering::Relaxed),
    })
}

/// Drives one client connection against the coordinator: rank requests
/// scatter-gather inline on this thread; control ops answer directly.
fn coord_connection(stream: TcpStream, coord: &Coordinator, shutdown: &AtomicBool) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut acc: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = acc.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            if let Some(reply) = coord_line(text.trim(), coord, shutdown) {
                if write_line(&stream, &reply).is_err() {
                    return;
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

/// Handles one request line; `None` for blank lines.
fn coord_line(line: &str, coord: &Coordinator, shutdown: &AtomicBool) -> Option<String> {
    if line.is_empty() {
        return None;
    }
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(message) => {
            return Some(
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
        Request::Stats { id } => {
            // The coordinator's counters as a `coord` object; the
            // single-node `stats` body lives on each shard.
            let mut out = String::from("{");
            id.render(&mut out);
            out.push_str("\"ok\":true,\"coord\":");
            out.push_str(&coord.stats_json());
            out.push('}');
            return Some(out);
        }
        Request::Shutdown { id } => {
            shutdown.store(true, Ordering::SeqCst);
            Response::ShuttingDown { id }
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
                match coord.handle_rank(&walk, &label, &value, k, deadline_ms) {
                    Ok(Response::Rank {
                        tier,
                        results,
                        shard,
                        coverage,
                        ..
                    }) => Response::Rank {
                        id,
                        tier,
                        results,
                        shard,
                        coverage,
                    },
                    Ok(other) => other,
                    Err(error) => Response::Error { id, error },
                }
            }
        }
        Request::StatsStream { id, .. } | Request::Snapshot { id } => Response::Error {
            id,
            error: ServiceError::BadRequest(
                "op not supported by the coordinator; ask a shard directly".to_owned(),
            ),
        },
        Request::Mutate { id, .. } => Response::Error {
            id,
            error: ServiceError::BadRequest(
                "mutations go to the shards' WALs, not through the coordinator".to_owned(),
            ),
        },
    };
    Some(resp.to_json_line())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead as _;
    use std::net::TcpListener;

    /// A one-request fake shard: reads one rank line and answers an
    /// empty band ranking stamped with `reply_id(sent_id)`.
    fn fake_shard(reply_id: fn(u64) -> u64) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shard = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            std::io::BufReader::new(&stream)
                .read_line(&mut line)
                .unwrap();
            let ReqId::Num(sent) = Request::parse(&line).unwrap().id().clone() else {
                panic!("the forwarded request carries no numeric id: {line}");
            };
            let reply = format!(
                "{{\"id\":{},\"ok\":true,\"tier\":\"exact\",\"results\":[],\
                 \"shard\":{{\"id\":0,\"fingerprint\":\"0x1\",\"seq\":0}}}}\n",
                reply_id(sent as u64)
            );
            (&stream).write_all(reply.as_bytes()).unwrap();
            // Hold the connection open until the coordinator is done.
            let _ = (&stream).read(&mut [0u8; 1]);
        });
        (addr, shard)
    }

    fn request() -> ShardRequest {
        ShardRequest {
            walk: "l0 l1".to_owned(),
            label: "l0".to_owned(),
            value: "v".to_owned(),
            k: 3,
            deadline_ms: None,
        }
    }

    fn attempt(replica: &Replica) -> AttemptOutcome {
        run_attempt(replica, &request(), Instant::now() + Duration::from_secs(5))
    }

    #[test]
    fn an_echoed_attempt_id_succeeds_and_pools_the_connection() {
        let (addr, shard) = fake_shard(|sent| sent);
        let replica = Replica::new(addr, BreakerConfig::default());
        assert!(matches!(attempt(&replica), AttemptOutcome::Success(_)));
        assert_eq!(replica.connects.load(Ordering::Relaxed), 1);
        let pooled = replica.take_idle();
        assert!(pooled.is_some(), "a clean reply pools its connection");
        drop(pooled);
        shard.join().unwrap();
    }

    #[test]
    fn a_foreign_attempt_id_fails_and_drops_the_connection() {
        let (addr, shard) = fake_shard(|sent| sent + 1);
        let replica = Replica::new(addr, BreakerConfig::default());
        match attempt(&replica) {
            AttemptOutcome::Failed(why) => assert!(why.contains("reply for attempt"), "{why}"),
            AttemptOutcome::Success(_) => panic!("a reply with another id must not merge"),
        }
        assert!(
            replica.take_idle().is_none(),
            "a mismatched reply must not pool its connection"
        );
        shard.join().unwrap();
    }
}
