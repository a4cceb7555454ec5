//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order.
//! Requests are parsed with [`repsim_obs::json`] (the workspace's
//! zero-dependency parser); responses are emitted by hand with the same
//! escaping rules. The envelope is versioned implicitly by the server's
//! snapshot/protocol docs in DESIGN.md ("Serving & persistence").
//!
//! Request (`op` defaults to `"rank"` when a `walk` is present):
//!
//! ```json
//! {"id":1,"op":"rank","walk":"conf paper dom kw","label":"conf","value":"c0","k":10,"deadline_ms":250}
//! {"id":2,"op":"ping"}
//! {"id":3,"op":"stats"}
//! {"id":4,"op":"snapshot"}
//! {"id":5,"op":"shutdown"}
//! {"id":6,"op":"mutate","action":"add_entity","label":"actor","value":"new"}
//! {"id":7,"op":"mutate","action":"add_edge","a":"film:f0","b":"actor:new"}
//! {"id":8,"op":"mutate","action":"remove_edge","a":"film:f0","b":"actor:new"}
//! {"id":9,"op":"stats-stream","interval_ms":500,"count":10}
//! ```
//!
//! Mutate node references are `label:value` for entities or
//! `label:#index` for relationship nodes ([`repsim_graph::NodeRef`]'s
//! text form). Mutate responses carry the post-mutation graph
//! fingerprint (hex), the WAL sequence number that made the write
//! durable, and the index-maintenance path taken (`"patch"` when the
//! mutation's rows were patched into the cached matrices it reaches,
//! `"evict"` when a patch failed and its matrix was dropped, `"none"`
//! when it reached none).
//!
//! Success envelope: `{"id":…,"ok":true,…}` with an op-specific payload;
//! rank responses carry `"tier"` (the degradation tier that actually
//! answered) and `"results":[{"label":…,"value":…,"score":…},…]`.
//! Failure envelope: `{"id":…,"ok":false,"error":{"code":…,"message":…}}`
//! plus `"retry_after_ms"` on `overloaded` rejections.

use std::fmt::Write as _;

use repsim_graph::{MutationOp, NodeRef};
use repsim_obs::json::{self, Json};

use crate::error::ServiceError;

/// A request id, echoed verbatim into the response envelope.
#[derive(Clone, Debug, PartialEq)]
pub enum ReqId {
    /// A numeric id.
    Num(f64),
    /// A string id.
    Str(String),
    /// No id supplied.
    Absent,
}

impl ReqId {
    fn from_json(v: Option<&Json>) -> ReqId {
        match v {
            Some(Json::Num(n)) => ReqId::Num(*n),
            Some(Json::Str(s)) => ReqId::Str(s.clone()),
            _ => ReqId::Absent,
        }
    }

    pub(crate) fn render(&self, out: &mut String) {
        match self {
            ReqId::Num(n) => {
                let _ = write!(out, "\"id\":{},", fmt_num(*n));
            }
            ReqId::Str(s) => {
                let _ = write!(out, "\"id\":\"{}\",", esc(s));
            }
            ReqId::Absent => {}
        }
    }
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Rank entities similar to `(label, value)` under `walk`'s closure.
    Rank {
        /// Echoed request id.
        id: ReqId,
        /// The half meta-walk, in text form (`"conf paper dom kw"`).
        walk: String,
        /// Query entity label name.
        label: String,
        /// Query entity value.
        value: String,
        /// Top-k size.
        k: usize,
        /// Per-request deadline; `None` uses the server default.
        deadline_ms: Option<u64>,
    },
    /// Liveness check.
    Ping {
        /// Echoed request id.
        id: ReqId,
    },
    /// Serving-layer counters and breaker state.
    Stats {
        /// Echoed request id.
        id: ReqId,
    },
    /// Subscribe this connection to a periodic stats push: one JSON
    /// line per `interval_ms` carrying the [`StatsBody`] plus a
    /// delta-metrics snapshot, until `count` lines were sent (0 =
    /// until the client disconnects or the server shuts down). A
    /// control op — bypasses the admission queue.
    StatsStream {
        /// Echoed request id.
        id: ReqId,
        /// Push interval in milliseconds (floor 10, default 1000).
        interval_ms: u64,
        /// Number of lines to push; 0 = unbounded.
        count: u64,
    },
    /// Persist the index snapshot now.
    Snapshot {
        /// Echoed request id.
        id: ReqId,
    },
    /// Drain the queue and exit gracefully (final snapshot included).
    Shutdown {
        /// Echoed request id.
        id: ReqId,
    },
    /// Apply one graph mutation (WAL-logged before acknowledgment).
    Mutate {
        /// Echoed request id.
        id: ReqId,
        /// The mutation to apply.
        op: MutationOp,
        /// Per-request deadline; `None` uses the server default.
        deadline_ms: Option<u64>,
    },
}

impl Request {
    /// Parses one request line. Errors are protocol-level (malformed
    /// JSON, unknown op, missing fields) and map to `bad_request`.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let id = ReqId::from_json(v.get("id"));
        let op = match v.get("op").and_then(Json::as_str) {
            Some(op) => op,
            None if v.get("walk").is_some() => "rank",
            None => return Err("missing \"op\"".to_owned()),
        };
        match op {
            "rank" => {
                let field = |name: &str| -> Result<String, String> {
                    v.get(name)
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("rank requires string field {name:?}"))
                };
                let k = match v.get("k").and_then(Json::as_num) {
                    Some(k) if k >= 1.0 && k.fract() == 0.0 && k <= 1e6 => k as usize,
                    Some(_) => return Err("\"k\" must be a positive integer".to_owned()),
                    None => 10,
                };
                let deadline_ms = match v.get("deadline_ms").and_then(Json::as_num) {
                    Some(d) if d >= 0.0 && d.fract() == 0.0 => Some(d as u64),
                    Some(_) => {
                        return Err("\"deadline_ms\" must be a non-negative integer".to_owned())
                    }
                    None => None,
                };
                Ok(Request::Rank {
                    id,
                    walk: field("walk")?,
                    label: field("label")?,
                    value: field("value")?,
                    k,
                    deadline_ms,
                })
            }
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "stats-stream" => {
                let interval_ms = match v.get("interval_ms").and_then(Json::as_num) {
                    Some(i) if i >= 1.0 && i.fract() == 0.0 && i <= 1e9 => (i as u64).max(10),
                    Some(_) => return Err("\"interval_ms\" must be a positive integer".to_owned()),
                    None => 1000,
                };
                let count = match v.get("count").and_then(Json::as_num) {
                    Some(c) if c >= 0.0 && c.fract() == 0.0 && c <= 1e9 => c as u64,
                    Some(_) => return Err("\"count\" must be a non-negative integer".to_owned()),
                    None => 0,
                };
                Ok(Request::StatsStream {
                    id,
                    interval_ms,
                    count,
                })
            }
            "snapshot" => Ok(Request::Snapshot { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "mutate" => {
                let field = |name: &str| -> Result<String, String> {
                    v.get(name)
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("mutate requires string field {name:?}"))
                };
                let node = |name: &str| -> Result<NodeRef, String> {
                    NodeRef::parse(&field(name)?).map_err(|e| format!("field {name:?}: {e}"))
                };
                let deadline_ms = match v.get("deadline_ms").and_then(Json::as_num) {
                    Some(d) if d >= 0.0 && d.fract() == 0.0 => Some(d as u64),
                    Some(_) => {
                        return Err("\"deadline_ms\" must be a non-negative integer".to_owned())
                    }
                    None => None,
                };
                let op = match field("action")?.as_str() {
                    "add_entity" => MutationOp::AddEntity {
                        label: field("label")?,
                        value: field("value")?,
                    },
                    "add_edge" => MutationOp::AddEdge {
                        a: node("a")?,
                        b: node("b")?,
                    },
                    "remove_edge" => MutationOp::RemoveEdge {
                        a: node("a")?,
                        b: node("b")?,
                    },
                    other => return Err(format!("unknown mutate action {other:?}")),
                };
                Ok(Request::Mutate {
                    id,
                    op,
                    deadline_ms,
                })
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// The request id, for error envelopes built outside the handler.
    pub fn id(&self) -> &ReqId {
        match self {
            Request::Rank { id, .. }
            | Request::Ping { id }
            | Request::Stats { id }
            | Request::StatsStream { id, .. }
            | Request::Snapshot { id }
            | Request::Shutdown { id }
            | Request::Mutate { id, .. } => id,
        }
    }
}

/// One ranked entity in a rank response.
#[derive(Clone, Debug, PartialEq)]
pub struct RankEntry {
    /// Entity label name.
    pub label: String,
    /// Entity value.
    pub value: String,
    /// R-PathSim score under the tier that answered.
    pub score: f64,
}

/// The shard identity a fleet member attaches to its rank responses:
/// which band answered and which graph epoch it answered from. The
/// coordinator refuses to merge responses whose fingerprints disagree
/// (a shard mid-mutation is *failed*, never silently merged) and strips
/// the field from the client-facing line so single-node and fleet
/// responses stay byte-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardIdent {
    /// Shard index in `0..count` (row band over the candidate label).
    pub id: u32,
    /// Graph fingerprint of the answering epoch.
    pub fingerprint: u64,
    /// WAL sequence number of the answering epoch.
    pub seq: u64,
}

/// A shard's reply to a scatter-gathered rank request, as parsed by the
/// coordinator. Anything that is not a well-formed success or typed
/// error line is a parse error (and the attempt is treated as failed).
#[derive(Clone, Debug, PartialEq)]
pub enum ShardReply {
    /// A successful partial ranking over the shard's band.
    Rank {
        /// Degradation tier the shard answered at.
        tier: String,
        /// The shard's band-local top-k, best first.
        results: Vec<RankEntry>,
        /// The answering shard's identity + epoch.
        shard: ShardIdent,
    },
    /// A typed failure from the shard.
    Error {
        /// Error code (`"overloaded"`, `"exhausted"`, …).
        code: String,
        /// Human-readable message.
        message: String,
        /// Retry hint on `overloaded` rejections.
        retry_after_ms: Option<u64>,
    },
}

/// Parses one shard response line of the coordinator↔shard envelope.
/// Returns `Err` for malformed JSON, missing fields, or a success line
/// without a shard identity (a non-shard server answered — never merge
/// it). Tolerates trailing CR from CRLF framing.
pub fn parse_shard_reply(line: &str) -> Result<ShardReply, String> {
    parse_shard_reply_with_id(line).map(|(_, reply)| reply)
}

/// [`parse_shard_reply`] plus the attempt id the shard echoed, `None`
/// when the line carries no non-negative integer `"id"`. The coordinator
/// fails an attempt whose echo differs from the id it sent.
pub(crate) fn parse_shard_reply_with_id(line: &str) -> Result<(Option<u64>, ShardReply), String> {
    let v = json::parse(line.trim_end_matches(['\r', '\n']))
        .map_err(|e| format!("shard reply: {e}"))?;
    let id = v
        .get("id")
        .and_then(Json::as_num)
        .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n < 1e15)
        .map(|n| n as u64);
    Ok((id, shard_reply(&v)?))
}

fn shard_reply(v: &Json) -> Result<ShardReply, String> {
    match v.get("ok") {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => {
            let err = v
                .get("error")
                .ok_or_else(|| "error line without \"error\" object".to_owned())?;
            let code = err
                .get("code")
                .and_then(Json::as_str)
                .ok_or_else(|| "error without \"code\"".to_owned())?
                .to_owned();
            let message = err
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned();
            let retry_after_ms = match err.get("retry_after_ms").and_then(Json::as_num) {
                Some(ms) if ms >= 0.0 && ms.fract() == 0.0 && ms <= 1e15 => Some(ms as u64),
                Some(_) => return Err("\"retry_after_ms\" must be a non-negative integer".into()),
                None => None,
            };
            return Ok(ShardReply::Error {
                code,
                message,
                retry_after_ms,
            });
        }
        _ => return Err("shard reply without boolean \"ok\"".to_owned()),
    }
    let tier = v
        .get("tier")
        .and_then(Json::as_str)
        .ok_or_else(|| "success reply without \"tier\"".to_owned())?
        .to_owned();
    let results = v
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| "success reply without \"results\"".to_owned())?;
    let mut entries = Vec::with_capacity(results.len());
    for r in results {
        let field = |name: &str| -> Result<String, String> {
            r.get(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("result entry without string {name:?}"))
        };
        let score = r
            .get("score")
            .and_then(Json::as_num)
            .ok_or_else(|| "result entry without numeric \"score\"".to_owned())?;
        if !score.is_finite() {
            return Err("non-finite score in shard reply".to_owned());
        }
        entries.push(RankEntry {
            label: field("label")?,
            value: field("value")?,
            score,
        });
    }
    let ident = v
        .get("shard")
        .ok_or_else(|| "success reply without \"shard\" identity".to_owned())?;
    let id = match ident.get("id").and_then(Json::as_num) {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= f64::from(u32::MAX) => n as u32,
        _ => return Err("shard identity without integer \"id\"".to_owned()),
    };
    let fingerprint = ident
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(parse_fingerprint_hex)
        .ok_or_else(|| "shard identity without 0x-hex \"fingerprint\"".to_owned())?;
    let seq = match ident.get("seq").and_then(Json::as_num) {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= 1e15 => n as u64,
        _ => return Err("shard identity without integer \"seq\"".to_owned()),
    };
    Ok(ShardReply::Rank {
        tier,
        results: entries,
        shard: ShardIdent {
            id,
            fingerprint,
            seq,
        },
    })
}

/// Renders the rank request line the coordinator forwards to a shard.
/// `id` is the coordinator's attempt id, not the client's: the shard
/// echoes it, so a reply read off a reused connection is matched to the
/// attempt that sent the request.
pub(crate) fn render_rank_request(
    id: u64,
    walk: &str,
    label: &str,
    value: &str,
    k: usize,
    deadline_ms: Option<u64>,
) -> String {
    let mut out = format!(
        "{{\"id\":{id},\"op\":\"rank\",\"walk\":\"{}\",\"label\":\"{}\",\"value\":\"{}\",\"k\":{k}",
        esc(walk),
        esc(label),
        esc(value)
    );
    if let Some(ms) = deadline_ms {
        let _ = write!(out, ",\"deadline_ms\":{ms}");
    }
    out.push('}');
    out
}

/// Parses the `0x`-prefixed 16-digit hex fingerprint the serve layer
/// renders everywhere (`{:#018x}`).
fn parse_fingerprint_hex(s: &str) -> Option<u64> {
    let hex = s.strip_prefix("0x")?;
    if hex.is_empty() || hex.len() > 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Serving-layer counters for the `stats` op.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsBody {
    /// Requests admitted over the server's lifetime.
    pub requests: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests answered by a degraded tier.
    pub degraded: u64,
    /// Requests whose budget exhausted every tier.
    pub exhausted: u64,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Commuting matrices resident in the cache.
    pub cache_entries: usize,
    /// Query engines resident (one per distinct half walk served).
    pub engines: usize,
    /// Rank breaker state: `"closed"`, `"open"`, `"half-open"`.
    pub breaker: String,
    /// Mutate breaker state: `"closed"`, `"open"`, `"half-open"`.
    pub breaker_mutate: String,
    /// Whether the index was restored from a snapshot at startup.
    pub snapshot_restored: bool,
    /// Mutations acknowledged (durably WAL-logged) over the lifetime.
    pub mutations: u64,
    /// Mutations rejected with a budget exhaustion (counted apart from
    /// rank exhaustions; they trip a separate breaker class).
    pub mutate_exhausted: u64,
    /// Current graph fingerprint, `0x`-prefixed hex.
    pub fingerprint: String,
    /// Last acknowledged WAL sequence number (0 = none yet).
    pub seq: u64,
    /// Milliseconds since the server started serving.
    pub uptime_ms: u64,
    /// Shard index when this instance serves one band of a fleet;
    /// `0` for a single-node server (the backward-compatible shape).
    /// The epoch half of the shard identity is the `fingerprint`/`seq`
    /// pair already carried by every frame.
    pub shard: u32,
    /// Milliseconds since the last persisted index snapshot; `None`
    /// when no snapshot was written or restored this run.
    pub snapshot_age_ms: Option<u64>,
}

impl StatsBody {
    /// The body as a JSON object (no envelope), shared by the `stats`
    /// reply, the `stats-stream` push lines and the metrics journal.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"requests\":{},\"shed\":{},\"degraded\":{},\
             \"exhausted\":{},\"queue_depth\":{},\"queue_capacity\":{},\
             \"cache_entries\":{},\"engines\":{},\"breaker\":\"{}\",\
             \"breaker_mutate\":\"{}\",\"snapshot_restored\":{},\
             \"mutations\":{},\"mutate_exhausted\":{},\
             \"fingerprint\":\"{}\",\"seq\":{},\"uptime_ms\":{},\"shard\":{}",
            self.requests,
            self.shed,
            self.degraded,
            self.exhausted,
            self.queue_depth,
            self.queue_capacity,
            self.cache_entries,
            self.engines,
            esc(&self.breaker),
            esc(&self.breaker_mutate),
            self.snapshot_restored,
            self.mutations,
            self.mutate_exhausted,
            esc(&self.fingerprint),
            self.seq,
            self.uptime_ms,
            self.shard
        );
        if let Some(age) = self.snapshot_age_ms {
            let _ = write!(out, ",\"snapshot_age_ms\":{age}");
        }
        out.push('}');
        out
    }
}

/// A response, rendered as one JSON line.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A ranked answer, possibly degraded (see `tier`).
    Rank {
        /// Echoed request id.
        id: ReqId,
        /// Degradation tier: `"exact"`, `"half-factorized"`,
        /// `"prefix:<walk>"`, or `"partial-shards:A/T"` (coordinator
        /// only, some shards unreachable).
        tier: String,
        /// Top-k entries, best first.
        results: Vec<RankEntry>,
        /// Shard identity + epoch, attached by fleet members and
        /// consumed (stripped) by the coordinator. `None` on single-node
        /// and coordinator client-facing responses, keeping those lines
        /// byte-identical to the pre-fleet wire format.
        shard: Option<ShardIdent>,
        /// `(answered, total)` shard coverage, attached by the
        /// coordinator only when coverage is partial (the tier then says
        /// `partial-shards:A/T` too). Full-coverage responses omit it.
        coverage: Option<(usize, usize)>,
    },
    /// Ping reply.
    Pong {
        /// Echoed request id.
        id: ReqId,
    },
    /// Stats reply.
    Stats {
        /// Echoed request id.
        id: ReqId,
        /// The counters.
        body: StatsBody,
    },
    /// Snapshot-now reply.
    Snapshot {
        /// Echoed request id.
        id: ReqId,
        /// Entries persisted.
        entries: usize,
        /// Snapshot size in bytes (header + payload).
        bytes: usize,
    },
    /// Shutdown acknowledged; the server drains and exits.
    ShuttingDown {
        /// Echoed request id.
        id: ReqId,
    },
    /// Mutation acknowledged: durable in the WAL, index maintained.
    Mutate {
        /// Echoed request id.
        id: ReqId,
        /// Post-mutation graph fingerprint, `0x`-prefixed hex.
        fingerprint: String,
        /// The WAL sequence number that made the write durable.
        seq: u64,
        /// Index maintenance path: `"patch"`, `"evict"` or `"none"`.
        path: String,
    },
    /// A typed failure.
    Error {
        /// Echoed request id.
        id: ReqId,
        /// What went wrong.
        error: ServiceError,
    },
}

impl Response {
    /// Renders the response as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        match self {
            Response::Rank {
                id,
                tier,
                results,
                shard,
                coverage,
            } => {
                id.render(&mut out);
                let _ = write!(out, "\"ok\":true,\"tier\":\"{}\",\"results\":[", esc(tier));
                for (i, r) in results.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"label\":\"{}\",\"value\":\"{}\",\"score\":{}}}",
                        esc(&r.label),
                        esc(&r.value),
                        fmt_num(r.score)
                    );
                }
                out.push(']');
                if let Some(s) = shard {
                    let _ = write!(
                        out,
                        ",\"shard\":{{\"id\":{},\"fingerprint\":\"{:#018x}\",\"seq\":{}}}",
                        s.id, s.fingerprint, s.seq
                    );
                }
                if let Some((answered, total)) = coverage {
                    let _ = write!(
                        out,
                        ",\"coverage\":{{\"answered\":{answered},\"total\":{total}}}"
                    );
                }
            }
            Response::Pong { id } => {
                id.render(&mut out);
                out.push_str("\"ok\":true,\"pong\":true");
            }
            Response::Stats { id, body } => {
                id.render(&mut out);
                let _ = write!(out, "\"ok\":true,\"stats\":{}", body.to_json());
            }
            Response::Snapshot { id, entries, bytes } => {
                id.render(&mut out);
                let _ = write!(
                    out,
                    "\"ok\":true,\"snapshot\":{{\"entries\":{entries},\"bytes\":{bytes}}}"
                );
            }
            Response::ShuttingDown { id } => {
                id.render(&mut out);
                out.push_str("\"ok\":true,\"shutting_down\":true");
            }
            Response::Mutate {
                id,
                fingerprint,
                seq,
                path,
            } => {
                id.render(&mut out);
                let _ = write!(
                    out,
                    "\"ok\":true,\"mutate\":{{\"fingerprint\":\"{}\",\"seq\":{seq},\"path\":\"{}\"}}",
                    esc(fingerprint),
                    esc(path)
                );
            }
            Response::Error { id, error } => {
                id.render(&mut out);
                let _ = write!(
                    out,
                    "\"ok\":false,\"error\":{{\"code\":\"{}\",\"message\":\"{}\"",
                    error.code(),
                    esc(&error.to_string())
                );
                if let Some(ms) = error.retry_after_ms() {
                    let _ = write!(out, ",\"retry_after_ms\":{ms}");
                }
                out.push('}');
            }
        }
        out.push('}');
        out
    }
}

/// Escapes a string for a double-quoted JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a finite `f64` as a JSON number (integers without a trailing
/// `.0`; non-finite values, which the scorers never produce, as `null`).
fn fmt_num(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_owned();
    }
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_request_parses_with_defaults() {
        let r =
            Request::parse(r#"{"id":1,"walk":"conf paper dom kw","label":"conf","value":"c0"}"#)
                .unwrap();
        match r {
            Request::Rank {
                id,
                walk,
                label,
                value,
                k,
                deadline_ms,
            } => {
                assert_eq!(id, ReqId::Num(1.0));
                assert_eq!(walk, "conf paper dom kw");
                assert_eq!(label, "conf");
                assert_eq!(value, "c0");
                assert_eq!(k, 10, "k defaults to 10");
                assert_eq!(deadline_ms, None);
            }
            other => panic!("expected rank, got {other:?}"),
        }
    }

    #[test]
    fn ops_parse() {
        for (op, want) in [
            ("ping", Request::Ping { id: ReqId::Absent }),
            ("stats", Request::Stats { id: ReqId::Absent }),
            ("snapshot", Request::Snapshot { id: ReqId::Absent }),
            ("shutdown", Request::Shutdown { id: ReqId::Absent }),
        ] {
            assert_eq!(
                Request::parse(&format!("{{\"op\":\"{op}\"}}")).unwrap(),
                want
            );
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{}").is_err(), "no op, no walk");
        assert!(Request::parse(r#"{"op":"frobnicate"}"#).is_err());
        assert!(
            Request::parse(r#"{"op":"rank","walk":"a b c"}"#).is_err(),
            "rank without label/value"
        );
        assert!(
            Request::parse(r#"{"walk":"a","label":"a","value":"x","k":0}"#).is_err(),
            "k must be >= 1"
        );
        assert!(
            Request::parse(r#"{"walk":"a","label":"a","value":"x","deadline_ms":-5}"#).is_err()
        );
    }

    #[test]
    fn responses_roundtrip_through_the_obs_parser() {
        let resp = Response::Rank {
            id: ReqId::Num(7.0),
            tier: "exact".to_owned(),
            results: vec![
                RankEntry {
                    label: "conf".to_owned(),
                    value: "He said \"hi\"".to_owned(),
                    score: 1.0,
                },
                RankEntry {
                    label: "conf".to_owned(),
                    value: "c1".to_owned(),
                    score: 0.25,
                },
            ],
            shard: None,
            coverage: None,
        };
        let line = resp.to_json_line();
        let v = repsim_obs::json::parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("id").and_then(Json::as_num), Some(7.0));
        let results = v.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("value").and_then(Json::as_str),
            Some("He said \"hi\"")
        );
        assert_eq!(results[1].get("score").and_then(Json::as_num), Some(0.25));
    }

    #[test]
    fn shard_envelope_roundtrips_and_absent_fields_keep_the_line_shape() {
        let entry = RankEntry {
            label: "conf".to_owned(),
            value: "c0".to_owned(),
            score: 0.5,
        };
        let plain = Response::Rank {
            id: ReqId::Num(1.0),
            tier: "exact".to_owned(),
            results: vec![entry.clone()],
            shard: None,
            coverage: None,
        }
        .to_json_line();
        assert!(!plain.contains("shard"), "single-node line unchanged");
        assert!(!plain.contains("coverage"));

        let ident = ShardIdent {
            id: 1,
            fingerprint: 0xdead_beef_0123_4567,
            seq: 42,
        };
        let sharded = Response::Rank {
            id: ReqId::Num(1.0),
            tier: "exact".to_owned(),
            results: vec![entry],
            shard: Some(ident.clone()),
            coverage: None,
        }
        .to_json_line();
        match parse_shard_reply(&sharded).unwrap() {
            ShardReply::Rank {
                tier,
                results,
                shard,
            } => {
                assert_eq!(tier, "exact");
                assert_eq!(results.len(), 1);
                assert_eq!(results[0].score, 0.5);
                assert_eq!(shard, ident);
            }
            other => panic!("expected rank, got {other:?}"),
        }
        // A success line without the shard identity must not merge.
        assert!(parse_shard_reply(&plain).is_err());
    }

    #[test]
    fn shard_reply_parses_typed_errors_and_rejects_noise() {
        let err = Response::Error {
            id: ReqId::Num(2.0),
            error: ServiceError::Overloaded { retry_after_ms: 40 },
        }
        .to_json_line();
        match parse_shard_reply(&err).unwrap() {
            ShardReply::Error {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, "overloaded");
                assert_eq!(retry_after_ms, Some(40));
            }
            other => panic!("expected error, got {other:?}"),
        }
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"ok":true}"#,
            r#"{"ok":true,"tier":"exact"}"#,
            r#"{"ok":true,"tier":"exact","results":[],"shard":{"id":0}}"#,
            r#"{"ok":true,"tier":"exact","results":[],"shard":{"id":0,"fingerprint":"nothex","seq":1}}"#,
            r#"{"ok":false}"#,
        ] {
            assert!(parse_shard_reply(bad).is_err(), "{bad:?}");
        }
        // CRLF framing is tolerated on otherwise-valid lines.
        let crlf = format!("{err}\r");
        assert!(parse_shard_reply(&crlf).is_ok());
    }

    #[test]
    fn shard_echoes_the_attempt_id_of_the_forwarded_request() {
        let line = render_rank_request(41, "a b", "a", "x", 3, Some(9));
        let req = Request::parse(&line).unwrap();
        assert_eq!(req.id(), &ReqId::Num(41.0));
        let reply = Response::Error {
            id: req.id().clone(),
            error: ServiceError::Overloaded { retry_after_ms: 1 },
        }
        .to_json_line();
        let (id, _) = parse_shard_reply_with_id(&reply).unwrap();
        assert_eq!(id, Some(41));
        let (id, _) =
            parse_shard_reply_with_id(r#"{"id":"41","ok":false,"error":{"code":"c"}}"#).unwrap();
        assert_eq!(id, None, "only an integer echo matches");
    }

    #[test]
    fn coverage_field_renders_only_when_partial() {
        let resp = Response::Rank {
            id: ReqId::Absent,
            tier: "partial-shards:1/2".to_owned(),
            results: vec![],
            shard: None,
            coverage: Some((1, 2)),
        };
        let line = resp.to_json_line();
        let v = repsim_obs::json::parse(&line).unwrap();
        let cov = v.get("coverage").unwrap();
        assert_eq!(cov.get("answered").and_then(Json::as_num), Some(1.0));
        assert_eq!(cov.get("total").and_then(Json::as_num), Some(2.0));
        assert_eq!(
            v.get("tier").and_then(Json::as_str),
            Some("partial-shards:1/2")
        );
    }

    #[test]
    fn stats_body_carries_the_shard_field() {
        let body = StatsBody::default();
        let v = repsim_obs::json::parse(&body.to_json()).unwrap();
        assert_eq!(
            v.get("shard").and_then(Json::as_num),
            Some(0.0),
            "single-node frames carry shard 0"
        );
    }

    #[test]
    fn error_envelope_carries_code_and_retry_hint() {
        let resp = Response::Error {
            id: ReqId::Str("a".to_owned()),
            error: ServiceError::Overloaded { retry_after_ms: 40 },
        };
        let v = repsim_obs::json::parse(&resp.to_json_line()).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(err.get("retry_after_ms").and_then(Json::as_num), Some(40.0));
    }

    #[test]
    fn control_characters_escape() {
        let resp = Response::Error {
            id: ReqId::Absent,
            error: ServiceError::BadRequest("tab\there\nnewline".to_owned()),
        };
        let line = resp.to_json_line();
        assert!(!line.contains('\n'), "one line per response: {line:?}");
        assert!(repsim_obs::json::parse(&line).is_ok());
    }
}
