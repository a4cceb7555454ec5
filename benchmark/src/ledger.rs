//! `--trace 1`: the per-layer ledger.
//!
//! Spans are recorded by this benchmark around its own calls into each
//! layer's public functions (the program is not modified), kept in
//! memory, and folded into a ledger when the run ends. Every level
//! reports its children plus an explicit `unattributed` residual
//! (parent − Σ children, over per-call means).
//!
//! A traced run first repeats the workload's untraced measurement for
//! half of `--seconds`, with its correctness gates, then runs all four
//! ledger sections on the same seed, so every per-layer metric is
//! measured on the workload that exercises its layer. A section sends
//! its requests in blocks of [`BLOCK`]; every layer takes its own pass
//! over a block, in the order below, before the next block starts:
//!
//! * serve path — the `hot-rank` stream over TCP, then through
//!   `Request::parse`, `QueryService::handle_rank_epoch`,
//!   `Response::to_json_line` and `QueryEngine::rank_band_ref` in process;
//! * coordinator — the `fleet-rank` stream over TCP, then through
//!   `Coordinator::handle_rank` in process, then as band requests
//!   scattered to both shards directly (on persistent, then on fresh
//!   connections), then through an in-process band service;
//! * mutation path — the `churn` stream over TCP, then through an
//!   in-process service, then its mutations through a shadow
//!   graph/cache/WAL whose calls are timed one by one;
//! * build path — the `cold-build` walks, built directly through
//!   `try_informative_commuting_with` at 2 and 1 threads.
//!
//! `trace.overhead_pct` compares the workload's headline latency in the
//! traced section with the untraced measurement.

use std::sync::Arc;
use std::time::Instant;

use repsim_core::QueryEngine;
use repsim_graph::mutation::{self, Touch};
use repsim_graph::Graph;
use repsim_metawalk::commuting::{try_informative_commuting_with, CacheKind, CommutingCache};
use repsim_metawalk::delta::DeltaMaintainer;
use repsim_metawalk::MetaWalk;
use repsim_obs::json::{self, Json};
use repsim_obs::Registry;
use repsim_serve::snapshot::graph_fingerprint;
use repsim_serve::{
    CoordConfig, Coordinator, QueryService, Request, Response, ServiceConfig, ShardSpec, Wal,
};
use repsim_sparse::chain::{plan_chain, ChainStats};
use repsim_sparse::{Budget, Csr, Parallelism};

use crate::check::Tally;
use crate::cold::{self, WALKS};
use crate::load::{self, Conn, Preset, RunDir, MOVIES_WALK};
use crate::served::{self, Served, SHARDS};
use crate::stats;
use crate::{Metric, Outcome, Workload};

/// Requests replayed through the serve-path section.
const SERVE_REQUESTS: usize = 600;
/// Requests sent through the coordinator section.
const FLEET_REQUESTS: usize = 200;
/// Requests (one in twenty a mutation) in the mutation-path section.
const CHURN_REQUESTS: usize = 1200;
/// Rounds over the cold-build walks in the build-path section.
const BUILD_ROUNDS: usize = 2;
/// Requests per block: each layer takes its pass over one block before
/// the next block starts.
const BLOCK: usize = 50;

/// One recorded span: a call the benchmark made into a layer.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store for one section.
struct Trace {
    t0: Instant,
    spans: Vec<Span>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a root span (a pass or a round); children name it as their
    /// parent.
    fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        let end = self.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end;
        }
    }

    /// Times `f` as a span named `name` under `parent`.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = std::hint::black_box(f());
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a derived duration (e.g. the slowest of several calls).
    fn record(&mut self, name: &'static str, parent: usize, dur_ns: u64) {
        let end_ns = self.now_ns().max(dur_ns);
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns: end_ns - dur_ns,
            end_ns,
        });
    }

    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Total duration of `name` per root span (a pass or a round),
    /// microseconds; 0 when the span never ran.
    fn per_root_us(&self, name: &str) -> f64 {
        let roots = self.spans.iter().filter(|s| s.parent.is_none()).count();
        self.durations_us(name).iter().sum::<f64>() / roots.max(1) as f64
    }

    /// Mean duration of one `name` call, microseconds.
    fn mean_us(&self, name: &str) -> f64 {
        stats::mean(&self.durations_us(name))
    }

    fn p50_us(&self, name: &str) -> f64 {
        stats::median(&self.durations_us(name)).unwrap_or(0.0)
    }

    fn count(&self, name: &str) -> usize {
        self.durations_us(name).len()
    }
}

/// One ledger line: a metric and the level it belongs to.
struct Row {
    metric: Metric,
    parent: Option<&'static str>,
}

#[derive(Default)]
struct Ledger {
    rows: Vec<Row>,
}

impl Ledger {
    fn add(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        parent: Option<&'static str>,
    ) {
        self.rows.push(Row {
            metric: Metric::new(name, value, unit),
            parent,
        });
    }

    /// The ledger as JSON lines `{name, value, unit, parent}`.
    fn render(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"parent\": {}}}",
                    r.metric.name,
                    r.metric.value,
                    r.metric.unit,
                    r.parent.map_or("null".to_owned(), |p| format!("\"{p}\""))
                )
            })
            .collect();
        format!("{{\"ledger\": [{}]}}", rows.join(", "))
    }

    /// An indented tree for humans.
    fn tree(&self) -> String {
        let mut out = String::new();
        for r in self.rows.iter().filter(|r| r.parent.is_none()) {
            self.tree_into(&mut out, r, 0);
        }
        out
    }

    fn tree_into(&self, out: &mut String, row: &Row, depth: usize) {
        out.push_str(&format!(
            "{:indent$}{} = {:.3} {}\n",
            "",
            row.metric.name,
            row.metric.value,
            row.metric.unit,
            indent = depth * 2
        ));
        let name = row.metric.name.as_str();
        for child in self.rows.iter().filter(|r| r.parent == Some(name)) {
            self.tree_into(out, child, depth + 1);
        }
    }
}

/// Keeps the metric registry recording (as a running server does) for
/// the sections that read the program's own counters.
struct MetricsOn(Arc<dyn repsim_obs::Sink>);

impl MetricsOn {
    fn install() -> MetricsOn {
        let sink: Arc<dyn repsim_obs::Sink> = Arc::new(repsim_obs::NullSink);
        repsim_obs::install(Arc::clone(&sink));
        MetricsOn(sink)
    }
}

impl Drop for MetricsOn {
    fn drop(&mut self) {
        repsim_obs::remove_sink(&self.0);
    }
}

fn metric(o: &Outcome, name: &str) -> Result<f64, String> {
    o.metrics
        .iter()
        .chain(&o.detail)
        .find(|m| m.name == name)
        .map(|m| m.value)
        .ok_or_else(|| format!("untraced run did not report {name}"))
}

/// Runs the traced measurement for `workload`.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let movies = Preset::Movies.text()?;
    let half = (seconds / 2).max(1);
    // Untraced first, with no sink of ours installed.
    let untraced = match workload.served() {
        Some(kind) => served::run(kind, &movies, seed, half)?,
        None => cold::run(seed, half)?,
    };
    if let Err(why) = &untraced.verdict {
        return Err(format!("untraced pass: {why}"));
    }
    let (headline, unit) = match workload {
        Workload::ColdBuild => ("cold_round_ms", "ms"),
        _ => ("rank_p50_us", "us"),
    };
    let untraced_value = metric(&untraced, headline)?;

    let _on = MetricsOn::install();
    let mut ledger = Ledger::default();
    let mut tally = untraced.tally.clone();
    let serve_rtt = serve_path(&movies, seed, &mut ledger, &mut tally)?;
    let fleet_rtt = coordinator(&movies, seed, &mut ledger, &mut tally)?;
    let churn_rtt = mutation_path(&movies, seed, &mut ledger, &mut tally)?;
    let cold_ms = build_path(seed, &mut ledger, &mut tally)?;
    let traced_value = match workload {
        Workload::HotRank => serve_rtt,
        Workload::FleetRank => fleet_rtt,
        Workload::Churn => churn_rtt,
        Workload::ColdBuild => cold_ms,
    };
    ledger.add(
        "graph.io.read_ms",
        metric(&untraced, "graph_read_ms")?,
        "ms",
        None,
    );
    ledger.add(
        "trace.overhead_pct",
        (traced_value - untraced_value) / untraced_value * 100.0,
        "%",
        None,
    );
    eprint!("{}", ledger.tree());
    println!("{}", ledger.render());
    Ok(Outcome {
        tally,
        metrics: ledger.rows.into_iter().map(|r| r.metric).collect(),
        detail: vec![
            Metric::new(&format!("untraced_{headline}"), untraced_value, unit),
            Metric::new(&format!("traced_{headline}"), traced_value, unit),
        ],
        verdict: untraced.verdict,
    })
}

fn rank_fields(
    line: &str,
) -> Result<(repsim_serve::protocol::ReqId, String, String, String, usize), String> {
    match Request::parse(line) {
        Ok(Request::Rank {
            id,
            walk,
            label,
            value,
            k,
            ..
        }) => Ok((id, walk, label, value, k)),
        _ => Err(format!("not a rank request: {line}")),
    }
}

fn warm_service(g: &Graph, svc: &QueryService, seed: u64) -> Result<(), String> {
    let warm = load::rank_stream(g, MOVIES_WALK, seed ^ served::WARM_SALT, 1)?;
    let (_, walk, label, value, k) = rank_fields(&warm[0])?;
    svc.handle_rank_epoch(&walk, &label, &value, k, None)
        .map(drop)
        .map_err(|e| format!("warm-up rank: {e}"))
}

fn serial() -> Parallelism {
    Parallelism::with_threads(1)
}

/// Serve path on the hot-rank stream. Each layer runs as its own pass
/// over a block of [`BLOCK`] requests, block after block: interleaved
/// call by call, every layer's copy of the half matrix would evict the
/// others' from the cache; in blocks, host noise still hits all layers
/// alike. Returns the traced p50 round trip.
fn serve_path(
    text: &str,
    seed: u64,
    ledger: &mut Ledger,
    tally: &mut Tally,
) -> Result<f64, String> {
    let dir = RunDir::create("trace-serve")?;
    let mut s = served::boot_warm(Served::HotRank, text, seed, &dir)?;
    let g = Arc::clone(&s.graph);
    let stream = load::rank_stream(&g, MOVIES_WALK, seed, SERVE_REQUESTS)?;
    let requests = stream
        .iter()
        .map(|l| rank_fields(l))
        .collect::<Result<Vec<_>, _>>()?;
    let queries = requests
        .iter()
        .map(|(_, _, label, value, k)| {
            g.labels()
                .get(label)
                .and_then(|l| g.entity(l, value))
                .map(|q| (q, *k))
                .ok_or_else(|| format!("unknown entity {label}:{value}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let svc = QueryService::new(
        &g,
        ServiceConfig {
            par: serial(),
            ..ServiceConfig::default()
        },
    );
    warm_service(&g, &svc, seed)?;
    let mw = MetaWalk::parse_in(&g, MOVIES_WALK).ok_or("walk does not parse")?;
    let m = try_informative_commuting_with(&g, &mw, serial(), &Budget::unlimited())
        .map_err(|e| e.to_string())?;
    let engine = QueryEngine::try_from_half_matrix(&g, mw.clone(), m, serial())
        .map_err(|e| e.to_string())?;

    let mut tr = Trace::new();
    for (b, block) in stream.chunks(BLOCK).enumerate() {
        let at = b * BLOCK..b * BLOCK + block.len();
        let mut replies = Vec::with_capacity(block.len());
        let pass = tr.open("transport");
        for line in block {
            let reply = tr.time("rtt", pass, || s.conn.roundtrip(line))?;
            tally.record(&reply);
            replies.push(reply);
        }
        tr.close(pass);
        let pass = tr.open("protocol");
        for line in block {
            tr.time("parse", pass, || Request::parse(line))?;
        }
        tr.close(pass);
        let mut answers = Vec::with_capacity(block.len());
        let pass = tr.open("service");
        for (_, walk, label, value, k) in &requests[at.clone()] {
            let answer = tr.time("service", pass, || {
                svc.handle_rank_epoch(walk, label, value, *k, None)
            });
            answers.push(answer.map_err(|e| format!("in-process rank: {e}"))?);
        }
        tr.close(pass);
        let pass = tr.open("encode");
        for ((id, ..), (answer, reply)) in requests[at.clone()]
            .iter()
            .zip(answers.into_iter().zip(&replies))
        {
            let resp = Response::Rank {
                id: id.clone(),
                tier: answer.tier,
                results: answer.results,
                shard: None,
                coverage: None,
            };
            let line = tr.time("encode", pass, || resp.to_json_line());
            if line != *reply {
                return Err(format!("in-process answer {line} != served {reply}"));
            }
        }
        tr.close(pass);
        let pass = tr.open("engine");
        for &(q, k) in &queries[at] {
            tr.time("engine", pass, || {
                engine.rank_band_ref(q, mw.source(), k, None)
            });
        }
        tr.close(pass);
    }
    drop(s.conn);
    s.deployment.stop()?;

    let rtt = tr.mean_us("rtt");
    let parse = tr.mean_us("parse");
    let service = tr.mean_us("service");
    let engine_us = tr.mean_us("engine");
    let encode = tr.mean_us("encode");
    let nnz = engine.half_matrix().nnz().max(1) as f64;
    let p = Some("serve.transport.rtt_us");
    ledger.add("serve.transport.rtt_us", rtt, "us", None);
    ledger.add("serve.protocol.parse_us", parse, "us", p);
    ledger.add("serve.service.rank_us", service, "us", p);
    ledger.add(
        "core.engine.rank_us",
        engine_us,
        "us",
        Some("serve.service.rank_us"),
    );
    ledger.add(
        "serve.service.self_us",
        service - engine_us,
        "us",
        Some("serve.service.rank_us"),
    );
    ledger.add("serve.protocol.encode_us", encode, "us", p);
    ledger.add(
        "serve.transport.unattributed_us",
        rtt - parse - service - encode,
        "us",
        p,
    );
    ledger.add("core.engine.ns_per_nnz", engine_us * 1e3 / nnz, "ns", None);
    Ok(tr.p50_us("rtt"))
}

/// The coordinator's own counters, from its `stats` op.
fn coord_counters(conn: &mut Conn) -> Result<(f64, f64, f64), String> {
    let reply = conn.roundtrip("{\"id\":\"stats\",\"op\":\"stats\"}")?;
    let v = json::parse(&reply).map_err(|e| format!("coordinator stats: {e:?}"))?;
    let get = |k: &str| -> Result<f64, String> {
        v.get("coord")
            .and_then(|c| c.get(k))
            .and_then(Json::as_num)
            .ok_or_else(|| format!("coordinator stats lack {k}: {reply}"))
    };
    Ok((get("requests")?, get("retries")?, get("hedges")?))
}

/// Coordinator on the fleet-rank stream, one pass per layer and block
/// (see [`serve_path`]). Returns the traced p50 round trip through the
/// coordinator.
fn coordinator(
    text: &str,
    seed: u64,
    ledger: &mut Ledger,
    tally: &mut Tally,
) -> Result<f64, String> {
    let dir = RunDir::create("trace-fleet")?;
    let mut s = served::boot_warm(Served::FleetRank, text, seed, &dir)?;
    let g = Arc::clone(&s.graph);
    let shards = s.deployment.shard_addrs.clone();
    let stream = load::rank_stream(&g, MOVIES_WALK, seed, FLEET_REQUESTS)?;
    let requests = stream
        .iter()
        .map(|l| rank_fields(l))
        .collect::<Result<Vec<_>, _>>()?;
    let coord = Coordinator::new(CoordConfig {
        shards: shards.iter().map(|a| vec![a.clone()]).collect(),
        ..CoordConfig::default()
    });
    let mut conns = shards
        .iter()
        .map(|a| Conn::open(a))
        .collect::<Result<Vec<_>, _>>()?;
    let band = QueryService::new(
        &g,
        ServiceConfig {
            par: serial(),
            shard: Some(ShardSpec {
                index: 0,
                count: SHARDS,
            }),
            ..ServiceConfig::default()
        },
    );
    warm_service(&g, &band, seed)?;

    let mut tr = Trace::new();
    let mut counts = (0.0, 0.0, 0.0);
    for (b, block) in stream.chunks(BLOCK).enumerate() {
        let at = b * BLOCK..b * BLOCK + block.len();
        let (req0, retries0, hedges0) = coord_counters(&mut s.conn)?;
        let mut replies = Vec::with_capacity(block.len());
        let pass = tr.open("transport");
        for line in block {
            let reply = tr.time("rtt", pass, || s.conn.roundtrip(line))?;
            tally.record(&reply);
            replies.push(reply);
        }
        tr.close(pass);
        let (req1, retries1, hedges1) = coord_counters(&mut s.conn)?;
        counts.0 += req1 - req0;
        counts.1 += retries1 - retries0;
        counts.2 += hedges1 - hedges0;

        let pass = tr.open("handle");
        for ((id, walk, label, value, k), reply) in requests[at.clone()].iter().zip(&replies) {
            let resp = tr
                .time("handle", pass, || {
                    coord.handle_rank(walk, label, value, *k, None)
                })
                .map_err(|e| format!("in-process coordinator: {e}"))?;
            let Response::Rank {
                tier,
                results,
                shard,
                coverage,
                ..
            } = resp
            else {
                return Err("the coordinator answered a rank with another response".to_owned());
            };
            let line = Response::Rank {
                id: id.clone(),
                tier,
                results,
                shard,
                coverage,
            }
            .to_json_line();
            if line != *reply {
                return Err(format!(
                    "in-process coordinator answer {line} != served {reply}"
                ));
            }
        }
        tr.close(pass);

        // Band requests straight to the shards, all at once as the
        // coordinator scatters them (the slowest sets the answer's
        // time): on persistent connections, then on fresh ones, as
        // every coordinator attempt opens.
        let pass = tr.open("shards");
        for line in block {
            tr.record(
                "shard_rtt",
                pass,
                scatter(&mut conns, &shards, line, false)?,
            );
            tr.record(
                "scatter_fresh",
                pass,
                scatter(&mut conns, &shards, line, true)?,
            );
        }
        tr.close(pass);

        let pass = tr.open("band");
        for (_, walk, label, value, k) in &requests[at] {
            tr.time("band", pass, || {
                band.handle_rank_epoch(walk, label, value, *k, None)
            })
            .map_err(|e| format!("band rank: {e}"))?;
        }
        tr.close(pass);
    }
    drop(conns);
    drop(s.conn);
    s.deployment.stop()?;

    let rtt = tr.mean_us("rtt");
    let handle = tr.mean_us("handle");
    let shard_rtt = tr.mean_us("shard_rtt");
    let connect = tr.mean_us("scatter_fresh") - shard_rtt;
    let p = Some("serve.coord.handle_us");
    ledger.add("serve.coord.rtt_us", rtt, "us", None);
    ledger.add(
        "serve.coord.handle_us",
        handle,
        "us",
        Some("serve.coord.rtt_us"),
    );
    ledger.add("serve.coord.shard_rtt_us", shard_rtt, "us", p);
    ledger.add("serve.coord.connect_us", connect, "us", p);
    ledger.add(
        "serve.coord.unattributed_us",
        handle - shard_rtt - connect,
        "us",
        p,
    );
    ledger.add(
        "serve.coord.transport_unattributed_us",
        rtt - handle,
        "us",
        Some("serve.coord.rtt_us"),
    );
    ledger.add("serve.shard.band_rank_us", tr.mean_us("band"), "us", None);
    let (requests, retries, hedges) = counts;
    let fanout = requests.max(1.0) * f64::from(SHARDS);
    ledger.add(
        "serve.coord.attempts_per_request",
        (fanout + retries + hedges) / requests.max(1.0),
        "count",
        None,
    );
    ledger.add("serve.coord.hedge_ratio", hedges / fanout, "ratio", None);
    Ok(tr.p50_us("rtt"))
}

/// Sends `line` to every shard at once, each from its own thread, and
/// returns the slowest shard's round trip, ns. With `fresh`, each shard
/// gets a new connection, as each coordinator attempt opens one.
fn scatter(conns: &mut [Conn], shards: &[String], line: &str, fresh: bool) -> Result<u64, String> {
    std::thread::scope(|s| {
        let clients: Vec<_> = conns
            .iter_mut()
            .zip(shards)
            .map(|(conn, addr)| {
                s.spawn(move || {
                    let t = Instant::now();
                    let reply = if fresh {
                        Conn::open(addr)?.roundtrip(line)?
                    } else {
                        conn.roundtrip(line)?
                    };
                    let ns = t.elapsed().as_nanos() as u64;
                    if reply.contains("\"ok\":true") {
                        Ok(ns)
                    } else {
                        Err(format!("shard {addr}: {reply}"))
                    }
                })
            })
            .collect();
        clients.into_iter().try_fold(0, |slowest, client| {
            let ns = client
                .join()
                .map_err(|_| "shard client thread panicked".to_owned())??;
            Ok(slowest.max(ns))
        })
    })
}

fn counter(name: &'static str) -> f64 {
    Registry::global().counter(name).get() as f64
}

/// Mutation path on the churn stream, block by block (see
/// [`serve_path`]): the block over TCP, then through an in-process
/// service, then its mutations through a shadow graph, cache and WAL
/// whose calls are timed one by one. Returns the traced p50 rank round
/// trip.
fn mutation_path(
    text: &str,
    seed: u64,
    ledger: &mut Ledger,
    tally: &mut Tally,
) -> Result<f64, String> {
    let dir = RunDir::create("trace-churn")?;
    let mut s = served::boot_warm(Served::Churn, text, seed, &dir)?;
    let g = Arc::clone(&s.graph);
    let mw = MetaWalk::parse_in(&g, MOVIES_WALK).ok_or("walk does not parse")?;
    let stream = load::churn_stream(&g, MOVIES_WALK, seed, CHURN_REQUESTS)?;
    let svc = QueryService::new(
        &g,
        ServiceConfig {
            par: serial(),
            ..ServiceConfig::default()
        },
    );
    svc.recover_wal(&dir.file("service.wal"))
        .map_err(|e| e.to_string())?;
    warm_service(&g, &svc, seed)?;
    // The shadow keeps the state the service keeps, driven call by call.
    let budget = Budget::unlimited();
    let mut shadow: Graph = (*g).clone();
    let mut cache = CommutingCache::new();
    let mut maintainer = DeltaMaintainer::new();
    let mut wal = Wal::recover(&dir.file("shadow.wal"), &shadow)
        .map_err(|e| e.to_string())?
        .wal;
    let leader = Registry::global().counter("repsim.serve.singleflight.leader");
    let delta_names = [
        "repsim.cache.delta.applied",
        "repsim.cache.delta.rebuilds",
        "repsim.cache.delta.evictions",
    ];
    let mut delta = [0.0; 3];

    let mut tr = Trace::new();
    for block in stream.chunks(BLOCK) {
        let mut served_acks = Vec::new();
        let pass = tr.open("transport");
        for line in block {
            let name = if load::is_mutation(line) {
                "mutate_rtt"
            } else {
                "rank_rtt"
            };
            let reply = tr.time(name, pass, || s.conn.roundtrip(line))?;
            tally.record(&reply);
            if load::is_mutation(line) {
                served_acks.push(reply);
            }
        }
        tr.close(pass);

        let before = delta_names.map(counter);
        let mut ops = Vec::new();
        let pass = tr.open("service");
        for line in block {
            match Request::parse(line) {
                Ok(Request::Mutate { op, .. }) => {
                    let (fp, _, _) = tr
                        .time("mutate", pass, || svc.handle_mutate(&op, None))
                        .map_err(|e| format!("in-process mutate: {e}"))?;
                    ops.push((op, fp));
                }
                Ok(Request::Rank {
                    walk,
                    label,
                    value,
                    k,
                    ..
                }) => {
                    let leaders = leader.get();
                    let t = Instant::now();
                    svc.handle_rank_epoch(&walk, &label, &value, k, None)
                        .map_err(|e| format!("in-process rank: {e}"))?;
                    let ns = t.elapsed().as_nanos() as u64;
                    tr.record("rank", pass, ns);
                    if leader.get() > leaders {
                        tr.record("rebuild", pass, ns);
                    }
                }
                _ => return Err(format!("unexpected request {line}")),
            }
        }
        tr.close(pass);
        for (d, (now, then)) in delta
            .iter_mut()
            .zip(delta_names.map(counter).iter().zip(before))
        {
            *d += now - then;
        }

        let pass = tr.open("shadow");
        for ((op, service_fp), ack) in ops.iter().zip(&served_acks) {
            // The ranks between mutations rebuild an evicted entry; so
            // does the shadow, untimed, so both maintain the same cache.
            if cache.peek(CacheKind::Informative, &mw).is_none() {
                cache
                    .try_informative_with(&shadow, &mw, serial(), &budget)
                    .map_err(|e| e.to_string())?;
            }
            let touch = mutation::touch(&shadow, op).map_err(|e| e.to_string())?;
            let next = tr
                .time("apply", pass, || mutation::apply(&shadow, op))
                .map_err(|e| e.to_string())?;
            let fp = tr.time("fingerprint", pass, || graph_fingerprint(&next));
            tr.time("wal", pass, || wal.append(op, fp, &budget))
                .map_err(|e| e.to_string())?;
            tr.time("delta", pass, || match touch {
                Touch::Edge(a, b) => maintainer.apply_edge_change(&mut cache, &next, a, b, &budget),
                Touch::Node(l) => maintainer.apply_node_change(&mut cache, l),
            });
            shadow = next;
            let fp = format!("{fp:#018x}");
            if *service_fp != fp || !ack.contains(&fp) {
                return Err(format!(
                    "mutation {op}: shadow {fp}, service {service_fp}, served {ack}"
                ));
            }
        }
        tr.close(pass);
    }
    drop(s.conn);
    s.deployment.stop()?;

    let rtt = tr.mean_us("mutate_rtt");
    let mutate = tr.mean_us("mutate");
    let parts = ["apply", "fingerprint", "wal", "delta"].map(|n| tr.mean_us(n));
    let p = Some("serve.service.mutate_us");
    ledger.add("serve.mutate.rtt_us", rtt, "us", None);
    ledger.add(
        "serve.service.mutate_us",
        mutate,
        "us",
        Some("serve.mutate.rtt_us"),
    );
    ledger.add("graph.mutation.apply_us", parts[0], "us", p);
    ledger.add("serve.snapshot.fingerprint_us", parts[1], "us", p);
    ledger.add("serve.wal.append_us", parts[2], "us", p);
    ledger.add("metawalk.delta.maintain_us", parts[3], "us", p);
    ledger.add(
        "serve.service.mutate_self_us",
        mutate - parts.iter().sum::<f64>(),
        "us",
        p,
    );
    ledger.add(
        "serve.mutate.transport_unattributed_us",
        rtt - mutate,
        "us",
        Some("serve.mutate.rtt_us"),
    );
    ledger.add(
        "metawalk.delta.applied_ratio",
        delta[0] / delta.iter().sum::<f64>().max(1.0),
        "ratio",
        None,
    );
    ledger.add(
        "serve.service.rebuild_ratio",
        tr.count("rebuild") as f64 / tr.count("rank").max(1) as f64,
        "ratio",
        None,
    );
    ledger.add(
        "serve.service.rebuild_ms",
        tr.mean_us("rebuild") / 1e3,
        "ms",
        None,
    );
    Ok(tr.p50_us("rank_rtt"))
}

/// The factor lists `try_informative_commuting_with` hands to the chain
/// planner for `mw`: one per multi-factor hop, then the join over the
/// segments (mirrors `repsim_metawalk::commuting`'s construction).
fn plan_inputs(g: &Graph, mw: &MetaWalk) -> Vec<Vec<ChainStats>> {
    let steps = mw.steps();
    let entities: Vec<usize> = (0..steps.len()).filter(|&i| steps[i].is_entity()).collect();
    let mut plans = Vec::new();
    let mut segments: Vec<Csr> = Vec::new();
    let mut hops: Vec<Csr> = Vec::new();
    let mut star = false;
    for w in entities.windows(2) {
        let labels: Vec<_> = steps[w[0]..=w[1]].iter().map(|s| s.label()).collect();
        let factors: Vec<Csr> = labels
            .windows(2)
            .map(|p| repsim_graph::biadjacency::biadjacency(g, p[0], p[1]))
            .collect();
        if factors.len() > 1 {
            plans.push(factors.iter().map(ChainStats::of).collect());
        }
        let refs: Vec<&Csr> = factors.iter().collect();
        let mut hop = repsim_sparse::chain::spmm_chain_with_threads(&refs, 1);
        if labels.first() == labels.last() {
            hop = hop.subtract_diagonal();
        }
        hops.push(hop);
        if steps[w[1]].is_star() {
            star = true;
            continue;
        }
        if hops.len() > 1 {
            plans.push(hops.iter().map(ChainStats::of).collect());
        }
        let refs: Vec<&Csr> = hops.iter().collect();
        let mut seg = repsim_sparse::chain::spmm_chain_with_threads(&refs, 1);
        hops.clear();
        if std::mem::take(&mut star) {
            seg = seg.binarized();
        }
        segments.push(seg);
    }
    if segments.len() > 1 {
        plans.push(segments.iter().map(ChainStats::of).collect());
    }
    plans
}

fn histogram_sum(name: &'static str) -> f64 {
    Registry::global().histogram(name).sum() as f64
}

/// Build path on the cold-build walks. Returns the traced cold round, ms.
fn build_path(seed: u64, ledger: &mut Ledger, tally: &mut Tally) -> Result<f64, String> {
    let inputs = cold::Inputs::prepare(seed, BUILD_ROUNDS)?;
    let par = Parallelism::available();
    let unlimited = Budget::unlimited();
    let walks: Vec<MetaWalk> = WALKS
        .iter()
        .zip(&inputs.graphs)
        .map(|((_, w), g)| {
            MetaWalk::parse_in(g, w).ok_or_else(|| format!("walk {w} does not parse"))
        })
        .collect::<Result<_, _>>()?;
    let plans: Vec<Vec<Vec<ChainStats>>> = walks
        .iter()
        .zip(&inputs.graphs)
        .map(|(mw, g)| plan_inputs(g, mw))
        .collect();

    let mut tr = Trace::new();
    let (mut symbolic, mut numeric, mut flops, mut out_nnz, mut chains) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for round in 0..BUILD_ROUNDS {
        let req = tr.open("round");
        for (w, g) in inputs.graphs.iter().enumerate() {
            let mw = &walks[w];
            let (us, tier, _) = cold::cold_answer(g, &inputs.streams[w][round], par)?;
            tally.record_tier(&tier);
            tr.record("cold_rank", req, (us * 1e3) as u64);

            let before = [
                histogram_sum("repsim.sparse.spgemm.symbolic_ns"),
                histogram_sum("repsim.sparse.spgemm.numeric_ns"),
                histogram_sum("repsim.sparse.spgemm.flops"),
                histogram_sum("repsim.sparse.spgemm.out_nnz"),
                counter("repsim.sparse.chain.calls"),
            ];
            let m = tr
                .time("build", req, || {
                    try_informative_commuting_with(g, mw, par, &unlimited)
                })
                .map_err(|e| e.to_string())?;
            symbolic += histogram_sum("repsim.sparse.spgemm.symbolic_ns") - before[0];
            numeric += histogram_sum("repsim.sparse.spgemm.numeric_ns") - before[1];
            flops += histogram_sum("repsim.sparse.spgemm.flops") - before[2];
            out_nnz += histogram_sum("repsim.sparse.spgemm.out_nnz") - before[3];
            chains += counter("repsim.sparse.chain.calls") - before[4];
            tr.time("engine_build", req, || {
                QueryEngine::try_from_half_matrix(g, mw.clone(), m, par)
            })
            .map_err(|e| e.to_string())?;
            for stats in &plans[w] {
                tr.time("plan", req, || plan_chain(stats));
            }
            tr.time("build_1t", req, || {
                try_informative_commuting_with(g, mw, serial(), &unlimited)
            })
            .map_err(|e| e.to_string())?;
        }
        tr.close(req);
    }
    let planned = plans.iter().map(Vec::len).sum::<usize>() * BUILD_ROUNDS;
    if chains as usize != planned {
        eprintln!(
            "warning: the build ran {chains} chain plans, the ledger replays {planned}; \
             sparse.chain.plan_us may be stale"
        );
    }

    let rounds = BUILD_ROUNDS as f64;
    let ms = |name: &str| tr.per_root_us(name) / 1e3;
    let cold_ms = ms("cold_rank");
    let build = ms("build");
    let engine = ms("engine_build");
    let plan_us = tr.per_root_us("plan");
    let (symbolic_ms, numeric_ms) = (symbolic / 1e6 / rounds, numeric / 1e6 / rounds);
    let p = Some("metawalk.commuting.build_ms");
    ledger.add("serve.service.cold_rank_ms", cold_ms, "ms", None);
    ledger.add(
        "metawalk.commuting.build_ms",
        build,
        "ms",
        Some("serve.service.cold_rank_ms"),
    );
    ledger.add("sparse.chain.plan_us", plan_us, "us", p);
    ledger.add("sparse.spgemm.symbolic_ms", symbolic_ms, "ms", p);
    ledger.add("sparse.spgemm.numeric_ms", numeric_ms, "ms", p);
    ledger.add(
        "metawalk.commuting.unattributed_ms",
        build - plan_us / 1e3 - symbolic_ms - numeric_ms,
        "ms",
        p,
    );
    ledger.add(
        "core.engine.build_ms",
        engine,
        "ms",
        Some("serve.service.cold_rank_ms"),
    );
    ledger.add(
        "serve.service.cold_unattributed_ms",
        cold_ms - build - engine,
        "ms",
        Some("serve.service.cold_rank_ms"),
    );
    ledger.add("sparse.spgemm.flops", flops / rounds, "count", None);
    ledger.add("sparse.spgemm.out_nnz", out_nnz / rounds, "count", None);
    ledger.add(
        "sparse.spgemm.numeric_ns_per_flop",
        numeric / flops.max(1.0),
        "ns",
        None,
    );
    ledger.add(
        "sparse.spgemm.speedup_2t",
        ms("build_1t") / build,
        "ratio",
        None,
    );
    Ok(cold_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_fold_into_per_call_and_per_root_figures() {
        let mut tr = Trace::new();
        for ns in [1000u64, 3000] {
            let root = tr.open("round");
            tr.record("build", root, ns);
            tr.record("plan", root, ns / 10);
            tr.record("plan", root, ns / 10);
            tr.close(root);
        }
        assert_eq!(tr.per_root_us("build"), 2.0);
        assert_eq!(tr.per_root_us("plan"), 0.4);
        assert_eq!(tr.mean_us("plan"), 0.2);
        assert_eq!(tr.p50_us("build"), 1.0);
        assert_eq!(tr.per_root_us("absent"), 0.0);
        assert_eq!(tr.count("plan"), 4);
    }

    #[test]
    fn ledger_tree_nests_children_under_parents() {
        let mut l = Ledger::default();
        l.add("a", 3.0, "us", None);
        l.add("b", 1.0, "us", Some("a"));
        l.add("a.unattributed", 2.0, "us", Some("a"));
        assert_eq!(
            l.tree(),
            "a = 3.000 us\n  b = 1.000 us\n  a.unattributed = 2.000 us\n"
        );
        let v = json::parse(&l.render()).unwrap();
        let rows = v.get("ledger").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].get("parent").and_then(Json::as_str), Some("a"));
    }

    #[test]
    fn plan_inputs_match_the_builds_chain_count() {
        let _serial = crate::ENGINE_TESTS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let _on = MetricsOn::install();
        let g = repsim_datasets::movies::imdb(&repsim_datasets::movies::MoviesConfig::tiny());
        for walk in [
            "film actor film",
            "film actor film actor film",
            "actor char film char actor",
        ] {
            let mw = MetaWalk::parse_in(&g, walk).unwrap();
            let before = counter("repsim.sparse.chain.calls");
            try_informative_commuting_with(&g, &mw, serial(), &Budget::unlimited()).unwrap();
            let ran = counter("repsim.sparse.chain.calls") - before;
            assert_eq!(ran as usize, plan_inputs(&g, &mw).len(), "{walk}");
        }
    }
}
