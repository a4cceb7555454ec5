//! The served workloads — `hot-rank`, `churn` and `fleet-rank` — driven
//! over TCP by one closed-loop client on one connection.
//!
//! A run boots [`INSTANCES`] fresh deployments one after another; each
//! is set up, warmed, and then serves an equal share of the run's timed
//! batches, continuing the one seeded stream. Rank latency on one
//! instance swings by ±20% with where its half matrix landed in memory
//! and what the host was doing while it ran; pooling several instances
//! per run keeps that swing out of the run-to-run spread, and gives the
//! set-up figures their median.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use repsim_graph::mutation;
use repsim_graph::Graph;
use repsim_serve::snapshot::graph_fingerprint;
use repsim_serve::{Request, ShardSpec};

use crate::check::{gate, Reference, Tally};
use crate::load::{self, Boot, Conn, RunDir, Server, CHURN_EVERY, MOVIES_WALK};
use crate::stats::{self, percentile};
use crate::{Metric, Outcome};

/// Deployments per run; `setup_s` and `cold_round_ms` report their
/// median.
pub const INSTANCES: usize = 10;

/// Warm rank requests after the cold first answer, before timing.
const WARM_REQUESTS: usize = 50;

/// Salt for the warm-up stream, so warm-up never replays timed queries.
pub const WARM_SALT: u64 = 0x5eed_0000_0000_0001;

/// Rank-checked graph states on `churn` besides each instance's first
/// and last (spread over the run; each costs one cold engine build).
const CHURN_CHECKED_STATES: usize = 16;

/// Fleet shard count.
pub const SHARDS: u32 = 2;

/// Which served workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Read-only Zipf ranks on one node.
    HotRank,
    /// `HotRank` plus one mutation in twenty, WAL on.
    Churn,
    /// The `HotRank` stream through a 2-shard coordinator.
    FleetRank,
}

impl Served {
    /// Requests per timed batch: the unit every count is taken over. On
    /// `churn` a batch holds whole add_entity → add_edge → remove_edge
    /// cycles, so the next instance starts at a cycle boundary.
    fn batch(self) -> usize {
        match self {
            Served::HotRank => 500,
            Served::Churn => 4 * 3 * CHURN_EVERY,
            Served::FleetRank => 100,
        }
    }

    /// The seeded request stream, long enough for any run length.
    pub fn stream(self, g: &Graph, seed: u64, seconds: u64) -> Result<Vec<String>, String> {
        let n = (seconds.max(1) as usize) * 5_000;
        match self {
            Served::Churn => load::churn_stream(g, MOVIES_WALK, seed, n),
            Served::HotRank | Served::FleetRank => load::rank_stream(g, MOVIES_WALK, seed, n),
        }
    }
}

/// A booted single node or fleet.
pub struct Deployment {
    /// Where the client connects.
    pub addr: String,
    /// Shard addresses (fleet only).
    pub shard_addrs: Vec<String>,
    /// Stopped in order: coordinator first, then shards.
    servers: Vec<Server>,
}

impl Deployment {
    /// Boots `kind` over `graph`.
    pub fn boot(kind: Served, graph: &Arc<Graph>, dir: &RunDir) -> Result<Deployment, String> {
        match kind {
            Served::HotRank | Served::Churn => {
                let wal = (kind == Served::Churn).then(|| dir.file("churn.wal"));
                if let Some(path) = &wal {
                    // Every instance starts from an empty log.
                    let _ = std::fs::remove_file(path);
                }
                let node = Server::boot(
                    Boot::Node {
                        graph: Arc::clone(graph),
                        shard: None,
                        wal,
                    },
                    &dir.file("node.port"),
                )?;
                Ok(Deployment {
                    addr: node.addr.clone(),
                    shard_addrs: Vec::new(),
                    servers: vec![node],
                })
            }
            Served::FleetRank => {
                let mut servers = Vec::new();
                for index in 0..SHARDS {
                    servers.push(Server::boot(
                        Boot::Node {
                            graph: Arc::clone(graph),
                            shard: Some(ShardSpec {
                                index,
                                count: SHARDS,
                            }),
                            wal: None,
                        },
                        &dir.file(&format!("shard{index}.port")),
                    )?);
                }
                let shard_addrs: Vec<String> = servers.iter().map(|s| s.addr.clone()).collect();
                let coord = Server::boot(
                    Boot::Coordinator {
                        shards: shard_addrs.clone(),
                    },
                    &dir.file("coord.port"),
                )?;
                let addr = coord.addr.clone();
                servers.insert(0, coord);
                Ok(Deployment {
                    addr,
                    shard_addrs,
                    servers,
                })
            }
        }
    }

    /// Stops every server, coordinator first.
    pub fn stop(self) -> Result<(), String> {
        for s in self.servers {
            s.stop()?;
        }
        Ok(())
    }
}

/// A warm deployment plus what its set-up cost.
pub struct Instance {
    /// The parsed graph the deployment serves.
    pub graph: Arc<Graph>,
    /// The deployment.
    pub deployment: Deployment,
    /// The client connection used for warm-up.
    pub conn: Conn,
    /// Parse, boot and warm-up, seconds.
    pub setup_s: f64,
    /// The cold first answer, milliseconds.
    pub cold_ms: f64,
    /// The graph parse, milliseconds.
    pub read_ms: f64,
}

/// Parses, boots and warms one deployment: a cold first rank (which
/// builds the walk's index), then [`WARM_REQUESTS`] warm ones.
pub fn boot_warm(kind: Served, text: &str, seed: u64, dir: &RunDir) -> Result<Instance, String> {
    let t0 = Instant::now();
    let graph = Arc::new(load::parse(text)?);
    let read_ms = t0.elapsed().as_secs_f64() * 1e3;
    let deployment = Deployment::boot(kind, &graph, dir)?;
    let mut conn = Conn::open(&deployment.addr)?;
    let warm = load::rank_stream(&graph, MOVIES_WALK, seed ^ WARM_SALT, 1 + WARM_REQUESTS)?;
    let mut tally = Tally::default();
    let mut cold_ms = 0.0;
    for (i, line) in warm.iter().enumerate() {
        let tc = Instant::now();
        let reply = conn.roundtrip(line)?;
        if i == 0 {
            cold_ms = tc.elapsed().as_secs_f64() * 1e3;
        }
        tally.record(&reply);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    if tally.failed() > 0 {
        return Err(format!("warm-up failed: {}", tally.tier_mix()));
    }
    Ok(Instance {
        graph,
        deployment,
        conn,
        setup_s,
        cold_ms,
        read_ms,
    })
}

/// What the timed batches observed.
#[derive(Default)]
pub struct Timed {
    /// Rank latencies, microseconds, in request order.
    pub rank_us: Vec<f64>,
    /// Mutation latencies, microseconds.
    pub mutate_us: Vec<f64>,
    /// Ranks per second, one value per batch.
    pub batch_rps: Vec<f64>,
    /// `(stream index, reply)` for every request sent.
    pub replies: Vec<(usize, String)>,
    /// The stream range each instance served, in order.
    pub segments: Vec<Range<usize>>,
    /// Every reply classified.
    pub tally: Tally,
}

impl Timed {
    /// Sends whole batches of `stream`, from where the previous instance
    /// stopped, until `seconds` have passed (at least one batch).
    fn serve(
        &mut self,
        kind: Served,
        conn: &mut Conn,
        stream: &[String],
        seconds: f64,
    ) -> Result<(), String> {
        let from = self.segments.last().map_or(0, |s| s.end);
        let start = Instant::now();
        let mut at = from;
        for batch in stream[from..].chunks_exact(kind.batch()) {
            if at > from && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let tb = Instant::now();
            let mut ranks = 0usize;
            for line in batch {
                let t = Instant::now();
                let reply = conn.roundtrip(line)?;
                let us = t.elapsed().as_secs_f64() * 1e6;
                if load::is_mutation(line) {
                    self.mutate_us.push(us);
                } else {
                    self.rank_us.push(us);
                    ranks += 1;
                }
                self.tally.record(&reply);
                self.replies.push((at, reply));
                at += 1;
            }
            self.batch_rps
                .push(ranks as f64 / tb.elapsed().as_secs_f64());
        }
        if at == from {
            return Err("the request stream ran out".to_owned());
        }
        self.segments.push(from..at);
        Ok(())
    }
}

/// Runs one served workload end to end (`--trace 0`).
pub fn run(kind: Served, text: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let dir = RunDir::create(match kind {
        Served::HotRank => "hot-rank",
        Served::Churn => "churn",
        Served::FleetRank => "fleet-rank",
    })?;
    let share = seconds as f64 / INSTANCES as f64;
    let mut t = Timed::default();
    let (mut setup_s, mut cold_ms, mut read_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream = Vec::new();
    let mut graph = None;
    for _ in 0..INSTANCES {
        let mut inst = boot_warm(kind, text, seed, &dir)?;
        setup_s.push(inst.setup_s);
        cold_ms.push(inst.cold_ms);
        read_ms.push(inst.read_ms);
        if stream.is_empty() {
            stream = kind.stream(&inst.graph, seed, seconds)?;
        }
        t.serve(kind, &mut inst.conn, &stream, share)?;
        drop(inst.conn);
        inst.deployment.stop()?;
        graph = Some(inst.graph);
    }
    let graph = graph.ok_or("no instance ran")?;
    let peak = stats::peak_rss_mb()?;

    let verdict = verify(kind, &graph, &stream, &t);
    let mut rank_us = t.rank_us.clone();
    rank_us.sort_by(f64::total_cmp);
    let mut mutate_us = t.mutate_us.clone();
    mutate_us.sort_by(f64::total_cmp);
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);

    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("rank_rps", median(&t.batch_rps), "1/s"),
        Metric::new("peak_rss_mb", peak, "MiB"),
    ];
    let mut detail = vec![
        Metric::new("cold_round_ms", median(&cold_ms), "ms"),
        Metric::new("rank_samples", rank_us.len() as f64, "count"),
        Metric::new("rank_p50_us", percentile(&rank_us, 50.0), "us"),
    ];
    if let Some(p) = stats::highest_tail(rank_us.len()) {
        detail.push(Metric::new(
            &format!("rank_p{p}_us"),
            percentile(&rank_us, p),
            "us",
        ));
    }
    if !mutate_us.is_empty() {
        detail.push(Metric::new(
            "mutate_samples",
            mutate_us.len() as f64,
            "count",
        ));
        detail.push(Metric::new(
            "mutate_p50_us",
            percentile(&mutate_us, 50.0),
            "us",
        ));
        if stats::tail_supported(mutate_us.len(), 90.0) {
            detail.push(Metric::new(
                "mutate_p90_us",
                percentile(&mutate_us, 90.0),
                "us",
            ));
        }
    }
    detail.push(Metric::new("graph_read_ms", median(&read_ms), "ms"));
    detail.push(Metric::new(
        "graph_nodes",
        graph.num_nodes() as f64,
        "count",
    ));
    detail.push(Metric::new(
        "graph_edges",
        graph.num_edges() as f64,
        "count",
    ));
    Ok(Outcome {
        tally: t.tally,
        metrics,
        detail,
        verdict,
    })
}

/// The correctness gates, run after the timed window.
pub fn verify(kind: Served, g: &Graph, stream: &[String], t: &Timed) -> Result<String, String> {
    if t.tally.failed() > 0 {
        return Err(format!(
            "{} of {} requests failed (shed {}, exhausted {}, errors {}, tiers {})",
            t.tally.failed(),
            t.tally.attempted,
            t.tally.shed,
            t.tally.exhausted,
            t.tally.errors,
            t.tally.tier_mix()
        ));
    }
    match kind {
        Served::HotRank | Served::FleetRank => {
            let mut reference = Reference::new(g, MOVIES_WALK)?;
            let expected = t
                .replies
                .iter()
                .map(|(i, _)| reference.line_for(&stream[*i]))
                .collect::<Result<Vec<_>, _>>()?;
            let digest = gate("fleet ≡ single node ≡ reference", &t.replies, &expected)?;
            Ok(format!("rank digest {digest:016x} equals the reference"))
        }
        Served::Churn => verify_churn(g, stream, t),
    }
}

/// delta ≡ rebuild: each instance started from `g`, so each segment's
/// mutation prefix is replayed on a plain copy of `g`; every ack must
/// carry the replayed fingerprint, and every rank answered in a spread
/// of graph states (each segment's first and last among them) must equal
/// a cold engine built on that state.
fn verify_churn(g: &Graph, stream: &[String], t: &Timed) -> Result<String, String> {
    let total_states: usize = t
        .segments
        .iter()
        .map(|s| {
            1 + stream[s.clone()]
                .iter()
                .filter(|l| load::is_mutation(l))
                .count()
        })
        .sum();
    let stride = total_states.div_ceil(CHURN_CHECKED_STATES).max(1);
    let (mut state_no, mut checked, mut ranks, mut acks) = (0usize, 0usize, 0usize, 0usize);
    let mut replies = t.replies.iter().peekable();
    for segment in &t.segments {
        // Group this segment's replies by graph state.
        let mut states: Vec<Vec<(usize, String)>> = vec![Vec::new()];
        let mut ops = Vec::new();
        while let Some((i, reply)) = replies.next_if(|(i, _)| segment.contains(i)) {
            let line = &stream[*i];
            if load::is_mutation(line) {
                let Ok(Request::Mutate { op, .. }) = Request::parse(line) else {
                    return Err(format!("unparsable mutation {line}"));
                };
                ops.push((op, reply));
                states.push(Vec::new());
            } else if let Some(s) = states.last_mut() {
                s.push((*i, reply.clone()));
            }
        }
        let mut graph = g.clone();
        let last = states.len() - 1;
        for (s, answers) in states.iter().enumerate() {
            if s > 0 {
                let (op, ack) = &ops[s - 1];
                graph = mutation::apply(&graph, op).map_err(|e| format!("replay {op}: {e}"))?;
                let fp = format!("{:#018x}", graph_fingerprint(&graph));
                if !ack.contains(&format!("\"fingerprint\":\"{fp}\"")) {
                    return Err(format!("ack {ack} does not carry fingerprint {fp}"));
                }
                acks += 1;
            }
            let sampled = s == 0 || s == last || state_no % stride == 0;
            state_no += 1;
            if sampled && !answers.is_empty() {
                let mut reference = Reference::new(&graph, MOVIES_WALK)?;
                let expected = answers
                    .iter()
                    .map(|(i, _)| reference.line_for(&stream[*i]))
                    .collect::<Result<Vec<_>, _>>()?;
                gate(
                    &format!("delta ≡ rebuild after {s} mutations"),
                    answers,
                    &expected,
                )?;
                ranks += answers.len();
                checked += 1;
            }
        }
    }
    Ok(format!(
        "{acks} mutation fingerprints and {ranks} ranks in {checked} of {total_states} graph \
         states match a cold rebuild"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_batches_end_on_mutation_cycle_boundaries() {
        assert_eq!(Served::Churn.batch() % (3 * CHURN_EVERY), 0);
    }
}
