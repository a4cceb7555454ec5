//! `cold-build`: time to first answer on an unindexed walk. Every round
//! parses the three graphs afresh (the set-up), gives each walk a fresh
//! in-process `QueryService` (no snapshot, no TCP) and times its first
//! rank, so chain planning, SpGEMM and the informative corrections do
//! the work.

use std::time::Instant;

use repsim_graph::Graph;
use repsim_serve::{QueryService, Request, ServiceConfig};
use repsim_sparse::Parallelism;

use crate::check::{Reference, Tally};
use crate::load::{self, Preset};
use crate::stats::{self, percentile};
use crate::{Metric, Outcome};

/// The walk set: (preset, walk). Costliest first.
pub const WALKS: [(Preset, &str); 3] = [
    (
        Preset::CitationsDblp,
        "paper cite paper cite paper cite paper",
    ),
    (Preset::Bibliographic, "author paper proc paper author"),
    (Preset::Movies, load::MOVIES_WALK),
];

/// Minimum rounds per run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// The serialized graphs and one seeded rank stream per walk.
pub struct Inputs {
    /// Serialized graph per walk.
    texts: Vec<String>,
    /// Parsed graph per walk.
    pub graphs: Vec<Graph>,
    /// Rank request lines per walk, one per round.
    pub streams: Vec<Vec<String>>,
}

impl Inputs {
    /// Generates the presets (the benchmark's own work), parses them
    /// once and draws `rounds` seeded requests per walk.
    pub fn prepare(seed: u64, rounds: usize) -> Result<Inputs, String> {
        let texts = WALKS
            .iter()
            .map(|(p, _)| p.text())
            .collect::<Result<Vec<_>, _>>()?;
        let (graphs, _) = parse_all(&texts)?;
        let streams = WALKS
            .iter()
            .zip(&graphs)
            .map(|((_, walk), g)| load::query_stream(g, walk, seed, rounds))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Inputs {
            texts,
            graphs,
            streams,
        })
    }

    /// Parses the three graphs afresh, as a starting program does;
    /// returns them with the time it took, seconds.
    pub fn parse(&self) -> Result<(Vec<Graph>, f64), String> {
        parse_all(&self.texts)
    }
}

fn parse_all(texts: &[String]) -> Result<(Vec<Graph>, f64), String> {
    let t = Instant::now();
    let graphs = texts
        .iter()
        .map(|t| load::parse(t))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((graphs, t.elapsed().as_secs_f64()))
}

/// One cold answer: a fresh service, one rank, timed around the rank.
pub fn cold_answer(
    g: &Graph,
    line: &str,
    par: Parallelism,
) -> Result<(f64, String, Vec<repsim_serve::protocol::RankEntry>), String> {
    let Ok(Request::Rank {
        walk,
        label,
        value,
        k,
        ..
    }) = Request::parse(line)
    else {
        return Err(format!("not a rank request: {line}"));
    };
    let svc = QueryService::new(
        g,
        ServiceConfig {
            par,
            ..ServiceConfig::default()
        },
    );
    let t = Instant::now();
    let answer = svc.handle_rank_epoch(&walk, &label, &value, k, None);
    let us = t.elapsed().as_secs_f64() * 1e6;
    let answer = answer.map_err(|e| format!("cold rank {line}: {e}"))?;
    Ok((us, answer.tier, answer.results))
}

/// Runs `cold-build` end to end (`--trace 0`).
pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let max_rounds = (seconds as usize).max(MIN_ROUNDS) * 4;
    let inputs = Inputs::prepare(seed, max_rounds)?;
    let par = Parallelism::available();
    let mut tally = Tally::default();
    let mut rank_us = Vec::new();
    let mut walk_ms = vec![Vec::new(); WALKS.len()];
    let mut round_ms = Vec::new();
    let mut answers: Vec<(usize, usize, String)> = Vec::new();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    for round in 0..max_rounds {
        if round >= MIN_ROUNDS && start.elapsed().as_secs() >= seconds {
            break;
        }
        // Every round starts from a fresh parse, so the set-up samples
        // spread over the whole run as the cold answers do.
        let (graphs, parse_s) = inputs.parse()?;
        setup_s.push(parse_s);
        let mut total = 0.0;
        for (w, g) in graphs.iter().enumerate() {
            let line = &inputs.streams[w][round];
            match cold_answer(g, line, par) {
                Ok((us, tier, results)) => {
                    tally.record_tier(&tier);
                    total += us;
                    rank_us.push(us);
                    walk_ms[w].push(us / 1e3);
                    let reply = repsim_serve::Response::Rank {
                        id: request_id(line)?,
                        tier,
                        results,
                        shard: None,
                        coverage: None,
                    }
                    .to_json_line();
                    answers.push((w, round, reply));
                }
                Err(e) => {
                    tally.record_error();
                    eprintln!("{e}");
                }
            }
        }
        round_ms.push(total / 1e3);
    }
    let peak = stats::peak_rss_mb()?;
    let verdict = verify(&inputs, &answers, &tally);
    let rounds = round_ms.len();
    let setup_s = stats::median(&setup_s).unwrap_or(0.0);
    rank_us.sort_by(f64::total_cmp);
    let rps: Vec<f64> = round_ms
        .iter()
        .map(|ms| WALKS.len() as f64 * 1e3 / ms)
        .collect();
    let mut detail = vec![
        Metric::new("rounds", rounds as f64, "count"),
        Metric::new(
            "cold_round_ms",
            stats::median(&round_ms).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("rank_p50_us", percentile(&rank_us, 50.0), "us"),
        Metric::new("graph_read_ms", setup_s * 1e3, "ms"),
        Metric::new("threads", par.threads() as f64, "count"),
    ];
    for (((preset, _), ms), g) in WALKS.iter().zip(&walk_ms).zip(&inputs.graphs) {
        let name = preset.name();
        detail.push(Metric::new(
            &format!("{name}_cold_ms"),
            stats::median(ms).unwrap_or(0.0),
            "ms",
        ));
        detail.push(Metric::new(
            &format!("{name}_nodes"),
            g.num_nodes() as f64,
            "count",
        ));
        detail.push(Metric::new(
            &format!("{name}_edges"),
            g.num_edges() as f64,
            "count",
        ));
    }
    Ok(Outcome {
        tally,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("rank_rps", stats::median(&rps).unwrap_or(0.0), "1/s"),
            Metric::new("peak_rss_mb", peak, "MiB"),
        ],
        detail,
        verdict,
    })
}

fn request_id(line: &str) -> Result<repsim_serve::protocol::ReqId, String> {
    Request::parse(line)
        .map(|r| r.id().clone())
        .map_err(|e| format!("{e}: {line}"))
}

/// Every cold answer must equal a `QueryEngine::new` reference.
fn verify(
    inputs: &Inputs,
    answers: &[(usize, usize, String)],
    tally: &Tally,
) -> Result<String, String> {
    if tally.failed() > 0 {
        return Err(format!(
            "{} of {} cold ranks failed (errors {}, tiers {})",
            tally.failed(),
            tally.attempted,
            tally.errors,
            tally.tier_mix()
        ));
    }
    for (w, g) in inputs.graphs.iter().enumerate() {
        let mut reference = Reference::new(g, WALKS[w].1)?;
        for (_, round, reply) in answers.iter().filter(|(aw, _, _)| *aw == w) {
            let expected = reference.line_for(&inputs.streams[w][*round])?;
            if *reply != expected {
                return Err(format!("cold answer {reply} != reference {expected}"));
            }
        }
    }
    Ok(format!(
        "{} cold answers equal the reference",
        answers.len()
    ))
}
