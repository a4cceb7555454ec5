//! The repsim benchmark: four seeded workloads against the real
//! program, end-to-end metrics with correctness gates (`--trace 0`), and
//! a per-layer ledger timed from outside each layer (`--trace 1`).
//!
//! ```text
//! repsim-benchmark --workload <hot-rank|churn|cold-build|fleet-rank>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed
//! correctness gate prints `"correct": false` with no metrics and exits
//! with code 1. See README.md for the metric table.

mod check;
mod cold;
mod ledger;
mod load;
mod served;
mod stats;

use check::Tally;
use served::Served;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in BENCHMARK.json.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// What one run produced.
pub struct Outcome {
    /// Every request attempted, classified.
    pub tally: Tally,
    /// The metrics printed on the result line.
    pub metrics: Vec<Metric>,
    /// Further figures printed before the result line.
    pub detail: Vec<Metric>,
    /// `Ok(summary)` when every correctness gate passed.
    pub verdict: Result<String, String>,
}

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-only ranks on one node.
    HotRank,
    /// Ranks with one mutation in twenty.
    Churn,
    /// Cold first answers on three unindexed walks.
    ColdBuild,
    /// The hot-rank stream through a 2-shard fleet.
    FleetRank,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot-rank" => Some(Workload::HotRank),
            "churn" => Some(Workload::Churn),
            "cold-build" => Some(Workload::ColdBuild),
            "fleet-rank" => Some(Workload::FleetRank),
            _ => None,
        }
    }

    /// The served flavour, if this workload goes over TCP.
    pub fn served(self) -> Option<Served> {
        match self {
            Workload::HotRank => Some(Served::HotRank),
            Workload::Churn => Some(Served::Churn),
            Workload::FleetRank => Some(Served::FleetRank),
            Workload::ColdBuild => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return ledger::run(args.workload, args.seed, args.seconds);
    }
    match args.workload.served() {
        Some(kind) => served::run(kind, &load::Preset::Movies.text()?, args.seed, args.seconds),
        None => cold::run(args.seed, args.seconds),
    }
}

fn render_metrics(metrics: &[Metric]) -> String {
    let parts: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repsim-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("repsim-benchmark: {e}");
            std::process::exit(1);
        }
    };
    let t = &outcome.tally;
    println!(
        "{{\"accounting\": {{\"attempted\": {}, \"ok\": {}, \"shed\": {}, \"exhausted\": {}, \
         \"errors\": {}, \"tiers\": \"{}\", \"failed_ratio\": {}}}}}",
        t.attempted,
        t.ok,
        t.shed,
        t.exhausted,
        t.errors,
        t.tier_mix(),
        t.failed_ratio()
    );
    match &outcome.verdict {
        Ok(summary) => {
            eprintln!("correct: {summary}");
            println!("{{\"detail\": {}}}", render_metrics(&outcome.detail));
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                t.attempted.max(1),
                t.failed(),
                render_metrics(&outcome.metrics)
            );
        }
        Err(why) => {
            eprintln!("repsim-benchmark: correctness check failed: {why}");
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                t.attempted.max(1),
                t.failed().max(1)
            );
            std::process::exit(1);
        }
    }
}

/// Serializes the tests that build engines while one of them reads the
/// program's global counters.
#[cfg(test)]
pub(crate) static ENGINE_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload churn --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Churn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload churn --trace 2").is_err());
    }

    #[test]
    fn metrics_render_as_json() {
        let text = render_metrics(&[Metric::new("setup_s", 0.5, "s")]);
        let v = repsim_obs::json::parse(&text).unwrap();
        assert_eq!(
            v.get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(|x| x.as_num()),
            Some(0.5)
        );
    }
}
