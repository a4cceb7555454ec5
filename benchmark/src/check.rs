//! Failure accounting and the correctness gates: every response is
//! classified against what was attempted, and rank answers are compared
//! with an independent reference — a fresh `QueryEngine::new` per graph
//! state, rendered in the wire format — by FNV-1a digest.

use std::collections::{BTreeMap, HashMap};

use repsim_core::QueryEngine;
use repsim_graph::Graph;
use repsim_metawalk::MetaWalk;
use repsim_obs::json::{self, Json};
use repsim_serve::protocol::{RankEntry, ReqId};
use repsim_serve::{Request, Response};

use crate::stats::Digest;

/// What came back for everything attempted.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests sent (ranks and mutations).
    pub attempted: u64,
    /// Answered with `"ok":true` at tier `exact`, or mutations acked.
    pub ok: u64,
    /// Refused with `overloaded`.
    pub shed: u64,
    /// Refused with `exhausted`.
    pub exhausted: u64,
    /// Any other error, or a reply that does not parse.
    pub errors: u64,
    /// Rank answers per tier.
    pub tiers: BTreeMap<String, u64>,
}

impl Tally {
    /// Classifies one response line.
    pub fn record(&mut self, reply: &str) {
        self.attempted += 1;
        let Ok(v) = json::parse(reply) else {
            self.errors += 1;
            return;
        };
        if v.get("ok") == Some(&Json::Bool(true)) {
            match v.get("tier").and_then(Json::as_str) {
                Some(tier) => {
                    *self.tiers.entry(tier.to_owned()).or_default() += 1;
                    if tier == "exact" {
                        self.ok += 1;
                    }
                }
                None => self.ok += 1,
            }
            return;
        }
        let code = v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        match code {
            Some("overloaded") => self.shed += 1,
            Some("exhausted") => self.exhausted += 1,
            _ => self.errors += 1,
        }
    }

    /// Adds an answer produced in process (no wire line).
    pub fn record_tier(&mut self, tier: &str) {
        self.attempted += 1;
        *self.tiers.entry(tier.to_owned()).or_default() += 1;
        if tier == "exact" {
            self.ok += 1;
        }
    }

    /// Adds an in-process error.
    pub fn record_error(&mut self) {
        self.attempted += 1;
        self.errors += 1;
    }

    /// Errors + sheds + exhausted + answers at a tier other than exact.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// The tier mix as `tier=count` pairs.
    pub fn tier_mix(&self) -> String {
        let parts: Vec<String> = self.tiers.iter().map(|(t, n)| format!("{t}={n}")).collect();
        parts.join(",")
    }
}

/// Answers from a cold `QueryEngine::new` over one graph state, memoized
/// per query entity.
pub struct Reference<'g> {
    g: &'g Graph,
    mw: MetaWalk,
    engine: QueryEngine<'g>,
    memo: HashMap<String, Vec<RankEntry>>,
}

impl<'g> Reference<'g> {
    /// Builds the engine for `walk` on `g`.
    pub fn new(g: &'g Graph, walk: &str) -> Result<Reference<'g>, String> {
        let mw =
            MetaWalk::parse_in(g, walk).ok_or_else(|| format!("walk {walk:?} does not parse"))?;
        Ok(Reference {
            g,
            engine: QueryEngine::new(g, mw.clone()),
            mw,
            memo: HashMap::new(),
        })
    }

    /// The single-node response line the program should send for the
    /// rank request `line`.
    pub fn line_for(&mut self, line: &str) -> Result<String, String> {
        let Ok(Request::Rank {
            id,
            label,
            value,
            k,
            ..
        }) = Request::parse(line)
        else {
            return Err(format!("not a rank request: {line}"));
        };
        let key = format!("{label}\u{1f}{value}\u{1f}{k}");
        if !self.memo.contains_key(&key) {
            let label_id = self
                .g
                .labels()
                .get(&label)
                .ok_or_else(|| format!("unknown label {label}"))?;
            let query = self
                .g
                .entity(label_id, &value)
                .ok_or_else(|| format!("unknown entity {label}:{value}"))?;
            let results = self
                .engine
                .rank_ref(query, self.mw.source(), k)
                .keyed(self.g)
                .into_iter()
                .map(|(label, value, score)| RankEntry {
                    label,
                    value,
                    score,
                })
                .collect();
            self.memo.insert(key.clone(), results);
        }
        Ok(render_rank(id, self.memo[&key].clone()))
    }
}

fn render_rank(id: ReqId, results: Vec<RankEntry>) -> String {
    Response::Rank {
        id,
        tier: "exact".to_owned(),
        results,
        shard: None,
        coverage: None,
    }
    .to_json_line()
}

/// Compares served answers with expected ones by digest; on mismatch,
/// names the first differing request.
pub fn gate(what: &str, served: &[(usize, String)], expected: &[String]) -> Result<u64, String> {
    let mut a = Digest::default();
    let mut b = Digest::default();
    for ((_, s), e) in served.iter().zip(expected) {
        a.push(s);
        b.push(e);
    }
    if served.len() == expected.len() && a == b {
        return Ok(a.value());
    }
    let at = served
        .iter()
        .zip(expected)
        .find(|((_, s), e)| s != *e)
        .map_or_else(
            || {
                format!(
                    "{} served vs {} expected answers",
                    served.len(),
                    expected.len()
                )
            },
            |((i, s), e)| format!("request {}: served {s} expected {e}", i + 1),
        );
    Err(format!(
        "{what}: rank digest {:016x} != reference {:016x} ({at})",
        a.value(),
        b.value()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use repsim_datasets::movies;

    #[test]
    fn tally_classifies_every_reply() {
        let mut t = Tally::default();
        t.record(r#"{"id":1,"ok":true,"tier":"exact","results":[]}"#);
        t.record(r#"{"id":2,"ok":true,"tier":"half-factorized","results":[]}"#);
        t.record(r#"{"id":3,"ok":true,"mutate":{"fingerprint":"0x1","seq":1,"path":"delta"}}"#);
        t.record(r#"{"id":4,"ok":false,"error":{"code":"overloaded","message":"x","retry_after_ms":10}}"#);
        t.record(r#"{"id":5,"ok":false,"error":{"code":"exhausted","message":"x"}}"#);
        t.record(r#"{"id":6,"ok":false,"error":{"code":"bad_request","message":"x"}}"#);
        t.record("not json");
        assert_eq!(
            (t.attempted, t.ok, t.shed, t.exhausted, t.errors),
            (7, 2, 1, 1, 2)
        );
        assert_eq!(t.failed(), 5);
        assert_eq!(t.tier_mix(), "exact=1,half-factorized=1");
    }

    #[test]
    fn perturbed_ranking_trips_the_digest_gate() {
        let _serial = crate::ENGINE_TESTS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let g = movies::imdb(&movies::MoviesConfig::tiny());
        let walk = crate::load::MOVIES_WALK;
        let lines = crate::load::rank_stream(&g, walk, 11, 40).unwrap();
        let mut reference = Reference::new(&g, walk).unwrap();
        let expected: Vec<String> = lines
            .iter()
            .map(|l| reference.line_for(l).unwrap())
            .collect();
        let served: Vec<(usize, String)> = expected.iter().cloned().enumerate().collect();
        assert!(gate("same", &served, &expected).is_ok());

        // Swap the first two results of one answer: same entities,
        // different order — the digest must notice.
        let mut perturbed = served.clone();
        let v = json::parse(&perturbed[5].1).unwrap();
        let results = v.get("results").and_then(Json::as_arr).unwrap();
        assert!(results.len() >= 2);
        let entries: Vec<RankEntry> = [1usize, 0]
            .into_iter()
            .chain(2..results.len())
            .map(|i| RankEntry {
                label: results[i]
                    .get("label")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_owned(),
                value: results[i]
                    .get("value")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_owned(),
                score: results[i].get("score").and_then(Json::as_num).unwrap(),
            })
            .collect();
        perturbed[5].1 = render_rank(ReqId::Num(6.0), entries);
        let err = gate("perturbed", &perturbed, &expected).unwrap_err();
        assert!(err.contains("request 6"), "{err}");
        // A dropped answer trips it too.
        assert!(gate("short", &served[1..], &expected).is_err());
    }
}
