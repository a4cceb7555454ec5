//! Fault-tolerant sharded serving: the fleet must be indistinguishable
//! from a single node whenever at least one replica of every shard is
//! alive, and must degrade *explicitly* (never silently) when it is not.
//!
//! Three contracts from the sharding design are pinned here:
//!
//! 1. **Band partition is lossless**: merging per-band top-k lists with
//!    the single-node comparator (score descending, then `(label,
//!    value)` ascending) reproduces the unbanded ranking bit-exactly,
//!    for every shard count and every query — the mathematical core
//!    that makes scatter-gather sound. Checked by property over random
//!    graphs and shard counts 1..=4.
//! 2. **Replica death is invisible**: a live fleet (2 replicas per
//!    shard) behind the coordinator answers byte-identically to a
//!    single-node server, *including* under any kill-one-replica
//!    schedule applied mid-stream — zero client-visible errors, rank
//!    digests (FNV-1a over the raw response lines) equal.
//! 3. **Shard death is explicit**: a whole shard down yields tier
//!    `partial-shards:A/T` with exact coverage counts and rankings
//!    restricted to the live bands; zero live shards is a typed
//!    `shards_unavailable` error, never a hang or an empty "success".

// Tests may panic freely: the workspace panic-freedom lints target
// library code, not assertions.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use repsim_core::QueryEngine;
use repsim_graph::{Graph, GraphBuilder, NodeId};
use repsim_metawalk::MetaWalk;
use repsim_serve::{
    client_roundtrip, run, run_coordinator, CoordConfig, ServeConfig, ServiceConfig, ShardSpec,
};
use repsim_sparse::par::shard_band;
use repsim_sparse::{checksum, Budget, Parallelism};

mod common;
use common::StopOnDrop;

/// A small random 3-layer graph (l0 — l1 — l2), the shape every
/// meta-walk in these tests traverses.
#[derive(Debug, Clone)]
struct RandomTripartite {
    sizes: [u8; 3],
    edges01: Vec<(u8, u8)>,
    edges12: Vec<(u8, u8)>,
}

fn tripartite_strategy() -> impl Strategy<Value = RandomTripartite> {
    (
        (1u8..5, 1u8..5, 1u8..5),
        prop::collection::vec((0u8..5, 0u8..5), 1..15),
        prop::collection::vec((0u8..5, 0u8..5), 1..15),
    )
        .prop_map(|((s0, s1, s2), edges01, edges12)| RandomTripartite {
            sizes: [s0, s1, s2],
            edges01,
            edges12,
        })
}

fn build(rt: &RandomTripartite) -> Graph {
    let mut b = GraphBuilder::new();
    let labels: Vec<_> = (0..3).map(|i| b.entity_label(&format!("l{i}"))).collect();
    let nodes: Vec<Vec<_>> = (0..3)
        .map(|i| {
            (0..rt.sizes[i])
                .map(|j| b.entity(labels[i], &format!("v{i}_{j}")))
                .collect()
        })
        .collect();
    for &(a, c) in &rt.edges01 {
        let a = nodes[0][a as usize % nodes[0].len()];
        let c = nodes[1][c as usize % nodes[1].len()];
        let _ = b.edge(a, c);
    }
    for &(a, c) in &rt.edges12 {
        let a = nodes[1][a as usize % nodes[1].len()];
        let c = nodes[2][c as usize % nodes[2].len()];
        let _ = b.edge(a, c);
    }
    b.build()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repsim-sharding-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// A fleet-member (or single-node, when `shard` is `None`) server
/// config bound to an ephemeral port announced through a port file.
fn serve_cfg(dir: &Path, name: &str, shard: Option<ShardSpec>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        snapshot: None,
        wal: None,
        queue_cap: 64,
        port_file: Some(dir.join(format!("{name}.port"))),
        metrics_journal: None,
        metrics_interval_ms: 1000,
        service: ServiceConfig {
            shard,
            ..ServiceConfig::default()
        },
    }
}

/// Polls a server's port file until it announces a bound address.
fn wait_addr(port_file: &Path) -> String {
    loop {
        match std::fs::read_to_string(port_file) {
            Ok(text) if text.trim().parse::<SocketAddr>().is_ok() => return text.trim().to_owned(),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Blocks until `addr` refuses connections — a killed replica is not
/// "down" for the coordinator until its listener is gone.
fn wait_dead(addr: &str) {
    for _ in 0..2000 {
        if std::net::TcpStream::connect(addr).is_err() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("replica at {addr} still accepting after shutdown");
}

/// The exact entry bits of a ranking: node ids plus f64 bit patterns,
/// because the sharding contract is *bit*-identity, not approximation.
fn bits(entries: &[(NodeId, f64)]) -> Vec<(u32, u64)> {
    entries.iter().map(|&(n, s)| (n.0, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: for every shard count, merging the per-band top-k
    /// lists with the single-node comparator reproduces the unbanded
    /// ranking bit-exactly. Shard counts beyond the candidate count
    /// produce empty bands, which must merge away harmlessly.
    #[test]
    fn band_partition_merge_is_bit_identical(
        rt in tripartite_strategy(),
        count in 1usize..=4,
        k in 1usize..=6,
    ) {
        let g = build(&rt);
        let mw = MetaWalk::parse_in(&g, "l0 l1").expect("walk parses");
        let engine = QueryEngine::try_with_budget(
            &g, mw, Parallelism::default(), &Budget::unlimited(),
        ).expect("unlimited build");
        let label = engine.half().source();
        let n = g.nodes_of_label(label).len();
        for &q in g.nodes_of_label(label) {
            let full = engine.rank_ref(q, label, k);
            let mut merged: Vec<(NodeId, f64)> = (0..count)
                .flat_map(|i| {
                    let band = shard_band(n, i, count);
                    engine
                        .rank_band_ref(q, label, k, Some(band))
                        .entries()
                        .to_vec()
                })
                .collect();
            // The coordinator's merge comparator: score descending,
            // ties by the graph sort key ascending.
            merged.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| g.sort_key(a.0).cmp(&g.sort_key(b.0)))
            });
            merged.truncate(k);
            prop_assert_eq!(bits(full.entries()), bits(&merged));
        }
    }
}

proptest! {
    // TCP fleets are expensive to boot (up to 10 servers per case);
    // the merge math above carries the case volume, this pins the
    // wire + failover path.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Contract 2: a replicated fleet behind the coordinator answers
    /// byte-identically to a single-node server under an arbitrary
    /// kill-one-replica schedule. Every response is checked line-for-
    /// line and the FNV-1a rank digests over the full transcripts must
    /// agree — zero client-visible errors.
    #[test]
    fn fleet_survives_any_kill_one_replica_schedule(
        rt in tripartite_strategy(),
        count in 1usize..=4,
        raw_kills in prop::collection::vec((0usize..4, 0usize..2, 0usize..8), 0..4),
    ) {
        let g = build(&rt);
        let dir = tmp_dir("kill");

        // At most one replica killed per shard (the other must live).
        let mut kills: Vec<(usize, usize, usize)> = Vec::new();
        for &(s, r, after) in &raw_kills {
            let s = s % count;
            if !kills.iter().any(|&(ks, _, _)| ks == s) {
                kills.push((s, r, after));
            }
        }

        let single_cfg = serve_cfg(&dir, "single", None);
        let replica_cfgs: Vec<ServeConfig> = (0..count * 2)
            .map(|i| {
                let spec = ShardSpec {
                    index: (i / 2) as u32,
                    count: count as u32,
                };
                serve_cfg(&dir, &format!("s{}r{}", i / 2, i % 2), Some(spec))
            })
            .collect();
        let single_down = AtomicBool::new(false);
        let replica_down: Vec<AtomicBool> =
            (0..count * 2).map(|_| AtomicBool::new(false)).collect();
        let coord_down = AtomicBool::new(false);

        let transcripts = std::thread::scope(|s| {
            let g = &g;
            let coord_down = &coord_down;
            s.spawn(|| {
                let _ = run(g, &single_cfg, &single_down);
            });
            for (cfg, down) in replica_cfgs.iter().zip(&replica_down) {
                s.spawn(move || {
                    let _ = run(g, cfg, down);
                });
            }
            let single_addr = wait_addr(&dir.join("single.port"));
            let replica_addrs: Vec<String> = (0..count * 2)
                .map(|i| wait_addr(&dir.join(format!("s{}r{}.port", i / 2, i % 2))))
                .collect();

            let coord_cfg = CoordConfig {
                shards: (0..count)
                    .map(|i| vec![replica_addrs[2 * i].clone(), replica_addrs[2 * i + 1].clone()])
                    .collect(),
                port_file: Some(dir.join("coord.port")),
                ..CoordConfig::default()
            };
            s.spawn(move || {
                let _ = run_coordinator(&coord_cfg, coord_down);
            });
            let coord_addr = wait_addr(&dir.join("coord.port"));

            // Two passes over every query node: the second pass runs
            // against whatever the kill schedule left standing.
            let queries: Vec<String> = (0..2)
                .flat_map(|round| {
                    (0..rt.sizes[0]).map(move |j| {
                        let id = round * u32::from(rt.sizes[0]) + u32::from(j);
                        format!(
                            r#"{{"id":{id},"walk":"l0 l1","label":"l0","value":"v0_{j}","k":4}}"#
                        )
                    })
                })
                .collect();

            let mut pairs = Vec::new();
            for (r, line) in queries.iter().enumerate() {
                for &(ks, kr, after) in &kills {
                    if after.min(queries.len() - 1) == r {
                        let idx = 2 * ks + kr;
                        replica_down[idx].store(true, Ordering::SeqCst);
                        wait_dead(&replica_addrs[idx]);
                    }
                }
                let coord = client_roundtrip(&coord_addr, std::slice::from_ref(line))
                    .expect("coordinator roundtrip");
                let single = client_roundtrip(&single_addr, std::slice::from_ref(line))
                    .expect("single-node roundtrip");
                pairs.push((coord, single));
            }

            single_down.store(true, Ordering::SeqCst);
            for down in &replica_down {
                down.store(true, Ordering::SeqCst);
            }
            coord_down.store(true, Ordering::SeqCst);
            pairs
        });

        let mut coord_digest = Vec::new();
        let mut single_digest = Vec::new();
        for (coord, single) in &transcripts {
            prop_assert_eq!(coord.len(), 1);
            prop_assert!(
                coord[0].contains(r#""ok":true"#),
                "kill-one-replica must stay client-invisible: {}",
                &coord[0]
            );
            prop_assert_eq!(&coord[0], &single[0], "fleet answer diverged from single node");
            coord_digest.extend_from_slice(coord[0].as_bytes());
            coord_digest.push(b'\n');
            single_digest.extend_from_slice(single[0].as_bytes());
            single_digest.push(b'\n');
        }
        prop_assert_eq!(checksum(&coord_digest), checksum(&single_digest));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fixed graph for the degradation ladder: big enough that both
/// bands of a 2-shard split are non-empty.
fn fixture_graph() -> Graph {
    build(&RandomTripartite {
        sizes: [4, 3, 2],
        edges01: vec![(0, 0), (0, 1), (1, 0), (2, 2), (3, 1), (3, 2)],
        edges12: vec![(0, 0), (1, 1), (2, 0), (2, 1)],
    })
}

/// The rendered `"results":[…]` slice of a response line — the part
/// that must match between a live shard's direct answer and the
/// coordinator's partial merge (envelopes differ: the shard stamps its
/// identity, the coordinator strips it and adds coverage).
fn results_slice(line: &str) -> &str {
    let start = line.find(r#""results":["#).expect("results field");
    let end = line[start..].find(']').expect("results close") + start;
    &line[start..=end]
}

/// Contract 3: the degradation ladder when shards (not just replicas)
/// die. One shard down ⇒ `partial-shards:1/2` with exact coverage and
/// rankings restricted to the live band; both down ⇒ typed
/// `shards_unavailable`.
#[test]
fn whole_shard_down_degrades_to_exact_partial_coverage() {
    let g = fixture_graph();
    let dir = tmp_dir("partial");

    let cfgs: Vec<ServeConfig> = (0..2)
        .map(|i| {
            serve_cfg(
                &dir,
                &format!("s{i}"),
                Some(ShardSpec { index: i, count: 2 }),
            )
        })
        .collect();
    let downs: Vec<AtomicBool> = (0..2).map(|_| AtomicBool::new(false)).collect();
    let coord_down = AtomicBool::new(false);

    std::thread::scope(|s| {
        let _stop = StopOnDrop(downs.iter().chain([&coord_down]).collect());
        let g = &g;
        let coord_down = &coord_down;
        for (cfg, down) in cfgs.iter().zip(&downs) {
            s.spawn(move || {
                let _ = run(g, cfg, down);
            });
        }
        let addrs: Vec<String> = (0..2)
            .map(|i| wait_addr(&dir.join(format!("s{i}.port"))))
            .collect();
        let coord_cfg = CoordConfig {
            shards: addrs.iter().map(|a| vec![a.clone()]).collect(),
            port_file: Some(dir.join("coord.port")),
            ..CoordConfig::default()
        };
        s.spawn(move || {
            let _ = run_coordinator(&coord_cfg, coord_down);
        });
        let coord_addr = wait_addr(&dir.join("coord.port"));

        let line = r#"{"id":1,"walk":"l0 l1","label":"l0","value":"v0_0","k":4}"#.to_owned();

        // Fleet intact: full coverage, no partial markers.
        let full = client_roundtrip(&coord_addr, std::slice::from_ref(&line)).expect("roundtrip");
        assert!(
            full[0].contains(r#""tier":"exact""#),
            "intact fleet: {}",
            full[0]
        );
        assert!(
            !full[0].contains("coverage"),
            "full coverage omits the field"
        );

        // The live band's own answer, captured while shard 1 is still
        // up (the envelope differs; the results array must not).
        let direct = client_roundtrip(&addrs[0], std::slice::from_ref(&line)).expect("direct");
        let expected_results = results_slice(&direct[0]).to_owned();

        // Shard 1 (its only replica) dies: explicit partial coverage,
        // ranking restricted to shard 0's band.
        downs[1].store(true, Ordering::SeqCst);
        wait_dead(&addrs[1]);
        let partial =
            client_roundtrip(&coord_addr, std::slice::from_ref(&line)).expect("roundtrip");
        assert!(
            partial[0].contains(r#""tier":"partial-shards:1/2""#),
            "one shard down: {}",
            partial[0]
        );
        assert!(
            partial[0].contains(r#""coverage":{"answered":1,"total":2}"#),
            "coverage counts exact: {}",
            partial[0]
        );
        assert_eq!(
            results_slice(&partial[0]),
            expected_results,
            "partial ranking is the live band's ranking"
        );

        // Shard 0 dies too: the floor is a typed error, not a hang.
        downs[0].store(true, Ordering::SeqCst);
        wait_dead(&addrs[0]);
        let none = client_roundtrip(&coord_addr, &[line]).expect("roundtrip");
        assert!(
            none[0].contains(r#""ok":false"#),
            "zero shards: {}",
            none[0]
        );
        assert!(
            none[0].contains(r#""code":"shards_unavailable""#),
            "typed floor: {}",
            none[0]
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The coordinator's `stats` counters, as the `coord` object.
fn coord_stats(coord_addr: &str) -> repsim_obs::json::Json {
    let reply = client_roundtrip(coord_addr, &[r#"{"op":"stats"}"#.to_owned()]).expect("stats");
    let v = repsim_obs::json::parse(&reply[0]).expect("stats line is JSON");
    v.get("coord").cloned().expect("coordinator stats object")
}

fn coord_count(stats: &repsim_obs::json::Json, field: &str) -> u64 {
    stats
        .get(field)
        .and_then(repsim_obs::json::Json::as_num)
        .unwrap_or_else(|| panic!("coordinator stats lack {field}")) as u64
}

/// Boots a 2-shard × 1-replica fleet of `fixture_graph` behind a
/// coordinator inside `s`; returns the shard and coordinator addresses.
fn boot_fleet<'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    g: &'scope Graph,
    dir: &Path,
    cfgs: &'scope [ServeConfig],
    downs: &'scope [AtomicBool],
    coord_down: &'scope AtomicBool,
) -> (Vec<String>, String) {
    for (cfg, down) in cfgs.iter().zip(downs) {
        s.spawn(move || {
            let _ = run(g, cfg, down);
        });
    }
    let addrs: Vec<String> = (0..cfgs.len())
        .map(|i| wait_addr(&dir.join(format!("s{i}.port"))))
        .collect();
    let coord_cfg = CoordConfig {
        shards: addrs.iter().map(|a| vec![a.clone()]).collect(),
        port_file: Some(dir.join("coord.port")),
        ..CoordConfig::default()
    };
    s.spawn(move || {
        let _ = run_coordinator(&coord_cfg, coord_down);
    });
    (addrs, wait_addr(&dir.join("coord.port")))
}

fn two_shard_cfgs(dir: &Path) -> Vec<ServeConfig> {
    (0..2)
        .map(|i| {
            serve_cfg(
                dir,
                &format!("s{i}"),
                Some(ShardSpec { index: i, count: 2 }),
            )
        })
        .collect()
}

/// A healthy fleet reuses its shard connections: 200 ranks through a
/// 2-shard × 1-replica fleet open one connection per replica (plus one
/// per hedge at most), not one per attempt.
#[test]
fn healthy_fleet_reuses_one_connection_per_replica() {
    let g = fixture_graph();
    let dir = tmp_dir("reuse");
    let cfgs = two_shard_cfgs(&dir);
    let downs: Vec<AtomicBool> = (0..2).map(|_| AtomicBool::new(false)).collect();
    let coord_down = AtomicBool::new(false);

    std::thread::scope(|s| {
        let _stop = StopOnDrop(downs.iter().chain([&coord_down]).collect());
        let (_, coord_addr) = boot_fleet(s, &g, &dir, &cfgs, &downs, &coord_down);
        let lines: Vec<String> = (0..200)
            .map(|i| {
                format!(
                    r#"{{"id":{i},"walk":"l0 l1","label":"l0","value":"v0_{}","k":4}}"#,
                    i % 4
                )
            })
            .collect();
        let replies = client_roundtrip(&coord_addr, &lines).expect("roundtrip");
        assert_eq!(replies.len(), 200);
        for reply in &replies {
            assert!(reply.contains(r#""tier":"exact""#), "{reply}");
        }
        let stats = coord_stats(&coord_addr);
        let connects = coord_count(&stats, "connects");
        let hedges = coord_count(&stats, "hedges");
        assert!(
            connects <= 2 + hedges,
            "{connects} connects for 200 ranks over 2 replicas ({hedges} hedges)"
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard that restarts on the same port leaves a stale connection in
/// the coordinator's pool. The next rank must notice it (EOF before any
/// reply byte), reconnect once and answer `exact`, without counting a
/// retry or tripping the replica's breaker.
#[test]
fn restarted_shard_is_reached_through_one_fresh_connection() {
    let g = fixture_graph();
    let dir = tmp_dir("restart");
    let cfgs = two_shard_cfgs(&dir);
    let downs: Vec<AtomicBool> = (0..2).map(|_| AtomicBool::new(false)).collect();
    let coord_down = AtomicBool::new(false);
    let restart_down = AtomicBool::new(false);

    std::thread::scope(|s| {
        let _stop = StopOnDrop(downs.iter().chain([&coord_down, &restart_down]).collect());
        let (addrs, coord_addr) = boot_fleet(s, &g, &dir, &cfgs, &downs, &coord_down);
        let line = r#"{"id":1,"walk":"l0 l1","label":"l0","value":"v0_0","k":4}"#.to_owned();
        let first = client_roundtrip(&coord_addr, std::slice::from_ref(&line)).expect("rank");
        let before = coord_stats(&coord_addr);

        downs[1].store(true, Ordering::SeqCst);
        wait_dead(&addrs[1]);
        let cfg = ServeConfig {
            addr: addrs[1].clone(),
            ..serve_cfg(&dir, "s1-restart", Some(ShardSpec { index: 1, count: 2 }))
        };
        let (g, restart_down) = (&g, &restart_down);
        s.spawn(move || run(g, &cfg, restart_down).expect("restart binds the same port"));
        assert_eq!(wait_addr(&dir.join("s1-restart.port")), addrs[1]);

        let again = client_roundtrip(&coord_addr, std::slice::from_ref(&line)).expect("rank");
        assert!(again[0].contains(r#""tier":"exact""#), "{}", again[0]);
        assert_eq!(again, first, "the restarted shard answers as before");
        let after = coord_stats(&coord_addr);
        assert_eq!(
            coord_count(&after, "retries"),
            coord_count(&before, "retries"),
            "a stale pooled connection is not a replica failure"
        );
        assert_eq!(
            coord_count(&after, "connects"),
            coord_count(&before, "connects") + 1
        );
        let closed = repsim_obs::json::parse(r#"[["closed"],["closed"]]"#).expect("JSON");
        assert_eq!(after.get("breakers"), Some(&closed), "breakers stay closed");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sets `down` and reports whether the thread behind `handle` returned
/// within a second. On a miss, a connect to `addr` unblocks a stuck
/// accept, so the test fails instead of hanging its scope.
fn stops_promptly<T>(
    down: &AtomicBool,
    addr: &str,
    handle: &std::thread::ScopedJoinHandle<'_, T>,
) -> bool {
    down.store(true, Ordering::SeqCst);
    let set = std::time::Instant::now();
    while !handle.is_finished() {
        if set.elapsed() > Duration::from_secs(1) {
            let _ = std::net::TcpStream::connect(addr);
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// The accept loops block, so shutdown depends on the accept timeout
/// waking them: `run` and `run_coordinator` must return within 1 s of an
/// external store to the flag, both when no client ever connected and
/// while the coordinator still holds an idle pooled connection to the
/// shard.
#[test]
fn blocking_accept_still_shuts_down_promptly() {
    let g = fixture_graph();
    let dir = tmp_dir("prompt");
    let cfg = serve_cfg(&dir, "s0", Some(ShardSpec { index: 0, count: 1 }));
    let downs: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();

    std::thread::scope(|s| {
        let _stop = StopOnDrop(downs[..2].iter().collect());
        let g = &g;
        // No client ever connects.
        let shard = s.spawn(|| run(g, &cfg, &downs[0]));
        let shard_addr = wait_addr(&dir.join("s0.port"));
        let idle_cfg = CoordConfig {
            shards: vec![vec![shard_addr.clone()]],
            port_file: Some(dir.join("idle.port")),
            ..CoordConfig::default()
        };
        let down = &downs[1];
        let idle = s.spawn(move || run_coordinator(&idle_cfg, down));
        let idle_addr = wait_addr(&dir.join("idle.port"));
        let stopped = [
            stops_promptly(&downs[1], &idle_addr, &idle),
            stops_promptly(&downs[0], &shard_addr, &shard),
        ];
        assert_eq!(stopped, [true; 2], "[coordinator, shard] with no client");
    });

    let cfg = ServeConfig {
        port_file: Some(dir.join("s1.port")),
        ..cfg
    };
    std::thread::scope(|s| {
        let _stop = StopOnDrop(downs[2..].iter().collect());
        let g = &g;
        // One rank leaves a pooled coordinator→shard connection open.
        let shard = s.spawn(|| run(g, &cfg, &downs[2]));
        let shard_addr = wait_addr(&dir.join("s1.port"));
        let coord_cfg = CoordConfig {
            shards: vec![vec![shard_addr.clone()]],
            port_file: Some(dir.join("coord.port")),
            ..CoordConfig::default()
        };
        let down = &downs[3];
        let coord = s.spawn(move || run_coordinator(&coord_cfg, down));
        let coord_addr = wait_addr(&dir.join("coord.port"));
        let line = r#"{"id":1,"walk":"l0 l1","label":"l0","value":"v0_0","k":4}"#.to_owned();
        let reply = client_roundtrip(&coord_addr, &[line]).expect("rank");
        assert!(reply[0].contains(r#""tier":"exact""#), "{}", reply[0]);
        assert_eq!(coord_count(&coord_stats(&coord_addr), "connects"), 1);
        let stopped = [
            stops_promptly(&downs[2], &shard_addr, &shard),
            stops_promptly(&downs[3], &coord_addr, &coord),
        ];
        assert_eq!(
            stopped, [true; 2],
            "[shard, coordinator] with a pooled connection"
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}
