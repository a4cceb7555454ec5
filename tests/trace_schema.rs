//! The JSON-lines trace schema the workspace holds itself to.
//!
//! `repsim … --trace-out FILE` writes one self-contained JSON object per
//! line. This test drives a real query through the CLI and validates
//! every line against the schema CI relies on:
//!
//! * `span_start`: `id`, `parent` (number|null), `name`, `t_ns`, `thread`
//! * `span_end`: the above plus `dur_ns` and an `attrs` object
//! * `event`: `name`, `level` (error|warn|info|debug), `message`
//! * `metrics` (final line): `counters`/`gauges`/`histograms` objects

// Tests may panic freely: the workspace panic-freedom lints target
// library code, not assertions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use repsim_obs::json::{self, Json};

mod common;
use common::StopOnDrop;

/// Split a command line on whitespace; `~` inside a token stands for a
/// space (meta-walks are space-separated label lists).
fn run(cmd: &str) -> String {
    let argv: Vec<String> = cmd
        .split_whitespace()
        .map(|t| t.replace('~', " "))
        .collect();
    repsim_cli::run(&argv).expect("command succeeds")
}

fn num(obj: &Json, key: &str) -> f64 {
    obj.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("{key} must be a number in {obj:?}"))
}

fn string<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} must be a string in {obj:?}"))
}

#[test]
fn trace_out_lines_conform_to_the_schema() {
    let _x = repsim_obs::exclusive();
    let dir = std::env::temp_dir().join("repsim-trace-schema-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let graph = dir.join("movies.graph").to_string_lossy().into_owned();
    let trace = dir.join("query.trace.jsonl").to_string_lossy().into_owned();
    run(&format!(
        "generate --dataset movies --scale tiny --out {graph}"
    ));
    // A finite (but generous) budget routes the query through the
    // budgeted tier cascade, so the trace also carries point events.
    repsim_sparse::Budget::set_global_max_nnz(100_000_000);
    run(&format!(
        "query {graph} --algorithm rpathsim --meta-walk=film~actor~film~actor~film \
         --query film:film00000 -k 3 --trace-out {trace}"
    ));

    let text = std::fs::read_to_string(&trace).expect("trace file");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 3,
        "a real query leaves a real trace:\n{text}"
    );

    let mut span_names = Vec::new();
    let mut event_names = Vec::new();
    let mut open_ids = std::collections::HashSet::new();
    for (i, line) in lines.iter().enumerate() {
        let obj = json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON ({e:?}): {line}", i + 1));
        let ty = string(&obj, "type");
        match ty {
            "span_start" | "span_end" => {
                let id = num(&obj, "id");
                assert!(id >= 0.0);
                assert!(num(&obj, "t_ns") >= 0.0);
                assert!(num(&obj, "thread") >= 0.0);
                let name = string(&obj, "name");
                assert!(
                    name.starts_with("repsim."),
                    "span names are namespaced: {name}"
                );
                let parent = obj.get("parent").expect("parent key present");
                assert!(
                    matches!(parent, Json::Null) || parent.as_num().is_some(),
                    "parent is a number or null: {parent:?}"
                );
                if ty == "span_start" {
                    open_ids.insert(id as u64);
                } else {
                    assert!(num(&obj, "dur_ns") >= 0.0);
                    assert!(
                        obj.get("attrs").is_some_and(|a| a.as_obj().is_some()),
                        "span_end carries an attrs object: {line}"
                    );
                    assert!(
                        open_ids.remove(&(id as u64)),
                        "span {id} ended without starting: {line}"
                    );
                    span_names.push(name.to_owned());
                }
            }
            "event" => {
                let name = string(&obj, "name");
                assert!(name.starts_with("repsim."));
                event_names.push(name.to_owned());
                let level = string(&obj, "level");
                assert!(
                    ["error", "warn", "info", "debug"].contains(&level),
                    "unknown level {level:?}"
                );
                string(&obj, "message");
            }
            "metrics" => {
                assert_eq!(i + 1, lines.len(), "metrics is the closing line");
                let metrics = obj.get("metrics").expect("metrics payload");
                for section in ["counters", "gauges", "histograms"] {
                    assert!(
                        metrics.get(section).is_some_and(|s| s.as_obj().is_some()),
                        "metrics.{section} must be an object: {line}"
                    );
                }
            }
            other => panic!("unknown trace line type {other:?}: {line}"),
        }
    }
    assert_eq!(
        string(
            &json::parse(lines[lines.len() - 1]).expect("parsed above"),
            "type"
        ),
        "metrics",
        "the trace must close with a metrics snapshot"
    );
    assert!(open_ids.is_empty(), "spans left open: {open_ids:?}");

    // The instrumented layers the acceptance criteria call out must all
    // be present in a single query trace.
    for layer in [
        "repsim.sparse.spgemm",
        "repsim.sparse.chain.plan",
        "repsim.metawalk.commuting.build",
    ] {
        assert!(
            span_names.iter().any(|n| n == layer),
            "missing {layer} in {span_names:?}"
        );
    }
    assert!(
        event_names.iter().any(|n| n == "repsim.core.budgeted.tier"),
        "the budgeted tier announcement must appear: {event_names:?}"
    );
}

/// The `profile --mutate` leg's observability contract: the WAL and
/// index-maintenance span and metric names below are pinned —
/// dashboards and the CI recovery drill key on them, so renaming any of
/// these is a breaking change that must show up here.
#[test]
fn profile_mutate_trace_pins_wal_and_delta_names() {
    let _x = repsim_obs::exclusive();
    let dir = std::env::temp_dir().join("repsim-trace-schema-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let graph = dir.join("mutate.graph").to_string_lossy().into_owned();
    let wal = dir.join("mutate.wal").to_string_lossy().into_owned();
    let trace = dir
        .join("mutate.trace.jsonl")
        .to_string_lossy()
        .into_owned();
    run(&format!(
        "generate --dataset movies --scale tiny --out {graph}"
    ));
    let _ = std::fs::remove_file(&wal);
    run(&format!(
        "profile {graph} --meta-walk=film~actor~film --query film:film00000 -k 3 \
         --mutate --wal {wal} --trace-out {trace}"
    ));

    let text = std::fs::read_to_string(&trace).expect("trace file");
    let lines: Vec<&str> = text.lines().collect();
    let mut span_names = Vec::new();
    let mut counters = Vec::new();
    for line in &lines {
        let obj = json::parse(line).expect("trace line parses");
        match string(&obj, "type") {
            "span_end" => span_names.push(string(&obj, "name").to_owned()),
            "metrics" => {
                let section = obj
                    .get("metrics")
                    .and_then(|m| m.get("counters"))
                    .expect("counters section");
                if let Some(entries) = section.as_obj() {
                    counters.extend(entries.keys().cloned());
                }
            }
            _ => {}
        }
    }
    // Pinned span names: one per leg phase (append → replay → delta-apply).
    for span in [
        "repsim.graph.wal.append",
        "repsim.graph.wal.replay",
        "repsim.metawalk.delta.apply",
    ] {
        assert!(
            span_names.iter().any(|n| n == span),
            "missing pinned span {span} in {span_names:?}"
        );
    }
    // Pinned metric names: the WAL and delta counters the leg must move.
    // Both edge ops patch the warmed walk, so the leg moves `applied`;
    // `repsim.cache.delta.evictions` is pinned where a patch fails, in
    // `repsim_metawalk::delta`'s
    // `cancelled_patch_evicts_and_the_next_lookup_rebuilds_failpoint`.
    for counter in [
        "repsim.graph.wal.appends",
        "repsim.graph.wal.bytes",
        "repsim.graph.wal.replayed",
        "repsim.cache.delta.applied",
    ] {
        assert!(
            counters.iter().any(|n| n == counter),
            "missing pinned counter {counter} in {counters:?}"
        );
    }
}

/// The live-ops observability contract: the stats-stream, traffic
/// capture and replay-client names below are pinned — `repsim top`,
/// the CI soak job and the `repsim-audit` RA0204 family check key on
/// them, so renaming any of these is a breaking change that must show
/// up here. The scenario is real end to end: a journaling server, a
/// recorded workload, a capture replay and one dashboard frame, all
/// driven through the CLI.
#[test]
fn live_ops_pins_stats_capture_and_replay_names() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let _x = repsim_obs::exclusive();
    let dir = std::env::temp_dir().join("repsim-trace-schema-live-ops");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let graph = dir.join("live.graph").to_string_lossy().into_owned();
    let cap = dir.join("traffic.rsimcap").to_string_lossy().into_owned();
    let b1 = dir.join("b1.json").to_string_lossy().into_owned();
    let b2 = dir.join("b2.json").to_string_lossy().into_owned();
    let journal = dir.join("metrics.jsonl");
    run(&format!(
        "generate --dataset movies --scale tiny --out {graph}"
    ));

    // A recording registry for the whole scenario (the CLI resets the
    // registry only under --trace/--trace-out, which this test avoids).
    let sink: std::sync::Arc<dyn repsim_obs::Sink> = std::sync::Arc::new(repsim_obs::NullSink);
    repsim_obs::install(std::sync::Arc::clone(&sink));
    repsim_obs::Registry::global().reset();

    let g = repsim_graph::io::read(&std::fs::read_to_string(&graph).expect("graph file"))
        .expect("graph parses");
    let port_file = dir.join("port");
    let cfg = repsim_serve::ServeConfig {
        port_file: Some(port_file.clone()),
        metrics_journal: Some(journal.clone()),
        metrics_interval_ms: 10,
        ..repsim_serve::ServeConfig::default()
    };
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|s| {
        let server = s.spawn(|| repsim_serve::run(&g, &cfg, &shutdown));
        let addr = {
            let mut waited = 0u64;
            loop {
                if let Ok(a) = std::fs::read_to_string(&port_file) {
                    if !a.trim().is_empty() {
                        break a.trim().to_owned();
                    }
                }
                assert!(waited < 5_000, "server did not come up");
                std::thread::sleep(std::time::Duration::from_millis(10));
                waited += 10;
            }
        };
        run(&format!(
            "bench serve {graph} --addr {addr} --meta-walk=film~actor~film \
             --requests 12 --mode closed --mutate-ratio 0 --deadlines none \
             --record {cap} --out {b1}"
        ));
        run(&format!(
            "bench serve --addr {addr} --replay {cap} --mode closed --out {b2}"
        ));
        let frame = run(&format!("top --addr {addr} --once"));
        assert!(
            frame.contains("queue"),
            "the dashboard frame must render the queue gauge:\n{frame}"
        );
        // Let a few journal ticks land before shutting down.
        std::thread::sleep(std::time::Duration::from_millis(60));
        shutdown.store(true, Ordering::SeqCst);
        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    });
    repsim_obs::remove_sink(&sink);

    let rendered = json::parse(&repsim_obs::Registry::global().snapshot().render_json())
        .expect("metrics snapshot renders as JSON");
    let section_keys = |section: &str| -> Vec<String> {
        rendered
            .get(section)
            .and_then(Json::as_obj)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    };
    let counters = section_keys("counters");
    let histograms = section_keys("histograms");

    // Pinned counters the scenario must move: the stats stream and the
    // metrics journal (server side), the capture writer/replayer and
    // the replay client (bench side), and the per-tier histogram feed.
    for counter in [
        "repsim.serve.stats.streams",
        "repsim.serve.stats.lines",
        "repsim.serve.stats.journal_lines",
        "repsim.serve.capture.appends",
        "repsim.serve.capture.replayed",
        "repsim.serve.tier.exact",
        "repsim.bench.replay.sent",
        "repsim.bench.replay.ok",
    ] {
        assert!(
            counters.iter().any(|n| n == counter),
            "missing pinned counter {counter} in {counters:?}"
        );
    }
    assert!(
        histograms
            .iter()
            .any(|n| n == "repsim.bench.replay.latency_ns"),
        "missing pinned histogram repsim.bench.replay.latency_ns in {histograms:?}"
    );

    // Pinned names that legitimately stay zero in a clean run — the
    // damage, overload and degradation paths. Listing them here keeps
    // the audit's RA0201/RA0204 checks holding their spellings.
    for name in [
        "repsim.serve.stats.journal_failed",
        "repsim.serve.capture.replay",
        "repsim.serve.capture.torn_tail",
        "repsim.serve.capture.torn_truncations",
        "repsim.serve.capture.quarantine",
        "repsim.serve.capture.quarantined",
        "repsim.serve.tier.half_factorized",
        "repsim.serve.tier.prefix",
        "repsim.bench.replay.shed",
        "repsim.bench.replay.retries",
        "repsim.bench.replay.retry_exhausted",
        "repsim.bench.replay.degraded",
        "repsim.bench.replay.exhausted",
    ] {
        assert!(
            name.starts_with("repsim.") && !name.ends_with('.'),
            "pinned literal must be a concrete namespaced name: {name}"
        );
    }
}

/// The sharded-serving observability contract: the scatter-gather
/// coordinator's `repsim.serve.coord.*` names are pinned — the CI
/// chaos job and the `repsim-audit` RA0204 family check key on them,
/// so renaming any of these is a breaking change that must show up
/// here. The scenario is real: a two-shard fleet behind a live
/// coordinator, full-coverage requests, then a whole shard killed to
/// drive the partial-degradation counters.
#[test]
fn sharded_serving_pins_coordinator_names() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let _x = repsim_obs::exclusive();
    let dir = std::env::temp_dir().join("repsim-trace-schema-coord");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let graph = dir.join("fleet.graph").to_string_lossy().into_owned();
    run(&format!(
        "generate --dataset movies --scale tiny --out {graph}"
    ));

    let sink: std::sync::Arc<dyn repsim_obs::Sink> = std::sync::Arc::new(repsim_obs::NullSink);
    repsim_obs::install(std::sync::Arc::clone(&sink));
    repsim_obs::Registry::global().reset();

    let g = repsim_graph::io::read(&std::fs::read_to_string(&graph).expect("graph file"))
        .expect("graph parses");
    let shard_cfgs: Vec<repsim_serve::ServeConfig> = (0..2)
        .map(|i| repsim_serve::ServeConfig {
            port_file: Some(dir.join(format!("s{i}.port"))),
            service: repsim_serve::ServiceConfig {
                shard: Some(repsim_serve::ShardSpec { index: i, count: 2 }),
                ..repsim_serve::ServiceConfig::default()
            },
            ..repsim_serve::ServeConfig::default()
        })
        .collect();
    let shard_down: Vec<AtomicBool> = (0..2).map(|_| AtomicBool::new(false)).collect();
    let coord_down = AtomicBool::new(false);

    let wait_port = |path: &std::path::Path| -> String {
        let mut waited = 0u64;
        loop {
            if let Ok(a) = std::fs::read_to_string(path) {
                if a.trim().parse::<std::net::SocketAddr>().is_ok() {
                    break a.trim().to_owned();
                }
            }
            assert!(waited < 5_000, "fleet member did not come up");
            std::thread::sleep(std::time::Duration::from_millis(10));
            waited += 10;
        }
    };

    std::thread::scope(|s| {
        let _stop = StopOnDrop(shard_down.iter().chain([&coord_down]).collect());
        let g = &g;
        let coord_down = &coord_down;
        for (cfg, down) in shard_cfgs.iter().zip(&shard_down) {
            s.spawn(move || {
                let _ = repsim_serve::run(g, cfg, down);
            });
        }
        let addrs: Vec<String> = (0..2)
            .map(|i| wait_port(&dir.join(format!("s{i}.port"))))
            .collect();
        let coord_cfg = repsim_serve::CoordConfig {
            shards: addrs.iter().map(|a| vec![a.clone()]).collect(),
            port_file: Some(dir.join("coord.port")),
            ..repsim_serve::CoordConfig::default()
        };
        s.spawn(move || {
            let _ = repsim_serve::run_coordinator(&coord_cfg, coord_down);
        });
        let coord_addr = wait_port(&dir.join("coord.port"));

        let line = r#"{"id":1,"walk":"film actor film","label":"film","value":"film00000","k":3}"#
            .to_owned();
        let full = repsim_serve::client_roundtrip(&coord_addr, std::slice::from_ref(&line))
            .expect("full-coverage roundtrip");
        assert!(full[0].contains(r#""ok":true"#), "{}", full[0]);

        // Kill shard 1 outright: the next request must degrade to
        // partial coverage, moving the failure-path counters.
        shard_down[1].store(true, Ordering::SeqCst);
        let mut waited = 0u64;
        while std::net::TcpStream::connect(&addrs[1]).is_ok() {
            assert!(waited < 5_000, "shard did not shut down");
            std::thread::sleep(std::time::Duration::from_millis(10));
            waited += 10;
        }
        let partial = repsim_serve::client_roundtrip(&coord_addr, &[line])
            .expect("partial-coverage roundtrip");
        assert!(
            partial[0].contains(r#""tier":"partial-shards:1/2""#),
            "{}",
            partial[0]
        );
    });
    repsim_obs::remove_sink(&sink);

    let rendered = json::parse(&repsim_obs::Registry::global().snapshot().render_json())
        .expect("metrics snapshot renders as JSON");
    let section_keys = |section: &str| -> Vec<String> {
        rendered
            .get(section)
            .and_then(Json::as_obj)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    };
    let counters = section_keys("counters");
    let histograms = section_keys("histograms");

    // Pinned counters the scenario must move: admission, fresh shard
    // connections, the partial merge and the shard-failure path.
    for counter in [
        "repsim.serve.coord.requests",
        "repsim.serve.coord.connects",
        "repsim.serve.coord.partial",
        "repsim.serve.coord.shard_failed",
    ] {
        assert!(
            counters.iter().any(|n| n == counter),
            "missing pinned counter {counter} in {counters:?}"
        );
    }
    assert!(
        histograms
            .iter()
            .any(|n| n == "repsim.serve.coord.latency_ns"),
        "missing pinned histogram repsim.serve.coord.latency_ns in {histograms:?}"
    );

    // Pinned names that legitimately stay zero (or are spans/points,
    // not registry metrics) in a clean two-shard run — overload sheds,
    // replica retries, hedged attempts, epoch divergence, the request
    // span and the lifecycle points. Listing them here keeps the
    // audit's RA0201/RA0204 checks holding their spellings.
    for name in [
        "repsim.serve.coord.shed",
        "repsim.serve.coord.retries",
        "repsim.serve.coord.hedges",
        "repsim.serve.coord.hedge_wins",
        "repsim.serve.coord.epoch_mismatch",
        "repsim.serve.coord.request",
        "repsim.serve.coord.listening",
    ] {
        assert!(
            name.starts_with("repsim.") && !name.ends_with('.'),
            "pinned literal must be a concrete namespaced name: {name}"
        );
    }
}
