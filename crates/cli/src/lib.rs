#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

//! The `repsim` command-line interface.
//!
//! A thin, dependency-free front end over the workspace crates:
//!
//! ```text
//! repsim generate --dataset movies --scale tiny -o movies.graph
//! repsim stats movies.graph
//! repsim validate movies.graph
//! repsim fds movies.graph --max-len 3
//! repsim metawalks movies.graph --label film --max-len 4
//! repsim query movies.graph --algorithm rpathsim \
//!        --meta-walk "film actor film" --query film:film00000 -k 5
//! repsim transform movies.graph --name imdb2fb -o freebase.graph
//! repsim independence movies.graph --name imdb2fb --algorithm rwr -n 20
//! ```
//!
//! Parsing is hand-rolled (`Args`); every command is a function from
//! parsed arguments to a `Result<String, CliError>` so the whole surface
//! is unit-testable without spawning processes.

pub mod args;
pub mod commands;
pub mod tui;

pub use args::{Args, CliError};

/// Entry point shared by `main` and the tests: dispatches a full argv
/// (without the binary name) to a command.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let (command, rest) = argv
        .split_first()
        .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
    let args = Args::parse(rest)?;
    if let Some(n) = args.threads()? {
        // Routes through every kernel that defaults its thread budget
        // (commuting-matrix builds, SimRank iterations, query sweeps).
        repsim_sparse::Parallelism::set_global(n);
    }
    // Budget overrides route through Budget::from_env(), consulted by the
    // budget-aware command paths (precedence: flag > env var > unlimited).
    if let Some(ms) = args.deadline_ms()? {
        repsim_sparse::Budget::set_global_deadline_ms(ms);
    }
    if let Some(cap) = args.max_nnz()? {
        repsim_sparse::Budget::set_global_max_nnz(cap);
    }
    let trace = TraceSession::start(&args)?;
    let result = match command.as_str() {
        "generate" => commands::generate(&args),
        "stats" => commands::stats(&args),
        "validate" => commands::validate(&args),
        "check" => commands::check(&args),
        "audit" => commands::audit(&args),
        "fds" => commands::fds(&args),
        "metawalks" => commands::metawalks(&args),
        "query" => commands::query(&args),
        "transform" => commands::transform(&args),
        "independence" => commands::independence(&args),
        "export" => commands::export(&args),
        "explain" => commands::explain(&args),
        "profile" => commands::profile(&args),
        "serve" => commands::serve(&args),
        "serve-client" => commands::serve_client(&args),
        "bench" => commands::bench(&args),
        "top" => commands::top(&args),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    };
    trace.finish();
    result
}

/// Sinks installed by `--trace` / `--trace-out FILE` for the span of one
/// command dispatch. `finish` renders the collected tree plus the metric
/// table to stderr (`--trace`), appends a final `{"type":"metrics",…}`
/// line to the trace file (`--trace-out`), and uninstalls the sinks so
/// `run` leaves global observability exactly as it found it.
struct TraceSession {
    collect: Option<std::sync::Arc<repsim_obs::CollectSink>>,
    json: Option<std::sync::Arc<repsim_obs::JsonLinesSink>>,
    installed: Vec<std::sync::Arc<dyn repsim_obs::Sink>>,
}

impl TraceSession {
    fn start(args: &Args) -> Result<TraceSession, CliError> {
        use std::sync::Arc;
        let mut session = TraceSession {
            collect: None,
            json: None,
            installed: Vec::new(),
        };
        if args.has("trace") {
            let sink = Arc::new(repsim_obs::CollectSink::new());
            session.collect = Some(Arc::clone(&sink));
            let dynamic: Arc<dyn repsim_obs::Sink> = sink;
            repsim_obs::install(Arc::clone(&dynamic));
            session.installed.push(dynamic);
            // A trace without the info-level tier/residual events is
            // hollow, so --trace raises the log threshold to info.
            if repsim_obs::log::max_level() < repsim_obs::Level::Info {
                repsim_obs::log::set_max_level(repsim_obs::Level::Info);
            }
        }
        if let Some(path) = args.get("trace-out") {
            let sink = repsim_obs::JsonLinesSink::create(path)
                .map_err(|e| CliError::Io(format!("cannot create {path}: {e}")))?;
            let sink = Arc::new(sink);
            session.json = Some(Arc::clone(&sink));
            let dynamic: Arc<dyn repsim_obs::Sink> = sink;
            repsim_obs::install(Arc::clone(&dynamic));
            session.installed.push(dynamic);
        }
        if !session.installed.is_empty() {
            // Each invocation reports its own run: drop metric state left
            // over from earlier dispatches in the same process.
            repsim_obs::Registry::global().reset();
        }
        Ok(session)
    }

    fn finish(self) {
        let active = !self.installed.is_empty();
        // Uninstall first so rendering below doesn't trace itself.
        for sink in &self.installed {
            repsim_obs::remove_sink(sink);
        }
        if !active {
            return;
        }
        let snapshot = repsim_obs::Registry::global().snapshot();
        if let Some(collect) = self.collect {
            let tree = repsim_obs::render_tree(&collect.events());
            eprint!("{tree}");
            eprint!("{}", snapshot.render_table());
        }
        if let Some(json) = self.json {
            json.write_line(&format!(
                "{{\"type\":\"metrics\",\"metrics\":{}}}",
                snapshot.render_json()
            ));
            repsim_obs::Sink::flush(&*json);
        }
    }
}

/// The top-level usage text.
pub const USAGE: &str = "\
repsim — representation-independent similarity search over graph databases

USAGE: repsim <COMMAND> [ARGS]

COMMANDS:
  generate     --dataset <movies|movies-nochar|citations-dblp|citations-snap|
                          bibliographic|sigmod-record|courses|mas>
               [--scale tiny|small|paper] [-o FILE]
  stats        FILE                     size and degree statistics
  validate     FILE                     check the §2.2 model assumptions
  check        [FILE] [--meta-walk \"...\"] [--fd \"...\"] [--fd-labels a,b,c]
               [--fd-max-len N] [--transform NAME] [--csr f1,f2,...]
               [--mutations FILE]
                                        static analysis with stable RS#### codes;
                                        exits nonzero on error-severity findings;
                                        --mutations pre-flights a batch of
                                        newline-delimited mutate requests
                                        (cumulatively, against FILE if given)
  audit        [ROOT] [--fixtures DIR] [--json] [--schedules] [--preemptions N]
                                        source-level invariant audit over the
                                        workspace's crates with stable RA####
                                        codes (budget coverage, observability
                                        names, code registry, enum handler
                                        exhaustiveness, lock order); exits
                                        nonzero on error-severity findings;
                                        --schedules also model-checks the
                                        serve layer's epoch/queue/breaker
                                        interleavings at a bounded number of
                                        preemptions
  fds          FILE [--max-len N]       discover functional dependencies
  metawalks    FILE --label L [--max-len N] [--fd-labels a,b,c]
                                        Algorithm 1's meta-walk set for L
  query        FILE --algorithm <rwr|simrank|simrank-mc|simrank-pp|katz|common-neighbors|
                                 pathsim|rpathsim|hetesim|aggregated>
               --query label:value [--meta-walk \"...\"] [-k N]
  transform    FILE --name <imdb2fb|fb2imdb|imdb2ng|imdb2ng-plus|fb2ng|
                            dblp2snap|snap2dblp|dblp2sigm|sigm2dblp|
                            wsu2alch|alch2wsu|mas2alt|alt2mas> [-o FILE]
  independence FILE --name <transformation> --algorithm <algorithm>
               [--meta-walk \"...\"] [--meta-walk-t \"...\"] [-n QUERIES]
  export       FILE --format <dot|graphml> [-o FILE]
  explain      FILE --meta-walk \"...\" --query label:value
               --candidate label:value [-k N]   show witnessing walks
  profile      FILE --meta-walk \"...\" --query label:value [-k N]
               [--snapshot FILE] [--kernel] [--mutate [--wal FILE]]
                                        run one rpathsim query twice (cold
                                        cache, then warm) and print the span
                                        tree + metrics table; with --snapshot,
                                        also time a snapshot save + reload;
                                        --kernel adds the SpGEMM numeric-phase
                                        row and tile counts;
                                        --mutate adds a WAL append + replay +
                                        cache-patch + re-rank leg
  serve        FILE [--addr HOST:PORT] [--snapshot FILE] [--wal FILE]
               [--queue-cap N] [--port-file FILE] [--fault-injection]
               [--metrics-journal FILE] [--metrics-interval-ms N]
               [--shard-index I --shard-count N]
                                        resident query service over newline-
                                        delimited JSON; SIGTERM/ctrl-c drains
                                        and writes a final snapshot; --wal
                                        write-ahead logs mutations and replays
                                        them on boot after a crash;
                                        --metrics-journal appends one stats+
                                        metrics-delta line per interval;
                                        --shard-index/--shard-count serve one
                                        row band of a fleet and stamp the
                                        shard's epoch into every response
  serve        --coordinator --shard addr,addr [--shard addr,addr]...
               [--addr HOST:PORT] [--port-file FILE] [--max-inflight N]
                                        scatter-gather coordinator over a
                                        sharded fleet (one --shard per band,
                                        comma-separated replicas): merges
                                        band-local top-k bit-identically to a
                                        single node, retries+hedges across
                                        replicas, degrades to a partial-shards
                                        tier when a whole band is down
  serve-client --addr HOST:PORT [--request JSON]...
                                        send request lines (or stdin) to a
                                        running server, print the responses
  bench serve  FILE --meta-walk \"...\" [--addr HOST:PORT] [--seed N]
               [--requests N] [--rate RPS] [--zipf E] [--mutate-ratio F]
               [--deadlines a,b,c|none] [-k N] [--mode open|closed]
               [--max-retries N] [--record CAP | --replay CAP]
               [-o BENCH_serve.json] [--check BASELINE] [--tolerance 0.20]
                                        seeded Zipf workload generator and
                                        capture/replay client; no --addr boots
                                        a fresh in-process server per run, so
                                        two --replay runs of one capture assert
                                        bit-identical rank responses; --check
                                        gates p99 latency against a baseline
  top          (--addr HOST:PORT [--interval-ms N] [--count N] [--once]
               | --journal FILE)        live terminal dashboard over the
                                        stats stream (queue, sheds, breakers,
                                        tier histogram, WAL/snapshot age,
                                        SpGEMM deltas); q + Enter quits;
                                        --once emits one plain frame for CI;
                                        --journal renders a recorded metrics
                                        journal offline

GLOBAL OPTIONS:
  --threads N | -t N   worker threads for matrix builds and query sweeps
                       (default: REPSIM_THREADS env var, else all cores)
  --deadline-ms N      wall-clock budget for matrix builds; rpathsim queries
                       degrade to cheaper plans instead of overrunning
                       (default: REPSIM_DEADLINE_MS env var, else unlimited)
  --max-nnz N          cap on materialized sparse-matrix entries
                       (default: REPSIM_MAX_NNZ env var, else unlimited)
  --trace              print the span tree + metrics table to stderr after
                       the command (implies REPSIM_LOG=info)
  --trace-out FILE     stream the trace as JSON lines to FILE, closing with
                       a {\"type\":\"metrics\",...} snapshot line
  REPSIM_LOG=LEVEL     stderr log threshold: error|warn|info|debug
                       (default warn)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.replace('~', " ")).collect()
    }

    #[test]
    fn budget_flags_wire_through_run() {
        let dir = std::env::temp_dir().join("repsim-cli-run-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("budget.graph").to_string_lossy().into_owned();
        run(&argv(&format!(
            "generate --dataset movies --scale tiny --out {path}"
        )))
        .unwrap();
        // Generous limits: the budgeted path engages (flag > env > none)
        // without forcing degradation, so the answers stay exact.
        let out = run(&argv(&format!(
            "query {path} --algorithm rpathsim --meta-walk=film~actor~film \
             --query film:film00000 -k 3 --deadline-ms 600000 --max-nnz 1000000000"
        )))
        .unwrap();
        assert!(out.contains("R-PathSim (budgeted)"), "{out}");
        assert!(!out.contains("note:"), "{out}");
        // Reset the process-wide overrides (0 = unset) so other tests in
        // this binary see the default unlimited budget.
        repsim_sparse::Budget::set_global_deadline_ms(0);
        repsim_sparse::Budget::set_global_max_nnz(0);
    }

    #[test]
    fn profile_covers_instrumented_layers_and_trace_out_is_json() {
        // Serializes global sink state against other observability tests.
        let _x = repsim_obs::exclusive();
        let dir = std::env::temp_dir().join("repsim-cli-run-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("profile.graph").to_string_lossy().into_owned();
        run(&argv(&format!(
            "generate --dataset movies --scale tiny --out {path}"
        )))
        .unwrap();
        // A 2-hop half walk so the commuting build exercises the chain
        // planner and the SpGEMM kernel, not just a single biadjacency.
        let out = run(&argv(&format!(
            "profile {path} --meta-walk=film~actor~film~actor~film \
             --query film:film00000 -k 3 --kernel"
        )))
        .unwrap();
        for layer in [
            "repsim.metawalk.cache.lookup", // cache layer
            "repsim.metawalk.commuting.build",
            "repsim.sparse.chain.plan", // chain planner
            "repsim.sparse.spgemm",     // sparse kernel
            "repsim.core.engine.build", // engine
            "repsim.core.engine.rank",
        ] {
            assert!(out.contains(layer), "missing {layer} in:\n{out}");
        }
        assert!(out.contains("hit=1"), "warm lookup must be a hit:\n{out}");
        assert!(
            out.contains("cache: 1 hits / 1 misses / 1 inserts"),
            "{out}"
        );
        assert!(out.contains("repsim.metawalk.cache.hit"), "{out}");
        // --kernel leg: the numeric-phase row and tile breakdown is present
        // and the cold build routed at least one row through the
        // accumulator.
        assert!(out.contains("kernel (numeric phase):"), "{out}");
        assert!(out.contains("dense-tiled rows"), "{out}");
        assert!(out.contains("tiles visited"), "{out}");
        let line = out
            .lines()
            .find(|l| l.contains("dense-tiled rows"))
            .unwrap_or_else(|| panic!("missing dense-tiled rows"));
        let routed: u64 = line
            .split_whitespace()
            .find_map(|w| w.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no count in {line:?}"));
        assert!(routed > 0, "no rows routed through the kernel:\n{out}");

        // --trace-out writes one JSON object per line, closing with a
        // metrics snapshot.
        let trace = dir
            .join("profile.trace.jsonl")
            .to_string_lossy()
            .into_owned();
        run(&argv(&format!(
            "query {path} --algorithm rpathsim --meta-walk=film~actor~film \
             --query film:film00000 -k 3 --trace-out {trace}"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&trace).expect("trace file");
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            repsim_obs::json::parse(line).expect("every trace line parses");
        }
        let last = repsim_obs::json::parse(lines[lines.len() - 1]).unwrap();
        assert_eq!(
            last.get("type").and_then(|t| t.as_str()),
            Some("metrics"),
            "{text}"
        );
    }

    #[test]
    fn bad_budget_flags_are_usage_errors() {
        assert!(matches!(
            run(&argv("stats nosuch.graph --deadline-ms 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv("stats nosuch.graph --max-nnz never")),
            Err(CliError::Usage(_))
        ));
    }
}
