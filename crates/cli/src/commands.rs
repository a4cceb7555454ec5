//! Command implementations. Each returns the text to print.

use std::fmt::Write as _;

use repsim_core::independence::check_workload;
use repsim_core::{find_meta_walk_set, CountingMode};
use repsim_datasets::bibliographic::{self, BibliographicConfig};
use repsim_datasets::citations::{self, CitationConfig};
use repsim_datasets::courses::{self, CourseConfig};
use repsim_datasets::mas::{self, MasConfig};
use repsim_datasets::movies::{self, MoviesConfig};
use repsim_eval::spec::AlgorithmSpec;
use repsim_eval::workload::Workload;
use repsim_graph::stats::GraphStats;
use repsim_graph::{io, Graph, NodeId};
use repsim_metawalk::FdSet;
use repsim_transform::{apply_with_map, catalog, Transformation};

use crate::args::{Args, CliError};

fn load(path: &str) -> Result<Graph, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    io::read(&text).map_err(|e| CliError::Command(format!("cannot parse {path}: {e}")))
}

fn save_or_print(args: &Args, g: &Graph) -> Result<String, CliError> {
    let text =
        io::write(g).map_err(|e| CliError::Command(format!("cannot serialize graph: {e}")))?;
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            Ok(format!(
                "wrote {} nodes / {} edges to {path}",
                g.num_nodes(),
                g.num_edges()
            ))
        }
        None => Ok(text),
    }
}

/// `repsim generate --dataset D [--scale S] [-o FILE]`.
pub fn generate(args: &Args) -> Result<String, CliError> {
    let dataset = args.require("dataset")?;
    let scale = args.get("scale").unwrap_or("tiny");
    let bad_scale = || CliError::Usage(format!("unknown scale {scale:?}"));
    let g = match dataset {
        "movies" | "movies-nochar" => {
            let cfg = match scale {
                "tiny" => MoviesConfig::tiny(),
                "small" => MoviesConfig::small(),
                "paper" => MoviesConfig::paper_scale(),
                _ => return Err(bad_scale()),
            };
            if dataset == "movies" {
                movies::imdb(&cfg)
            } else {
                movies::imdb_no_chars(&cfg)
            }
        }
        "citations-dblp" | "citations-snap" => {
            let cfg = match scale {
                "tiny" => CitationConfig::tiny(),
                "small" => CitationConfig::small(),
                "paper" => CitationConfig::paper_scale(),
                _ => return Err(bad_scale()),
            };
            if dataset == "citations-dblp" {
                citations::dblp(&cfg)
            } else {
                citations::snap(&cfg)
            }
        }
        "bibliographic" | "sigmod-record" => {
            let cfg = match scale {
                "tiny" => BibliographicConfig::tiny(),
                "small" => BibliographicConfig::small(),
                "paper" => BibliographicConfig::paper_scale(),
                _ => return Err(bad_scale()),
            };
            if dataset == "bibliographic" {
                bibliographic::dblp(&cfg)
            } else {
                bibliographic::sigmod_record(&cfg)
            }
        }
        "courses" => {
            let cfg = match scale {
                "tiny" => CourseConfig::tiny(),
                "small" | "paper" => CourseConfig::paper_scale(),
                _ => return Err(bad_scale()),
            };
            courses::wsu(&cfg)
        }
        "mas" => {
            let cfg = match scale {
                "tiny" => MasConfig::tiny(),
                "small" => MasConfig::small(),
                "paper" => MasConfig::paper_scale(),
                _ => return Err(bad_scale()),
            };
            mas::mas(&cfg).0
        }
        other => return Err(CliError::Usage(format!("unknown dataset {other:?}"))),
    };
    save_or_print(args, &g)
}

/// `repsim stats FILE`.
pub fn stats(args: &Args) -> Result<String, CliError> {
    let g = load(args.input_file()?)?;
    let mut out = GraphStats::of(&g).summary(&g);
    out.push_str("edges by label pair:\n");
    for ((a, b), count) in repsim_graph::stats::label_pair_edge_counts(&g) {
        let _ = writeln!(out, "  {a}-{b}: {count}");
    }
    Ok(out)
}

/// `repsim validate FILE`.
pub fn validate(args: &Args) -> Result<String, CliError> {
    let g = load(args.input_file()?)?;
    let violations = repsim_graph::validate::validate(&g);
    if violations.is_empty() {
        Ok("ok: all §2.2 model assumptions hold".to_owned())
    } else {
        let mut out = format!("{} violation(s):\n", violations.len());
        for v in violations {
            let _ = writeln!(out, "  {v:?}");
        }
        Err(CliError::Command(out))
    }
}

/// `repsim check [FILE] [--meta-walk W] [--fd W] [--fd-labels a,b,c]
/// [--fd-max-len N] [--transform NAME] [--csr f1,f2,...]`.
///
/// Runs the `repsim-check` static analyzers and renders the report with
/// stable `RS####` codes. The §2.2 model lints always run when a graph
/// file is given; the plan, FD, transformation and matrix analyzers run
/// when their flags are present. Exits nonzero (an `Err`) iff the report
/// contains an error-severity finding.
pub fn check(args: &Args) -> Result<String, CliError> {
    let mut report = repsim_check::Report::new();
    let graph = match args.positional(0) {
        Some(path) => Some(load(path)?),
        None => None,
    };
    if graph.is_none() && args.get("csr").is_none() && args.get("mutations").is_none() {
        return Err(CliError::Usage(
            "check needs a graph file, --csr matrices and/or a --mutations batch".to_owned(),
        ));
    }
    if let Some(g) = &graph {
        report.extend(repsim_check::model::check_model(g));
        if let Some(walk) = args.get("meta-walk") {
            report.extend(repsim_check::plan::check_meta_walk(g, walk));
        }
        if let Some(walk) = args.get("fd") {
            report.extend(repsim_check::plan::check_fd_walk(g, walk));
        }
        if args.get("fd-labels").is_some() || args.get("fd-max-len").is_some() {
            let max_len = args.get_usize("fd-max-len", 3)?;
            let labels = match args.get("fd-labels") {
                None => Vec::new(),
                Some(csv) => {
                    let scope: Result<Vec<_>, CliError> = csv
                        .split(',')
                        .map(|n| {
                            g.labels()
                                .get(n.trim())
                                .ok_or_else(|| CliError::Command(format!("unknown label {n:?}")))
                        })
                        .collect();
                    scope?
                }
            };
            report.extend(repsim_check::plan::check_fd_chains(g, &labels, max_len));
        }
        if let Some(name) = args.get("transform") {
            report.extend(repsim_check::transform::check_transformation(name, g));
        }
    }
    if let Some(mpath) = args.get("mutations") {
        let text = std::fs::read_to_string(mpath)
            .map_err(|e| CliError::Io(format!("cannot read {mpath}: {e}")))?;
        report.extend(repsim_check::mutate::check_mutations(
            mpath,
            &text,
            graph.as_ref(),
        ));
    }
    if let Some(csv) = args.get("csr") {
        let mut factors = Vec::new();
        for path in csv.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
            let (matrix, ds) = repsim_check::matrix::check_csr_text(path, &text);
            report.extend(ds);
            if let Some(m) = matrix {
                factors.push((path.to_owned(), m));
            }
        }
        if factors.len() > 1 {
            report.extend(repsim_check::matrix::check_chain_shapes(&factors));
        }
    }
    let rendered = report.render();
    if report.has_errors() {
        Err(CliError::Command(rendered))
    } else {
        Ok(rendered)
    }
}

/// `repsim audit [ROOT] [--fixtures DIR] [--json] [--schedules]
/// [--preemptions N]`.
///
/// Runs the `repsim-audit` source-level invariant auditor over the
/// workspace rooted at ROOT (default `.`), or over a fixture directory
/// with `--fixtures`. `--json` emits one JSON object per finding plus a
/// summary line; `--schedules` additionally runs the deterministic
/// serve-layer model checker at the given preemption bound. Exits
/// nonzero (an `Err`) iff an error-severity finding or a schedule
/// counterexample is present.
pub fn audit(args: &Args) -> Result<String, CliError> {
    use std::path::Path;

    let report = match args.get("fixtures") {
        Some(dir) => repsim_audit::audit_fixtures(Path::new(dir)),
        None => repsim_audit::audit_workspace(Path::new(args.positional(0).unwrap_or("."))),
    }
    .map_err(|e| CliError::Io(format!("audit walk failed: {e}")))?;

    let json = args.get("json").is_some();
    let mut out = String::new();
    if json {
        for d in report.diagnostics() {
            let _ = writeln!(
                out,
                "{{\"type\":\"diagnostic\",\"code\":\"{}\",\"severity\":\"{}\",\
                 \"analyzer\":\"{}\",\"message\":\"{}\"}}",
                d.code,
                d.severity,
                d.analyzer,
                repsim_obs::sink::json_escape(&d.message),
            );
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"summary\",\"errors\":{},\"warnings\":{}}}",
            report.error_count(),
            report.warning_count(),
        );
    } else {
        out.push_str(&report.render());
    }

    if args.get("schedules").is_some() {
        let bound = args.get_usize("preemptions", 3)?;
        match repsim_audit::model::run_all(bound) {
            Ok(runs) => {
                for r in runs {
                    if json {
                        let _ = writeln!(
                            out,
                            "{{\"type\":\"schedule\",\"scenario\":\"{}\",\"states\":{},\
                             \"schedules\":{},\"preemptions\":{bound}}}",
                            r.scenario, r.stats.states, r.stats.schedules,
                        );
                    } else {
                        let _ = writeln!(
                            out,
                            "schedule {}: ok ({} states, {} schedules, preemption bound {bound})",
                            r.scenario, r.stats.states, r.stats.schedules,
                        );
                    }
                }
            }
            Err((scenario, v)) => {
                let _ = writeln!(
                    out,
                    "schedule {scenario}: {:?} after [{}]",
                    v.kind,
                    v.trace.join(", "),
                );
                return Err(CliError::Command(out));
            }
        }
    }

    if report.has_errors() {
        Err(CliError::Command(out))
    } else {
        Ok(out)
    }
}

/// `repsim fds FILE [--max-len N]`.
pub fn fds(args: &Args) -> Result<String, CliError> {
    let g = load(args.input_file()?)?;
    let max_len = args.get_usize("max-len", 3)?;
    let set = FdSet::discover(&g, max_len);
    let mut out = String::new();
    for fd in set.fds() {
        let _ = writeln!(
            out,
            "{} -> {}   via ({})",
            g.labels().name(fd.lhs()),
            g.labels().name(fd.rhs()),
            fd.via().display(g.labels())
        );
    }
    for chain in set.chains() {
        let names: Vec<&str> = chain.labels.iter().map(|&l| g.labels().name(l)).collect();
        let _ = writeln!(out, "chain: {}", names.join(" < "));
    }
    if out.is_empty() {
        out = "no functional dependencies found".to_owned();
    }
    Ok(out)
}

/// `repsim metawalks FILE --label L [--max-len N]`.
pub fn metawalks(args: &Args) -> Result<String, CliError> {
    let g = load(args.input_file()?)?;
    let label_name = args.require("label")?;
    let label = g
        .labels()
        .get(label_name)
        .ok_or_else(|| CliError::Command(format!("unknown label {label_name:?}")))?;
    let max_len = args.get_usize("max-len", 4)?;
    // --fd-labels a,b,c declares the F_L scope (§6.1.2); default: all.
    let fd_set = match args.get("fd-labels") {
        Some(csv) => {
            let scope: Result<Vec<_>, CliError> = csv
                .split(',')
                .map(|n| {
                    g.labels()
                        .get(n.trim())
                        .ok_or_else(|| CliError::Command(format!("unknown label {n:?}")))
                })
                .collect();
            FdSet::discover_among(&g, &scope?, 3)
        }
        None => FdSet::discover(&g, 3),
    };
    let set = find_meta_walk_set(&g, &fd_set, label, max_len);
    let mut out = String::new();
    for mw in set {
        let _ = writeln!(out, "{}", mw.display(g.labels()));
    }
    Ok(out)
}

fn parse_entity(g: &Graph, spec: &str) -> Result<NodeId, CliError> {
    let (label, value) = spec
        .split_once(':')
        .ok_or_else(|| CliError::Usage(format!("--query expects label:value, got {spec:?}")))?;
    g.entity_by_name(label, value)
        .ok_or_else(|| CliError::Command(format!("no entity {spec:?} in the database")))
}

fn algorithm_spec(args: &Args) -> Result<AlgorithmSpec, CliError> {
    let name = args.require("algorithm")?;
    let meta_walk = || -> Result<String, CliError> { Ok(args.require("meta-walk")?.to_owned()) };
    Ok(match name {
        "rwr" => AlgorithmSpec::Rwr,
        "simrank" => AlgorithmSpec::SimRank,
        "simrank-mc" => AlgorithmSpec::SimRankMc { seed: 7 },
        "katz" => AlgorithmSpec::Katz,
        "simrank-pp" => AlgorithmSpec::SimRankPlusPlus,
        "common-neighbors" => AlgorithmSpec::CommonNeighbors,
        "pathsim" => AlgorithmSpec::PathSim {
            meta_walk: meta_walk()?,
        },
        "rpathsim" => AlgorithmSpec::RPathSim {
            meta_walk: meta_walk()?,
        },
        "hetesim" => AlgorithmSpec::HeteSim {
            meta_walk: meta_walk()?,
        },
        "aggregated" => AlgorithmSpec::Aggregated {
            mode: CountingMode::Informative,
            query_label: args.require("label").map(str::to_owned).or_else(|_| {
                // Fall back to the query entity's label in `query`.
                args.get("query")
                    .and_then(|q| q.split_once(':'))
                    .map(|(l, _)| l.to_owned())
                    .ok_or_else(|| CliError::Usage("aggregated needs --label or --query".into()))
            })?,
            max_len: args.get_usize("max-len", 4)?,
            fd_max_len: 3,
        },
        other => return Err(CliError::Usage(format!("unknown algorithm {other:?}"))),
    })
}

/// The half `p` of the symmetric walk `p·p⁻¹` that `cmd` was given, or
/// an error naming the walk when it has none.
fn half_walk(
    mw: &repsim_metawalk::MetaWalk,
    text: &str,
    cmd: &str,
) -> Result<repsim_metawalk::MetaWalk, CliError> {
    mw.half().ok_or_else(|| {
        CliError::Command(format!(
            "{cmd} needs a symmetric meta-walk with an entity label at its midpoint, got {text:?}"
        ))
    })
}

/// Budget-aware execution of an `rpathsim` query: build through
/// [`repsim_core::BudgetedRPathSim`] so a `--deadline-ms` / `--max-nnz`
/// limit degrades the plan (half factorization, walk prefix) instead of
/// aborting, and report the tier next to the answers.
fn query_rpathsim_budgeted(
    g: &Graph,
    meta_walk: &str,
    q: NodeId,
    k: usize,
    budget: &repsim_sparse::Budget,
) -> Result<String, CliError> {
    use repsim_baselines::ranking::SimilarityAlgorithm;
    use repsim_core::{BudgetedRPathSim, Degradation};
    let mw = repsim_metawalk::MetaWalk::parse_in(g, meta_walk)
        .ok_or_else(|| CliError::Command(format!("bad meta-walk {meta_walk:?}")))?;
    let half = half_walk(&mw, meta_walk, "rpathsim")?;
    let mut alg = BudgetedRPathSim::try_new(g, half, Default::default(), budget)
        .map_err(|e| CliError::Command(format!("budget exhausted: {e}")))?;
    let list = alg.rank(q, g.label_of(q), k);
    let mut out = format!("{} answers for {}:\n", alg.name(), g.display_node(q));
    for &(n, score) in list.entries() {
        let _ = writeln!(out, "  {:<30} {score:.6}", g.display_node(n));
    }
    match alg.degradation() {
        Degradation::Exact => {}
        Degradation::HalfFactorized => {
            out.push_str("note: budget forced the half-factorized plan (scores exact)\n");
        }
        Degradation::PrefixWalk { walk } => {
            let _ = writeln!(
                out,
                "note: budget shortened the walk to the prefix {:?} (closed symmetrically)",
                walk.display(g.labels())
            );
        }
        Degradation::PartialShards { answered, total } => {
            // Fleet-only tier; a local query never produces it, but the
            // match stays exhaustive so a new tier is a compile error.
            let _ = writeln!(
                out,
                "note: only {answered} of {total} shards answered; ranking covers the live bands"
            );
        }
    }
    Ok(out)
}

/// `repsim query FILE --algorithm A --query label:value [--meta-walk ...] [-k N]`.
pub fn query(args: &Args) -> Result<String, CliError> {
    let g = load(args.input_file()?)?;
    let q = parse_entity(&g, args.require("query")?)?;
    let k = args.get_usize("k", 10)?;
    let spec = algorithm_spec(args)?;
    let budget = repsim_sparse::Budget::from_env();
    if let (AlgorithmSpec::RPathSim { meta_walk }, false) = (&spec, budget.is_unlimited()) {
        return query_rpathsim_budgeted(&g, meta_walk, q, k, &budget);
    }
    if let AlgorithmSpec::Aggregated { query_label, .. } = &spec {
        let expected = g.labels().name(g.label_of(q));
        if query_label != expected {
            return Err(CliError::Usage(format!(
                "--label {query_label:?} does not match the query entity's label {expected:?}"
            )));
        }
    }
    let mut alg = spec.build(&g);
    let list = alg.rank(q, g.label_of(q), k);
    let mut out = format!("{} answers for {}:\n", spec.name(), g.display_node(q));
    for &(n, score) in list.entries() {
        let _ = writeln!(out, "  {:<30} {score:.6}", g.display_node(n));
    }
    Ok(out)
}

/// Outcome of the `profile --mutate` leg, for rendering.
struct MutateLeg {
    /// The edge that was removed and re-added, in `a -- b` display form.
    edge: String,
    /// Records replayed when the log was re-opened from disk.
    replayed: usize,
    /// Maintenance path taken for the remove, then for the re-add.
    paths: (String, String),
    /// Where the write-ahead log was written.
    wal_path: std::path::PathBuf,
    /// The graph after remove + re-add (same walk multiset as the input).
    final_graph: Graph,
}

/// The `profile --mutate` leg: picks the first graph edge whose endpoint
/// labels are adjacent in the half walk, removes and re-adds it —
/// write-ahead logging both operations and patching the rows each one
/// reaches into the cache entries, then looking the walk up as the next
/// rank would — then re-opens the log from disk and checks the replayed
/// graph against the live mutation path. The caller
/// verifies that ranking over the final graph still matches the original
/// (remove + re-add restores the walk multiset exactly).
fn profile_mutate_leg(
    g: &Graph,
    half: &repsim_metawalk::MetaWalk,
    cache: &mut repsim_metawalk::commuting::CommutingCache,
    par: repsim_sparse::Parallelism,
    budget: &repsim_sparse::Budget,
    wal_override: Option<&str>,
) -> Result<MutateLeg, CliError> {
    use repsim_graph::mutation::{self, MutationOp, NodeRef, Touch};
    let labels: Vec<_> = half.steps().iter().map(|s| s.label()).collect();
    let mut picked = None;
    'outer: for w in labels.windows(2) {
        for &n in g.nodes_of_label(w[0]) {
            if let Some(m) = g.neighbors_with_label(n, w[1]).next() {
                picked = Some((n, m));
                break 'outer;
            }
        }
    }
    let (n, m) =
        picked.ok_or_else(|| CliError::Command("no edge on the meta-walk to mutate".to_owned()))?;
    let (ra, rb) = (NodeRef::of(g, n), NodeRef::of(g, m));
    let edge = format!("{ra} -- {rb}");
    let wal_path = match wal_override {
        Some(p) => std::path::PathBuf::from(p),
        None => std::env::temp_dir().join(format!("repsim-profile-{}.wal", std::process::id())),
    };
    // The leg always profiles a fresh log, not whatever a previous run left.
    let _ = std::fs::remove_file(&wal_path);
    let wal_err = |e: repsim_serve::WalError| CliError::Command(format!("wal: {e}"));
    let mut wal = repsim_serve::Wal::recover(&wal_path, g)
        .map_err(wal_err)?
        .wal;
    let mut maint = repsim_metawalk::delta::DeltaMaintainer::new();
    let mut cur = g.clone();
    let mut paths = Vec::new();
    let op_rm = MutationOp::RemoveEdge {
        a: ra.clone(),
        b: rb.clone(),
    };
    let op_add = MutationOp::AddEdge { a: ra, b: rb };
    for op in [op_rm, op_add] {
        let touched =
            mutation::touch(&cur, &op).map_err(|e| CliError::Command(format!("mutate: {e}")))?;
        let Touch::Edge(la, lb) = touched else {
            return Err(CliError::Command("edge op must touch an edge".to_owned()));
        };
        let next =
            mutation::apply(&cur, &op).map_err(|e| CliError::Command(format!("mutate: {e}")))?;
        let fp = repsim_serve::snapshot::graph_fingerprint(&next);
        wal.append(&op, fp, budget).map_err(wal_err)?;
        let report = maint.apply_edge_change(cache, &next, la, lb, budget);
        paths.push(report.path().to_owned());
        cache
            .try_informative_with(&next, half, par, budget)
            .map_err(|e| CliError::Command(format!("budget exhausted: {e}")))?;
        cur = next;
    }
    drop(wal);
    let replayed = repsim_serve::Wal::recover(&wal_path, g).map_err(wal_err)?;
    if replayed.fingerprint != repsim_serve::snapshot::graph_fingerprint(&cur) {
        return Err(CliError::Command(
            "wal replay diverged from the live mutation path".to_owned(),
        ));
    }
    let (rm_path, add_path) = match (paths.first(), paths.get(1)) {
        (Some(a), Some(b)) => (a.clone(), b.clone()),
        _ => ("none".to_owned(), "none".to_owned()),
    };
    Ok(MutateLeg {
        edge,
        replayed: replayed.records.len(),
        paths: (rm_path, add_path),
        wal_path,
        final_graph: cur,
    })
}

/// `repsim profile FILE --meta-walk "..." --query label:value [-k N]
/// [--kernel] [--mutate [--wal FILE]]`.
///
/// Runs one rpathsim ranking query end to end under an in-memory trace
/// sink — a cold commuting-cache miss (commuting build → SpGEMM chain),
/// a warm repeat hit, then the query-engine build and ranking — and
/// prints the resulting span tree plus the metrics table. `--kernel`
/// appends a numeric-phase breakdown: how many output rows the dense
/// accumulator computed and how many column tiles it actually visited.
/// `--mutate`
/// appends a mutation leg — WAL append, cache patch, replay from disk, and a ranking over the mutated graph that must
/// match the original.
pub fn profile(args: &Args) -> Result<String, CliError> {
    use repsim_baselines::ranking::SimilarityAlgorithm;
    use std::sync::Arc;

    let g = load(args.input_file()?)?;
    let meta_walk = args.require("meta-walk")?;
    let q = parse_entity(&g, args.require("query")?)?;
    let k = args.get_usize("k", 10)?;
    let mw = repsim_metawalk::MetaWalk::parse_in(&g, meta_walk)
        .ok_or_else(|| CliError::Command(format!("bad meta-walk {meta_walk:?}")))?;
    let half = half_walk(&mw, meta_walk, "profile")?;
    let par = repsim_sparse::Parallelism::default();
    let budget = repsim_sparse::Budget::from_env();

    let collect = Arc::new(repsim_obs::CollectSink::new());
    let sink: Arc<dyn repsim_obs::Sink> = Arc::clone(&collect) as _;
    repsim_obs::Registry::global().reset();
    repsim_obs::install(Arc::clone(&sink));
    // The profiled work, fenced so the sink comes back out on error too.
    let profiled = (|| -> Result<_, CliError> {
        let exhausted =
            |e: repsim_sparse::ExecError| CliError::Command(format!("budget exhausted: {e}"));
        let mut cache = repsim_metawalk::commuting::CommutingCache::new();
        cache
            .try_informative_with(&g, &half, par, &budget)
            .map_err(exhausted)?;
        // Warm repeat: must be a cache hit, not a rebuild.
        cache
            .try_informative_with(&g, &half, par, &budget)
            .map_err(exhausted)?;
        // Optional persistence leg: save the index snapshot and load it
        // back so the save/load spans and duration histograms land in
        // the same profile as the build they bracket.
        let snap = match args.get("snapshot") {
            Some(path) => {
                let p = std::path::Path::new(path);
                let saved = repsim_serve::snapshot::save(p, &g, &cache, &budget)
                    .map_err(|e| CliError::Command(format!("snapshot save: {e}")))?;
                let loaded = match repsim_serve::snapshot::load(p, &g)
                    .map_err(|e| CliError::Command(format!("snapshot load: {e}")))?
                {
                    repsim_serve::snapshot::LoadOutcome::Restored(entries) => entries.len(),
                    other => {
                        return Err(CliError::Command(format!(
                            "snapshot failed its own round-trip: {other:?}"
                        )))
                    }
                };
                Some((saved, loaded))
            }
            None => None,
        };
        // Optional mutation leg: WAL-logged remove + re-add of one edge
        // on the walk, patched into the cache, replayed from disk.
        let mutate = match args.has("mutate") {
            true => Some(profile_mutate_leg(
                &g,
                &half,
                &mut cache,
                par,
                &budget,
                args.get("wal"),
            )?),
            false => None,
        };
        let mut engine = repsim_core::QueryEngine::try_with_budget(&g, half.clone(), par, &budget)
            .map_err(exhausted)?;
        let list = engine.rank(q, g.label_of(q), k);
        // Remove + re-add restores the walk multiset, so ranking over the
        // mutated graph must be bit-identical to the original.
        let mutate = match mutate {
            Some(leg) => {
                let mut e2 = repsim_core::QueryEngine::try_with_budget(
                    &leg.final_graph,
                    half.clone(),
                    par,
                    &budget,
                )
                .map_err(exhausted)?;
                let l2 = e2.rank(q, leg.final_graph.label_of(q), k);
                let matches = l2.entries() == list.entries();
                Some((leg, matches))
            }
            None => None,
        };
        Ok((list, cache.stats(), snap, mutate))
    })();
    repsim_obs::remove_sink(&sink);

    let (list, stats, snap, mutate) = profiled?;
    let mut out = format!(
        "profile of rpathsim {meta_walk:?} for {}:\n",
        g.display_node(q)
    );
    for &(n, score) in list.entries() {
        let _ = writeln!(out, "  {:<30} {score:.6}", g.display_node(n));
    }
    let _ = writeln!(
        out,
        "cache: {} hits / {} misses / {} inserts",
        stats.hits, stats.misses, stats.inserts
    );
    if let Some((saved, loaded)) = snap {
        let _ = writeln!(
            out,
            "snapshot: saved {} entries ({} bytes), reloaded {loaded}",
            saved.entries, saved.bytes
        );
    }
    if let Some((leg, matches)) = mutate {
        out.push_str("\nmutation leg:\n");
        let _ = writeln!(out, "  edge removed + re-added   {}", leg.edge);
        let _ = writeln!(
            out,
            "  wal                       2 appended, {} replayed ({})",
            leg.replayed,
            leg.wal_path.display()
        );
        let _ = writeln!(
            out,
            "  cache maintenance         {} then {}",
            leg.paths.0, leg.paths.1
        );
        let _ = writeln!(
            out,
            "  post-mutate ranking       {}",
            if matches {
                "matches the original bit-for-bit"
            } else {
                "DIVERGED from the original"
            }
        );
        if !matches {
            return Err(CliError::Command(out));
        }
    }
    if args.has("kernel") {
        // Counters were reset before the run, so the totals here cover
        // exactly the profiled work: the cold cache-miss chain build plus
        // the query-engine build (the warm repeat is a cache hit and runs
        // no SpGEMM).
        let reg = repsim_obs::Registry::global();
        let dense = reg.counter("repsim.sparse.spgemm.numeric.dense_rows").get();
        let tiles = reg.counter("repsim.sparse.spgemm.numeric.tile_count").get();
        out.push_str("\nkernel (numeric phase):\n");
        let _ = writeln!(out, "  dense-tiled rows  {dense:>12}");
        let _ = writeln!(out, "  tiles visited     {tiles:>12}");
        if dense > 0 {
            let _ = writeln!(
                out,
                "  tiles per dense row  {:.2}",
                tiles as f64 / dense as f64
            );
        }
    }
    out.push_str("\nspan tree:\n");
    out.push_str(&repsim_obs::render_tree(&collect.events()));
    out.push_str("\nmetrics:\n");
    out.push_str(&repsim_obs::Registry::global().snapshot().render_table());
    Ok(out)
}

fn catalog_transformation(name: &str) -> Result<Box<dyn Transformation>, CliError> {
    Ok(match name {
        "imdb2fb" => catalog::imdb2fb(),
        "fb2imdb" => catalog::fb2imdb(),
        "imdb2ng" => catalog::imdb2ng(),
        "imdb2ng-plus" => catalog::imdb2ng_plus(),
        "fb2ng" => catalog::fb2ng(),
        "imdb2fb-nochar" => catalog::imdb2fb_no_chars(),
        "dblp2snap" => catalog::dblp2snap(),
        "snap2dblp" => catalog::snap2dblp(),
        "dblp2sigm" => catalog::dblp2sigm(),
        "sigm2dblp" => catalog::sigm2dblp(),
        "wsu2alch" => catalog::wsu2alch(),
        "alch2wsu" => catalog::alch2wsu(),
        "mas2alt" => catalog::mas2alt(),
        "alt2mas" => catalog::alt2mas(),
        other => return Err(CliError::Usage(format!("unknown transformation {other:?}"))),
    })
}

/// `repsim transform FILE --name NAME [-o FILE]`.
pub fn transform(args: &Args) -> Result<String, CliError> {
    let g = load(args.input_file()?)?;
    let t = catalog_transformation(args.require("name")?)?;
    let tg = t
        .apply(&g)
        .map_err(|e| CliError::Command(format!("{}: {e}", t.name())))?;
    save_or_print(args, &tg)
}

/// `repsim independence FILE --name T --algorithm A [-n QUERIES]`.
pub fn independence(args: &Args) -> Result<String, CliError> {
    let g = load(args.input_file()?)?;
    let t = catalog_transformation(args.require("name")?)?;
    let (tg, map) =
        apply_with_map(&*t, &g).map_err(|e| CliError::Command(format!("{}: {e}", t.name())))?;
    let spec_d = algorithm_spec(args)?;
    let spec_t = match (&spec_d, args.get("meta-walk-t")) {
        (AlgorithmSpec::PathSim { .. }, Some(mw)) => AlgorithmSpec::PathSim {
            meta_walk: mw.to_owned(),
        },
        (AlgorithmSpec::RPathSim { .. }, Some(mw)) => AlgorithmSpec::RPathSim {
            meta_walk: mw.to_owned(),
        },
        (AlgorithmSpec::HeteSim { .. }, Some(mw)) => AlgorithmSpec::HeteSim {
            meta_walk: mw.to_owned(),
        },
        (other, _) => other.clone(),
    };
    let n = args.get_usize("n", 20)?;
    // Query the label of the meta-walk source if given, else the most
    // populous entity label.
    let label = match args.get("label") {
        Some(name) => g
            .labels()
            .get(name)
            .ok_or_else(|| CliError::Command(format!("unknown label {name:?}")))?,
        None => g
            .labels()
            .entity_ids()
            .max_by_key(|&l| g.nodes_of_label(l).len())
            .ok_or_else(|| CliError::Command("database has no entities".into()))?,
    };
    let queries = Workload::Random { seed: 47 }.queries(&g, label, n);
    let mut a = spec_d.build(&g);
    let mut b = spec_t.build(&tg);
    let verdicts = check_workload(
        &g,
        &tg,
        &|x| map.map(x),
        a.as_mut(),
        b.as_mut(),
        &queries,
        10,
    );
    let ok = verdicts.iter().filter(|v| v.is_independent()).count();
    Ok(format!(
        "{} under {}: {ok}/{} queries returned identical top-10 answers ({})",
        spec_d.name(),
        t.name(),
        verdicts.len(),
        if ok == verdicts.len() {
            "representation independent on this workload"
        } else {
            "NOT representation independent"
        }
    ))
}

/// `repsim export FILE --format <dot|graphml> [-o FILE]`.
pub fn export(args: &Args) -> Result<String, CliError> {
    let g = load(args.input_file()?)?;
    let text = match args.require("format")? {
        "dot" => repsim_graph::export::to_dot(&g),
        "graphml" => repsim_graph::export::to_graphml(&g),
        other => return Err(CliError::Usage(format!("unknown format {other:?}"))),
    }
    .map_err(|e| CliError::Command(format!("cannot export graph: {e}")))?;
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            Ok(format!("wrote {path}"))
        }
        None => Ok(text),
    }
}

/// `repsim explain FILE --meta-walk "..." --query l:v --candidate l:v [-k N]`.
pub fn explain(args: &Args) -> Result<String, CliError> {
    let g = load(args.input_file()?)?;
    let q = parse_entity(&g, args.require("query")?)?;
    let c = parse_entity(&g, args.require("candidate")?)?;
    let mw_text = args.require("meta-walk")?;
    let mw = repsim_metawalk::MetaWalk::parse_in(&g, mw_text)
        .ok_or_else(|| CliError::Command(format!("bad meta-walk {mw_text:?}")))?;
    let k = args.get_usize("k", 10)?;
    let evidence = repsim_core::explain::explain(&g, &mw, q, c, k);
    if evidence.is_empty() {
        return Ok(format!(
            "no informative walks of ({mw_text}) connect {} and {}",
            g.display_node(q),
            g.display_node(c)
        ));
    }
    let mut out = format!(
        "{} walk(s) connecting {} and {}:\n",
        evidence.len(),
        g.display_node(q),
        g.display_node(c)
    );
    for ev in evidence {
        let _ = writeln!(out, "  {}", ev.rendered);
    }
    Ok(out)
}

/// The `repsim serve` shutdown flag: set by SIGINT/SIGTERM (unix) or a
/// client `shutdown` op, polled by the accept loop. Process-global so
/// the signal handler can reach it; re-armed on every `serve` call.
static SERVE_SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Routes SIGINT and SIGTERM into [`SERVE_SHUTDOWN`] so `repsim serve`
/// drains its queue and writes a final snapshot instead of dying with
/// in-flight work. `kill -9` still skips this — that is the crash the
/// snapshot layer's quarantine-and-rebuild path exists for.
#[cfg(unix)]
fn install_shutdown_signals() {
    extern "C" fn on_signal(_sig: i32) {
        // Only async-signal-safe work here: one atomic store.
        SERVE_SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: installs a handler that performs a single atomic store,
    // which is async-signal-safe; the handler never allocates or locks.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_shutdown_signals() {}

/// `repsim serve FILE [--addr A] [--snapshot FILE] [--wal FILE]
/// [--queue-cap N] [--port-file FILE] [--fault-injection]
/// [--shard-index I --shard-count N]`, or
/// `repsim serve --coordinator --shard addr,addr [--shard addr,addr]...`.
///
/// Blocks until SIGINT/SIGTERM or a client `shutdown` op, then drains
/// the queue and (with `--snapshot`) writes a final snapshot. With
/// `--wal`, mutations are appended to a write-ahead log before they are
/// acknowledged, and on boot the log is replayed — recovering any
/// mutations a crash separated from the last snapshot.
///
/// With `--shard-index I --shard-count N` the instance serves only the
/// `I`-th of `N` row bands of the candidate label and stamps its shard
/// identity + epoch into every rank response. With `--coordinator` the
/// process serves no graph at all: each `--shard` names one shard's
/// replica set (comma-separated `host:port` addresses, in band order)
/// and rank requests scatter-gather across the fleet.
pub fn serve(args: &Args) -> Result<String, CliError> {
    if args.has("coordinator") {
        return serve_coordinator(args);
    }
    let shard = match (args.get("shard-index"), args.get("shard-count")) {
        (None, None) => None,
        (Some(_), Some(_)) => {
            let index = args.get_usize("shard-index", 0)?;
            let count = args.get_usize("shard-count", 1)?;
            if count == 0 || index >= count || count > u32::MAX as usize {
                return Err(CliError::Usage(format!(
                    "--shard-index {index} must be below --shard-count {count}"
                )));
            }
            Some(repsim_serve::ShardSpec {
                index: index as u32,
                count: count as u32,
            })
        }
        _ => {
            return Err(CliError::Usage(
                "--shard-index and --shard-count go together".to_owned(),
            ));
        }
    };
    let g = load(args.input_file()?)?;
    let cfg = repsim_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_owned(),
        snapshot: args.get("snapshot").map(std::path::PathBuf::from),
        wal: args.get("wal").map(std::path::PathBuf::from),
        queue_cap: args.get_usize("queue-cap", 64)?,
        port_file: args.get("port-file").map(std::path::PathBuf::from),
        metrics_journal: args.get("metrics-journal").map(std::path::PathBuf::from),
        metrics_interval_ms: args.get_usize("metrics-interval-ms", 1000)? as u64,
        service: repsim_serve::ServiceConfig {
            par: repsim_sparse::Parallelism::default(),
            default_deadline_ms: args.deadline_ms()?,
            breaker: repsim_serve::BreakerConfig::default(),
            fault_injection: args.has("fault-injection"),
            shard,
        },
    };
    SERVE_SHUTDOWN.store(false, std::sync::atomic::Ordering::SeqCst);
    install_shutdown_signals();
    let report = repsim_serve::run(&g, &cfg, &SERVE_SHUTDOWN)
        .map_err(|e| CliError::Command(e.to_string()))?;
    let mut out = format!("served on {}: {} requests", report.addr, report.requests);
    if report.shed > 0 {
        let _ = write!(out, ", {} shed", report.shed);
    }
    if let Some(w) = report.wal {
        let _ = write!(out, "; wal: {} mutations replayed", w.replayed);
        if w.torn_truncated {
            out.push_str(", torn tail truncated");
        }
        if w.quarantined {
            out.push_str(", corrupt suffix quarantined");
        }
    }
    match report.restore {
        Some(repsim_serve::Restore::Restored { entries }) => {
            let _ = write!(out, "; restored {entries} indexes from snapshot");
        }
        Some(repsim_serve::Restore::Quarantined { reason }) => {
            let _ = write!(out, "; snapshot quarantined ({reason}), rebuilt cold");
        }
        Some(repsim_serve::Restore::ColdStart) | None => {}
    }
    if let Some(s) = report.final_snapshot {
        let _ = write!(
            out,
            "; final snapshot: {} entries, {} bytes",
            s.entries, s.bytes
        );
    }
    Ok(out)
}

/// The `--coordinator` arm of [`serve`]: scatter-gather over a fleet of
/// row-band shards instead of serving a graph locally.
fn serve_coordinator(args: &Args) -> Result<String, CliError> {
    let shards: Vec<Vec<String>> = args
        .get_all("shard")
        .iter()
        .map(|set| {
            set.split(',')
                .map(|a| a.trim().to_owned())
                .filter(|a| !a.is_empty())
                .collect::<Vec<String>>()
        })
        .collect();
    if shards.is_empty() || shards.iter().any(Vec::is_empty) {
        return Err(CliError::Usage(
            "--coordinator needs at least one --shard with a non-empty \
             comma-separated replica list"
                .to_owned(),
        ));
    }
    let cfg = repsim_serve::CoordConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_owned(),
        shards,
        default_deadline_ms: args.deadline_ms()?,
        breaker: repsim_serve::BreakerConfig::default(),
        max_inflight: args.get_usize("max-inflight", 256)?,
        port_file: args.get("port-file").map(std::path::PathBuf::from),
    };
    SERVE_SHUTDOWN.store(false, std::sync::atomic::Ordering::SeqCst);
    install_shutdown_signals();
    let report = repsim_serve::run_coordinator(&cfg, &SERVE_SHUTDOWN)
        .map_err(|e| CliError::Command(e.to_string()))?;
    let mut out = format!(
        "coordinated on {}: {} requests",
        report.addr, report.requests
    );
    if report.shed > 0 {
        let _ = write!(out, ", {} shed", report.shed);
    }
    Ok(out)
}

/// `repsim serve-client --addr HOST:PORT [--request JSON]...`
///
/// One-shot client for scripts and CI: sends each `--request` line (or,
/// with none given, each non-empty stdin line) and prints one response
/// line per request.
pub fn serve_client(args: &Args) -> Result<String, CliError> {
    let addr = args.require("addr")?;
    let mut lines: Vec<String> = args
        .get_all("request")
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    if lines.is_empty() {
        use std::io::BufRead as _;
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| CliError::Io(format!("stdin: {e}")))?;
            if !line.trim().is_empty() {
                lines.push(line);
            }
        }
    }
    if lines.is_empty() {
        return Err(CliError::Usage(
            "serve-client needs at least one --request (or request lines on stdin)".to_owned(),
        ));
    }
    let responses = repsim_serve::client_roundtrip(addr, &lines)
        .map_err(|e| CliError::Io(format!("cannot reach {addr}: {e}")))?;
    if responses.len() < lines.len() {
        return Err(CliError::Command(format!(
            "server closed the connection after {} of {} responses",
            responses.len(),
            lines.len()
        )));
    }
    Ok(responses.join("\n"))
}

/// `repsim bench serve FILE --meta-walk "..." [--record CAP|--replay CAP] …`
///
/// Serving-path load generator and capture/replay client. With no
/// `--addr` every run boots its own fresh server over FILE, which is
/// what replay bit-identity needs: two `--replay` runs of one capture
/// must produce identical rank responses.
pub fn bench(args: &Args) -> Result<String, CliError> {
    match args.positional(0) {
        Some("serve") => bench_serve(args),
        other => Err(CliError::Usage(format!(
            "unknown bench target {other:?} (expected: serve)"
        ))),
    }
}

fn bench_serve(args: &Args) -> Result<String, CliError> {
    use repsim_bench::serve_load as sl;
    let record_path = args.get("record").map(std::path::PathBuf::from);
    let replay_path = args.get("replay").map(std::path::PathBuf::from);
    if record_path.is_some() && replay_path.is_some() {
        return Err(CliError::Usage(
            "--record and --replay are mutually exclusive".to_owned(),
        ));
    }
    let seed = args.get_usize("seed", 42)? as u64;
    let mode = match args.get("mode").unwrap_or("open") {
        "open" => sl::Mode::Open,
        "closed" => sl::Mode::Closed,
        other => {
            return Err(CliError::Usage(format!(
                "unknown mode {other:?} (open|closed)"
            )))
        }
    };
    let max_retries = args.get_usize("max-retries", 3)? as u32;
    let queue_cap = args.get_usize("queue-cap", 64)?;
    let external = args.get("addr").map(str::to_owned);
    let mk_opts = move |addr: &str| sl::ClientOptions {
        addr: addr.to_owned(),
        mode,
        jitter_seed: seed,
        max_retries,
        ..sl::ClientOptions::default()
    };

    // The replay counters and latency histogram need a recording
    // registry even without --trace.
    let metrics_on: std::sync::Arc<dyn repsim_obs::Sink> =
        std::sync::Arc::new(repsim_obs::NullSink);
    repsim_obs::install(std::sync::Arc::clone(&metrics_on));
    let result = bench_serve_run(
        args,
        seed,
        mode,
        queue_cap,
        external.as_deref(),
        record_path.as_deref(),
        replay_path.as_deref(),
        &mk_opts,
    );
    repsim_obs::remove_sink(&metrics_on);
    result
}

#[allow(clippy::too_many_arguments)]
fn bench_serve_run(
    args: &Args,
    seed: u64,
    mode: repsim_bench::serve_load::Mode,
    queue_cap: usize,
    external: Option<&str>,
    record_path: Option<&std::path::Path>,
    replay_path: Option<&std::path::Path>,
    mk_opts: &dyn Fn(&str) -> repsim_bench::serve_load::ClientOptions,
) -> Result<String, CliError> {
    use repsim_bench::serve_load as sl;
    // The graph is needed to self-host and to generate a workload;
    // replaying a capture against an external server needs neither.
    let need_graph = external.is_none() || replay_path.is_none();
    let g = if need_graph {
        Some(load(args.positional(1).ok_or_else(|| {
            CliError::Usage("bench serve needs a graph FILE".to_owned())
        })?)?)
    } else {
        None
    };
    let with_addr = |f: &mut dyn FnMut(&str) -> Result<String, CliError>| match external {
        Some(a) => f(a),
        None => match &g {
            Some(g) => {
                sl::with_local_server(g, queue_cap, |addr| f(addr)).map_err(CliError::Command)?
            }
            None => Err(CliError::Usage("bench serve needs a graph FILE".to_owned())),
        },
    };

    let mut summary;
    let out_path = args.get("out").unwrap_or("BENCH_serve.json").to_owned();
    let json_doc;
    if let Some(cap) = replay_path {
        let mut run = |addr: &str| -> Result<String, CliError> {
            let (report, recovered) = sl::replay(cap, &mk_opts(addr)).map_err(CliError::Command)?;
            let mut text = format!(
                "replayed {} of {} recorded requests (seed {}): {} ok, {} shed first-attempt, \
                 {} retries, {} retry-exhausted, {} exhausted, p50 {}µs p99 {}µs, \
                 rank digest {:016x}",
                report.sent,
                recovered.records.len(),
                recovered.seed,
                report.ok,
                report.shed_first,
                report.retries,
                report.retry_exhausted,
                report.exhausted,
                report.latency_percentile_us(0.50),
                report.latency_percentile_us(0.99),
                report.rank_digest
            );
            if recovered.torn_truncated {
                text.push_str("; capture torn tail truncated");
            }
            if recovered.quarantined_to.is_some() {
                text.push_str("; corrupt capture suffix quarantined");
            }
            Ok(format!(
                "{text}\n~JSON~{}",
                sl::report_json("replay", recovered.seed, mode, &report)
            ))
        };
        summary = with_addr(&mut run)?;
    } else {
        let g = g
            .as_ref()
            .ok_or_else(|| CliError::Usage("bench serve needs a graph FILE".to_owned()))?;
        let walk = args.require("meta-walk")?;
        let deadlines = match args.get("deadlines") {
            None => vec![100, 250, 1000],
            Some("none") => Vec::new(),
            Some(list) => list
                .split(',')
                .map(|t| {
                    t.trim().parse().map_err(|_| {
                        CliError::Usage(format!("--deadlines expects numbers, got {t:?}"))
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        let wcfg = sl::WorkloadConfig {
            seed,
            requests: args.get_usize("requests", 200)?,
            rate_per_s: args.get("rate").map_or(Ok(200.0), |v| {
                v.parse()
                    .map_err(|_| CliError::Usage(format!("--rate expects a number, got {v:?}")))
            })?,
            zipf_exponent: args.get("zipf").map_or(Ok(1.0), |v| {
                v.parse()
                    .map_err(|_| CliError::Usage(format!("--zipf expects a number, got {v:?}")))
            })?,
            mutate_ratio: args.get("mutate-ratio").map_or(Ok(0.1), |v| {
                v.parse().map_err(|_| {
                    CliError::Usage(format!("--mutate-ratio expects a fraction, got {v:?}"))
                })
            })?,
            deadlines_ms: deadlines,
            k: args.get_usize("k", 5)?,
        };
        let requests = sl::generate(g, walk, &wcfg).map_err(CliError::Command)?;
        let mut run = |addr: &str| -> Result<String, CliError> {
            let (label, report, recorded) = match record_path {
                Some(cap) => {
                    let (report, written) = sl::record(&requests, seed, &mk_opts(addr), cap)
                        .map_err(CliError::Command)?;
                    ("record", report, Some((cap.to_path_buf(), written)))
                }
                None => {
                    let report = sl::run_requests(&requests, &mk_opts(addr), None)
                        .map_err(|e| CliError::Command(e.to_string()))?;
                    ("load", report, None)
                }
            };
            let mut text = format!(
                "{label}: {} requests (seed {seed}): {} ok, {} shed first-attempt, {} retries, \
                 {} retry-exhausted, {} exhausted, {} behind schedule, p50 {}µs p99 {}µs, \
                 rank digest {:016x}",
                report.sent,
                report.ok,
                report.shed_first,
                report.retries,
                report.retry_exhausted,
                report.exhausted,
                report.behind_schedule,
                report.latency_percentile_us(0.50),
                report.latency_percentile_us(0.99),
                report.rank_digest
            );
            if let Some((cap, written)) = &recorded {
                let _ = write!(
                    text,
                    "; captured {written} admitted requests to {}",
                    cap.display()
                );
            }
            Ok(format!(
                "{text}\n~JSON~{}",
                sl::report_json(label, seed, mode, &report)
            ))
        };
        summary = with_addr(&mut run)?;
    }

    // The run summary travels back through the self-host closure as
    // one string; split the JSON document back off.
    match summary.split_once("\n~JSON~") {
        Some((text, json)) => {
            json_doc = json.to_owned();
            summary = text.to_owned();
        }
        None => {
            return Err(CliError::Command("internal: bench report lost".to_owned()));
        }
    }
    std::fs::write(&out_path, &json_doc)
        .map_err(|e| CliError::Io(format!("cannot write {out_path}: {e}")))?;
    let _ = write!(summary, "; wrote {out_path}");

    if let Some(baseline_path) = args.get("check") {
        let tolerance: f64 = args.get("tolerance").map_or(Ok(0.20), |v| {
            v.parse()
                .map_err(|_| CliError::Usage(format!("--tolerance expects a fraction, got {v:?}")))
        })?;
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| CliError::Io(format!("cannot read {baseline_path}: {e}")))?;
        let expected = repsim_obs::json::parse(&baseline)
            .ok()
            .and_then(|v| v.get("p99_latency_us").and_then(|n| n.as_num()))
            .ok_or_else(|| CliError::Command(format!("{baseline_path} lacks p99_latency_us")))?;
        let actual = repsim_obs::json::parse(&json_doc)
            .ok()
            .and_then(|v| v.get("p99_latency_us").and_then(|n| n.as_num()))
            .unwrap_or(0.0);
        let limit = expected * (1.0 + tolerance);
        if actual > limit {
            return Err(CliError::Command(format!(
                "perf gate FAILED: p99 {actual:.0}µs exceeds baseline {expected:.0}µs \
                 by more than {:.0}% (limit {limit:.0}µs)",
                tolerance * 100.0
            )));
        }
        let _ = write!(
            summary,
            "; perf gate passed (p99 {actual:.0}µs ≤ limit {limit:.0}µs)"
        );
    }
    Ok(summary)
}

/// `repsim top (--addr HOST:PORT [--interval-ms N] [--count N] [--once]
/// | --journal FILE)`.
pub fn top(args: &Args) -> Result<String, CliError> {
    let once = args.has("once");
    if let Some(journal) = args.get("journal") {
        // Offline renders are artifacts: always plain text.
        return crate::tui::render_journal(journal, false);
    }
    let addr = args.require("addr")?;
    let interval_ms = args.get_usize("interval-ms", 1000)? as u64;
    let count = args.get_usize("count", 0)? as u64;
    crate::tui::live(addr, interval_ms, count, once, !once)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits on whitespace, but `~` inside a token becomes a space so
    /// multi-word option values (meta-walks) can be written inline.
    fn argv(s: &str) -> Args {
        let tokens: Vec<String> = s.split_whitespace().map(|t| t.replace('~', " ")).collect();
        Args::parse(&tokens).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("repsim-cli-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    fn write_movies(name: &str) -> String {
        let path = tmp(name);
        let out = generate(&argv(&format!(
            "--dataset movies --scale tiny --out {path}"
        )))
        .unwrap();
        assert!(out.contains("wrote"));
        path
    }

    #[test]
    fn serve_and_serve_client_roundtrip() {
        let path = write_movies("serve.graph");
        let dir = std::env::temp_dir().join(format!("repsim-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let snap = dir.join("idx.snap");
        let wal = dir.join("g.wal");
        let serve_args = argv(&format!(
            "{path} --addr 127.0.0.1:0 --port-file {} --snapshot {} --wal {} --queue-cap 4",
            port_file.display(),
            snap.display(),
            wal.display()
        ));
        let handle = std::thread::spawn(move || serve(&serve_args));
        let addr = loop {
            match std::fs::read_to_string(&port_file) {
                Ok(text) if !text.trim().is_empty() => break text.trim().to_owned(),
                _ => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };
        let tokens: Vec<String> = [
            "--addr",
            &addr,
            "--request",
            r#"{"id":1,"op":"ping"}"#,
            "--request",
            r#"{"id":2,"walk":"film actor film","label":"film","value":"film00000","k":3}"#,
            "--request",
            r#"{"id":3,"op":"mutate","action":"add_entity","label":"actor","value":"zzz_new"}"#,
            "--request",
            r#"{"id":4,"op":"shutdown"}"#,
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let out = serve_client(&Args::parse(&tokens).unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].contains("pong"), "{out}");
        assert!(lines[1].contains(r#""ok":true"#), "{out}");
        assert!(lines[1].contains("exact"), "{out}");
        assert!(lines[2].contains(r#""mutate""#), "{out}");
        assert!(lines[2].contains(r#""seq":1"#), "{out}");
        assert!(lines[3].contains("shutting_down"), "{out}");
        let summary = handle.join().unwrap().unwrap();
        assert!(summary.contains("served on"), "{summary}");
        assert!(summary.contains("wal: 0 mutations replayed"), "{summary}");
        assert!(summary.contains("final snapshot"), "{summary}");
        assert!(snap.exists(), "shutdown persisted the index");
        assert!(wal.exists(), "the acked mutation reached the log");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_mutate_leg_appends_replays_and_reranks() {
        // Serializes global sink state against other observability tests.
        let _x = repsim_obs::exclusive();
        let path = write_movies("profile-mutate.graph");
        let wal = tmp("profile-mutate.wal");
        let out = profile(&argv(&format!(
            "{path} --meta-walk=film~actor~film --query film:film00000 -k 3 \
             --mutate --wal {wal}"
        )))
        .unwrap();
        assert!(out.contains("mutation leg:"), "{out}");
        assert!(out.contains("2 appended, 2 replayed"), "{out}");
        // Each edge op patches the warmed half walk in place.
        assert!(out.contains("patch then patch"), "{out}");
        assert!(out.contains("matches the original bit-for-bit"), "{out}");
        // The WAL and patch layers landed in the span tree and metrics.
        assert!(out.contains("repsim.graph.wal.append"), "{out}");
        assert!(out.contains("repsim.graph.wal.replay"), "{out}");
        assert!(out.contains("repsim.metawalk.delta.apply"), "{out}");
        assert!(out.contains("repsim.cache.delta.applied"), "{out}");
        assert!(std::path::Path::new(&wal).exists(), "wal file persists");
    }

    #[test]
    fn serve_client_requires_addr_and_requests() {
        assert!(matches!(
            serve_client(&argv("--request {}")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn generate_stats_validate_roundtrip() {
        let path = write_movies("m1.graph");
        let s = stats(&argv(&path)).unwrap();
        assert!(s.contains("film: 30"), "{s}");
        let v = validate(&argv(&path)).unwrap();
        assert!(v.contains("ok"));
    }

    #[test]
    fn check_clean_dataset_passes() {
        let path = write_movies("check-clean.graph");
        let out = check(&argv(&format!(
            "{path} --meta-walk film~actor~film --transform imdb2fb"
        )))
        .unwrap();
        assert!(out.contains("no issues found"), "{out}");
    }

    #[test]
    fn check_flags_model_violations_and_exits_nonzero() {
        let path = tmp("check-dangling.graph");
        std::fs::write(
            &path,
            "label actor entity\nlabel starring relationship\n\
             node 0 actor H. Ford\nnode 1 starring\nedge 0 1\n",
        )
        .unwrap();
        let Err(CliError::Command(out)) = check(&argv(&path)) else {
            panic!("dangling relationship node must fail the check");
        };
        assert!(out.contains("RS0101"), "{out}");
        assert!(out.contains("RS0102"), "{out}");
    }

    #[test]
    fn check_meta_walk_diagnostics() {
        let path = write_movies("check-walks.graph");
        let Err(CliError::Command(out)) = check(&argv(&format!("{path} --meta-walk film~nosuch")))
        else {
            panic!("malformed meta-walk must fail the check");
        };
        assert!(out.contains("RS0201"), "{out}");
        // Asymmetric but otherwise sound: warnings only, exit zero.
        let out = check(&argv(&format!("{path} --meta-walk film~actor"))).unwrap();
        assert!(out.contains("RS0205"), "{out}");
        assert!(out.contains("warning"), "{out}");
    }

    #[test]
    fn check_csr_files_and_chain_shapes() {
        let good = tmp("check-good.csr");
        std::fs::write(
            &good,
            "shape 2 3\nrow_ptr 0 2 3\ncol_idx 0 2 1\nvalues 1 2 3\n",
        )
        .unwrap();
        let bad = tmp("check-bad.csr");
        std::fs::write(
            &bad,
            "shape 2 3\nrow_ptr 0 2 3\ncol_idx 2 0 1\nvalues 1 2 3\n",
        )
        .unwrap();
        let mismatched = tmp("check-mismatched.csr");
        std::fs::write(
            &mismatched,
            "shape 9 1\nrow_ptr 0 0 0 0 0 0 0 0 0 0\ncol_idx\nvalues\n",
        )
        .unwrap();
        let out = check(&argv(&format!("--csr {good}"))).unwrap();
        assert!(out.contains("no issues found"), "{out}");
        let Err(CliError::Command(out)) = check(&argv(&format!("--csr {good},{bad}"))) else {
            panic!("corrupt CSR must fail the check");
        };
        assert!(out.contains("RS0402"), "{out}");
        let Err(CliError::Command(out)) = check(&argv(&format!("--csr {good},{mismatched}")))
        else {
            panic!("chain shape mismatch must fail the check");
        };
        assert!(out.contains("RS0405"), "{out}");
    }

    #[test]
    fn check_without_inputs_is_a_usage_error() {
        assert!(matches!(check(&argv("")), Err(CliError::Usage(_))));
    }

    #[test]
    fn query_command_ranks() {
        let path = write_movies("m2.graph");
        let out = query(&argv(&format!(
            "{path} --algorithm rpathsim --meta-walk=film~actor~film --query film:film00000 -k 3"
        )))
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(out.contains("R-PathSim"), "{out}");
        assert!(out.lines().count() >= 2, "{out}");
    }

    #[test]
    fn transform_and_independence_commands() {
        let path = write_movies("m3.graph");
        let fb = tmp("m3_fb.graph");
        let out = transform(&argv(&format!("{path} --name imdb2fb --out {fb}"))).unwrap();
        assert!(out.contains("wrote"));
        let report = independence(&argv(&format!(
            "{path} --name imdb2fb --algorithm rwr --label film -n 5"
        )))
        .unwrap();
        assert!(report.contains("RWR under IMDB2FB"), "{report}");
    }

    #[test]
    fn fds_and_metawalks_commands() {
        let bib = tmp("bib.graph");
        generate(&argv(&format!(
            "--dataset bibliographic --scale tiny --out {bib}"
        )))
        .unwrap();
        let f = fds(&argv(&format!("{bib} --max-len 3"))).unwrap();
        assert!(f.contains("paper -> proc"), "{f}");
        assert!(f.contains("chain:"), "{f}");
        let m = metawalks(&argv(&format!("{bib} --label proc --max-len 4"))).unwrap();
        assert!(m.contains("proc"), "{m}");
    }

    #[test]
    fn export_and_explain_commands() {
        let path = write_movies("m5.graph");
        let dot = export(&argv(&format!("{path} --format dot"))).unwrap();
        assert!(dot.starts_with("graph repsim {"));
        let gml = export(&argv(&format!("{path} --format graphml"))).unwrap();
        assert!(gml.contains("<graphml"));
        assert!(export(&argv(&format!("{path} --format svg"))).is_err());

        // Find two films sharing an actor through the generated data.
        let report = explain(&argv(&format!(
            "{path} --meta-walk=film~actor~film --query film:film00000 --candidate film:film00001 -k 3"
        )));
        // Either evidence or a clean "no walks" message — never an error.
        assert!(report.is_ok(), "{report:?}");
    }

    #[test]
    fn budgeted_query_degrades_and_reports_the_tier() {
        let path = write_movies("m6.graph");
        let g = load(&path).unwrap();
        let q = g.entity_by_name("film", "film00000").unwrap();
        // A one-entry cap starves the closure and the half matrix: the
        // query still answers, over the identity prefix, with a note.
        let starved = repsim_sparse::Budget::unlimited().with_max_nnz(1);
        let out = query_rpathsim_budgeted(&g, "film actor film", q, 3, &starved).unwrap();
        assert!(out.contains("note: budget shortened the walk"), "{out}");
        // A generous cap stays exact and silent.
        let roomy = repsim_sparse::Budget::unlimited().with_max_nnz(1 << 30);
        let out = query_rpathsim_budgeted(&g, "film actor film", q, 3, &roomy).unwrap();
        assert!(!out.contains("note:"), "{out}");
        assert!(out.contains("R-PathSim (budgeted)"), "{out}");
        // Asymmetric walks cannot be closed into a half: clean error.
        assert!(matches!(
            query_rpathsim_budgeted(&g, "film actor", q, 3, &roomy),
            Err(CliError::Command(_))
        ));
    }

    #[test]
    fn walks_without_a_half_are_errors_that_name_the_walk() {
        // A symmetric walk whose midpoint is the `cite` relationship has
        // no half walk: both commands that halve a walk must say so, not
        // panic.
        let path = tmp("halfless.graph");
        generate(&argv(&format!(
            "--dataset citations-dblp --scale tiny --out {path}"
        )))
        .unwrap();
        let walk = "paper cite paper cite paper cite paper";
        let err = profile(&argv(&format!(
            "{path} --meta-walk={} --query paper:paper000000 -k 3",
            walk.replace(' ', "~")
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Command(_)), "{err}");
        assert!(err.to_string().contains(walk), "{err}");

        let g = load(&path).unwrap();
        let q = g.entity_by_name("paper", "paper000000").unwrap();
        let roomy = repsim_sparse::Budget::unlimited().with_max_nnz(1 << 30);
        let err = query_rpathsim_budgeted(&g, walk, q, 3, &roomy).unwrap_err();
        assert!(matches!(err, CliError::Command(_)), "{err}");
        assert!(err.to_string().contains(walk), "{err}");
    }

    #[test]
    fn errors_are_informative() {
        assert!(matches!(
            stats(&argv("/no/such/file")),
            Err(CliError::Io(_))
        ));
        assert!(matches!(
            generate(&argv("--dataset nope")),
            Err(CliError::Usage(_))
        ));
        let path = write_movies("m4.graph");
        assert!(matches!(
            query(&argv(&format!(
                "{path} --algorithm rpathsim --meta-walk=film~actor~film --query film:ghost"
            ))),
            Err(CliError::Command(_))
        ));
        assert!(matches!(
            transform(&argv(&format!("{path} --name dblp2snap"))),
            Err(CliError::Command(_))
        ));
    }
}
