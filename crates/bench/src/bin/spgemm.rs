//! SpGEMM benchmark binary: times informative commuting-matrix builds
//! across a thread sweep and reports the chain plans the build evaluated,
//! writing machine-readable results to `BENCH_spgemm.json` (CI uploads it
//! as an artifact; the `paper` scale is the headline speedup measurement).
//!
//! ```text
//! cargo run --release -p repsim-bench --bin spgemm -- \
//!     [--scale tiny|small|paper] [--threads 1,2,4,8] [--reps 3] [-o FILE] \
//!     [--check BASELINE.json] [--tolerance 0.20]
//! ```
//!
//! `--check` compares the serial numeric ns/flop of this run against the
//! `serial_numeric_ns_per_flop` field of a previously committed baseline
//! JSON and exits non-zero on a regression beyond `--tolerance`
//! (fractional, default 0.20) — the CI perf gate runs this at a fixed
//! small scale.

// Benchmark/reproduction binaries are operator-run tools, not library
// surface: a failed setup step should abort loudly, so the workspace
// panic-freedom lints are relaxed for this file.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::Instant;

use repsim_datasets::citations::{self, CitationConfig};
use repsim_metawalk::commuting::informative_commuting_with;
use repsim_metawalk::MetaWalk;
use repsim_obs::{AttrValue, EventKind};
use repsim_sparse::Parallelism;

/// The benched meta-walk: three citation hops, each needing the
/// informative diagonal correction — the heaviest commuting build the
/// citation fixtures exercise.
const WALK: &str = "paper cite paper cite paper cite paper";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = "tiny".to_owned();
    let mut out = "BENCH_spgemm.json".to_owned();
    let mut reps = 3usize;
    let mut threads_arg: Option<String> = None;
    let mut check: Option<String> = None;
    let mut tolerance = 0.20f64;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .clone()
        };
        match a.as_str() {
            "--scale" => scale = take("--scale"),
            "--out" | "-o" => out = take("--out"),
            "--reps" => reps = take("--reps").parse().expect("--reps expects a number"),
            "--threads" => threads_arg = Some(take("--threads")),
            "--check" => check = Some(take("--check")),
            "--tolerance" => {
                tolerance = take("--tolerance")
                    .parse()
                    .expect("--tolerance expects a fraction");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let cfg = match scale.as_str() {
        "tiny" => CitationConfig::tiny(),
        "small" => CitationConfig::small(),
        "paper" => CitationConfig::paper_scale(),
        other => panic!("unknown scale {other:?} (tiny|small|paper)"),
    };
    let g = citations::dblp(&cfg);
    let mw = MetaWalk::parse_in(&g, WALK).expect("parseable walk");

    let available = Parallelism::available().threads();
    let threads: Vec<usize> = match threads_arg {
        Some(list) => list
            .split(',')
            .map(|t| t.trim().parse().expect("--threads expects numbers"))
            .collect(),
        None => {
            let mut t = vec![1, 2, 4];
            if !t.contains(&available) {
                t.push(available);
            }
            t.retain(|&n| n >= 1);
            t.dedup();
            t
        }
    };

    // Metrics-only observability: a NullSink flips recording on so the
    // SpGEMM kernel's per-phase histograms accumulate, without buffering
    // a trace. Timed builds pay the (sub-percent) recording overhead
    // uniformly across the thread sweep.
    let obs_sink: std::sync::Arc<dyn repsim_obs::Sink> = std::sync::Arc::new(repsim_obs::NullSink);
    repsim_obs::install(std::sync::Arc::clone(&obs_sink));
    repsim_obs::Registry::global().reset();
    let sym_hist = repsim_obs::Registry::global().histogram("repsim.sparse.spgemm.symbolic_ns");
    let num_hist = repsim_obs::Registry::global().histogram("repsim.sparse.spgemm.numeric_ns");
    let flop_hist = repsim_obs::Registry::global().histogram("repsim.sparse.spgemm.flops");
    let dense_rows =
        repsim_obs::Registry::global().counter("repsim.sparse.spgemm.numeric.dense_rows");
    let tile_count =
        repsim_obs::Registry::global().counter("repsim.sparse.spgemm.numeric.tile_count");

    // Reference build: serial, correctness anchor for the sweep. The
    // accumulator's row and tile counters are sampled over exactly this
    // build, and its `repsim.sparse.chain.plan` spans give the orders the
    // build evaluates, one per chain product in completion order.
    let collect = std::sync::Arc::new(repsim_obs::CollectSink::new());
    let collect_sink: std::sync::Arc<dyn repsim_obs::Sink> = collect.clone();
    repsim_obs::install(std::sync::Arc::clone(&collect_sink));
    let (kr0, kt0) = (dense_rows.get(), tile_count.get());
    let serial = informative_commuting_with(&g, &mw, Parallelism::serial());
    let kernel_rows = (dense_rows.get() - kr0, tile_count.get() - kt0);
    repsim_obs::remove_sink(&collect_sink);
    let plans: Vec<String> = collect
        .events()
        .iter()
        .filter_map(|ev| match &ev.kind {
            EventKind::SpanEnd { name, attrs, .. } if *name == "repsim.sparse.chain.plan" => {
                Some(json_object(attrs))
            }
            _ => None,
        })
        .collect();
    let mut sweep = Vec::new();
    let mut all_match = true;
    for &t in &threads {
        let par = Parallelism::with_threads(t);
        let m = informative_commuting_with(&g, &mw, par); // warm-up
        all_match &= m == serial;
        let mut best_ms = f64::INFINITY;
        let mut total_ms = 0.0;
        let mut best_numeric_ns = u64::MAX;
        let (sym0, num0, flop0) = (sym_hist.sum(), num_hist.sum(), flop_hist.sum());
        for _ in 0..reps.max(1) {
            let rep_num0 = num_hist.sum();
            let start = Instant::now();
            let m = informative_commuting_with(&g, &mw, par);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(m);
            best_ms = best_ms.min(ms);
            total_ms += ms;
            best_numeric_ns = best_numeric_ns.min(num_hist.sum() - rep_num0);
        }
        // Mean per-build phase time: histogram-sum delta over the timed
        // reps (all SpGEMM products of the chain, both phases). Flops are
        // deterministic per build, so the delta / reps is the per-build
        // multiply-add count and ns/flop normalises phase time by work.
        let per_rep = 1e6 * reps.max(1) as f64;
        let symbolic_ms = (sym_hist.sum() - sym0) as f64 / per_rep;
        let numeric_ms = (num_hist.sum() - num0) as f64 / per_rep;
        let flops = (flop_hist.sum() - flop0) as f64 / reps.max(1) as f64;
        let sym_ns_per_flop = if flops > 0.0 {
            symbolic_ms * 1e6 / flops
        } else {
            0.0
        };
        let num_ns_per_flop = if flops > 0.0 {
            numeric_ms * 1e6 / flops
        } else {
            0.0
        };
        // Best (not mean) rep for the gate figure: on noisy shared
        // hardware the fastest rep tracks the code's true cost while the
        // mean tracks the neighbors.
        let best_num_ns_per_flop = if flops > 0.0 {
            best_numeric_ns as f64 / flops
        } else {
            0.0
        };
        sweep.push((
            t,
            best_ms,
            total_ms / reps.max(1) as f64,
            symbolic_ms,
            numeric_ms,
            flops,
            sym_ns_per_flop,
            num_ns_per_flop,
            best_num_ns_per_flop,
        ));
        repsim_obs::log_info!(
            "repsim.bench.spgemm",
            "threads={t:>3}  best {best_ms:9.3} ms  symbolic {symbolic_ms:.3} ms ({sym_ns_per_flop:.4} ns/flop)  numeric {numeric_ms:.3} ms ({num_ns_per_flop:.4} ns/flop)"
        );
    }
    repsim_obs::remove_sink(&obs_sink);
    let serial_best = sweep
        .iter()
        .find(|&&(t, ..)| t == 1)
        .map(|&(_, best, ..)| best);
    let parallel_best = sweep
        .iter()
        .filter(|&&(t, ..)| t > 1)
        .map(|&(_, best, ..)| best)
        .fold(f64::INFINITY, f64::min);
    let speedup = match serial_best {
        Some(s) if parallel_best.is_finite() => s / parallel_best,
        _ => 1.0,
    };

    // Serial best-rep numeric ns/flop is the CI gate's tracked figure: it
    // is the single-thread cost of the phase this crate optimises,
    // normalised by deterministic work and taken from the fastest rep so
    // shared-hardware noise doesn't trip the gate.
    let serial_num_ns_per_flop = sweep
        .iter()
        .find(|&&(t, ..)| t == 1)
        .map_or(0.0, |&(.., best_npf)| best_npf);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    json.push_str("  \"dataset\": \"citations-dblp\",\n");
    json.push_str(&format!("  \"meta_walk\": \"{WALK}\",\n"));
    json.push_str(&format!("  \"papers\": {},\n", cfg.papers));
    json.push_str(&format!("  \"result_nnz\": {},\n", serial.nnz()));
    json.push_str(&format!(
        "  \"chain\": [\n    {}\n  ],\n",
        plans.join(",\n    ")
    ));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"available_threads\": {available},\n"));
    json.push_str("  \"kernel\": {\n");
    json.push_str(&format!("    \"dense_rows\": {},\n", kernel_rows.0));
    json.push_str(&format!("    \"tile_count\": {}\n", kernel_rows.1));
    json.push_str("  },\n");
    json.push_str("  \"sweep\": [\n");
    for (i, &(t, best, mean, symbolic, numeric, flops, sym_npf, num_npf, best_npf)) in
        sweep.iter().enumerate()
    {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"threads\": {t}, \"best_ms\": {best:.3}, \"mean_ms\": {mean:.3}, \
             \"symbolic_ms\": {symbolic:.3}, \"numeric_ms\": {numeric:.3}, \
             \"flops\": {flops:.0}, \"symbolic_ns_per_flop\": {sym_npf:.4}, \
             \"numeric_ns_per_flop\": {num_npf:.4}, \
             \"best_numeric_ns_per_flop\": {best_npf:.4}}}{comma}\n"
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"serial_numeric_ns_per_flop\": {serial_num_ns_per_flop:.4},\n"
    ));
    json.push_str(&format!("  \"speedup_over_serial\": {speedup:.3},\n"));
    json.push_str(&format!("  \"parallel_matches_serial\": {all_match}\n"));
    json.push_str("}\n");
    std::fs::write(&out, &json).expect("write bench json");
    println!("{json}");
    assert!(all_match, "parallel build diverged from serial");

    if let Some(baseline_path) = check {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path:?}: {e}"));
        let expected =
            extract_number(&baseline, "serial_numeric_ns_per_flop").unwrap_or_else(|| {
                panic!("baseline {baseline_path:?} lacks serial_numeric_ns_per_flop")
            });
        let limit = expected * (1.0 + tolerance);
        println!(
            "perf gate: serial numeric {serial_num_ns_per_flop:.4} ns/flop \
             vs baseline {expected:.4} (limit {limit:.4}, tolerance {tolerance:.2})"
        );
        assert!(
            serial_num_ns_per_flop > 0.0,
            "perf gate: no serial sweep entry — include threads=1 when using --check"
        );
        if serial_num_ns_per_flop > limit {
            eprintln!(
                "perf gate FAILED: numeric phase regressed {:.1}% over baseline",
                (serial_num_ns_per_flop / expected - 1.0) * 100.0
            );
            std::process::exit(1);
        }
        println!("perf gate passed");
    }
}

/// Renders span attributes as one flat JSON object.
fn json_object(attrs: &[(&str, AttrValue)]) -> String {
    let fields: Vec<String> = attrs
        .iter()
        .map(|(k, v)| match v {
            AttrValue::Str(s) => format!("\"{k}\": \"{s}\""),
            AttrValue::F64(x) => format!("\"{k}\": {x:.1}"),
            AttrValue::U64(x) => format!("\"{k}\": {x}"),
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Pulls the number following `"key":` out of a flat JSON document. The
/// baseline files are written by this binary, so a substring scan is
/// enough — no JSON parser dependency needed.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json.get(at..)?;
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest.get(..end)?.trim().parse().ok()
}
