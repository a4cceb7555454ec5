//! Ablations of DESIGN.md's design choices:
//!
//! * exact SimRank vs the Monte-Carlo fingerprint estimator (accuracy is
//!   tested in `tests/`; here: latency);
//! * full informative commuting chain vs a cached-matrix re-query
//!   (PathSim's "pre-compute short walks, concatenate at query time"
//!   optimization, §4.3's closing paragraph);
//! * walk counting by matrix product vs explicit enumeration (why the
//!   commuting-matrix formulation exists at all).

// Benchmarks are developer tooling: setup failures should abort loudly,
// so the workspace panic-freedom lints are relaxed for this file.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use criterion::{criterion_group, criterion_main, Criterion};
use repsim_baselines::ranking::SimilarityAlgorithm;
use repsim_baselines::{SimRank, SimRankMc};
use repsim_bench::{citations_tiny_dblp, movies_tiny};
use repsim_metawalk::commuting::{informative_commuting, CommutingCache};
use repsim_metawalk::{walk, MetaWalk};
use std::hint::black_box;

fn bench_simrank_variants(c: &mut Criterion) {
    let g = movies_tiny();
    let film = g.labels().get("film").expect("movies");
    let q = g.nodes_of_label(film)[0];
    let mut group = c.benchmark_group("ablation/simrank");
    group.sample_size(10);
    group.bench_function("exact-end-to-end", |b| {
        b.iter(|| {
            let mut sr = SimRank::new(&g);
            black_box(sr.rank(q, film, 10))
        })
    });
    group.bench_function("exact-4-threads", |b| {
        b.iter(|| {
            let mut sr = SimRank::with_threads(&g, 4);
            black_box(sr.rank(q, film, 10))
        })
    });
    group.bench_function("mc-end-to-end", |b| {
        b.iter(|| {
            let mut sr = SimRankMc::new(&g, 7);
            black_box(sr.rank(q, film, 10))
        })
    });
    group.finish();
}

fn bench_query_engine(c: &mut Criterion) {
    use repsim_core::{QueryEngine, RPathSim};
    let g = citations_tiny_dblp();
    let paper = g.labels().get("paper").expect("papers");
    let q = g.nodes_of_label(paper)[0];
    let half = MetaWalk::parse_in(&g, "paper cite paper cite paper").expect("parseable");
    let mut group = c.benchmark_group("ablation/query-engine");
    group.bench_function("full-closure-matrix", |b| {
        b.iter(|| {
            let mut rps = RPathSim::new(&g, half.symmetric_closure());
            black_box(rps.rank(q, paper, 10))
        })
    });
    group.bench_function("half-matrix-engine", |b| {
        b.iter(|| {
            let mut eng = QueryEngine::new(&g, half.clone());
            black_box(eng.rank(q, paper, 10))
        })
    });
    group.finish();
}

fn bench_cache_vs_recompute(c: &mut Criterion) {
    let g = citations_tiny_dblp();
    let mw = MetaWalk::parse_in(&g, "paper cite paper cite paper").expect("parseable");
    let mut group = c.benchmark_group("ablation/commuting-cache");
    group.bench_function("recompute-per-query", |b| {
        b.iter(|| black_box(informative_commuting(&g, &mw)))
    });
    group.bench_function("cached-re-query", |b| {
        let mut cache = CommutingCache::new();
        let _ = cache.informative(&g, &mw);
        b.iter(|| black_box(cache.informative(&g, &mw).nnz()))
    });
    group.finish();
}

fn bench_matrix_vs_enumeration(c: &mut Criterion) {
    let g = citations_tiny_dblp();
    let mw = MetaWalk::parse_in(&g, "paper cite paper cite paper").expect("parseable");
    let mut group = c.benchmark_group("ablation/counting");
    group.sample_size(10);
    group.bench_function("matrix", |b| {
        b.iter(|| black_box(informative_commuting(&g, &mw)))
    });
    group.bench_function("enumeration", |b| {
        b.iter(|| {
            let total: usize = walk::instances(&g, &mw)
                .iter()
                .filter(|w| w.is_informative(&g))
                .count();
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simrank_variants,
    bench_query_engine,
    bench_cache_vs_recompute,
    bench_matrix_vs_enumeration
);
criterion_main!(benches);
