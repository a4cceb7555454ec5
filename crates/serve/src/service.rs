//! The query service: per-request admission, execution, degradation,
//! and live mutation.
//!
//! [`QueryService`] is the transport-agnostic core the TCP server (and
//! the tests) drive. One instance owns the resident state — the current
//! graph *epoch*, the commuting-matrix cache, the per-walk engine seeds,
//! the write-ahead log, the circuit breaker, the serving counters — and
//! answers one request at a time per calling thread; all methods take
//! `&self` and are safe to share across the worker pool.
//!
//! A rank request flows: breaker admission → walk/entity validation →
//! budget construction (per-request deadline or the server default) →
//! engine fast path (a seed matching the current epoch's fingerprint,
//! exact scores) → on budget exhaustion, one [`BudgetedRPathSim`]
//! attempt whose degradation tier is reported in the envelope → only
//! when even the last tier cannot run does the request fail
//! `exhausted`, feeding the breaker's rank class.
//!
//! A mutate request flows: mutate-class breaker admission → resolve and
//! validate against the current epoch → apply to a *copy* of the graph
//! → durable WAL append (the acknowledgment barrier — nothing is
//! acknowledged or made visible before the fsync returns) → index
//! maintenance through [`DeltaMaintainer`], which patches the rows the
//! mutation reaches in every cache entry it can reach (an entry whose
//! patch fails is evicted and rebuilds through the single-flight build
//! path) → seed re-install with `diag` refreshed on those rows → epoch
//! swap.
//! Ranking is serialized against mutation by the epoch fingerprint:
//! seeds and cache entries are only trusted when their fingerprint
//! matches the epoch that answers, so a rank racing a mutate either
//! sees the old complete state or the new complete state, never a mix.

use repsim_audit::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use repsim_audit::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

use repsim_core::{BudgetedRPathSim, Degradation, QueryEngine};
use repsim_graph::mutation::{self, Touch};
use repsim_graph::{Graph, LabelId, MutationOp};
use repsim_metawalk::commuting::{CacheKind, CommutingCache};
use repsim_metawalk::delta::{walk_mentions, walk_touches_edge, DeltaMaintainer};
use repsim_metawalk::MetaWalk;
use repsim_obs::CounterHandle;
use repsim_sparse::budget::failpoints;
use repsim_sparse::{Budget, Csr, ExecError, Parallelism};

use crate::breaker::{BreakerConfig, CircuitBreaker, OpClass};
use crate::error::ServiceError;
use crate::protocol::{RankEntry, StatsBody};
use crate::singleflight::{Entry as FlightEntry, SingleFlight};
use crate::snapshot::{self, graph_fingerprint, LoadOutcome, SaveStats, SnapshotError};
use crate::wal::{Wal, WalError};

static REQUESTS: CounterHandle = CounterHandle::new("repsim.serve.requests");
static SHED: CounterHandle = CounterHandle::new("repsim.serve.shed");
static DEGRADED: CounterHandle = CounterHandle::new("repsim.serve.degraded");
static TIER_EXACT: CounterHandle = CounterHandle::new("repsim.serve.tier.exact");
static TIER_HALF: CounterHandle = CounterHandle::new("repsim.serve.tier.half_factorized");
static TIER_PREFIX: CounterHandle = CounterHandle::new("repsim.serve.tier.prefix");
static EXHAUSTED: CounterHandle = CounterHandle::new("repsim.serve.exhausted");
static MUTATIONS: CounterHandle = CounterHandle::new("repsim.serve.mutations");
static MUTATE_EXHAUSTED: CounterHandle = CounterHandle::new("repsim.serve.mutate_exhausted");

/// Which row band of a fleet this instance serves. The band is the
/// `index`-th of `count` contiguous slices of the *candidate* label's
/// node list ([`repsim_sparse::par::shard_band`]), recomputed against
/// the answering epoch on every request so all shards on the same
/// fingerprint agree on disjoint, covering bands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index in `0..count`.
    pub index: u32,
    /// Total shards in the fleet.
    pub count: u32,
}

/// Service tuning, shared by the CLI and the tests.
#[derive(Clone, Debug, Default)]
pub struct ServiceConfig {
    /// Worker parallelism (also used for index builds).
    pub par: Parallelism,
    /// Deadline applied when a request does not carry its own.
    /// `None` means unlimited.
    pub default_deadline_ms: Option<u64>,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Opt requests into the armed failpoints (`serve.slow_worker`,
    /// `snapshot.*`, `wal.*`) — the fault-injection harness for the CI
    /// drills.
    pub fault_injection: bool,
    /// Serve only one row band of the candidate label (fleet member
    /// mode); `None` ranks every candidate (single node).
    pub shard: Option<ShardSpec>,
}

/// A rank answer plus the identity of the epoch that produced it (what
/// a fleet shard stamps into its response so the coordinator can refuse
/// to merge answers from diverged epochs).
#[derive(Clone, Debug, PartialEq)]
pub struct RankAnswer {
    /// The degradation tier that answered.
    pub tier: String,
    /// Top-k entries over this instance's band, best first.
    pub results: Vec<RankEntry>,
    /// Fingerprint of the answering epoch's graph.
    pub fingerprint: u64,
    /// WAL sequence number of the answering epoch.
    pub seq: u64,
}

/// What [`QueryService::restore`] did at startup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Restore {
    /// Entries imported from a valid snapshot.
    Restored {
        /// How many matrices came back.
        entries: usize,
    },
    /// No snapshot on disk; cold start.
    ColdStart,
    /// The snapshot failed validation and was moved aside; cold start
    /// with a warning. Indexes rebuild transparently on demand.
    Quarantined {
        /// Why the file was rejected.
        reason: String,
    },
}

/// What [`QueryService::recover_wal`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecovery {
    /// Mutations replayed onto the boot graph.
    pub replayed: usize,
    /// A torn (partial, unacknowledged) trailing record was truncated.
    pub torn_truncated: bool,
    /// A corrupt suffix or foreign log was quarantined.
    pub quarantined: bool,
}

/// One graph version. Everything derived from the graph (cache entries,
/// engine seeds) is tagged with `fp` and trusted only on exact match.
#[derive(Clone)]
struct Epoch {
    g: Arc<Graph>,
    fp: u64,
    seq: u64,
}

/// A cached engine seed: the shared half-matrix and diagonal for one
/// walk, valid only for the graph whose fingerprint is `fp`. Rebuilding
/// a [`QueryEngine`] from a seed is O(validation), not O(SpGEMM). `m`
/// is the commuting cache's own allocation, not a copy of it.
struct Seed {
    fp: u64,
    m: Arc<Csr>,
    diag: Arc<Vec<f64>>,
}

/// The resident query service. See the module docs for the request
/// flows.
pub struct QueryService {
    cfg: ServiceConfig,
    epoch: RwLock<Epoch>,
    /// The mutable index state: the commuting-matrix cache. Mutations
    /// swap the epoch while holding this lock, so anyone holding it sees
    /// a stable epoch.
    state: Mutex<CommutingCache>,
    seeds: RwLock<HashMap<MetaWalk, Seed>>,
    wal: Mutex<Option<Wal>>,
    breaker: CircuitBreaker,
    flights: SingleFlight,
    requests: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    exhausted: AtomicU64,
    mutations: AtomicU64,
    mutate_exhausted: AtomicU64,
    snapshot_restored: AtomicBool,
    started_ns: u64,
    /// `repsim_obs::now_ns` timestamp of the last successful snapshot
    /// save or restore; 0 = never this run.
    last_snapshot_ns: AtomicU64,
}

impl QueryService {
    /// A cold service over a copy of `g` (no snapshot loaded, no WAL
    /// attached yet).
    pub fn new(g: &Graph, cfg: ServiceConfig) -> QueryService {
        let g = Arc::new(g.clone());
        let fp = graph_fingerprint(&g);
        QueryService {
            breaker: CircuitBreaker::new(cfg.breaker),
            cfg,
            epoch: RwLock::new(Epoch { g, fp, seq: 0 }),
            state: Mutex::new(CommutingCache::new()),
            seeds: RwLock::new(HashMap::new()),
            wal: Mutex::new(None),
            flights: SingleFlight::new(),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            mutate_exhausted: AtomicU64::new(0),
            snapshot_restored: AtomicBool::new(false),
            started_ns: repsim_obs::now_ns(),
            last_snapshot_ns: AtomicU64::new(0),
        }
    }

    /// The graph currently being served (the live epoch's version).
    pub fn graph(&self) -> Arc<Graph> {
        self.epoch_snapshot().g
    }

    /// The fleet band this instance serves, `None` on a single node.
    pub fn shard_spec(&self) -> Option<ShardSpec> {
        self.cfg.shard
    }

    /// The current graph fingerprint, `0x`-prefixed hex.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:#018x}", self.epoch_snapshot().fp)
    }

    fn epoch_snapshot(&self) -> Epoch {
        self.epoch.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn state_lock(&self) -> MutexGuard<'_, CommutingCache> {
        // The cache holds plain data; poisoning cannot corrupt it.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn budget_for(&self, deadline_ms: Option<u64>) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(ms) = deadline_ms.or(self.cfg.default_deadline_ms) {
            budget = budget.with_deadline_ms(ms);
        }
        if self.cfg.fault_injection {
            budget = budget.with_fault_injection();
        }
        budget
    }

    /// Answers one rank request. `deadline_ms` overrides the configured
    /// default. Returns the degradation tier that answered plus the
    /// top-k entries.
    pub fn handle_rank(
        &self,
        walk: &str,
        label: &str,
        value: &str,
        k: usize,
        deadline_ms: Option<u64>,
    ) -> Result<(String, Vec<RankEntry>), ServiceError> {
        self.handle_rank_epoch(walk, label, value, k, deadline_ms)
            .map(|a| (a.tier, a.results))
    }

    /// [`QueryService::handle_rank`] plus the identity of the epoch that
    /// answered — what a fleet shard stamps into its response envelope
    /// so the coordinator can enforce epoch consistency across shards.
    pub fn handle_rank_epoch(
        &self,
        walk: &str,
        label: &str,
        value: &str,
        k: usize,
        deadline_ms: Option<u64>,
    ) -> Result<RankAnswer, ServiceError> {
        let mut span = repsim_obs::span("repsim.serve.request");
        if span.is_active() {
            span.attr("walk", walk);
            span.attr("query", format!("{label}={value}"));
            span.attr("k", k);
        }
        if let Err(retry_after_ms) = self.breaker.admit_class(OpClass::Rank) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            SHED.add(1);
            return Err(ServiceError::Overloaded { retry_after_ms });
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        REQUESTS.add(1);

        let epoch = self.epoch_snapshot();
        let g = Arc::clone(&epoch.g);
        let mw = MetaWalk::parse_in(&g, walk)
            .ok_or_else(|| ServiceError::BadRequest(format!("walk {walk:?} does not parse")))?;
        let label_id = g
            .labels()
            .get(label)
            .ok_or_else(|| ServiceError::BadRequest(format!("unknown label {label:?}")))?;
        if label_id != mw.source() {
            return Err(ServiceError::BadRequest(format!(
                "query label {label:?} is not the walk's source label {:?}",
                g.labels().name(mw.source())
            )));
        }
        let query = g
            .entity(label_id, value)
            .ok_or_else(|| ServiceError::BadRequest(format!("no entity {label:?} = {value:?}")))?;

        let budget = self.budget_for(deadline_ms);
        if budget.injected(failpoints::SERVE_SLOW_WORKER) {
            // The slow-worker drill: stall long enough that a tight
            // deadline expires and queued peers pile up behind us.
            std::thread::sleep(Duration::from_millis(25));
        }

        match self.rank_with(&epoch, &mw, query, k, &budget) {
            Ok(answer) => {
                // Per-tier breakdown for the `repsim top` dashboard;
                // `degraded` stays the roll-up the stats body reports.
                match answer.tier.as_str() {
                    "exact" => TIER_EXACT.add(1),
                    "half-factorized" => TIER_HALF.add(1),
                    _ => TIER_PREFIX.add(1),
                }
                if answer.tier != "exact" {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                    DEGRADED.add(1);
                }
                self.breaker.on_success_class(OpClass::Rank);
                Ok(answer)
            }
            Err(e) if e.is_exhaustion() => {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                EXHAUSTED.add(1);
                self.breaker.on_exhausted_class(OpClass::Rank);
                Err(ServiceError::Exhausted(e))
            }
            Err(e) => Err(ServiceError::BadRequest(e.to_string())),
        }
    }

    /// The band of the candidate label this instance ranks, against a
    /// specific epoch's graph. `None` (single node) ranks everyone.
    fn band_for(&self, g: &Graph, label: LabelId) -> Option<(usize, usize)> {
        self.cfg.shard.map(|s| {
            repsim_sparse::par::shard_band(
                g.nodes_of_label(label).len(),
                s.index as usize,
                s.count as usize,
            )
        })
    }

    /// The execution core: seeded engine when the seed matches the
    /// epoch, cache build otherwise, budgeted degradation cascade as
    /// the fallback. In shard mode every tier ranks only this
    /// instance's row band of the answering epoch.
    fn rank_with(
        &self,
        epoch: &Epoch,
        mw: &MetaWalk,
        query: repsim_graph::NodeId,
        k: usize,
        budget: &Budget,
    ) -> Result<RankAnswer, ExecError> {
        // Seed fast path: shared parts tagged with this epoch's
        // fingerprint reconstruct the engine without any matrix work.
        if let Some(answer) = self.seed_answer(epoch, mw, query, k) {
            return Ok(answer);
        }
        // Single-flight: concurrent misses on one (fingerprint, walk)
        // share the leader's commuting-matrix product and engine build
        // instead of piling onto the state lock. A follower re-checks
        // the seed once the leader lands and only builds itself when
        // the leader failed or timed out.
        let max_wait = budget
            .remaining_time()
            .unwrap_or(Duration::from_secs(5))
            .min(Duration::from_secs(5));
        let _flight = match self.flights.join(epoch.fp, mw, max_wait) {
            FlightEntry::Leader(guard) => Some(guard),
            FlightEntry::Waited | FlightEntry::TimedOut => {
                if let Some(answer) = self.seed_answer(epoch, mw, query, k) {
                    return Ok(answer);
                }
                None
            }
        };
        // Build path. The epoch cannot advance while we hold the state
        // lock (mutations swap it under the same lock), so re-reading
        // inside gives the graph the cache is consistent with. Node and
        // label ids are stable across epochs (mutations never delete or
        // renumber), so `mw` and `query` stay valid. The matrix leaves
        // the lock as a handle on the cache entry, so the engine and the
        // seed share the cache's allocation.
        let built = {
            let mut cache = self.state_lock();
            let epoch = self.epoch_snapshot();
            match cache.try_informative_shared(&epoch.g, mw, self.cfg.par, budget) {
                Ok(m) => Some((epoch, m)),
                Err(e) if e.is_exhaustion() => None,
                Err(e) => return Err(e),
            }
        };
        if let Some((epoch, m)) = built {
            let engine = QueryEngine::try_from_half_matrix(&epoch.g, mw.clone(), m, self.cfg.par)?;
            let (m, diag) = engine.shared_parts();
            self.install_seed(mw, epoch.fp, m, diag);
            let band = self.band_for(&epoch.g, mw.source());
            let ranked = engine.rank_band_ref(query, mw.source(), k, band);
            return Ok(RankAnswer {
                tier: "exact".to_owned(),
                results: entries_of(&epoch.g, &ranked),
                fingerprint: epoch.fp,
                seq: epoch.seq,
            });
        }
        // The full index does not fit the remaining budget: degrade.
        // The cascade re-tries cheaper representations of the *same*
        // answer before shortening the walk as a last resort.
        let epoch = self.epoch_snapshot();
        let budgeted = BudgetedRPathSim::try_new(&epoch.g, mw.clone(), self.cfg.par, budget)?;
        let tier = match budgeted.degradation() {
            Degradation::Exact => "exact".to_owned(),
            Degradation::HalfFactorized => "half-factorized".to_owned(),
            Degradation::PrefixWalk { .. } => {
                format!(
                    "prefix:{}",
                    budgeted.effective_half().display(epoch.g.labels())
                )
            }
            // Never built here: partial coverage is a coordinator-side
            // merge outcome, not a per-shard execution tier.
            Degradation::PartialShards { answered, total } => {
                format!("partial-shards:{answered}/{total}")
            }
        };
        let band = self.band_for(&epoch.g, mw.source());
        let ranked = budgeted.rank_band(query, mw.source(), k, band);
        Ok(RankAnswer {
            tier,
            results: entries_of(&epoch.g, &ranked),
            fingerprint: epoch.fp,
            seq: epoch.seq,
        })
    }

    /// Answers from the engine seed tagged with `epoch`'s fingerprint,
    /// if one is installed (the zero-SpGEMM fast path).
    fn seed_answer(
        &self,
        epoch: &Epoch,
        mw: &MetaWalk,
        query: repsim_graph::NodeId,
        k: usize,
    ) -> Option<RankAnswer> {
        let (m, diag) = self.seed_parts(mw, epoch.fp)?;
        let engine =
            QueryEngine::try_from_shared(&epoch.g, mw.clone(), m, diag, self.cfg.par).ok()?;
        let band = self.band_for(&epoch.g, mw.source());
        let ranked = engine.rank_band_ref(query, mw.source(), k, band);
        Some(RankAnswer {
            tier: "exact".to_owned(),
            results: entries_of(&epoch.g, &ranked),
            fingerprint: epoch.fp,
            seq: epoch.seq,
        })
    }

    fn seed_parts(&self, mw: &MetaWalk, fp: u64) -> Option<(Arc<Csr>, Arc<Vec<f64>>)> {
        let seeds = self.seeds.read().unwrap_or_else(|e| e.into_inner());
        seeds
            .get(mw)
            .filter(|s| s.fp == fp)
            .map(|s| (Arc::clone(&s.m), Arc::clone(&s.diag)))
    }

    fn install_seed(&self, mw: &MetaWalk, fp: u64, m: Arc<Csr>, diag: Arc<Vec<f64>>) {
        let mut seeds = self.seeds.write().unwrap_or_else(|e| e.into_inner());
        seeds.insert(mw.clone(), Seed { fp, m, diag });
    }

    /// Applies one mutation. Returns the post-mutation fingerprint
    /// (`0x`-hex), the WAL sequence number that made it durable, and
    /// the index-maintenance path taken: `"patch"` when the reached
    /// cache entries were patched in place, `"evict"` when a patch
    /// failed and its entry was dropped, `"none"` when no entry was
    /// reached.
    pub fn handle_mutate(
        &self,
        op: &MutationOp,
        deadline_ms: Option<u64>,
    ) -> Result<(String, u64, String), ServiceError> {
        let mut span = repsim_obs::span("repsim.serve.mutate");
        if span.is_active() {
            span.attr("op", op.to_string());
        }
        if let Err(retry_after_ms) = self.breaker.admit_class(OpClass::Mutate) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            SHED.add(1);
            return Err(ServiceError::Overloaded { retry_after_ms });
        }
        let budget = self.budget_for(deadline_ms);
        // Pre-WAL budget check: an already-expired deadline rejects
        // cleanly before anything touches the log or the index.
        if let Err(e) = budget.check() {
            if e.is_exhaustion() {
                self.mutate_exhausted.fetch_add(1, Ordering::Relaxed);
                MUTATE_EXHAUSTED.add(1);
                self.breaker.on_exhausted_class(OpClass::Mutate);
                return Err(ServiceError::Exhausted(e));
            }
            return Err(ServiceError::BadRequest(e.to_string()));
        }

        let mut cache = self.state_lock();
        // Epoch is stable under the state lock.
        let epoch = self.epoch_snapshot();
        let touch =
            mutation::touch(&epoch.g, op).map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        let g_new =
            mutation::apply(&epoch.g, op).map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        let fp_after = graph_fingerprint(&g_new);

        // Durability barrier: the mutation is acknowledged if and only
        // if the WAL append (write + fsync) succeeds. A failed append
        // leaves every piece of in-memory state untouched.
        let seq = {
            let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            match wal.as_mut() {
                Some(w) => w
                    .append(op, fp_after, &budget)
                    .map_err(|e| ServiceError::WalFailed(e.to_string()))?,
                None => epoch.seq + 1, // ephemeral mode: no log configured
            }
        };

        // Seeds: untouched walks keep their matrices and merely re-tag to
        // the new fingerprint. The seeds of reached walks come out first,
        // keeping only their diagonals, so the cache holds the only handle
        // on those matrices and patches them in place.
        let mut reached_diags = Vec::new();
        {
            let mut seeds = self.seeds.write().unwrap_or_else(|e| e.into_inner());
            seeds.retain(|mw, seed| {
                let reached = match touch {
                    Touch::Edge(a, b) => walk_touches_edge(mw, a, b),
                    Touch::Node(l) => walk_mentions(mw, l),
                };
                if reached && seed.fp == epoch.fp {
                    reached_diags.push((mw.clone(), Arc::clone(&seed.diag)));
                } else if seed.fp == epoch.fp {
                    seed.fp = fp_after;
                }
                !reached
            });
        }

        // Index maintenance never fails past this point: an entry whose
        // patch fails is evicted and rebuilds on next use.
        let mut maintainer = DeltaMaintainer::new();
        let report = match touch {
            Touch::Edge(a, b) => maintainer.apply_edge_change(&mut cache, &g_new, a, b, &budget),
            Touch::Node(l) => maintainer.apply_node_change(&mut cache, l),
        };

        // Re-install the reached seeds at the new fingerprint, with the
        // diagonal recomputed on the patched rows only, so the next rank
        // takes the seed fast path. A walk whose entry was evicted stays
        // unseeded until a rank rebuilds it.
        for (mw, mut diag) in reached_diags {
            let patched = report
                .reached
                .iter()
                .find(|r| r.kind == CacheKind::Informative && r.walk == mw);
            let (Some(patched), Some(m)) =
                (patched, cache.peek_shared(CacheKind::Informative, &mw))
            else {
                continue;
            };
            let d = Arc::make_mut(&mut diag);
            d.extend((d.len()..m.nrows()).map(|r| m.row_sq_sum(r)));
            for &r in &patched.rows {
                d[r] = m.row_sq_sum(r);
            }
            self.install_seed(&mw, fp_after, m, diag);
        }

        // Publish the new epoch (still under the state lock, so ranks
        // building from the cache never see a graph/cache mismatch).
        {
            let mut ep = self.epoch.write().unwrap_or_else(|e| e.into_inner());
            *ep = Epoch {
                g: Arc::new(g_new),
                fp: fp_after,
                seq,
            };
        }
        drop(cache);

        self.mutations.fetch_add(1, Ordering::Relaxed);
        MUTATIONS.add(1);
        self.breaker.on_success_class(OpClass::Mutate);
        let fingerprint = format!("{fp_after:#018x}");
        if span.is_active() {
            span.attr("seq", seq);
            span.attr("path", report.path());
        }
        Ok((fingerprint, seq, report.path().to_owned()))
    }

    /// Opens (or creates) the write-ahead log at `path`, replaying any
    /// surviving records onto the boot graph. Must run before
    /// [`QueryService::restore`] so the snapshot validates against the
    /// post-replay graph. Replayed mutations advance the epoch; the
    /// cache is still empty at this point, so no index maintenance is
    /// needed.
    pub fn recover_wal(&self, path: &Path) -> Result<WalRecovery, WalError> {
        let epoch = self.epoch_snapshot();
        let rec = Wal::recover(path, &epoch.g)?;
        let recovery = WalRecovery {
            replayed: rec.records.len(),
            torn_truncated: rec.torn_truncated,
            quarantined: rec.quarantined_to.is_some(),
        };
        let seq = rec.wal.next_seq().saturating_sub(1);
        {
            let _st = self.state_lock();
            let mut ep = self.epoch.write().unwrap_or_else(|e| e.into_inner());
            *ep = Epoch {
                g: Arc::new(rec.graph),
                fp: rec.fingerprint,
                seq,
            };
        }
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        *wal = Some(rec.wal);
        Ok(recovery)
    }

    /// Records a request shed by the *queue* (admission control's outer
    /// ring; breaker sheds are recorded internally by
    /// [`QueryService::handle_rank`]).
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        SHED.add(1);
    }

    /// The serving counters for the `stats` op; queue figures are the
    /// transport's and passed in.
    pub fn stats_body(&self, queue_depth: usize, queue_capacity: usize) -> StatsBody {
        let epoch = self.epoch_snapshot();
        StatsBody {
            requests: self.requests.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            queue_depth,
            queue_capacity,
            cache_entries: self.state_lock().len(),
            engines: self.seeds.read().unwrap_or_else(|e| e.into_inner()).len(),
            breaker: self.breaker.state_name_class(OpClass::Rank).to_owned(),
            breaker_mutate: self.breaker.state_name_class(OpClass::Mutate).to_owned(),
            snapshot_restored: self.snapshot_restored.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Relaxed),
            mutate_exhausted: self.mutate_exhausted.load(Ordering::Relaxed),
            fingerprint: format!("{:#018x}", epoch.fp),
            seq: epoch.seq,
            uptime_ms: repsim_obs::now_ns().saturating_sub(self.started_ns) / 1_000_000,
            shard: self.cfg.shard.map_or(0, |s| s.index),
            snapshot_age_ms: match self.last_snapshot_ns.load(Ordering::Relaxed) {
                0 => None,
                t => Some(repsim_obs::now_ns().saturating_sub(t) / 1_000_000),
            },
        }
    }

    /// Persists the current index snapshot. The budget carries the
    /// fault-injection opt-in for the `snapshot.*` failpoints.
    pub fn save_snapshot(&self, path: &Path) -> Result<SaveStats, SnapshotError> {
        let budget = if self.cfg.fault_injection {
            Budget::unlimited().with_fault_injection()
        } else {
            Budget::unlimited()
        };
        let cache = self.state_lock();
        let epoch = self.epoch_snapshot();
        let stats = snapshot::save(path, &epoch.g, &cache, &budget)?;
        self.last_snapshot_ns
            .store(repsim_obs::now_ns(), Ordering::Relaxed);
        Ok(stats)
    }

    /// Loads the snapshot at `path` into the cache, quarantining a
    /// corrupt file. Missing or quarantined snapshots are cold starts —
    /// never errors; only I/O failures propagate. Validates against the
    /// *current* epoch graph, i.e. post-WAL-replay when a log is in use.
    pub fn restore(&self, path: &Path) -> Result<Restore, SnapshotError> {
        let mut cache = self.state_lock();
        let epoch = self.epoch_snapshot();
        match snapshot::load(path, &epoch.g)? {
            LoadOutcome::Restored(entries) => {
                let mut n = 0;
                for (kind, mw, m) in entries {
                    // A factor build that fails leaves the walk out; it
                    // rebuilds cold on first use.
                    n += usize::from(cache.import(&epoch.g, kind, mw, m).is_ok());
                }
                self.snapshot_restored.store(true, Ordering::Relaxed);
                self.last_snapshot_ns
                    .store(repsim_obs::now_ns(), Ordering::Relaxed);
                Ok(Restore::Restored { entries: n })
            }
            LoadOutcome::Absent => Ok(Restore::ColdStart),
            LoadOutcome::Quarantined { reason, .. } => Ok(Restore::Quarantined { reason }),
        }
    }
}

/// Instantiated per answer: ranked node ids to (label, value, score)
/// triples against the graph that produced them.
fn entries_of(g: &Graph, ranked: &repsim_baselines::RankedList) -> Vec<RankEntry> {
    ranked
        .keyed(g)
        .into_iter()
        .map(|(label, value, score)| RankEntry {
            label,
            value,
            score,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use repsim_graph::{GraphBuilder, NodeRef};

    fn mas_like() -> Graph {
        let mut b = GraphBuilder::new();
        let conf = b.entity_label("conf");
        let paper = b.entity_label("paper");
        let dom = b.entity_label("dom");
        let confs: Vec<_> = (0..3).map(|i| b.entity(conf, &format!("c{i}"))).collect();
        let doms: Vec<_> = (0..2).map(|i| b.entity(dom, &format!("d{i}"))).collect();
        for (i, (c, d)) in [(0, 0), (0, 1), (1, 0), (2, 1), (0, 0), (1, 1)]
            .iter()
            .enumerate()
        {
            let p = b.entity(paper, &format!("p{i}"));
            b.edge(p, confs[*c]).unwrap();
            b.edge(p, doms[*d]).unwrap();
        }
        b.build()
    }

    fn svc(g: &Graph) -> QueryService {
        QueryService::new(g, ServiceConfig::default())
    }

    fn eref(label: &str, value: &str) -> NodeRef {
        NodeRef::Entity {
            label: label.to_owned(),
            value: value.to_owned(),
        }
    }

    #[test]
    fn rank_answers_exactly_and_caches_the_engine() {
        let g = mas_like();
        let s = svc(&g);
        let (tier, results) = s
            .handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();
        assert_eq!(tier, "exact");
        assert!(!results.is_empty());
        // The query itself is excluded (queries ask for entities *other*
        // than the query); c1 shares both doms with c0 and c2 only one.
        assert!(results.iter().all(|r| r.value != "c0"));
        assert_eq!(results[0].value, "c1");
        for w in results.windows(2) {
            assert!(w[0].score >= w[1].score, "descending scores");
        }
        let stats = s.stats_body(0, 8);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.engines, 1);
        assert!(stats.cache_entries >= 1);
        // Second call hits the resident seed.
        let (tier2, results2) = s
            .handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();
        assert_eq!(tier2, "exact");
        assert_eq!(results, results2);
    }

    #[test]
    fn cold_rank_seed_shares_the_cache_allocation() {
        let g = mas_like();
        let s = svc(&g);
        s.handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();
        let mw = MetaWalk::parse_in(&g, "conf paper dom").unwrap();
        let fp = graph_fingerprint(&g);
        let (seed, _) = s.seed_parts(&mw, fp).expect("seed installed");
        let cached = s
            .state_lock()
            .try_informative_shared(&g, &mw, Parallelism::serial(), &Budget::unlimited())
            .unwrap();
        assert!(
            Arc::ptr_eq(&seed, &cached),
            "seed and cache hold one matrix"
        );
    }

    #[test]
    fn rank_matches_the_direct_engine() {
        let g = mas_like();
        let s = svc(&g);
        let (_, via_service) = s
            .handle_rank("conf paper dom", "conf", "c1", 3, None)
            .unwrap();
        let mw = MetaWalk::parse_in(&g, "conf paper dom").unwrap();
        let engine = QueryEngine::try_with_budget(
            &g,
            mw.clone(),
            Parallelism::serial(),
            &Budget::unlimited(),
        )
        .unwrap();
        let q = g.entity(mw.source(), "c1").unwrap();
        let direct = engine.rank_ref(q, mw.source(), 3);
        let direct_keyed = direct.keyed(&g);
        assert_eq!(via_service.len(), direct_keyed.len());
        for (a, (bl, bv, bs)) in via_service.iter().zip(direct_keyed) {
            assert_eq!(
                (a.label.as_str(), a.value.as_str()),
                (bl.as_str(), bv.as_str())
            );
            assert_eq!(a.score.to_bits(), bs.to_bits(), "bit-identical scores");
        }
    }

    #[test]
    fn malformed_requests_are_bad_requests_not_panics() {
        let g = mas_like();
        let s = svc(&g);
        for (walk, label, value) in [
            ("conf nope dom", "conf", "c0"),  // unknown label in walk
            ("conf paper dom", "nope", "c0"), // unknown query label
            ("conf paper dom", "conf", "zz"), // unknown entity
            ("conf paper dom", "dom", "d0"),  // label is not the source
        ] {
            match s.handle_rank(walk, label, value, 3, None) {
                Err(ServiceError::BadRequest(_)) => {}
                other => {
                    panic!("{walk:?}/{label:?}/{value:?}: expected bad request, got {other:?}")
                }
            }
        }
        assert_eq!(s.stats_body(0, 1).exhausted, 0);
    }

    #[test]
    fn expired_deadline_exhausts_and_trips_the_breaker() {
        let g = mas_like();
        let s = QueryService::new(
            &g,
            ServiceConfig {
                breaker: BreakerConfig {
                    threshold: 3,
                    base_ms: 10_000,
                    max_ms: 10_000,
                    jitter_seed: 1,
                },
                ..ServiceConfig::default()
            },
        );
        for i in 0..3 {
            match s.handle_rank("conf paper dom", "conf", "c0", 3, Some(0)) {
                Err(ServiceError::Exhausted(e)) => assert!(e.is_exhaustion(), "req {i}: {e}"),
                other => panic!("req {i}: expected exhausted, got {other:?}"),
            }
        }
        // Third consecutive exhaustion tripped the breaker: rejections
        // are now typed Overloaded with a retry hint, without executing.
        match s.handle_rank("conf paper dom", "conf", "c0", 3, None) {
            Err(ServiceError::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms >= 1);
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        let stats = s.stats_body(0, 1);
        assert_eq!(stats.exhausted, 3);
        assert_eq!(stats.breaker, "open");
        assert_eq!(stats.shed, 1);
        // A successful request after the cool-down closes the breaker
        // again (covered in breaker unit tests; here we only assert the
        // service wired the verdicts through).
    }

    #[test]
    fn mutate_is_visible_and_matches_a_cold_engine() {
        let g = mas_like();
        let s = svc(&g);
        // Warm the index so the mutation exercises maintenance.
        let (_, before) = s
            .handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();
        let fp0 = s.stats_body(0, 1).fingerprint.clone();

        let op = MutationOp::AddEdge {
            a: eref("paper", "p3"),
            b: eref("dom", "d0"),
        };
        let (fp1, seq, path) = s.handle_mutate(&op, None).unwrap();
        assert_ne!(fp1, fp0, "fingerprint advances");
        assert_eq!(seq, 1);
        // The warmed walk sees the new edge, so its entry is patched.
        assert_eq!(path, "patch");
        let stats = s.stats_body(0, 1);
        assert_eq!(stats.mutations, 1);
        assert_eq!(stats.fingerprint, fp1);
        assert_eq!(stats.seq, 1);

        // The served answer after the mutation is bit-identical to a
        // cold engine over the directly-built post-mutation graph.
        let (tier, after) = s
            .handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();
        assert_eq!(tier, "exact");
        assert_ne!(before, after, "the new edge changes the ranking state");
        let g2 = mutation::apply(&g, &op).unwrap();
        let cold = svc(&g2);
        let (_, expect) = cold
            .handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();
        assert_eq!(after.len(), expect.len());
        for (a, b) in after.iter().zip(&expect) {
            assert_eq!(
                (a.label.as_str(), a.value.as_str()),
                (b.label.as_str(), b.value.as_str())
            );
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "bit-identical");
        }
    }

    #[test]
    fn mutate_reinstalls_the_patched_seed_at_the_new_fingerprint() {
        let g = mas_like();
        let s = svc(&g);
        let mw = MetaWalk::parse_in(&g, "conf paper dom").unwrap();
        s.handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();
        for op in [
            MutationOp::AddEdge {
                a: eref("paper", "p3"),
                b: eref("dom", "d0"),
            },
            MutationOp::AddEntity {
                label: "conf".to_owned(),
                value: "c9".to_owned(),
            },
        ] {
            let (_, _, path) = s.handle_mutate(&op, None).unwrap();
            assert_eq!(path, "patch", "{op}");
            // The next rank finds a seed for the new epoch: the patched
            // cache matrix itself, with a diagonal equal to a cold one.
            let g2 = s.graph();
            let (m, diag) = s
                .seed_parts(&mw, graph_fingerprint(&g2))
                .expect("seed re-installed");
            let cached = s
                .state_lock()
                .peek_shared(CacheKind::Informative, &mw)
                .unwrap();
            assert!(Arc::ptr_eq(&m, &cached), "seed and cache hold one matrix");
            let cold = repsim_metawalk::informative_commuting(&g2, &mw);
            assert_eq!(*m, cold);
            let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&diag), bits(&cold.row_sq_sums()));
        }
    }

    #[test]
    fn invalid_mutations_are_bad_requests_and_change_nothing() {
        let g = mas_like();
        let s = svc(&g);
        let fp0 = s.stats_body(0, 1).fingerprint.clone();
        for op in [
            MutationOp::AddEdge {
                a: eref("paper", "nope"),
                b: eref("dom", "d0"),
            },
            MutationOp::RemoveEdge {
                a: eref("conf", "c0"),
                b: eref("conf", "c1"), // edge that does not exist
            },
            MutationOp::AddEntity {
                label: "ghost".to_owned(),
                value: "x".to_owned(),
            },
            MutationOp::AddEntity {
                label: "conf".to_owned(),
                value: "c0".to_owned(), // duplicate
            },
        ] {
            match s.handle_mutate(&op, None) {
                Err(ServiceError::BadRequest(_)) => {}
                other => panic!("{op}: expected bad request, got {other:?}"),
            }
        }
        let stats = s.stats_body(0, 1);
        assert_eq!(stats.mutations, 0);
        assert_eq!(stats.fingerprint, fp0);
    }

    #[test]
    fn mutate_exhaustions_trip_only_the_mutate_breaker() {
        let g = mas_like();
        let s = QueryService::new(
            &g,
            ServiceConfig {
                breaker: BreakerConfig {
                    threshold: 3,
                    base_ms: 10_000,
                    max_ms: 10_000,
                    jitter_seed: 1,
                },
                ..ServiceConfig::default()
            },
        );
        let op = MutationOp::AddEdge {
            a: eref("paper", "p3"),
            b: eref("dom", "d0"),
        };
        // An already-expired deadline exhausts the mutate budget before
        // the WAL or the index is touched.
        for i in 0..3 {
            match s.handle_mutate(&op, Some(0)) {
                Err(ServiceError::Exhausted(_)) => {}
                other => panic!("mutate {i}: expected exhausted, got {other:?}"),
            }
        }
        let stats = s.stats_body(0, 1);
        assert_eq!(stats.mutate_exhausted, 3, "counted apart from rank");
        assert_eq!(stats.exhausted, 0, "rank exhaustions untouched");
        assert_eq!(stats.breaker_mutate, "open");
        assert_eq!(stats.breaker, "closed", "rank class unaffected");
        // Mutations shed; ranks still answer.
        match s.handle_mutate(&op, None) {
            Err(ServiceError::Overloaded { .. }) => {}
            other => panic!("expected overloaded mutate, got {other:?}"),
        }
        let (tier, _) = s
            .handle_rank("conf paper dom", "conf", "c0", 3, None)
            .unwrap();
        assert_eq!(tier, "exact");
        assert_eq!(stats.mutations, 0, "nothing was applied");
    }

    #[test]
    fn wal_backed_mutations_replay_into_an_identical_service() {
        let g = mas_like();
        let dir = std::env::temp_dir().join(format!("repsim-svc-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("g.wal");

        let s = svc(&g);
        s.recover_wal(&wal).unwrap();
        s.handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();
        let ops = [
            MutationOp::AddEntity {
                label: "dom".to_owned(),
                value: "d2".to_owned(),
            },
            MutationOp::AddEdge {
                a: eref("paper", "p3"),
                b: eref("dom", "d2"),
            },
            MutationOp::RemoveEdge {
                a: eref("paper", "p3"),
                b: eref("dom", "d1"),
            },
        ];
        let mut last_fp = String::new();
        for op in &ops {
            let (fp, _, _) = s.handle_mutate(op, None).unwrap();
            last_fp = fp;
        }
        let (_, live) = s
            .handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();

        // A fresh service recovering the same WAL lands on the same
        // graph and serves bit-identical answers.
        let s2 = svc(&g);
        let rec = s2.recover_wal(&wal).unwrap();
        assert_eq!(rec.replayed, 3);
        assert!(!rec.torn_truncated && !rec.quarantined);
        assert_eq!(s2.stats_body(0, 1).fingerprint, last_fp);
        assert_eq!(s2.stats_body(0, 1).seq, 3);
        let (_, replayed) = s2
            .handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();
        assert_eq!(live.len(), replayed.len());
        for (a, b) in live.iter().zip(&replayed) {
            assert_eq!(
                (a.label.as_str(), a.value.as_str()),
                (b.label.as_str(), b.value.as_str())
            );
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_roundtrip_preserves_rankings_bit_for_bit() {
        let g = mas_like();
        let dir = std::env::temp_dir().join(format!("repsim-svc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.snap");

        let warm = svc(&g);
        let (_, before) = warm
            .handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();
        warm.save_snapshot(&path).unwrap();

        let cold = svc(&g);
        match cold.restore(&path).unwrap() {
            Restore::Restored { entries } => assert!(entries >= 1),
            other => panic!("expected restore, got {other:?}"),
        }
        assert!(cold.stats_body(0, 1).snapshot_restored);
        // The restored index must answer without rebuilding: give the
        // build a zero budget headroom via an immediate deadline on a
        // *cache hit* path. A hit never touches the budget.
        let (tier, after) = cold
            .handle_rank("conf paper dom", "conf", "c0", 5, None)
            .unwrap();
        assert_eq!(tier, "exact");
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(
                (a.label.as_str(), a.value.as_str()),
                (b.label.as_str(), b.value.as_str())
            );
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
