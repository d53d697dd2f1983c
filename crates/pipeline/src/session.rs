//! The [`Session`]: the single entry point for the staged evaluation
//! pipeline `workload → Trace → ProgramIr → AccelPlans → evaluation`.
//!
//! A session owns an in-memory memo (prepared workloads, oracle tables) and
//! an on-disk [`ArtifactStore`] of design-point results, both keyed by
//! content hashes of every input that affects the artifact. Stages
//! invalidate independently: changing the tracer config re-traces, changing
//! only a core config reuses every trace and recomputes only the affected
//! oracle tables and design points.
//!
//! All fan-out runs through [`parallel_map`], so results are reduced in
//! canonical (input-index) order and a `--jobs 1` run is bit-identical to a
//! `--jobs N` run.

use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use prism_exocore::{
    all_bsa_subsets, all_cores, oracle_pick, oracle_table_with, DesignPoint, DesignResult,
    OracleTable, WorkloadData, WorkloadMetrics,
};
use prism_sim::{SimSource, Trace, TraceSource, TracerConfig};
use prism_tdg::{price_exocore, run_exocore_timing, Assignment, BsaKind, ExoTiming};
use prism_udg::{simulate_reference, simulate_trace, CoreConfig, ExecBudget, NODES_PER_INST};
use prism_workloads::{Suite, Workload};

use crate::codec::{
    decode_design_result, decode_exo_timing, encode_design_result, encode_exo_timing,
};
use crate::error::{PipelineError, Stage};
use crate::fault::{crash_point, FaultPlan, Site, SITE_UNIT_COMPLETE};
use crate::hash::{ContentHash, Sha256};
use crate::journal::{sweep_key, JournalReplay, SweepJournal};
use crate::key::KeyBuilder;
use crate::par::{parallel_map, resolve_jobs};
use crate::store::{store_cap_from_env, ArtifactStore, StoreStats, GC_SAFETY_WINDOW};
use crate::sweep::SweepReport;

/// A workload prepared by a [`Session`]: its content key plus the shared
/// trace/IR/plans data. Dereferences to [`WorkloadData`].
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// Content hash of (workload name, build size, tracer config).
    pub key: ContentHash,
    /// The prepared trace, IR, and accelerator plans.
    pub data: Arc<WorkloadData>,
}

impl Deref for PreparedWorkload {
    type Target = WorkloadData;

    fn deref(&self) -> &WorkloadData {
        &self.data
    }
}

/// Aggregate cache counters for one session.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// On-disk artifact store counters.
    pub artifacts: StoreStats,
    /// In-memory memo hits (prepared workloads + oracle tables).
    pub memo_hits: u64,
    /// In-memory memo misses.
    pub memo_misses: u64,
    /// Timing requests satisfied by the in-process µDG shape memo.
    pub shape_memo_hits: u64,
    /// Timing summaries loaded from the persistent artifact store
    /// instead of recomputed.
    pub timing_artifacts_loaded: u64,
    /// Trace walks avoided (shape-memo hits + timing artifacts loaded).
    pub walks_skipped: u64,
    /// Trace walks actually performed ([`run_exocore_timing`]) for
    /// design-point timings, counted when a design point first uses the
    /// timing (also when an oracle table walked it first).
    pub trace_walks: u64,
    /// Trace walks performed for oracle tables whose timing no design
    /// point has used; `trace_walks + table_walks` is every walk
    /// performed.
    pub table_walks: u64,
    /// Timing summaries loaded from the store for oracle tables that no
    /// design point has used.
    pub table_timings_loaded: u64,
    /// Dynamic instructions produced by the functional simulator.
    pub sim_insts: u64,
    /// Wall-clock nanoseconds spent producing them.
    pub sim_nanos: u64,
    /// Wall-clock nanoseconds spent in combined-TDG trace walks (µDG
    /// timing model, [`run_exocore_timing`]).
    pub udg_nanos: u64,
    /// Wall-clock nanoseconds spent in IR reconstruction + accelerator
    /// analysis ([`WorkloadData::from_trace`]).
    pub transform_nanos: u64,
    /// Wall-clock nanoseconds spent measuring oracle tables (scheduling),
    /// excluding the trace walks (counted in `udg_nanos`) and store
    /// loads nested under them.
    pub schedule_nanos: u64,
    /// Units settled from a sweep-journal replay instead of recomputed
    /// (completed *and* quarantined units both count).
    pub resumed: u64,
    /// Journal records read during resume replays.
    pub replayed: u64,
}

impl std::ops::AddAssign for SessionStats {
    fn add_assign(&mut self, rhs: SessionStats) {
        self.artifacts += rhs.artifacts;
        self.memo_hits += rhs.memo_hits;
        self.memo_misses += rhs.memo_misses;
        self.shape_memo_hits += rhs.shape_memo_hits;
        self.timing_artifacts_loaded += rhs.timing_artifacts_loaded;
        self.walks_skipped += rhs.walks_skipped;
        self.trace_walks += rhs.trace_walks;
        self.table_walks += rhs.table_walks;
        self.table_timings_loaded += rhs.table_timings_loaded;
        self.sim_insts += rhs.sim_insts;
        self.sim_nanos += rhs.sim_nanos;
        self.udg_nanos += rhs.udg_nanos;
        self.transform_nanos += rhs.transform_nanos;
        self.schedule_nanos += rhs.schedule_nanos;
        self.resumed += rhs.resumed;
        self.replayed += rhs.replayed;
    }
}

impl SessionStats {
    /// Simulator throughput in instructions per second (0 when nothing
    /// was simulated).
    #[must_use]
    pub fn insts_per_sec(&self) -> f64 {
        if self.sim_nanos == 0 {
            return 0.0;
        }
        self.sim_insts as f64 / (self.sim_nanos as f64 / 1e9)
    }

    /// Renders the counters as a human-readable block (for `--stats`).
    #[must_use]
    pub fn render(&self) -> String {
        let a = &self.artifacts;
        format!(
            "-- session stats --\n\
             artifact store : {} hits, {} misses ({} discarded)\n\
             store I/O      : {} retries, {} errors\n\
             recomputes     : {}\n\
             memo           : {} hits, {} misses\n\
             trace walks    : {} performed, {} skipped \
             ({} shape-memo hits, {} timing artifacts loaded)\n\
             table walks    : {} performed, {} loaded\n\
             sim throughput : {} insts in {} ms ({:.0} insts/sec)\n\
             stage wall     : sim {} ms, uDG {} ms, transforms {} ms, \
             schedule {} ms\n\
             journal        : {} units resumed, {} records replayed\n\
             tmp-file GC    : {} bytes reclaimed\n",
            a.hits,
            a.misses,
            a.discarded,
            a.io_retries,
            a.io_errors,
            a.recomputes,
            self.memo_hits,
            self.memo_misses,
            self.trace_walks,
            self.walks_skipped,
            self.shape_memo_hits,
            self.timing_artifacts_loaded,
            self.table_walks,
            self.table_timings_loaded,
            self.sim_insts,
            self.sim_nanos / 1_000_000,
            self.insts_per_sec(),
            self.sim_nanos / 1_000_000,
            self.udg_nanos / 1_000_000,
            self.transform_nanos / 1_000_000,
            self.schedule_nanos / 1_000_000,
            self.resumed,
            self.replayed,
            a.gc_reclaimed_bytes,
        )
    }
}

/// Opt-in runtime guard: cross-checks the µDG timing model against the
/// cycle-stepped reference simulator on a sampled subset of
/// (workload, core) pairs, quarantining points whose relative IPC error
/// exceeds the tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivergenceGuard {
    /// Maximum tolerated relative IPC error (e.g. `0.25` = 25%).
    pub tolerance: f64,
    /// Check one in `sample` (workload, core) pairs; `1` checks them all.
    pub sample: u64,
}

impl DivergenceGuard {
    /// A guard with the given tolerance checking one in `sample` pairs.
    #[must_use]
    pub fn new(tolerance: f64, sample: u64) -> Self {
        DivergenceGuard {
            tolerance,
            sample: sample.max(1),
        }
    }

    /// Parses `PRISM_DIVERGENCE=tol[:sample]` (e.g. `0.25` or `0.25:4`).
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but does not parse.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("PRISM_DIVERGENCE").ok()?;
        let raw = raw.trim();
        if raw.is_empty() {
            return None;
        }
        let (tol, sample) = match raw.split_once(':') {
            Some((t, s)) => (t, s.parse::<u64>().ok()),
            None => (raw, Some(1)),
        };
        let (Ok(tolerance), Some(sample)) = (tol.parse::<f64>(), sample) else {
            panic!("bad PRISM_DIVERGENCE value `{raw}` (expected tol[:sample])");
        };
        Some(DivergenceGuard::new(tolerance, sample))
    }

    /// Whether this (workload key, core) pair is in the checked sample.
    /// Stable: depends only on the pair, not on sweep order or thread
    /// interleaving.
    #[must_use]
    pub fn selects(&self, workload_key: &ContentHash, core_name: &str) -> bool {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in workload_key.hex().bytes().chain(core_name.bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h.is_multiple_of(self.sample)
    }

    /// Runs both simulators on `(data, core)` and compares IPC.
    ///
    /// # Errors
    ///
    /// Returns a description of the divergence when the relative IPC error
    /// exceeds the tolerance.
    pub fn check(&self, data: &WorkloadData, core: &CoreConfig) -> Result<(), String> {
        let udg = simulate_trace(&data.trace, core);
        let reference = simulate_reference(&data.trace, core);
        let rel = (udg.ipc() - reference.ipc()).abs() / reference.ipc().max(f64::EPSILON);
        if rel > self.tolerance {
            return Err(format!(
                "uDG IPC {:.4} vs reference IPC {:.4} on {}: relative error {:.4} > tolerance {:.4}",
                udg.ipc(),
                reference.ipc(),
                core.name,
                rel,
                self.tolerance
            ));
        }
        Ok(())
    }
}

/// Renders a caught panic payload as text (the common `&str` / `String`
/// payloads; anything else becomes a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Attributes a caught panic to a stage by its message, falling back to
/// `default` (injected panics name their stage; real panics usually
/// don't).
fn panic_stage(message: &str, default: Stage) -> Stage {
    for (needle, stage) in [
        ("build stage", Stage::Build),
        ("trace stage", Stage::Trace),
        ("analyze stage", Stage::Analyze),
        ("plan stage", Stage::Plan),
        ("evaluate stage", Stage::Evaluate),
        ("store stage", Stage::Store),
    ] {
        if message.contains(needle) {
            return stage;
        }
    }
    default
}

/// Whether a design point has used a memoized trace-walk timing and, if
/// not yet, how the oracle table that asked for it got it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    /// A design point has used it; it counts under the design-point
    /// counters, and a walked one has been saved to the store.
    Point,
    /// Walked for an oracle table (counted in `table_walks`, not saved).
    TableWalked,
    /// Loaded from the store for an oracle table (counted in
    /// `table_timings_loaded`).
    TableLoaded,
}

/// One entry of the session's shape-keyed timing memo.
#[derive(Debug)]
struct MemoTiming {
    timing: Arc<ExoTiming>,
    claim: Claim,
}

/// A single-flight memo: one thread at a time builds a key's value, and
/// other callers wait for it instead of building it again. In a grid
/// worker the prewarm and evaluator threads ask for the same workloads and
/// tables; without this they would simulate a trace twice (holding two
/// copies at once) or measure a table twice.
#[derive(Debug)]
struct SingleFlight<V> {
    state: Mutex<Flights<V>>,
    settled: Condvar,
}

#[derive(Debug)]
struct Flights<V> {
    ready: HashMap<ContentHash, Arc<V>>,
    /// Keys some thread is building now.
    in_flight: HashSet<ContentHash>,
}

impl<V> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight {
            state: Mutex::new(Flights {
                ready: HashMap::new(),
                in_flight: HashSet::new(),
            }),
            settled: Condvar::new(),
        }
    }
}

impl<V> SingleFlight<V> {
    /// Poison recovery: the memo holds plain data, so a panic in some
    /// other thread that happened to hold the lock cannot have left it
    /// half-updated — recover the guard instead of cascading the panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, Flights<V>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The value under `key`: a ready one (counted in `hits`), else, once
    /// another thread's build of it settles, that build's value (also a
    /// hit), else the value `build` makes here (counted in `misses`). A
    /// build that fails or panics stores nothing and wakes the waiters,
    /// which then try `key` themselves.
    fn get_or_build<E>(
        &self,
        key: ContentHash,
        hits: &AtomicU64,
        misses: &AtomicU64,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let mut state = self.lock();
        loop {
            if let Some(value) = state.ready.get(&key) {
                hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(value));
            }
            if state.in_flight.insert(key) {
                break;
            }
            state = self.settled.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        drop(state);
        let _flight = Flight { memo: self, key };
        misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(build()?);
        self.lock().ready.insert(key, Arc::clone(&value));
        Ok(value)
    }
}

/// Clears a key's in-flight mark when its build ends, by error or panic
/// too, and wakes the waiters.
struct Flight<'m, V> {
    memo: &'m SingleFlight<V>,
    key: ContentHash,
}

impl<V> Drop for Flight<'_, V> {
    fn drop(&mut self) {
        self.memo.lock().in_flight.remove(&self.key);
        self.memo.settled.notify_all();
    }
}

/// The pipeline session: memoized stages + content-addressed artifacts +
/// deterministic parallelism.
#[derive(Debug)]
pub struct Session {
    tracer: TracerConfig,
    jobs: usize,
    store: ArtifactStore,
    store_cap: Option<u64>,
    faults: Option<Arc<FaultPlan>>,
    budget: ExecBudget,
    guard: Option<DivergenceGuard>,
    workloads: SingleFlight<WorkloadData>,
    tables: SingleFlight<OracleTable>,
    timings: Mutex<HashMap<ContentHash, MemoTiming>>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    shape_memo_hits: AtomicU64,
    timing_artifacts_loaded: AtomicU64,
    walks_skipped: AtomicU64,
    trace_walks: AtomicU64,
    table_walks: AtomicU64,
    table_timings_loaded: AtomicU64,
    sim_insts: AtomicU64,
    sim_nanos: AtomicU64,
    udg_nanos: AtomicU64,
    transform_nanos: AtomicU64,
    schedule_nanos: AtomicU64,
    resumed: AtomicU64,
    replayed: AtomicU64,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// Creates a session from the environment: default tracer config,
    /// `PRISM_JOBS` (else hardware parallelism) workers, artifacts under
    /// `PRISM_ARTIFACT_DIR` (else `target/prism-artifacts`), fault
    /// injection from `PRISM_FAULTS`, a node budget from `PRISM_MAX_NODES`,
    /// and a divergence guard from `PRISM_DIVERGENCE=tol[:sample]`.
    ///
    /// # Panics
    ///
    /// Panics when `PRISM_MAX_NODES` is set but not a number (like the
    /// other env knobs, a typo must not silently disable the budget).
    #[must_use]
    pub fn new() -> Self {
        let faults = FaultPlan::from_env();
        let budget = match std::env::var("PRISM_MAX_NODES") {
            Ok(v) => ExecBudget::new(
                v.trim()
                    .parse::<u64>()
                    .unwrap_or_else(|e| panic!("bad PRISM_MAX_NODES value `{v}`: {e}")),
            ),
            Err(_) => ExecBudget::unlimited(),
        };
        let store_cap = store_cap_from_env();
        let mut store = ArtifactStore::new(ArtifactStore::default_dir());
        store.set_faults(faults.clone());
        store.set_cap(store_cap);
        // Opportunistic repair: sweep out tmp files leaked by long-dead
        // writers. The safety window plus live-pid check make this safe
        // against concurrent sessions sharing the store.
        store.gc_tmp_files(GC_SAFETY_WINDOW);
        Session {
            tracer: TracerConfig::default(),
            jobs: resolve_jobs(None),
            store,
            store_cap,
            faults,
            budget,
            guard: DivergenceGuard::from_env(),
            workloads: SingleFlight::default(),
            tables: SingleFlight::default(),
            timings: Mutex::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            shape_memo_hits: AtomicU64::new(0),
            timing_artifacts_loaded: AtomicU64::new(0),
            walks_skipped: AtomicU64::new(0),
            trace_walks: AtomicU64::new(0),
            table_walks: AtomicU64::new(0),
            table_timings_loaded: AtomicU64::new(0),
            sim_insts: AtomicU64::new(0),
            sim_nanos: AtomicU64::new(0),
            udg_nanos: AtomicU64::new(0),
            transform_nanos: AtomicU64::new(0),
            schedule_nanos: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
        }
    }

    /// Replaces the tracer configuration (stage-1 cache key input).
    #[must_use]
    pub fn with_tracer(mut self, tracer: TracerConfig) -> Self {
        self.tracer = tracer;
        self
    }

    /// Overrides the worker count (e.g. from a `--jobs` flag).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Redirects the on-disk artifact store.
    #[must_use]
    pub fn with_store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = ArtifactStore::new(dir);
        self.store.set_faults(self.faults.clone());
        self.store.set_cap(self.store_cap);
        self.store.gc_tmp_files(GC_SAFETY_WINDOW);
        self
    }

    /// Caps the artifact store at a byte budget with LRU eviction
    /// ([`ArtifactStore::enforce_cap`]); `None` uncaps. Overrides
    /// `PRISM_STORE_CAP`. Survives a later
    /// [`with_store_dir`](Session::with_store_dir).
    #[must_use]
    pub fn with_store_cap(mut self, cap_bytes: Option<u64>) -> Self {
        self.store_cap = cap_bytes;
        self.store.set_cap(cap_bytes);
        self
    }

    /// Installs (or, with `None`, clears) a fault-injection plan, shared
    /// with the artifact store. Overrides `PRISM_FAULTS`.
    ///
    /// A session hooks only the `store.*`, `trace.truncate` and
    /// `<stage>.panic` sites. `crash.*` sites are armed through
    /// `PRISM_FAULTS` alone ([`crate::crash_point`]), and `grid.*` /
    /// `net.*` sites through the grid's and net's plan views.
    ///
    /// # Panics
    ///
    /// Panics when `faults` names any other site: the plan would inject
    /// nothing there, and a chaos run must not look healthy by accident.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        if let Some(site) = faults.iter().flat_map(|p| p.sites()).find(|site| {
            !matches!(
                site,
                Site::StoreIo | Site::StoreCorrupt | Site::TraceTruncate | Site::Panic(_)
            )
        }) {
            panic!("Session::with_faults: no session hook for fault site {site:?}");
        }
        self.store.set_faults(faults.clone());
        self.faults = faults;
        self
    }

    /// Caps every evaluation unit (oracle table, design point) at an
    /// execution budget. Overrides `PRISM_MAX_NODES`.
    #[must_use]
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs (or clears) the µDG-vs-reference divergence guard.
    /// Overrides `PRISM_DIVERGENCE`.
    #[must_use]
    pub fn with_divergence_guard(mut self, guard: Option<DivergenceGuard>) -> Self {
        self.guard = guard;
        self
    }

    /// The session's worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The session's tracer configuration.
    #[must_use]
    pub fn tracer(&self) -> &TracerConfig {
        &self.tracer
    }

    /// The content key of a registered workload at size `n` under this
    /// session's tracer config — computable without preparing anything.
    #[must_use]
    pub fn workload_key(&self, name: &str, n: u32) -> ContentHash {
        let mut kb = KeyBuilder::new("workload");
        kb.field("name", name);
        kb.field("n", n);
        kb.tracer(&self.tracer);
        kb.finish()
    }

    /// The content key of one design point over an ordered workload set.
    #[must_use]
    pub fn design_point_key(
        &self,
        workload_keys: &[ContentHash],
        core: &CoreConfig,
        bsas: &[BsaKind],
    ) -> ContentHash {
        let mut kb = KeyBuilder::new("design-result");
        kb.field("workloads", workload_keys.len());
        for (i, key) in workload_keys.iter().enumerate() {
            kb.hash_field(&format!("workload.{i}"), key);
        }
        kb.core(core);
        kb.bsas(bsas);
        kb.finish()
    }

    fn memo_workload(
        &self,
        key: ContentHash,
        name: &str,
        build: impl FnOnce() -> prism_isa::Program,
    ) -> Result<PreparedWorkload, PipelineError> {
        let data = self
            .workloads
            .get_or_build(key, &self.memo_hits, &self.memo_misses, || {
                if let Some(f) = &self.faults {
                    f.maybe_panic(Stage::Build, name);
                }
                let program = build();
                if let Some(f) = &self.faults {
                    f.maybe_panic(Stage::Trace, name);
                    if f.rolls(Site::TraceTruncate, name) {
                        return Err(PipelineError::new(
                            name,
                            Stage::Trace,
                            format!(
                                "injected fault: trace truncated before {} instructions",
                                self.tracer.max_insts
                            ),
                        ));
                    }
                }
                let trace = self.record_trace(&program, name)?;
                let started = std::time::Instant::now();
                let data = WorkloadData::from_trace(trace);
                self.transform_nanos
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Ok(data)
            })?;
        Ok(PreparedWorkload { key, data })
    }

    /// Records `program`'s trace chunk-by-chunk from the simulator,
    /// applying per-chunk fault injection (`{name}:chunk{i}` sites), and
    /// assembles the chunks into one materialized [`Trace`].
    fn record_trace(
        &self,
        program: &prism_isa::Program,
        name: &str,
    ) -> Result<Trace, PipelineError> {
        let mut source =
            SimSource::new(program, &self.tracer).map_err(|e| PipelineError::trace(name, &e))?;
        let started = std::time::Instant::now();
        let mut insts = Vec::new();
        let mut stats = prism_sim::TraceStats::default();
        loop {
            let chunk = match source.next_chunk() {
                Ok(Some(c)) => c,
                Ok(None) => break,
                Err(e) => return Err(PipelineError::trace(name, &e)),
            };
            if let Some(f) = &self.faults {
                if f.rolls(Site::TraceTruncate, &format!("{name}:chunk{}", chunk.index)) {
                    return Err(PipelineError::new(
                        name,
                        Stage::Trace,
                        format!("injected fault: trace truncated at chunk {}", chunk.index),
                    ));
                }
            }
            stats = chunk.stats;
            let last = chunk.last;
            insts.extend(chunk.insts);
            if last {
                break;
            }
        }
        self.sim_insts.fetch_add(stats.insts, Ordering::Relaxed);
        self.sim_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(Trace {
            program: program.clone(),
            insts,
            stats,
        })
    }

    /// Prepares a registered workload at its default size, multiplied by
    /// the `PRISM_SCALE` knob ([`prism_workloads::scale`]).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] naming the workload and failing stage.
    pub fn prepare(&self, workload: &Workload) -> Result<PreparedWorkload, PipelineError> {
        self.prepare_sized(workload, workload.scaled_n())
    }

    /// Prepares a registered workload at an explicit size.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] naming the workload and failing stage.
    pub fn prepare_sized(
        &self,
        workload: &Workload,
        n: u32,
    ) -> Result<PreparedWorkload, PipelineError> {
        let key = self.workload_key(workload.name, n);
        self.memo_workload(key, workload.name, || (workload.build)(n))
    }

    /// Prepares an ad-hoc program (keyed by a content hash of the program
    /// itself, so two identical programs share one preparation).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] naming the program and failing stage.
    pub fn prepare_program(
        &self,
        program: &prism_isa::Program,
    ) -> Result<PreparedWorkload, PipelineError> {
        let mut h = Sha256::new();
        h.update_str(&format!("{program:?}"));
        let mut kb = KeyBuilder::new("program");
        kb.hash_field("program", &h.finish());
        kb.tracer(&self.tracer);
        let key = kb.finish();
        self.memo_workload(key, &program.name, || program.clone())
    }

    /// Prepares a batch of workloads in parallel, preserving input order.
    ///
    /// # Errors
    ///
    /// Returns the first failure in input order.
    pub fn prepare_batch(
        &self,
        workloads: &[&Workload],
    ) -> Result<Vec<PreparedWorkload>, PipelineError> {
        parallel_map(workloads, self.jobs, |_, w| self.prepare(w))
            .into_iter()
            .collect()
    }

    /// Prepares every registered workload.
    ///
    /// # Errors
    ///
    /// Returns the first failure in registry order.
    pub fn prepare_all(&self) -> Result<Vec<PreparedWorkload>, PipelineError> {
        self.prepare_batch(&prism_workloads::ALL.iter().collect::<Vec<_>>())
    }

    /// Prepares the workloads of one suite.
    ///
    /// # Errors
    ///
    /// Returns the first failure in registry order.
    pub fn prepare_suite(&self, suite: Suite) -> Result<Vec<PreparedWorkload>, PipelineError> {
        self.prepare_batch(&prism_workloads::by_suite(suite).collect::<Vec<_>>())
    }

    /// Prepares the microbenchmark set.
    ///
    /// # Errors
    ///
    /// Returns the first failure in registry order.
    pub fn prepare_micro(&self) -> Result<Vec<PreparedWorkload>, PipelineError> {
        self.prepare_batch(&prism_workloads::MICRO.iter().collect::<Vec<_>>())
    }

    /// The oracle table for `workload` on `core`'s base configuration,
    /// memoized per (workload key, core) and metered against the session's
    /// execution budget. Concurrent callers for one table wait for a
    /// single measurement.
    ///
    /// The table's trace-walk timings come from the session's one
    /// [shape-keyed](Session::shape_key) timing memo: memo, then the
    /// store, then a walk. A timing a design point also needs is walked
    /// or loaded once and shared. Such a timing counts under the
    /// design-point counters, and a walked one is saved, only when a
    /// design point first uses it; until then it counts in
    /// [`SessionStats::table_walks`] or
    /// [`SessionStats::table_timings_loaded`]. Once the table is built,
    /// its unused timings that no BSA subset's [`oracle_pick`] on `core`
    /// selects leave the memo.
    ///
    /// # Errors
    ///
    /// Returns a budget-kind [`PipelineError`] when the table cannot be
    /// measured within the session's [`ExecBudget`].
    pub fn oracle_table(
        &self,
        workload: &PreparedWorkload,
        core: &CoreConfig,
    ) -> Result<Arc<OracleTable>, PipelineError> {
        let mut kb = KeyBuilder::new("oracle-table");
        kb.hash_field("workload", &workload.key);
        kb.core(core);
        let key = kb.finish();
        self.tables
            .get_or_build(key, &self.memo_hits, &self.memo_misses, || {
                self.measure_table(workload, core)
            })
    }

    /// Measures one oracle table over the shared timing memo (see
    /// [`Session::oracle_table`]).
    fn measure_table(
        &self,
        workload: &PreparedWorkload,
        core: &CoreConfig,
    ) -> Result<OracleTable, PipelineError> {
        let started = std::time::Instant::now();
        let mut nested = std::time::Duration::ZERO;
        let mut requested = Vec::new();
        let table = oracle_table_with(&workload.data, core, &self.budget, &mut |assignment| {
            let shape = self.shape_key(workload, core, assignment);
            requested.push(shape);
            if let Some(e) = self.timing_memo().get(&shape) {
                return Arc::clone(&e.timing);
            }
            let fetch = std::time::Instant::now();
            let (timing, claim) = match self.load_timing(&shape) {
                Some(t) => {
                    self.table_timings_loaded.fetch_add(1, Ordering::Relaxed);
                    (t, Claim::TableLoaded)
                }
                None => {
                    self.table_walks.fetch_add(1, Ordering::Relaxed);
                    (self.walk(workload, core, assignment), Claim::TableWalked)
                }
            };
            nested += fetch.elapsed();
            let mut memo = self.timing_memo();
            let entry = memo.entry(shape).or_insert(MemoTiming { timing, claim });
            Arc::clone(&entry.timing)
        });
        self.schedule_nanos.fetch_add(
            started.elapsed().saturating_sub(nested).as_nanos() as u64,
            Ordering::Relaxed,
        );
        let table = table.map_err(|e| PipelineError::budget(&workload.name, &e));
        // Drop rule: keep a table timing no design point has used only if
        // some BSA subset's pick on this core selects it. A table that
        // failed selects nothing.
        let picked: std::collections::HashSet<ContentHash> = table
            .iter()
            .flat_map(|table| {
                all_bsa_subsets().into_iter().map(|bsas| {
                    let point = DesignPoint::new(core.clone(), bsas);
                    let assignment = oracle_pick(table, &workload.data, &point.bsas);
                    self.shape_key(workload, &point.core, &assignment)
                })
            })
            .collect();
        {
            let mut memo = self.timing_memo();
            for shape in requested.iter().filter(|s| !picked.contains(s)) {
                if memo.get(shape).is_some_and(|e| e.claim != Claim::Point) {
                    memo.remove(shape);
                }
            }
        }
        table
    }

    /// The canonical **µDG shape key** of one trace-walk timing: a
    /// [`ContentHash`] over every structural feature that determines the
    /// walk — workload trace identity, the core's
    /// [timing class](CoreConfig::timing_class) (display name excluded,
    /// so variants differing only in priced parameters share one walk),
    /// the sorted transform assignment, and the execution-budget knob.
    /// Both the in-process timing memo and the persistent timing
    /// artifacts are keyed by it.
    #[must_use]
    pub fn shape_key(
        &self,
        workload: &PreparedWorkload,
        core: &CoreConfig,
        assignment: &Assignment,
    ) -> ContentHash {
        let mut kb = KeyBuilder::new("exo-timing-shape");
        kb.hash_field("workload", &workload.key);
        kb.core_timing(core);
        let mut pairs: Vec<_> = assignment.map.iter().map(|(&l, &k)| (l, k)).collect();
        pairs.sort_unstable();
        let assigned: String = pairs
            .iter()
            .map(|(l, k)| format!("{l}={};", k.code()))
            .collect();
        kb.field("assigned", assigned);
        kb.field("budget.max_nodes", self.budget.max_nodes);
        kb.finish()
    }

    /// The trace-walk timing for (workload, core variant, assignment),
    /// memoized for the session's lifetime under the [µDG shape
    /// key](Session::shape_key) and persisted to the artifact store, so a
    /// warm run loads the summary instead of walking the trace. A corrupt
    /// or stale stored timing degrades to a recompute (the store validates
    /// on load, the decoder is strict). Counts against the session's memo
    /// and walk stats and the µDG stage wall-time.
    ///
    /// The first use of a timing an oracle table walked or loaded counts
    /// as that walk or load, and saves a walked one, as if this call had
    /// made it.
    fn exo_timing(
        &self,
        workload: &PreparedWorkload,
        core: &CoreConfig,
        assignment: &Assignment,
    ) -> Arc<ExoTiming> {
        let key = self.shape_key(workload, core, assignment);
        let found = self.timing_memo().get_mut(&key).map(|e| {
            let first = std::mem::replace(&mut e.claim, Claim::Point);
            (Arc::clone(&e.timing), first)
        });
        if let Some((timing, first)) = found {
            match first {
                Claim::Point => {
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                    self.shape_memo_hits.fetch_add(1, Ordering::Relaxed);
                    self.walks_skipped.fetch_add(1, Ordering::Relaxed);
                }
                Claim::TableLoaded => {
                    self.memo_misses.fetch_add(1, Ordering::Relaxed);
                    self.table_timings_loaded.fetch_sub(1, Ordering::Relaxed);
                    self.timing_artifacts_loaded.fetch_add(1, Ordering::Relaxed);
                    self.walks_skipped.fetch_add(1, Ordering::Relaxed);
                }
                Claim::TableWalked => {
                    self.memo_misses.fetch_add(1, Ordering::Relaxed);
                    self.table_walks.fetch_sub(1, Ordering::Relaxed);
                    self.trace_walks.fetch_add(1, Ordering::Relaxed);
                    self.store.save(&key, encode_exo_timing(&timing));
                }
            }
            return timing;
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        let timing = if let Some(timing) = self.load_timing(&key) {
            self.timing_artifacts_loaded.fetch_add(1, Ordering::Relaxed);
            self.walks_skipped.fetch_add(1, Ordering::Relaxed);
            timing
        } else {
            let timing = self.walk(workload, core, assignment);
            self.trace_walks.fetch_add(1, Ordering::Relaxed);
            self.store.save(&key, encode_exo_timing(&timing));
            timing
        };
        self.timing_memo().insert(
            key,
            MemoTiming {
                timing: Arc::clone(&timing),
                claim: Claim::Point,
            },
        );
        timing
    }

    /// The shape-keyed timing memo. Poison recovery as for the workload
    /// memo: every update leaves it valid.
    fn timing_memo(&self) -> std::sync::MutexGuard<'_, HashMap<ContentHash, MemoTiming>> {
        self.timings.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A stored timing summary, or `None` on a miss or an undecodable
    /// payload.
    fn load_timing(&self, key: &ContentHash) -> Option<Arc<ExoTiming>> {
        self.store
            .load(key)
            .and_then(|payload| decode_exo_timing(&payload))
            .map(Arc::new)
    }

    /// One trace walk, timed into the µDG stage wall.
    fn walk(
        &self,
        workload: &PreparedWorkload,
        core: &CoreConfig,
        assignment: &Assignment,
    ) -> Arc<ExoTiming> {
        let started = std::time::Instant::now();
        let timing = Arc::new(run_exocore_timing(
            &workload.trace,
            &workload.ir,
            core,
            &workload.plans,
            assignment,
        ));
        self.udg_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        timing
    }

    fn evaluate_point(
        &self,
        data: &[PreparedWorkload],
        core: &CoreConfig,
        bsas: &[BsaKind],
    ) -> Result<DesignResult, PipelineError> {
        let point = DesignPoint::new(core.clone(), bsas.to_vec());
        if let Some(f) = &self.faults {
            f.maybe_panic(Stage::Evaluate, &point.label());
        }
        // One fuel meter per design point: every workload charges the µDG
        // nodes its trace walk places — also when a memo hit or a stored
        // timing skips the walk, so budget semantics do not depend on
        // what is cached.
        let mut meter = self.budget.meter();
        let mut per_workload = Vec::with_capacity(data.len());
        for w in data {
            let table = self.oracle_table(w, core)?;
            let assignment = oracle_pick(&table, &w.data, &point.bsas);
            meter
                .charge((w.trace.len() as u64).saturating_mul(NODES_PER_INST))
                .map_err(|e| PipelineError::budget(&w.name, &e))?;
            for &kind in assignment.map.values() {
                assert!(
                    point.bsas.contains(&kind),
                    "assignment to absent accelerator {kind}"
                );
            }
            let timing = self.exo_timing(w, &point.core, &assignment);
            let run = price_exocore(&timing, &point.core, &point.bsas);
            per_workload.push(WorkloadMetrics::from_run(&run, &w.name));
        }
        Ok(DesignResult {
            label: point.label(),
            core: point.core.name.clone(),
            bsas: point.bsas.iter().map(|b| b.code()).collect(),
            area_mm2: point.area_mm2(),
            per_workload,
        })
    }

    /// [`Session::evaluate_point`] behind a panic boundary: a panicking
    /// model stage becomes a typed error attributed to this design point.
    fn evaluate_point_guarded(
        &self,
        data: &[PreparedWorkload],
        core: &CoreConfig,
        bsas: &[BsaKind],
    ) -> Result<DesignResult, PipelineError> {
        match catch_unwind(AssertUnwindSafe(|| self.evaluate_point(data, core, bsas))) {
            Ok(res) => res,
            Err(payload) => {
                let label = DesignPoint::new(core.clone(), bsas.to_vec()).label();
                let msg = panic_message(payload.as_ref());
                let stage = panic_stage(&msg, Stage::Evaluate);
                Err(PipelineError::panicked(label, stage, msg))
            }
        }
    }

    /// Prepares `workloads`, isolating failures: panicking or erroring
    /// workloads are returned as `(name, error)` instead of aborting the
    /// batch. The healthy preparations keep input order.
    pub fn prepare_quarantined(
        &self,
        workloads: &[&Workload],
    ) -> (Vec<PreparedWorkload>, Vec<(String, PipelineError)>) {
        let outcomes = parallel_map(workloads, self.jobs, |_, w| {
            catch_unwind(AssertUnwindSafe(|| self.prepare(w))).unwrap_or_else(|payload| {
                let msg = panic_message(payload.as_ref());
                let stage = panic_stage(&msg, Stage::Build);
                Err(PipelineError::panicked(w.name, stage, msg))
            })
        });
        let mut healthy = Vec::new();
        let mut failed = Vec::new();
        for (w, res) in workloads.iter().zip(outcomes) {
            match res {
                Ok(p) => healthy.push(p),
                Err(e) => failed.push((w.name.to_string(), e)),
            }
        }
        (healthy, failed)
    }

    /// The Fig. 12 label of grid point `idx` (core-major order).
    fn point_label(cores: &[CoreConfig], subsets: &[Vec<BsaKind>], idx: usize) -> String {
        let (c, s) = (idx / subsets.len(), idx % subsets.len());
        DesignPoint::new(cores[c].clone(), subsets[s].clone()).label()
    }

    /// Evaluates the grid points named by `missing` (indices in core-major
    /// order) with failure isolation, returning `(index, outcome)` pairs in
    /// input order. Applies the divergence guard, prefills oracle tables,
    /// and quarantines per point. `on_unit` runs inside the evaluation
    /// fan-out as each unit settles — the durability hook (store save +
    /// journal append) for callers that persist incrementally.
    fn run_points(
        &self,
        data: &[PreparedWorkload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
        missing: &[usize],
        on_unit: &(dyn Fn(usize, &Result<DesignResult, PipelineError>) + Sync),
    ) -> Vec<(usize, Result<DesignResult, PipelineError>)> {
        // Cores that still have work (missing is sorted, so dedup works).
        let mut core_ids: Vec<usize> = missing.iter().map(|&i| i / subsets.len()).collect();
        core_ids.dedup();

        // Divergence guard: cross-check sampled (workload, core) pairs
        // against the reference simulator; a diverging pair quarantines
        // every point of that core.
        let mut core_block: Vec<Option<PipelineError>> = vec![None; cores.len()];
        if let Some(g) = self.guard {
            let pairs: Vec<(usize, usize)> = core_ids
                .iter()
                .flat_map(|&c| (0..data.len()).map(move |w| (c, w)))
                .filter(|&(c, w)| g.selects(&data[w].key, &cores[c].name))
                .collect();
            let bad = parallel_map(&pairs, self.jobs, |_, &(c, w)| {
                g.check(&data[w], &cores[c])
                    .err()
                    .map(|m| (c, PipelineError::diverged(&data[w].name, m)))
            });
            for (c, e) in bad.into_iter().flatten() {
                core_block[c].get_or_insert(e);
            }
        }

        // Prefill the oracle-table memo over (core × workload); failures
        // here resurface (typed) when the point is evaluated.
        let pairs: Vec<(usize, usize)> = core_ids
            .iter()
            .filter(|&&c| core_block[c].is_none())
            .flat_map(|&c| (0..data.len()).map(move |w| (c, w)))
            .collect();
        parallel_map(&pairs, self.jobs, |_, &(c, w)| {
            let _ = catch_unwind(AssertUnwindSafe(|| self.oracle_table(&data[w], &cores[c])));
        });

        // Prefill the trace-walk timing memo over the *distinct*
        // (workload, core variant, assignment) triples of the missing
        // points, so parallel point evaluation hits the memo instead of
        // racing to redo identical walks. Errors are ignored here; they
        // resurface (typed) when the point is evaluated.
        let mut seen = std::collections::HashSet::new();
        let mut walks: Vec<(usize, CoreConfig, Assignment)> = Vec::new();
        for &idx in missing {
            let (c, s) = (idx / subsets.len(), idx % subsets.len());
            if core_block[c].is_some() {
                continue;
            }
            let point = DesignPoint::new(cores[c].clone(), subsets[s].clone());
            for (wi, w) in data.iter().enumerate() {
                let Ok(table) = self.oracle_table(w, &cores[c]) else {
                    continue;
                };
                let assignment = oracle_pick(&table, &w.data, &point.bsas);
                if seen.insert(self.shape_key(w, &point.core, &assignment)) {
                    walks.push((wi, point.core.clone(), assignment));
                }
            }
        }
        parallel_map(&walks, self.jobs, |_, (wi, core, assignment)| {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                self.exo_timing(&data[*wi], core, assignment)
            }));
        });

        // Evaluate every missing point; tables now come from the memo.
        parallel_map(missing, self.jobs, |_, &idx| {
            let (c, s) = (idx / subsets.len(), idx % subsets.len());
            let res = match &core_block[c] {
                Some(e) => Err(e.clone()),
                None => self.evaluate_point_guarded(data, &cores[c], &subsets[s]),
            };
            on_unit(idx, &res);
            (idx, res)
        })
    }

    /// Evaluates every (core × BSA-subset) design point over `data`,
    /// in canonical core-major order, isolating failures: points whose
    /// evaluation panics, blows the execution budget, or diverges from the
    /// reference simulator land in [`SweepReport::quarantined`] while every
    /// healthy point still produces a result. Oracle tables are measured
    /// once per (workload, base core) and shared across that core's
    /// subsets. Work is distributed over [`Session::jobs`] threads; the
    /// report (sorted by unit key) is independent of the job count.
    #[must_use]
    pub fn explore_grid(
        &self,
        data: &[PreparedWorkload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
    ) -> SweepReport {
        let all: Vec<usize> = (0..cores.len() * subsets.len()).collect();
        let mut report = SweepReport::default();
        for (idx, res) in self.run_points(data, cores, subsets, &all, &|_, _| {}) {
            match res {
                Ok(r) => report.results.push(r),
                Err(e) => report
                    .quarantined
                    .push((Self::point_label(cores, subsets, idx), e)),
            }
        }
        report.sort_units();
        report
    }

    /// [`Session::explore_grid`] over the paper's full 64-point space
    /// (4 cores × 16 BSA subsets).
    #[must_use]
    pub fn explore(&self, data: &[PreparedWorkload]) -> SweepReport {
        self.explore_grid(data, &all_cores(), &all_bsa_subsets())
    }

    /// The fault-isolated, artifact-backed design-space sweep: design
    /// points already on disk are loaded instead of recomputed, workloads
    /// are prepared (with quarantine) only if at least one point is
    /// missing, and every failure — workload preparation, stage panic,
    /// budget, store I/O, divergence — quarantines the smallest unit it
    /// affects instead of aborting the sweep. A fully cached run does no
    /// tracing at all.
    ///
    /// When workloads are quarantined, the surviving points are keyed (and
    /// cached) over the healthy workload subset, so their artifacts are
    /// distinct from full-set results and a later healthy run recomputes
    /// the full set.
    #[must_use]
    pub fn evaluate_designs(
        &self,
        workloads: &[&Workload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
    ) -> SweepReport {
        self.evaluate_designs_inner(workloads, cores, subsets, None)
    }

    /// [`Session::evaluate_designs`] with a sweep journal: every settled
    /// unit is appended to an on-disk WAL, and with `resume` the existing
    /// journal is replayed first — journaled units are never recomputed,
    /// and the report is identical to an uninterrupted run. Journal I/O
    /// failures degrade to an unjournaled sweep with a warning; they never
    /// fail the sweep itself.
    #[must_use]
    pub fn evaluate_designs_resumable(
        &self,
        workloads: &[&Workload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
        resume: bool,
    ) -> SweepReport {
        let wl: Vec<(String, u32)> = workloads
            .iter()
            .map(|w| (w.name.to_string(), w.scaled_n()))
            .collect();
        let sweep = sweep_key(&wl, &self.tracer, cores, subsets);
        match SweepJournal::open(self.store.dir(), &sweep, resume) {
            Ok(journal) => self.evaluate_designs_inner(workloads, cores, subsets, Some(journal)),
            Err(e) => {
                eprintln!(
                    "[prism-pipeline] sweep journal unavailable ({e}); \
                     running unjournaled"
                );
                self.evaluate_designs_inner(workloads, cores, subsets, None)
            }
        }
    }

    fn evaluate_designs_inner(
        &self,
        workloads: &[&Workload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
        journal: Option<(SweepJournal, JournalReplay)>,
    ) -> SweepReport {
        let mut report = SweepReport::default();
        let total = cores.len() * subsets.len();
        let mut results: Vec<Option<DesignResult>> = vec![None; total];
        // `settled[i]`: the journal already decided unit i (done or
        // quarantined) — never recompute it, never re-journal it.
        let mut settled = vec![false; total];
        let mut from_replay = vec![false; total];
        let (journal, replay) = match journal {
            Some((j, r)) => (Some(j), r),
            None => (None, JournalReplay::default()),
        };
        if replay.records > 0 {
            let label_to_idx: HashMap<String, usize> = (0..total)
                .map(|i| (Self::point_label(cores, subsets, i), i))
                .collect();
            for (unit, result) in &replay.done {
                // Units the current space doesn't contain (journal from a
                // colliding-but-different sweep cannot happen — the sweep
                // key covers the space — so this is purely defensive).
                let Some(&idx) = label_to_idx.get(unit) else {
                    continue;
                };
                results[idx] = Some(result.clone());
                settled[idx] = true;
                from_replay[idx] = true;
                self.resumed.fetch_add(1, Ordering::Relaxed);
            }
            for (unit, error) in &replay.quarantined {
                let Some(&idx) = label_to_idx.get(unit) else {
                    continue;
                };
                report.quarantined.push((unit.clone(), error.clone()));
                settled[idx] = true;
                from_replay[idx] = true;
                self.resumed.fetch_add(1, Ordering::Relaxed);
            }
            self.replayed.fetch_add(replay.records, Ordering::Relaxed);
        }

        // Fast path: everything cached under the full workload set (or
        // settled by the journal) — no preparation needed at all.
        let full_keys: Vec<ContentHash> = workloads
            .iter()
            .map(|w| self.workload_key(w.name, w.scaled_n()))
            .collect();
        for (i, cached) in self
            .load_cached_except(&full_keys, cores, subsets, &settled)
            .into_iter()
            .enumerate()
        {
            if !settled[i] {
                results[i] = cached;
            }
        }
        if (0..total).all(|i| settled[i] || results[i].is_some()) {
            report.results = results.into_iter().flatten().collect();
            report.sort_units();
            Self::finish_journal(journal, &report);
            return report;
        }

        // Prepare with quarantine; failed workloads drop out of the sweep.
        let (data, failed) = self.prepare_quarantined(workloads);
        for (name, err) in failed {
            report.quarantined.push((format!("workload:{name}"), err));
        }
        if data.is_empty() {
            report.sort_units();
            Self::finish_journal(journal, &report);
            return report;
        }
        let healthy_keys: Vec<ContentHash> = data.iter().map(|p| p.key).collect();
        if data.len() != workloads.len() {
            // The cache above was keyed over the full set; re-key over the
            // healthy subset. Journal-replayed units stay settled — under
            // the deterministic fault plans the same workloads fail on
            // every run, so replayed results match what this run would
            // compute.
            let rekeyed = self.load_cached_except(&healthy_keys, cores, subsets, &settled);
            for (i, cached) in rekeyed.into_iter().enumerate() {
                if !from_replay[i] {
                    results[i] = cached;
                }
            }
        }
        let point_keys: Vec<ContentHash> = {
            let mut keys = Vec::with_capacity(total);
            for core in cores {
                for bsas in subsets {
                    keys.push(self.design_point_key(&healthy_keys, core, bsas));
                }
            }
            keys
        };

        let missing: Vec<usize> = (0..total)
            .filter(|&i| !settled[i] && results[i].is_none())
            .collect();
        // Durability hook, run as each unit settles: persist the result
        // artifact first, then journal the unit. Ordering matters — a
        // `done` record must always refer to an artifact that is already
        // on disk, so a resume never recomputes a journaled-done unit.
        let on_unit = |idx: usize, res: &Result<DesignResult, PipelineError>| {
            match res {
                Ok(r) => {
                    self.store.save(&point_keys[idx], encode_design_result(r));
                    if let Some(j) = &journal {
                        if let Err(e) = j.append_done(&Self::point_label(cores, subsets, idx), r) {
                            eprintln!("[prism-pipeline] journal append failed: {e}");
                        }
                    }
                }
                Err(e) => {
                    if let Some(j) = &journal {
                        if let Err(we) =
                            j.append_quarantined(&Self::point_label(cores, subsets, idx), e)
                        {
                            eprintln!("[prism-pipeline] journal append failed: {we}");
                        }
                    }
                }
            }
            crash_point(SITE_UNIT_COMPLETE);
        };
        for (idx, res) in self.run_points(&data, cores, subsets, &missing, &on_unit) {
            match res {
                Ok(r) => results[idx] = Some(r),
                Err(e) => report
                    .quarantined
                    .push((Self::point_label(cores, subsets, idx), e)),
            }
        }
        report.results = results.into_iter().flatten().collect();
        report.sort_units();
        Self::finish_journal(journal, &report);
        report
    }

    /// Removes a finished sweep's journal when nothing remains to resume.
    /// A journal with quarantined units is kept: `--resume` then replays
    /// the identical errors instead of re-running known-bad units.
    fn finish_journal(journal: Option<SweepJournal>, report: &SweepReport) {
        if let Some(j) = journal {
            if report.quarantined.is_empty() {
                if let Err(e) = j.remove() {
                    eprintln!("[prism-pipeline] could not remove finished journal: {e}");
                }
            }
        }
    }

    /// Loads every (core × subset) design point keyed over `wkeys` from the
    /// artifact store (`None` per point on miss), skipping indices where
    /// `skip` is set (journal-settled units never touch the store).
    fn load_cached_except(
        &self,
        wkeys: &[ContentHash],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
        skip: &[bool],
    ) -> Vec<Option<DesignResult>> {
        let mut out = Vec::with_capacity(cores.len() * subsets.len());
        for core in cores {
            for bsas in subsets {
                if skip[out.len()] {
                    out.push(None);
                    continue;
                }
                let key = self.design_point_key(wkeys, core, bsas);
                out.push(
                    self.store
                        .load(&key)
                        .and_then(|payload| decode_design_result(&payload)),
                );
            }
        }
        out
    }

    /// Like [`Session::evaluate_designs`], for callers that treat any
    /// quarantine as fatal.
    ///
    /// # Errors
    ///
    /// Returns the first quarantined failure when one exists.
    pub fn explore_grid_cached(
        &self,
        workloads: &[&Workload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
    ) -> Result<Vec<DesignResult>, PipelineError> {
        self.evaluate_designs(workloads, cores, subsets)
            .into_strict()
    }

    /// The full 64-point exploration over every registered workload,
    /// backed by the artifact store, with failure isolation.
    #[must_use]
    pub fn full_design_space(&self) -> SweepReport {
        let workloads: Vec<&Workload> = prism_workloads::ALL.iter().collect();
        self.evaluate_designs(&workloads, &all_cores(), &all_bsa_subsets())
    }

    /// [`Session::full_design_space`] with a sweep journal; with `resume`,
    /// a previous interrupted run's journal is replayed first.
    #[must_use]
    pub fn full_design_space_resumable(&self, resume: bool) -> SweepReport {
        let workloads: Vec<&Workload> = prism_workloads::ALL.iter().collect();
        self.evaluate_designs_resumable(&workloads, &all_cores(), &all_bsa_subsets(), resume)
    }

    /// Current cache counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            artifacts: self.store.stats(),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
            shape_memo_hits: self.shape_memo_hits.load(Ordering::Relaxed),
            timing_artifacts_loaded: self.timing_artifacts_loaded.load(Ordering::Relaxed),
            walks_skipped: self.walks_skipped.load(Ordering::Relaxed),
            trace_walks: self.trace_walks.load(Ordering::Relaxed),
            table_walks: self.table_walks.load(Ordering::Relaxed),
            table_timings_loaded: self.table_timings_loaded.load(Ordering::Relaxed),
            sim_insts: self.sim_insts.load(Ordering::Relaxed),
            sim_nanos: self.sim_nanos.load(Ordering::Relaxed),
            udg_nanos: self.udg_nanos.load(Ordering::Relaxed),
            transform_nanos: self.transform_nanos.load(Ordering::Relaxed),
            schedule_nanos: self.schedule_nanos.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_tracer() -> TracerConfig {
        TracerConfig {
            max_insts: 20_000,
            ..TracerConfig::default()
        }
    }

    /// A session insulated from ambient env knobs (`PRISM_FAULTS` etc.),
    /// so these tests stay deterministic under the CI fault matrix.
    fn clean_session() -> Session {
        Session::new()
            .with_tracer(quick_tracer())
            .with_jobs(1)
            .with_faults(None)
            .with_budget(ExecBudget::unlimited())
            .with_divergence_guard(None)
    }

    #[test]
    #[should_panic(expected = "no session hook for fault site")]
    fn with_faults_rejects_sites_the_session_never_hooks() {
        let plan = FaultPlan::parse("store.io~0.1,crash.store-put@1").unwrap();
        let _ = clean_session().with_faults(Some(Arc::new(plan)));
    }

    #[test]
    fn prepare_memoizes_by_content_key() {
        let session = clean_session();
        let w = &prism_workloads::MICRO[0];
        let a = session.prepare(w).expect("prepare");
        let b = session.prepare(w).expect("prepare");
        assert!(
            Arc::ptr_eq(&a.data, &b.data),
            "second prepare must hit the memo"
        );
        let s = session.stats();
        assert_eq!((s.memo_hits, s.memo_misses), (1, 1));
    }

    /// Runs `f` on `threads` threads released together by a barrier.
    fn together<R: Send>(threads: usize, f: impl Fn() -> R + Sync) -> Vec<R> {
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        f()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("thread panicked"))
                .collect()
        })
    }

    #[test]
    fn concurrent_prepares_of_one_workload_simulate_it_once() {
        let session = clean_session();
        let w = &prism_workloads::MICRO[0];
        let prepared = together(4, || session.prepare(w).expect("prepare"));
        assert!(prepared
            .iter()
            .all(|p| Arc::ptr_eq(&p.data, &prepared[0].data)));
        let s = session.stats();
        assert_eq!((s.memo_hits, s.memo_misses), (3, 1));
        assert_eq!(s.sim_insts, prepared[0].trace.len() as u64);
    }

    #[test]
    fn a_panicking_prepare_releases_its_waiters() {
        let plan = FaultPlan::parse("build.panic@1").expect("valid spec");
        let session = clean_session().with_faults(Some(Arc::new(plan)));
        let w = &prism_workloads::MICRO[0];
        let ok = together(2, || {
            catch_unwind(AssertUnwindSafe(|| session.prepare(w))).is_ok_and(|r| r.is_ok())
        });
        // One caller takes the injected panic; the other then prepares
        // the workload itself instead of waiting forever.
        assert_eq!(ok.iter().filter(|&&ok| ok).count(), 1, "{ok:?}");
        assert_eq!(session.stats().memo_misses, 2);
    }

    #[test]
    fn workload_key_depends_on_tracer_and_size() {
        let a = Session::new().with_tracer(quick_tracer());
        let b = Session::new().with_tracer(TracerConfig {
            max_insts: 40_000,
            ..quick_tracer()
        });
        assert_ne!(a.workload_key("x", 100), b.workload_key("x", 100));
        assert_ne!(a.workload_key("x", 100), a.workload_key("x", 101));
        assert_ne!(a.workload_key("x", 100), a.workload_key("y", 100));
        assert_eq!(a.workload_key("x", 100), a.workload_key("x", 100));
    }

    #[test]
    fn prepare_program_shares_identical_programs() {
        let session = clean_session();
        let w = &prism_workloads::MICRO[0];
        let p1 = (w.build)(64);
        let p2 = (w.build)(64);
        let a = session.prepare_program(&p1).expect("prepare");
        let b = session.prepare_program(&p2).expect("prepare");
        assert!(Arc::ptr_eq(&a.data, &b.data));
    }

    #[test]
    fn oracle_tables_are_memoized_per_core() {
        let session = clean_session();
        let w = &prism_workloads::MICRO[0];
        let prepared = session.prepare(w).expect("prepare");
        let t1 = session
            .oracle_table(&prepared, &CoreConfig::ooo2())
            .unwrap();
        let t2 = session
            .oracle_table(&prepared, &CoreConfig::ooo2())
            .unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        let t3 = session
            .oracle_table(&prepared, &CoreConfig::ooo4())
            .unwrap();
        assert!(!Arc::ptr_eq(&t1, &t3));
    }

    #[test]
    fn oracle_table_keeps_only_timings_a_subset_can_pick() {
        let dir = std::env::temp_dir().join(format!("prism-session-drop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = clean_session().with_store_dir(&dir);
        let core = CoreConfig::ooo2();
        // The table's baseline and candidates are single-loop (or empty)
        // assignments on `core`; of those, only the picks of subsets
        // without SIMD (which keeps the core's timing class) stay. Use a
        // kernel with candidates that no such subset picks.
        let prepared = prism_workloads::MICRO
            .iter()
            .map(|w| session.prepare(w).expect("prepare"))
            .find(|p| {
                let table = prism_exocore::oracle_table(&p.data, &core);
                let picked: std::collections::HashSet<String> = all_bsa_subsets()
                    .iter()
                    .filter(|b| !b.contains(&BsaKind::Simd))
                    .map(|b| format!("{:?}", oracle_pick(&table, &p.data, b).map))
                    .collect();
                picked.len() < 1 + table.candidates.len()
            })
            .expect("a kernel with table timings no subset picks");
        let table = session.oracle_table(&prepared, &core).expect("table");
        let requests = 1 + table.candidates.len() as u64;
        let s = session.stats();
        assert_eq!((s.trace_walks, s.table_walks), (0, requests), "{s:?}");

        let picks: std::collections::HashSet<ContentHash> = all_bsa_subsets()
            .into_iter()
            .map(|bsas| {
                let point = DesignPoint::new(core.clone(), bsas);
                let a = oracle_pick(&table, &prepared.data, &point.bsas);
                session.shape_key(&prepared, &point.core, &a)
            })
            .collect();
        let unclaimed: Vec<ContentHash> = session
            .timing_memo()
            .iter()
            .filter(|(_, e)| e.claim != Claim::Point)
            .map(|(k, _)| *k)
            .collect();
        assert!(
            (unclaimed.len() as u64) < requests,
            "unpicked table timings must leave the memo"
        );
        assert!(unclaimed.iter().all(|k| picks.contains(k)));

        // The no-SIMD points run on the table's own core: every timing
        // they need is a kept table timing, claimed without a new walk.
        let no_simd: Vec<Vec<BsaKind>> = all_bsa_subsets()
            .into_iter()
            .filter(|b| !b.contains(&BsaKind::Simd))
            .collect();
        let shared: std::collections::HashSet<ContentHash> = no_simd
            .iter()
            .map(|b| {
                let a = oracle_pick(&table, &prepared.data, b);
                session.shape_key(&prepared, &core, &a)
            })
            .collect();
        let report = session.explore_grid(std::slice::from_ref(&prepared), &[core], &no_simd);
        assert!(report.quarantined.is_empty());
        let after = session.stats();
        assert_eq!(after.trace_walks, shared.len() as u64, "{after:?}");
        assert_eq!(
            after.trace_walks + after.table_walks,
            requests,
            "claiming must not re-walk: {after:?}"
        );
        // Claimed walks are saved; the table's own never are.
        assert_eq!(after.artifacts.recomputes, after.trace_walks, "{after:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_table_budget_errors_are_typed() {
        let session = clean_session().with_budget(ExecBudget::new(10));
        let w = &prism_workloads::MICRO[0];
        let prepared = session.prepare(w).expect("prepare");
        let err = session
            .oracle_table(&prepared, &CoreConfig::ooo2())
            .expect_err("10-node budget cannot measure a table");
        assert_eq!(err.kind, crate::error::ErrorKind::BudgetExceeded);
        assert_eq!(err.workload, w.name);
    }

    #[test]
    fn concurrent_oracle_tables_of_one_core_are_measured_once() {
        let session = clean_session();
        let prepared = session
            .prepare(&prism_workloads::MICRO[0])
            .expect("prepare");
        let core = CoreConfig::ooo2();
        let tables = together(4, || session.oracle_table(&prepared, &core).expect("table"));
        assert!(tables.iter().all(|t| Arc::ptr_eq(t, &tables[0])));
        let s = session.stats();
        // One miss for the prepare, one for the table; three table hits.
        assert_eq!((s.memo_hits, s.memo_misses), (3, 2), "{s:?}");
        // Each of the table's timings is fetched once: walked, or loaded
        // from the store other tests share.
        assert_eq!(
            s.table_walks + s.table_timings_loaded,
            1 + tables[0].candidates.len() as u64,
            "{s:?}"
        );
    }

    #[test]
    fn an_over_budget_table_releases_its_waiters() {
        let session = clean_session().with_budget(ExecBudget::new(10));
        let prepared = session
            .prepare(&prism_workloads::MICRO[0])
            .expect("prepare");
        let core = CoreConfig::ooo2();
        let errs = together(2, || session.oracle_table(&prepared, &core).is_err());
        // Nothing is memoized for a failed build: each caller measures
        // (and fails) itself instead of waiting forever.
        assert_eq!(errs, [true, true]);
        assert_eq!(session.stats().memo_misses, 3);
    }

    #[test]
    fn a_panicking_build_releases_its_waiters() {
        let memo = SingleFlight::<u32>::default();
        let (hits, misses) = (AtomicU64::new(0), AtomicU64::new(0));
        let key = KeyBuilder::new("single-flight").finish();
        let (started, building) = std::sync::mpsc::channel();
        let get = |value: u32| {
            memo.get_or_build(key, &hits, &misses, || -> Result<u32, ()> {
                let _ = started.send(());
                assert_ne!(value, 0, "injected build panic");
                Ok(value)
            })
        };
        std::thread::scope(|scope| {
            let panicking = scope.spawn(|| catch_unwind(AssertUnwindSafe(|| get(0))));
            building.recv().expect("first build started");
            // The first build has claimed the key. Whether this caller
            // waits for it or arrives after its panic, an in-flight mark
            // the panic left behind would block it forever; cleared, it
            // builds the value itself.
            assert_eq!(get(7).map(|v| *v), Ok(7));
            assert!(panicking.join().expect("joined").is_err());
        });
        assert_eq!(misses.load(Ordering::Relaxed), 2);
        assert_eq!(
            memo.get_or_build(key, &hits, &misses, || Err(())),
            Ok(Arc::new(7))
        );
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn divergence_guard_env_parsing() {
        assert_eq!(
            DivergenceGuard::new(0.25, 0),
            DivergenceGuard {
                tolerance: 0.25,
                sample: 1
            }
        );
        // selects() is stable and sample=1 selects everything.
        let g = DivergenceGuard::new(0.1, 1);
        let key = {
            let mut kb = KeyBuilder::new("t");
            kb.field("x", 1u32);
            kb.finish()
        };
        assert!(g.selects(&key, "OOO2"));
        let sparse = DivergenceGuard::new(0.1, 1_000_000_007);
        assert!(!sparse.selects(&key, "OOO2") || !sparse.selects(&key, "OOO4"));
    }

    #[test]
    fn panic_stage_attribution_reads_the_message() {
        assert_eq!(
            panic_stage("injected fault: trace stage panic at fft", Stage::Build),
            Stage::Trace
        );
        assert_eq!(
            panic_stage("index out of bounds: the len is 3", Stage::Evaluate),
            Stage::Evaluate
        );
    }
}
