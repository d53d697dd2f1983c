//! The grid coordinator: partitions the design-point unit space across a
//! fleet of workers — local subprocesses and/or remote TCP daemons —
//! supervises them by heartbeat, retries quarantined units on a
//! different shard, reassigns the in-flight units of dead workers, and
//! merges every shard's [`SweepReport`] into one.
//!
//! Local workers are re-invocations of the current executable with
//! `PRISM_GRID_WORKER=1` (see [`crate::worker`]); they share one
//! content-addressed artifact store, whose write-then-rename protocol
//! with per-process temp names makes concurrent writers safe. Remote
//! workers (`prism worker --listen`, reached via
//! [`GridConfig::hosts`]) have their *own* store; the v2 protocol ships
//! result artifacts back by content hash, and anything not shipped is
//! simply recomputed from the journal on resume. Because every unit is
//! keyed identically in every process, a grid run and a single-process
//! run produce byte-identical merged reports (after
//! [`SweepReport::normalize`]) on a healthy fleet — wherever the shards
//! ran.
//!
//! A worker that dies or disconnects mid-unit leaves a synthetic
//! quarantine entry behind; when the reassigned unit later succeeds,
//! normalization promotes it to [`SweepReport::recovered`], so fleet
//! trouble is visible in the merged report without changing its results.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::process::Command;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use prism_exocore::{all_bsa_subsets, all_cores, DesignPoint};
use prism_net::{
    DeadLink, HostSpec, LinkEvent, NetFaultPlan, ShardLink, StdioLink, TcpLink, NET_TOKEN_ENV,
};
use prism_pipeline::{
    crash_point, sweep_key, ArtifactStore, ContentHash, FaultPlan, PipelineError, Session, Stage,
    SweepJournal, SweepReport, GC_SAFETY_WINDOW, SITE_GRID_FRAME,
};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::CoreConfig;
use prism_workloads::Workload;

use crate::proto::{FromWorker, ToWorker, PROTO_VERSION};
use crate::worker::{SHARD_ENV, WORKER_ENV};
use crate::WORKERS_ENV;

/// Environment variable overriding the heartbeat timeout, in integer
/// milliseconds (e.g. `PRISM_GRID_TIMEOUT_MS=2000`). Useful on loaded CI
/// machines where a healthy worker can stall past the default 10 s.
pub const GRID_TIMEOUT_ENV: &str = "PRISM_GRID_TIMEOUT_MS";

/// How many times one remote link is redialed over a run before its
/// shard slot is given up for dead. Each attempt is itself a bounded
/// backoff dial sequence (see [`prism_net::RECONNECT_ATTEMPTS`]).
const LINK_RECONNECTS: u32 = 3;

/// Parses a heartbeat-timeout override (integer milliseconds, ≥ 1).
///
/// # Errors
///
/// Describes the malformed value; front-ends treat that as fatal
/// misconfiguration rather than silently falling back to the default.
pub fn parse_grid_timeout(raw: &str) -> Result<Duration, String> {
    let ms: u64 = raw
        .trim()
        .parse()
        .map_err(|_| format!("{GRID_TIMEOUT_ENV} must be integer milliseconds, got `{raw}`"))?;
    if ms == 0 {
        return Err(format!("{GRID_TIMEOUT_ENV} must be at least 1 ms"));
    }
    Ok(Duration::from_millis(ms))
}

/// The heartbeat timeout from `PRISM_GRID_TIMEOUT_MS`, defaulting to 10 s
/// when unset or empty. Panics on a malformed value (matching the other
/// `PRISM_*` knobs: fail loudly rather than run with a surprise default).
fn grid_timeout_from_env() -> Duration {
    match std::env::var(GRID_TIMEOUT_ENV) {
        Ok(raw) if !raw.trim().is_empty() => {
            parse_grid_timeout(&raw).unwrap_or_else(|e| panic!("{e}"))
        }
        _ => Duration::from_secs(10),
    }
}

/// Configuration for one grid run.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Local worker processes to spawn (shards `0..workers`).
    pub workers: usize,
    /// Remote worker daemons to connect to; each occupies one shard slot
    /// after the local ones (shards `workers..workers + hosts.len()`).
    pub hosts: Vec<HostSpec>,
    /// How many times a quarantined unit is retried on a *different*
    /// shard before its quarantine becomes permanent.
    pub shard_retries: usize,
    /// Workload names, resolved against the registry in each worker.
    pub workloads: Vec<String>,
    /// Cores of the design grid (must be registry cores — IO2, OOO2,
    /// OOO4, OOO6 — since assignments name them over the wire).
    pub cores: Vec<CoreConfig>,
    /// BSA subsets of the design grid.
    pub subsets: Vec<Vec<BsaKind>>,
    /// Tracer instruction limit shared by every shard.
    pub max_insts: u64,
    /// Content-addressed artifact store shared by every *local* shard
    /// (remote daemons use their own).
    pub artifact_dir: PathBuf,
    /// Worker executable; defaults to the current executable.
    pub worker_cmd: Option<PathBuf>,
    /// A worker silent for this long is presumed dead and killed.
    pub heartbeat_timeout: Duration,
    /// Outstanding assignments per worker: 2 keeps the next unit's
    /// prepare phase overlapping the current unit's evaluate phase.
    pub window: usize,
    /// Extra environment for workers (test hook, e.g. grid faults).
    pub env: Vec<(String, String)>,
    /// Environment variables removed from workers (test hook).
    pub env_remove: Vec<String>,
    /// Injected network fault plan applied to remote links.
    pub net_faults: NetFaultPlan,
    /// Replay this sweep's journal and skip units it records as settled
    /// (the `--resume` flag). A fresh run truncates any prior journal.
    pub resume: bool,
}

impl GridConfig {
    /// The paper's full design space (every registered workload over
    /// 4 cores × 16 BSA subsets) on `workers` shards, with defaults
    /// matching a single-process [`Session`] run.
    #[must_use]
    pub fn full_space(workers: usize) -> Self {
        GridConfig {
            workers,
            hosts: Vec::new(),
            shard_retries: 1,
            workloads: prism_workloads::ALL
                .iter()
                .map(|w| w.name.to_string())
                .collect(),
            cores: all_cores(),
            subsets: all_bsa_subsets(),
            max_insts: TracerConfig::default().max_insts,
            artifact_dir: ArtifactStore::default_dir(),
            worker_cmd: None,
            heartbeat_timeout: grid_timeout_from_env(),
            window: 2,
            env: Vec::new(),
            env_remove: Vec::new(),
            net_faults: NetFaultPlan(FaultPlan::from_env()),
            resume: false,
        }
    }
}

/// Per-remote-host counters (one entry per [`GridConfig::hosts`] slot).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostStats {
    /// The host as given (`host:port`).
    pub addr: String,
    /// Units this host settled (result or quarantine).
    pub units: usize,
    /// In-flight units recovered from this host's deaths/disconnects.
    pub recoveries: usize,
    /// Successful link reconnects.
    pub reconnects: usize,
    /// Artifact bytes shipped over this link (both directions).
    pub bytes_shipped: u64,
    /// Trace walks this host performed (from its `Bye` counters).
    pub walks: u64,
    /// Walks this host skipped via the timing-reuse layer.
    pub walks_skipped: u64,
    /// In-memory shape-keyed timing memo hits on this host.
    pub shape_memo_hits: u64,
    /// Timing summaries this host loaded from its artifact store.
    pub timing_artifacts_loaded: u64,
}

/// Counters describing how a grid run went.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Worker processes spawned (plus remote links established).
    pub workers_spawned: usize,
    /// Workers that died (crash, heartbeat timeout, protocol error).
    pub workers_died: usize,
    /// Design-point units in the sweep.
    pub units_total: usize,
    /// Quarantined units retried on a different shard.
    pub units_retried: usize,
    /// In-flight units of dead workers that were reassigned.
    pub units_reassigned: usize,
    /// Units evaluated in-process because no eligible worker remained.
    pub local_fallback_units: usize,
    /// Units settled from the sweep journal instead of being re-evaluated
    /// (`--resume`).
    pub resumed: usize,
    /// Valid journal records replayed (≥ `resumed`: a record may cover a
    /// unit superseded by a later one).
    pub replayed: usize,
    /// Bytes reclaimed by the opportunistic orphaned-tmp-file GC.
    pub gc_reclaimed_bytes: u64,
    /// Trace walks performed across every shard that reported counters
    /// (worker `Bye` frames plus the local fallback session).
    pub walks: u64,
    /// Walks skipped run-wide via the timing-reuse layer.
    pub walks_skipped: u64,
    /// Shape-keyed timing memo hits run-wide.
    pub shape_memo_hits: u64,
    /// Timing summaries loaded from artifact stores run-wide.
    pub timing_artifacts_loaded: u64,
    /// Per-remote-host counters, in [`GridConfig::hosts`] order.
    pub hosts: Vec<HostStats>,
}

impl GridStats {
    /// Renders the counters as a human-readable block (for `--stats`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut text = format!(
            "-- grid stats --\n\
             workers : {} spawned, {} died\n\
             units   : {} total, {} retried, {} reassigned, {} local\n\
             journal : {} units resumed, {} records replayed\n\
             gc      : {} bytes reclaimed\n\
             walks   : {} performed, {} skipped ({} shape-memo hits, {} timing artifacts loaded)\n",
            self.workers_spawned,
            self.workers_died,
            self.units_total,
            self.units_retried,
            self.units_reassigned,
            self.local_fallback_units,
            self.resumed,
            self.replayed,
            self.gc_reclaimed_bytes,
            self.walks,
            self.walks_skipped,
            self.shape_memo_hits,
            self.timing_artifacts_loaded,
        );
        for host in &self.hosts {
            text.push_str(&format!(
                "host {} : {} units, {} recovered, {} reconnects, {} bytes shipped, \
                 {} walks, {} skipped ({} shape-memo, {} artifacts)\n",
                host.addr,
                host.units,
                host.recoveries,
                host.reconnects,
                host.bytes_shipped,
                host.walks,
                host.walks_skipped,
                host.shape_memo_hits,
                host.timing_artifacts_loaded,
            ));
        }
        text
    }
}

/// The merged outcome of a grid run.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// Every shard's report merged (normalized: sorted, deduped, retried
    /// successes promoted to [`SweepReport::recovered`]).
    pub report: SweepReport,
    /// Run counters.
    pub stats: GridStats,
}

/// A grid run that could not start (bad config, unspawnable workers).
/// Unit-level failures never surface here — they quarantine instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError {
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "grid error: {}", self.message)
    }
}

impl std::error::Error for GridError {}

fn err(message: impl Into<String>) -> GridError {
    GridError {
        message: message.into(),
    }
}

/// One design-point unit of the sweep.
struct Unit {
    label: String,
    core_idx: usize,
    subset_idx: usize,
    core_name: String,
    bsa_codes: String,
    attempts: usize,
    failed_on: Vec<usize>,
    resolved: bool,
    /// Shard this unit was journaled as assigned to (advisory): a
    /// resumed coordinator prefers the recorded placement so a re-run
    /// repeats the prior plan instead of re-planning from scratch.
    planned: Option<usize>,
    /// Shard the last `assigned` journal record names, to avoid
    /// re-journaling an unchanged placement.
    assign_logged: Option<usize>,
}

/// Coordinator-side view of one worker (local subprocess or remote link).
struct WorkerState {
    link: Box<dyn ShardLink>,
    alive: bool,
    last_beat: Instant,
    inflight: Vec<usize>,
    /// Link generation current events must carry (see [`LinkEvent`]).
    gen: u64,
    /// Index into [`GridStats::hosts`] for remote shards.
    host: Option<usize>,
    /// Remaining reconnect attempts for this link.
    reconnects_left: u32,
}

/// The worker subprocess command for one local shard (the link layer
/// pipes its stdin/stdout; stderr stays inherited).
fn worker_command(cmd: &PathBuf, shard: usize, config: &GridConfig) -> Command {
    let mut builder = Command::new(cmd);
    builder
        .env(WORKER_ENV, "1")
        .env(SHARD_ENV, shard.to_string())
        .env("PRISM_ARTIFACT_DIR", &config.artifact_dir)
        // A worker must never recurse into coordinating its own fleet.
        .env_remove(WORKERS_ENV);
    for key in &config.env_remove {
        builder.env_remove(key);
    }
    for (key, value) in &config.env {
        builder.env(key, value);
    }
    builder
}

/// The Hello line opening (or re-opening) one shard's session.
fn hello_line(config: &GridConfig, shard: usize) -> String {
    ToWorker::Hello {
        proto: PROTO_VERSION,
        shard,
        workloads: config.workloads.clone(),
        max_insts: config.max_insts,
        artifact_dir: config.artifact_dir.display().to_string(),
    }
    .encode()
}

/// Marks a shard dead, reassigns its unresolved in-flight units (leaving
/// a synthetic quarantine entry each, so a later success surfaces as
/// `recovered`), and — for remote links with attempts left — tries to
/// reconnect and open a fresh session.
#[allow(clippy::too_many_arguments)]
fn mark_dead_and_reassign(
    shard: usize,
    reason: &str,
    hello: &str,
    workers: &mut [WorkerState],
    units: &[Unit],
    pending: &mut VecDeque<usize>,
    shard_reports: &mut [SweepReport],
    fetch_pending: &mut [usize],
    stats: &mut GridStats,
) {
    let w = &mut workers[shard];
    if !w.alive {
        return;
    }
    eprintln!("[prism-grid] shard {shard}: {reason}");
    w.alive = false;
    w.link.kill();
    stats.workers_died += 1;
    // Outstanding artifact fetches died with the session.
    fetch_pending[shard] = 0;
    for uid in std::mem::take(&mut w.inflight) {
        if units[uid].resolved {
            continue;
        }
        stats.units_reassigned += 1;
        if let Some(h) = w.host {
            stats.hosts[h].recoveries += 1;
        }
        let label = &units[uid].label;
        shard_reports[shard].quarantined.push((
            label.clone(),
            PipelineError::new(
                label,
                Stage::Evaluate,
                "worker died with unit in flight; reassigned",
            ),
        ));
        pending.push_back(uid);
    }
    if w.link.is_remote() && w.reconnects_left > 0 {
        w.reconnects_left -= 1;
        match w.link.reconnect() {
            Ok(gen) => {
                w.gen = gen;
                if w.link.send_line(hello).is_ok() {
                    w.alive = true;
                    w.last_beat = Instant::now();
                    if let Some(h) = w.host {
                        stats.hosts[h].reconnects += 1;
                    }
                    eprintln!(
                        "[prism-grid] shard {shard}: reconnected ({})",
                        w.link.describe()
                    );
                }
            }
            Err(e) => eprintln!("[prism-grid] shard {shard}: reconnect failed: {e}"),
        }
    }
}

/// Runs the sharded sweep: spawns local workers and connects remote
/// daemons, streams assignments with a small per-worker window (so
/// prepare overlaps evaluate), supervises by heartbeat, retries
/// quarantined units on a different shard, reassigns the in-flight units
/// of dead workers (reconnecting remote links), pulls missing result
/// artifacts from remote stores, falls back to in-process evaluation
/// when no eligible worker remains, and merges every shard's report.
///
/// # Errors
///
/// Returns a [`GridError`] only when the run cannot start (zero workers
/// and zero hosts configured, no worker executable); anything that fails
/// *during* the run quarantines units instead.
#[allow(clippy::too_many_lines)]
pub fn run_grid(config: &GridConfig) -> Result<GridOutcome, GridError> {
    if config.workers == 0 && config.hosts.is_empty() {
        return Err(err("at least one worker or host is required"));
    }
    let worker_cmd = if config.workers == 0 {
        None
    } else {
        match &config.worker_cmd {
            Some(cmd) => Some(cmd.clone()),
            None => Some(
                std::env::current_exe()
                    .map_err(|e| err(format!("cannot resolve current executable: {e}")))?,
            ),
        }
    };
    let token = std::env::var(NET_TOKEN_ENV).unwrap_or_default();

    // The unit space, in the same core-major order as `explore_grid`.
    let mut units: Vec<Unit> = Vec::with_capacity(config.cores.len() * config.subsets.len());
    for (core_idx, core) in config.cores.iter().enumerate() {
        for (subset_idx, subset) in config.subsets.iter().enumerate() {
            units.push(Unit {
                label: DesignPoint::new(core.clone(), subset.clone()).label(),
                core_idx,
                subset_idx,
                core_name: core.name.clone(),
                bsa_codes: subset.iter().map(|b| b.code()).collect(),
                attempts: 0,
                failed_on: Vec::new(),
                resolved: false,
                planned: None,
                assign_logged: None,
            });
        }
    }

    let (tx, rx) = mpsc::channel();
    let total_shards = config.workers + config.hosts.len();
    let mut workers: Vec<WorkerState> = Vec::with_capacity(total_shards);
    let mut stats = GridStats {
        units_total: units.len(),
        ..GridStats::default()
    };

    // Opportunistic repair: reclaim tmp files orphaned by killed runs
    // (never a live process's, never younger than the safety window).
    let store = ArtifactStore::new(&config.artifact_dir);
    let (_, gc_bytes) = store.gc_tmp_files(GC_SAFETY_WINDOW);
    stats.gc_reclaimed_bytes = gc_bytes;

    // Sweep journal: derived from the exact same inputs a single-process
    // `Session` sweep uses, so `prism explore` and `prism grid` over the
    // same space share one journal file. Units the journal records as
    // settled are resolved up front and never assigned to a worker.
    let tracer = TracerConfig {
        max_insts: config.max_insts,
        ..TracerConfig::default()
    };
    let wl_sizes: Vec<(String, u32)> = config
        .workloads
        .iter()
        .filter_map(|name| {
            prism_workloads::by_name(name)
                .or_else(|| prism_workloads::MICRO.iter().find(|m| m.name == name))
                .map(|w| (w.name.to_string(), w.scaled_n()))
        })
        .collect();
    let sweep = sweep_key(&wl_sizes, &tracer, &config.cores, &config.subsets);
    let mut replay_report = SweepReport::default();
    let journal = match SweepJournal::open(&config.artifact_dir, &sweep, config.resume) {
        Ok((journal, replay)) => {
            for unit in &mut units {
                if let Some(&shard) = replay.assigned.get(&unit.label) {
                    unit.planned = Some(shard as usize);
                }
                if let Some(result) = replay.done.get(&unit.label) {
                    replay_report.results.push(result.clone());
                } else if let Some(error) = replay.quarantined.get(&unit.label) {
                    replay_report
                        .quarantined
                        .push((unit.label.clone(), error.clone()));
                } else {
                    continue;
                }
                unit.resolved = true;
                stats.resumed += 1;
            }
            stats.replayed = replay.records as usize;
            if replay.dropped > 0 {
                eprintln!(
                    "[prism-grid] journal: dropped {} torn/corrupt trailing record(s)",
                    replay.dropped
                );
            }
            Some(journal)
        }
        Err(e) => {
            eprintln!("[prism-grid] journal unavailable ({e}); sweep will not be resumable");
            None
        }
    };

    // Local shards first (0..workers), then one slot per remote host; a
    // failed spawn or connect leaves a dead placeholder so shard ids keep
    // matching vector indices.
    for shard in 0..config.workers {
        let cmd = worker_cmd.as_ref().expect("workers > 0 resolves a command");
        match StdioLink::spawn(worker_command(cmd, shard, config), shard, &tx) {
            Ok(link) => {
                stats.workers_spawned += 1;
                workers.push(WorkerState {
                    link: Box::new(link),
                    alive: true,
                    last_beat: Instant::now(),
                    inflight: Vec::new(),
                    gen: 0,
                    host: None,
                    reconnects_left: 0,
                });
            }
            Err(e) => {
                eprintln!("[prism-grid] shard {shard}: spawn failed: {e}");
                workers.push(WorkerState {
                    link: Box::new(DeadLink::new(&format!("local shard {shard}"))),
                    alive: false,
                    last_beat: Instant::now(),
                    inflight: Vec::new(),
                    gen: 0,
                    host: None,
                    reconnects_left: 0,
                });
            }
        }
    }
    for (hidx, host) in config.hosts.iter().enumerate() {
        let shard = config.workers + hidx;
        stats.hosts.push(HostStats {
            addr: host.to_string(),
            ..HostStats::default()
        });
        match TcpLink::connect(
            &host.addr(),
            shard,
            &token,
            config.net_faults.clone(),
            tx.clone(),
        ) {
            Ok(link) => {
                stats.workers_spawned += 1;
                let gen = link.generation();
                workers.push(WorkerState {
                    link: Box::new(link),
                    alive: true,
                    last_beat: Instant::now(),
                    inflight: Vec::new(),
                    gen,
                    host: Some(hidx),
                    reconnects_left: LINK_RECONNECTS,
                });
            }
            Err(e) => {
                eprintln!("[prism-grid] shard {shard}: connect to {host} failed: {e}");
                workers.push(WorkerState {
                    link: Box::new(DeadLink::new(&format!("host {host}"))),
                    alive: false,
                    last_beat: Instant::now(),
                    inflight: Vec::new(),
                    gen: 0,
                    host: Some(hidx),
                    reconnects_left: 0,
                });
            }
        }
    }
    drop(tx);
    // Open every live session.
    for (shard, worker) in workers.iter_mut().enumerate() {
        if worker.alive {
            let hello = hello_line(config, shard);
            if let Err(e) = worker.link.send_line(&hello) {
                eprintln!("[prism-grid] shard {shard}: hello failed: {e}");
            }
        }
    }

    // Push-side artifact warming for remote shards: the design-point key
    // each unit will settle into, assuming every workload is healthy. A
    // mismatch (some workload quarantined) just makes the push useless —
    // correctness never depends on shipped artifacts.
    let key_session = if config.hosts.is_empty() {
        None
    } else {
        Some(
            Session::new()
                .with_tracer(tracer)
                .with_store_dir(&config.artifact_dir),
        )
    };
    let push_keys: Option<Vec<ContentHash>> = key_session.as_ref().map(|session| {
        wl_sizes
            .iter()
            .map(|(name, n)| session.workload_key(name, *n))
            .collect()
    });
    // Timing artifacts learned from settled units, grouped by core index:
    // cores that differ only in priced parameters share a timing shape
    // key, so a walk shipped back by one shard warms every later assign
    // of a shape-sharing core on any other shard. Per-shard sent-sets
    // keep the push one-shot per (artifact, shard).
    let mut learned_timing: HashMap<usize, Vec<ContentHash>> = HashMap::new();
    let mut timing_sent: Vec<HashSet<ContentHash>> =
        (0..workers.len()).map(|_| HashSet::new()).collect();

    let mut shard_reports: Vec<SweepReport> =
        (0..workers.len()).map(|_| SweepReport::default()).collect();
    let mut fetch_pending: Vec<usize> = vec![0; workers.len()];
    let mut pending: VecDeque<usize> = (0..units.len()).collect();
    let mut local_queue: Vec<usize> = Vec::new();
    let mut resolved = units.iter().filter(|u| u.resolved).count();

    while resolved + local_queue.len() < units.len() {
        // Dispatch: fill every live worker's window, preferring the
        // journaled placement on resume, routing retries away from
        // shards they already failed on; units with no eligible shard
        // left fall back to local evaluation.
        let mut still_pending = VecDeque::new();
        while let Some(uid) = pending.pop_front() {
            if units[uid].resolved {
                continue;
            }
            let eligible = |shard: usize, w: &WorkerState| {
                w.alive
                    && w.inflight.len() < config.window
                    && !units[uid].failed_on.contains(&shard)
            };
            let pick = units[uid]
                .planned
                .filter(|&s| s < workers.len() && eligible(s, &workers[s]))
                .or_else(|| {
                    workers
                        .iter()
                        .enumerate()
                        .filter(|&(shard, w)| eligible(shard, w))
                        .min_by_key(|(_, w)| w.inflight.len())
                        .map(|(shard, _)| shard)
                });
            match pick {
                Some(shard) => {
                    // Warm a remote shard's store with the artifact this
                    // unit would settle into, if we already have it.
                    if let (Some(session), Some(wkeys), Some(h)) =
                        (&key_session, &push_keys, workers[shard].host)
                    {
                        let akey = session.design_point_key(
                            wkeys,
                            &config.cores[units[uid].core_idx],
                            &config.subsets[units[uid].subset_idx],
                        );
                        if let Some(doc) = store.export(&akey) {
                            stats.hosts[h].bytes_shipped += doc.len() as u64;
                            let push = ToWorker::Artifact {
                                key: akey.hex(),
                                doc,
                            };
                            let _ = workers[shard].link.send_line(&push.encode());
                        }
                        // Ship any timing walks already learned for this
                        // unit's core, so the shard prices instead of
                        // re-walking. Missing or stale docs just mean the
                        // worker recomputes — never a correctness risk.
                        if let Some(keys) = learned_timing.get(&units[uid].core_idx) {
                            for tkey in keys {
                                if timing_sent[shard].contains(tkey) {
                                    continue;
                                }
                                if let Some(doc) = store.export(tkey) {
                                    stats.hosts[h].bytes_shipped += doc.len() as u64;
                                    let push = ToWorker::Artifact {
                                        key: tkey.hex(),
                                        doc,
                                    };
                                    let _ = workers[shard].link.send_line(&push.encode());
                                    timing_sent[shard].insert(*tkey);
                                }
                            }
                        }
                    }
                    let msg = ToWorker::Assign {
                        id: uid as u64,
                        core: units[uid].core_name.clone(),
                        bsas: units[uid].bsa_codes.clone(),
                    }
                    .encode();
                    if workers[shard].link.send_line(&msg).is_ok() {
                        workers[shard].inflight.push(uid);
                        if units[uid].assign_logged != Some(shard) {
                            units[uid].assign_logged = Some(shard);
                            if let Some(j) = &journal {
                                if let Err(e) = j.append_assigned(&units[uid].label, shard as u64) {
                                    eprintln!("[prism-grid] journal append failed: {e}");
                                }
                            }
                        }
                    } else {
                        // Write failure: the worker is dying; its Eof event
                        // will handle the cleanup. Try again next round.
                        still_pending.push_back(uid);
                    }
                }
                None => {
                    let possible = workers
                        .iter()
                        .enumerate()
                        .any(|(shard, w)| w.alive && !units[uid].failed_on.contains(&shard));
                    if possible {
                        still_pending.push_back(uid); // workers busy; wait
                    } else {
                        local_queue.push(uid);
                    }
                }
            }
        }
        pending = still_pending;
        if resolved + local_queue.len() >= units.len() {
            break;
        }

        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok((shard, LinkEvent::Line(gen, line))) => {
                if shard >= workers.len() || gen != workers[shard].gen {
                    continue; // stale connection generation
                }
                workers[shard].last_beat = Instant::now();
                let msg = match FromWorker::decode(&line) {
                    Ok(msg) => msg,
                    Err(e) => {
                        let hello = hello_line(config, shard);
                        mark_dead_and_reassign(
                            shard,
                            &format!("garbled output: {e}"),
                            &hello,
                            &mut workers,
                            &units,
                            &mut pending,
                            &mut shard_reports,
                            &mut fetch_pending,
                            &mut stats,
                        );
                        continue;
                    }
                };
                match msg {
                    FromWorker::HelloAck { .. } | FromWorker::Heartbeat { .. } => {}
                    FromWorker::Bye {
                        walks,
                        walks_skipped,
                        shape_memo_hits,
                        timing_artifacts_loaded,
                    } => {
                        fold_walk_stats(
                            &mut stats,
                            workers[shard].host,
                            walks,
                            walks_skipped,
                            shape_memo_hits,
                            timing_artifacts_loaded,
                        );
                    }
                    FromWorker::UnitResult {
                        id,
                        result,
                        artifacts,
                    } => {
                        // Kill point: the unit's artifact is durable (the
                        // worker stored it before reporting) but nothing is
                        // journaled yet — a resume must recompute cheaply
                        // from the store, not lose the unit.
                        crash_point(SITE_GRID_FRAME);
                        let uid = id as usize;
                        workers[shard].inflight.retain(|&u| u != uid);
                        if uid < units.len() && !units[uid].resolved {
                            units[uid].resolved = true;
                            resolved += 1;
                            if let Some(h) = workers[shard].host {
                                stats.hosts[h].units += 1;
                            }
                            if let Some(j) = &journal {
                                if let Err(e) = j.append_done(&units[uid].label, &result) {
                                    eprintln!("[prism-grid] journal append failed: {e}");
                                }
                            }
                        }
                        shard_reports[shard].results.push(result);
                        // Learn the unit's timing shape keys — every
                        // reported artifact beyond the design-point
                        // result — so later assigns of shape-sharing
                        // cores are warmed push-side.
                        if let (Some(session), Some(wkeys)) = (&key_session, &push_keys) {
                            if uid < units.len() {
                                let akey = session.design_point_key(
                                    wkeys,
                                    &config.cores[units[uid].core_idx],
                                    &config.subsets[units[uid].subset_idx],
                                );
                                let learned =
                                    learned_timing.entry(units[uid].core_idx).or_default();
                                for k in &artifacts {
                                    if let Some(hash) = ContentHash::from_hex(k) {
                                        if hash != akey && !learned.contains(&hash) {
                                            learned.push(hash);
                                        }
                                    }
                                }
                            }
                        }
                        // Pull any result artifacts a remote store has
                        // that ours is missing (pure cache warmth: resume
                        // and correctness never depend on the shipment).
                        if workers[shard].link.is_remote() {
                            let missing: Vec<String> = artifacts
                                .into_iter()
                                .filter(|k| {
                                    ContentHash::from_hex(k)
                                        .is_some_and(|hash| !store.contains(&hash))
                                })
                                .collect();
                            if !missing.is_empty() {
                                let n = missing.len();
                                let fetch = ToWorker::Fetch { keys: missing }.encode();
                                if workers[shard].link.send_line(&fetch).is_ok() {
                                    fetch_pending[shard] += n;
                                }
                            }
                        }
                    }
                    FromWorker::UnitQuarantine { id, key, error } => {
                        crash_point(SITE_GRID_FRAME);
                        if let Some(uid) = id.map(|id| id as usize) {
                            workers[shard].inflight.retain(|&u| u != uid);
                            if uid < units.len() && !units[uid].resolved {
                                units[uid].attempts += 1;
                                units[uid].failed_on.push(shard);
                                if units[uid].attempts <= config.shard_retries {
                                    stats.units_retried += 1;
                                    pending.push_back(uid);
                                } else {
                                    units[uid].resolved = true;
                                    resolved += 1;
                                    if let Some(h) = workers[shard].host {
                                        stats.hosts[h].units += 1;
                                    }
                                    // Only a *permanent* quarantine is
                                    // journaled: a retry may still succeed,
                                    // and a later `done` must win on replay.
                                    if let Some(j) = &journal {
                                        if let Err(e) =
                                            j.append_quarantined(&units[uid].label, &error)
                                        {
                                            eprintln!("[prism-grid] journal append failed: {e}");
                                        }
                                    }
                                }
                            }
                        }
                        shard_reports[shard].quarantined.push((key, error));
                    }
                    FromWorker::Artifact { key, doc } => {
                        fetch_pending[shard] = fetch_pending[shard].saturating_sub(1);
                        if let Some(h) = workers[shard].host {
                            stats.hosts[h].bytes_shipped += doc.len() as u64;
                        }
                        // Empty doc = "worker doesn't have it"; nothing to do.
                        if !doc.is_empty() {
                            match ContentHash::from_hex(&key) {
                                Some(hash) => {
                                    if let Err(e) = store.import(&hash, &doc) {
                                        eprintln!(
                                            "[prism-grid] shard {shard}: artifact import failed: {e}"
                                        );
                                    }
                                }
                                None => eprintln!(
                                    "[prism-grid] shard {shard}: artifact with bad key {key}"
                                ),
                            }
                        }
                    }
                    FromWorker::Fatal { message } => {
                        let hello = hello_line(config, shard);
                        mark_dead_and_reassign(
                            shard,
                            &format!("fatal: {message}"),
                            &hello,
                            &mut workers,
                            &units,
                            &mut pending,
                            &mut shard_reports,
                            &mut fetch_pending,
                            &mut stats,
                        );
                    }
                }
            }
            Ok((shard, LinkEvent::Eof(gen))) => {
                if shard < workers.len() && gen == workers[shard].gen && workers[shard].alive {
                    let hello = hello_line(config, shard);
                    mark_dead_and_reassign(
                        shard,
                        "link closed unexpectedly",
                        &hello,
                        &mut workers,
                        &units,
                        &mut pending,
                        &mut shard_reports,
                        &mut fetch_pending,
                        &mut stats,
                    );
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Every link's reader is gone: mark all workers dead.
                for shard in 0..workers.len() {
                    let hello = hello_line(config, shard);
                    mark_dead_and_reassign(
                        shard,
                        "event channel disconnected",
                        &hello,
                        &mut workers,
                        &units,
                        &mut pending,
                        &mut shard_reports,
                        &mut fetch_pending,
                        &mut stats,
                    );
                }
            }
        }

        // Heartbeat supervision: a silent worker is dead, and its
        // in-flight units must not be lost.
        for shard in 0..workers.len() {
            if workers[shard].alive && workers[shard].last_beat.elapsed() > config.heartbeat_timeout
            {
                let hello = hello_line(config, shard);
                mark_dead_and_reassign(
                    shard,
                    &format!("no heartbeat for {:?}", config.heartbeat_timeout),
                    &hello,
                    &mut workers,
                    &units,
                    &mut pending,
                    &mut shard_reports,
                    &mut fetch_pending,
                    &mut stats,
                );
            }
        }
    }

    // Grace drain: give outstanding artifact fetches a bounded window to
    // land before the links close (late unit frames still count too).
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    while fetch_pending.iter().sum::<usize>() > 0 && Instant::now() < drain_deadline {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok((shard, LinkEvent::Line(gen, line)))
                if shard < workers.len() && gen == workers[shard].gen =>
            {
                if let Ok(msg) = FromWorker::decode(&line) {
                    absorb_late_frame(
                        shard,
                        msg,
                        &workers,
                        &store,
                        &mut shard_reports,
                        &mut fetch_pending,
                        &mut stats,
                    );
                }
            }
            Ok((shard, LinkEvent::Eof(gen))) => {
                if shard < workers.len() && gen == workers[shard].gen {
                    workers[shard].alive = false;
                    fetch_pending[shard] = 0;
                }
            }
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    // Clean shutdown: ask politely, then reap (with a kill deadline).
    for w in workers.iter_mut().filter(|w| w.alive) {
        let _ = w.link.send_line(&ToWorker::Shutdown.encode());
        w.link.shutdown_input();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for w in &mut workers {
        w.link.reap(deadline);
    }
    // Late events (results that raced the shutdown) still count.
    while let Ok((shard, event)) = rx.try_recv() {
        if let LinkEvent::Line(gen, line) = event {
            if shard < workers.len() && gen == workers[shard].gen {
                if let Ok(msg) = FromWorker::decode(&line) {
                    absorb_late_frame(
                        shard,
                        msg,
                        &workers,
                        &store,
                        &mut shard_reports,
                        &mut fetch_pending,
                        &mut stats,
                    );
                }
            }
        }
    }

    // Local fallback: evaluate in-process whatever no worker could take.
    if !local_queue.is_empty() {
        let mut local = SweepReport::default();
        let session = Session::new()
            .with_tracer(TracerConfig {
                max_insts: config.max_insts,
                ..TracerConfig::default()
            })
            .with_store_dir(&config.artifact_dir);
        let mut workload_refs: Vec<&Workload> = Vec::new();
        for name in &config.workloads {
            match prism_workloads::by_name(name)
                .or_else(|| prism_workloads::MICRO.iter().find(|m| m.name == name))
            {
                Some(w) => workload_refs.push(w),
                None => local.quarantined.push((
                    format!("workload:{name}"),
                    PipelineError::new(name, Stage::Build, "unknown workload"),
                )),
            }
        }
        for uid in local_queue {
            let unit = &units[uid];
            let core = config.cores[unit.core_idx].clone();
            let subset = config.subsets[unit.subset_idx].clone();
            let report = session.evaluate_designs(&workload_refs, &[core], &[subset]);
            if report.results.is_empty()
                && !report.quarantined.iter().any(|(k, _)| *k == unit.label)
            {
                local.quarantined.push((
                    unit.label.clone(),
                    PipelineError::new(
                        &unit.label,
                        Stage::Evaluate,
                        "no healthy workloads to evaluate",
                    ),
                ));
            }
            if let Some(j) = &journal {
                let outcome = if let Some(r) = report.results.iter().find(|r| r.label == unit.label)
                {
                    j.append_done(&unit.label, r)
                } else if let Some((_, e)) =
                    report.quarantined.iter().find(|(k, _)| *k == unit.label)
                {
                    j.append_quarantined(&unit.label, e)
                } else {
                    Ok(())
                };
                if let Err(e) = outcome {
                    eprintln!("[prism-grid] journal append failed: {e}");
                }
            }
            local.merge(report);
            stats.local_fallback_units += 1;
        }
        let local_stats = session.stats();
        fold_walk_stats(
            &mut stats,
            None,
            local_stats.trace_walks,
            local_stats.walks_skipped,
            local_stats.shape_memo_hits,
            local_stats.timing_artifacts_loaded,
        );
        shard_reports.push(local);
    }

    let mut merged = replay_report;
    for report in shard_reports {
        merged.merge(report);
    }
    merged.normalize();
    // A finished sweep with no permanent quarantines has nothing left to
    // resume; one *with* quarantines keeps its journal so a `--resume`
    // replays the identical errors instead of re-running known-bad units.
    if let Some(j) = journal {
        if merged.quarantined.is_empty() {
            if let Err(e) = j.remove() {
                eprintln!("[prism-grid] could not remove finished journal: {e}");
            }
        }
    }
    Ok(GridOutcome {
        report: merged,
        stats,
    })
}

/// Absorbs a frame arriving after the main loop settled every unit:
/// results and quarantines still count toward the merged report, and
/// artifact replies still land in the store.
fn absorb_late_frame(
    shard: usize,
    msg: FromWorker,
    workers: &[WorkerState],
    store: &ArtifactStore,
    shard_reports: &mut [SweepReport],
    fetch_pending: &mut [usize],
    stats: &mut GridStats,
) {
    match msg {
        FromWorker::UnitResult { result, .. } if shard < shard_reports.len() => {
            shard_reports[shard].results.push(result);
        }
        FromWorker::UnitQuarantine { key, error, .. } if shard < shard_reports.len() => {
            shard_reports[shard].quarantined.push((key, error));
        }
        FromWorker::Artifact { key, doc } => {
            fetch_pending[shard] = fetch_pending[shard].saturating_sub(1);
            if let Some(h) = workers[shard].host {
                stats.hosts[h].bytes_shipped += doc.len() as u64;
            }
            if !doc.is_empty() {
                if let Some(hash) = ContentHash::from_hex(&key) {
                    if let Err(e) = store.import(&hash, &doc) {
                        eprintln!("[prism-grid] shard {shard}: artifact import failed: {e}");
                    }
                }
            }
        }
        // The usual arrival path for Bye counters: workers acknowledge
        // the post-sweep Shutdown, so their frames land in this drain.
        FromWorker::Bye {
            walks,
            walks_skipped,
            shape_memo_hits,
            timing_artifacts_loaded,
        } => {
            fold_walk_stats(
                stats,
                workers[shard].host,
                walks,
                walks_skipped,
                shape_memo_hits,
                timing_artifacts_loaded,
            );
        }
        _ => {}
    }
}

/// Adds one session's timing-reuse counters to the run totals and, for a
/// remote shard, to its per-host breakdown.
fn fold_walk_stats(
    stats: &mut GridStats,
    host: Option<usize>,
    walks: u64,
    walks_skipped: u64,
    shape_memo_hits: u64,
    timing_artifacts_loaded: u64,
) {
    stats.walks += walks;
    stats.walks_skipped += walks_skipped;
    stats.shape_memo_hits += shape_memo_hits;
    stats.timing_artifacts_loaded += timing_artifacts_loaded;
    if let Some(h) = host {
        stats.hosts[h].walks += walks;
        stats.hosts[h].walks_skipped += walks_skipped;
        stats.hosts[h].shape_memo_hits += shape_memo_hits;
        stats.hosts[h].timing_artifacts_loaded += timing_artifacts_loaded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_timeout_parses_integer_milliseconds() {
        assert_eq!(parse_grid_timeout("2500"), Ok(Duration::from_millis(2500)));
        assert_eq!(parse_grid_timeout(" 1 "), Ok(Duration::from_millis(1)));
        assert_eq!(
            parse_grid_timeout("60000"),
            Ok(Duration::from_millis(60_000))
        );
    }

    #[test]
    fn grid_timeout_rejects_zero_and_garbage() {
        for bad in ["0", "-5", "1.5", "10s", "", "fast"] {
            let err = parse_grid_timeout(bad).unwrap_err();
            assert!(err.contains(GRID_TIMEOUT_ENV), "{bad:?}: {err}");
        }
    }

    #[test]
    fn grid_stats_render_names_every_counter() {
        let stats = GridStats {
            workers_spawned: 2,
            workers_died: 1,
            units_total: 64,
            units_retried: 3,
            units_reassigned: 4,
            local_fallback_units: 5,
            resumed: 6,
            replayed: 7,
            gc_reclaimed_bytes: 8,
            walks: 13,
            walks_skipped: 14,
            shape_memo_hits: 15,
            timing_artifacts_loaded: 16,
            hosts: vec![HostStats {
                addr: "10.0.0.9:7761".into(),
                units: 9,
                recoveries: 10,
                reconnects: 11,
                bytes_shipped: 12,
                walks: 17,
                walks_skipped: 18,
                shape_memo_hits: 19,
                timing_artifacts_loaded: 20,
            }],
        };
        let text = stats.render();
        assert!(text.contains("6 units resumed"), "{text}");
        assert!(text.contains("7 records replayed"), "{text}");
        assert!(text.contains("8 bytes reclaimed"), "{text}");
        assert!(
            text.contains(
                "13 performed, 14 skipped (15 shape-memo hits, 16 timing artifacts loaded)"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "host 10.0.0.9:7761 : 9 units, 10 recovered, 11 reconnects, 12 bytes shipped, \
                 17 walks, 18 skipped (19 shape-memo, 20 artifacts)"
            ),
            "{text}"
        );
    }
}
