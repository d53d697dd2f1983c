//! The grid coordinator: partitions the design-point unit space across a
//! fleet of workers — local subprocesses and/or remote TCP daemons —
//! supervises them by heartbeat, retries quarantined units on a
//! different shard, reassigns the in-flight units of dead workers, and
//! merges every shard's [`SweepReport`] into one.
//!
//! Every unit has a fixed **home shard**: the core-major unit order, with
//! cores of one [timing class](CoreConfig::timing_class) next to each
//! other, is cut into `shards` contiguous ranges. The units of one core
//! share most of their µDG timing shapes and oracle tables, so a home
//! shard walks each shape once, as a single-process sweep does. A unit
//! whose home is dead, or has already failed it, goes to the
//! least-loaded eligible shard; a busy home makes the unit wait.
//!
//! Local workers are re-invocations of the current executable with
//! `PRISM_GRID_WORKER=1` (see [`crate::worker`]); they share one
//! content-addressed artifact store, whose write-then-rename protocol
//! with per-process temp names makes concurrent writers safe. Remote
//! workers (`prism worker --listen`, reached via
//! [`GridConfig::hosts`]) have their *own* store; the protocol ships
//! each unit's design-point artifact back by content hash, and anything
//! not shipped is simply recomputed from the journal on resume. A re-run
//! places every unit on the same host as before, whose store answers it.
//! Because every unit is keyed identically in every process, a grid run
//! and a single-process run produce byte-identical merged reports (after
//! [`SweepReport::normalize`]) on a healthy fleet — wherever the shards
//! ran.
//!
//! A worker that dies or disconnects mid-unit leaves a synthetic
//! quarantine entry behind; when the reassigned unit later succeeds,
//! normalization promotes it to [`SweepReport::recovered`], so fleet
//! trouble is visible in the merged report without changing its results.

use std::collections::VecDeque;
use std::ops::Deref;
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

use crate::proto::{FromWorker, ToWorker, WalkCounts, PROTO_VERSION};
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

/// Outstanding assignments per worker: 2 keeps the next unit's prepare
/// phase overlapping the current unit's evaluate phase.
const WINDOW: usize = 2;

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
    /// Artifact bytes shipped over this link.
    pub bytes_shipped: u64,
    /// This host's walk counters (from its `Bye` frames).
    pub counts: WalkCounts,
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
    /// Walk counters summed over every shard that reported them (worker
    /// `Bye` frames plus the local fallback session).
    pub counts: WalkCounts,
    /// Per-remote-host counters, in [`GridConfig::hosts`] order.
    pub hosts: Vec<HostStats>,
}

/// The run-wide walk counters read as fields of the stats:
/// `stats.walks` is `stats.counts.walks`. The `benchmark/` package
/// reads the counters this way.
impl Deref for GridStats {
    type Target = WalkCounts;

    fn deref(&self) -> &WalkCounts {
        &self.counts
    }
}

impl GridStats {
    /// Adds one session's walk counters to the run totals and, for a
    /// remote shard, to its host's.
    fn fold(&mut self, host: Option<usize>, counts: WalkCounts) {
        self.counts += counts;
        if let Some(h) = host {
            self.hosts[h].counts += counts;
        }
    }

    /// Renders the counters as a human-readable block (for `--stats`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut text = format!(
            "-- grid stats --\n\
             workers : {} spawned, {} died\n\
             units   : {} total, {} retried, {} reassigned, {} local\n\
             journal : {} units resumed, {} records replayed\n\
             gc      : {} bytes reclaimed\n\
             walks   : {} performed, {} skipped ({} shape-memo hits, {} timing artifacts loaded)\n\
             table walks : {} performed, {} loaded\n",
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
            self.table_walks,
            self.table_timings_loaded,
        );
        for host in &self.hosts {
            let c = &host.counts;
            text.push_str(&format!(
                "host {} : {} units, {} recovered, {} reconnects, {} bytes shipped, \
                 {} walks, {} skipped ({} shape-memo, {} artifacts), \
                 {} table walks, {} table loads\n",
                host.addr,
                host.units,
                host.recoveries,
                host.reconnects,
                host.bytes_shipped,
                c.walks,
                c.walks_skipped,
                c.shape_memo_hits,
                c.timing_artifacts_loaded,
                c.table_walks,
                c.table_timings_loaded,
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
    /// The shard this unit is placed on while that shard is alive and
    /// has not failed it.
    home: usize,
    attempts: usize,
    failed_on: Vec<usize>,
    resolved: bool,
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

    // The unit space in core-major order, cores of one timing class
    // adjacent (a stable sort on the class's first position), cut into
    // one contiguous home range per shard.
    let total_shards = config.workers + config.hosts.len();
    let class_rank = |core: &CoreConfig| {
        let class = core.timing_class();
        config.cores.iter().position(|c| c.timing_class() == class)
    };
    let mut core_order: Vec<usize> = (0..config.cores.len()).collect();
    core_order.sort_by_key(|&i| class_rank(&config.cores[i]));
    let unit_count = config.cores.len() * config.subsets.len();
    let mut units: Vec<Unit> = Vec::with_capacity(unit_count);
    for core_idx in core_order {
        let core = &config.cores[core_idx];
        for (subset_idx, subset) in config.subsets.iter().enumerate() {
            units.push(Unit {
                label: DesignPoint::new(core.clone(), subset.clone()).label(),
                core_idx,
                subset_idx,
                core_name: core.name.clone(),
                bsa_codes: subset.iter().map(|b| b.code()).collect(),
                home: units.len() * total_shards / unit_count,
                attempts: 0,
                failed_on: Vec::new(),
                resolved: false,
            });
        }
    }

    let (tx, rx) = mpsc::channel();
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

    let mut shard_reports: Vec<SweepReport> =
        (0..workers.len()).map(|_| SweepReport::default()).collect();
    let mut fetch_pending: Vec<usize> = vec![0; workers.len()];
    let mut pending: VecDeque<usize> = (0..units.len()).collect();
    let mut local_queue: Vec<usize> = Vec::new();
    let mut resolved = units.iter().filter(|u| u.resolved).count();

    while resolved + local_queue.len() < units.len() {
        // Dispatch: fill every live worker's window. A unit goes to its
        // home shard, waiting while the home is busy; a unit whose home
        // is dead or has failed it goes to the least-loaded shard that
        // has not; units with no such shard left fall back to local
        // evaluation.
        let mut still_pending = VecDeque::new();
        while let Some(uid) = pending.pop_front() {
            let unit = &units[uid];
            if unit.resolved {
                continue;
            }
            let open = |shard: usize| workers[shard].alive && !unit.failed_on.contains(&shard);
            let pick = if open(unit.home) {
                (workers[unit.home].inflight.len() < WINDOW).then_some(unit.home)
            } else {
                (0..workers.len())
                    .filter(|&shard| open(shard) && workers[shard].inflight.len() < WINDOW)
                    .min_by_key(|&shard| workers[shard].inflight.len())
            };
            let Some(shard) = pick else {
                if (0..workers.len()).any(open) {
                    still_pending.push_back(uid); // workers busy; wait
                } else {
                    local_queue.push(uid);
                }
                continue;
            };
            let msg = ToWorker::Assign {
                id: uid as u64,
                core: unit.core_name.clone(),
                bsas: unit.bsa_codes.clone(),
            }
            .encode();
            if workers[shard].link.send_line(&msg).is_ok() {
                workers[shard].inflight.push(uid);
            } else {
                // Write failure: the worker is dying; its Eof event
                // will handle the cleanup. Try again next round.
                still_pending.push_back(uid);
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
                    msg @ (FromWorker::Bye { .. } | FromWorker::Artifact { .. }) => {
                        absorb_frame(
                            shard,
                            msg,
                            &workers,
                            &store,
                            &mut shard_reports,
                            &mut fetch_pending,
                            &mut stats,
                        );
                    }
                    FromWorker::UnitResult {
                        id,
                        result,
                        artifact,
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
                        // Pull the result artifact when a remote store has
                        // it and ours does not (pure cache warmth: resume
                        // and correctness never depend on the shipment).
                        if workers[shard].link.is_remote()
                            && ContentHash::from_hex(&artifact)
                                .is_some_and(|hash| !store.contains(&hash))
                        {
                            let fetch = ToWorker::Fetch { key: artifact }.encode();
                            if workers[shard].link.send_line(&fetch).is_ok() {
                                fetch_pending[shard] += 1;
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
                    absorb_frame(
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
                    absorb_frame(
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
        stats.fold(None, WalkCounts::of(&session.stats()));
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

/// Absorbs a frame that settles no unit: an artifact reply lands in the
/// store and `Bye` counters are summed. After the main loop settled
/// every unit, late results and quarantines still count toward the
/// merged report.
fn absorb_frame(
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
            // Empty doc = "worker doesn't have it"; nothing to do.
            if !doc.is_empty() {
                match ContentHash::from_hex(&key) {
                    Some(hash) => {
                        if let Err(e) = store.import(&hash, &doc) {
                            eprintln!("[prism-grid] shard {shard}: artifact import failed: {e}");
                        }
                    }
                    None => eprintln!("[prism-grid] shard {shard}: artifact with bad key {key}"),
                }
            }
        }
        // Workers acknowledge the post-sweep Shutdown, so Bye counters
        // usually arrive in the shutdown drain.
        FromWorker::Bye { counts } => stats.fold(workers[shard].host, counts),
        _ => {}
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
            counts: WalkCounts {
                walks: 13,
                walks_skipped: 14,
                shape_memo_hits: 15,
                timing_artifacts_loaded: 16,
                table_walks: 21,
                table_timings_loaded: 22,
            },
            hosts: vec![HostStats {
                addr: "10.0.0.9:7761".into(),
                units: 9,
                recoveries: 10,
                reconnects: 11,
                bytes_shipped: 12,
                counts: WalkCounts {
                    walks: 17,
                    walks_skipped: 18,
                    shape_memo_hits: 19,
                    timing_artifacts_loaded: 20,
                    table_walks: 23,
                    table_timings_loaded: 24,
                },
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
            text.contains("table walks : 21 performed, 22 loaded"),
            "{text}"
        );
        assert!(
            text.contains(
                "host 10.0.0.9:7761 : 9 units, 10 recovered, 11 reconnects, 12 bytes shipped, \
                 17 walks, 18 skipped (19 shape-memo, 20 artifacts), 23 table walks, 24 table loads"
            ),
            "{text}"
        );
    }
}
