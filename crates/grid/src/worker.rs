//! The grid worker: one shard of the sweep, driven over a line link.
//!
//! A worker is not a separate binary — the coordinator re-invokes the
//! *current executable* with `PRISM_GRID_WORKER=1`, and the host binary's
//! `main` routes into [`run_worker_if_env`] before doing anything else
//! (in particular before printing to stdout, which belongs to the
//! protocol once the worker mode engages). The same evaluation loop also
//! serves TCP connections via [`serve_tcp`]: the transport differs, the
//! protocol does not — [`run_worker_io`] is generic over the byte streams.
//!
//! Inside the worker, three threads overlap work:
//!
//! - the **reader** (main thread) parses assignments from the input into a
//!   queue, and answers artifact fetch/push frames from its local store,
//! - the **prewarm** thread first pulls chunk 0 of each workload's trace
//!   stream (cheap, bounded), then prepares traces/IR and oracle tables
//!   for *queued* units while the evaluator is busy with earlier ones, so
//!   a unit's expensive prepare phase overlaps the previous unit's
//!   evaluate phase,
//! - the **evaluator** pops units in order and reports one
//!   result-or-quarantine per unit.
//!
//! A fourth **heartbeat** thread emits liveness beacons every
//! [`HEARTBEAT_INTERVAL`].

use std::collections::{BTreeSet, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use prism_exocore::DesignPoint;
use prism_pipeline::{
    ArtifactStore, ContentHash, FaultPlan, GridFaultKind, PipelineError, Session, Site, Stage,
};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::CoreConfig;
use prism_workloads::Workload;

use crate::proto::{FromWorker, ToWorker, HEARTBEAT_INTERVAL, PROTO_VERSION};

/// Set (to any value) in a worker process's environment.
pub const WORKER_ENV: &str = "PRISM_GRID_WORKER";

/// The worker's shard id (decimal).
pub const SHARD_ENV: &str = "PRISM_GRID_SHARD";

/// Runs the worker protocol and exits the process when `PRISM_GRID_WORKER`
/// is set; returns immediately otherwise. Call this first in `main` of any
/// binary that may serve as a grid worker — before anything is written to
/// stdout, which carries the wire protocol in worker mode.
pub fn run_worker_if_env() {
    if std::env::var_os(WORKER_ENV).is_some() {
        std::process::exit(run_worker());
    }
}

/// The grid layer's view of a [`FaultPlan`]: it reads only the
/// `grid.<kind>.<shard>@N` entries, where `N` counts the units the
/// worker has started (1-based). Other entries of the same plan are
/// left to their own layers: the worker's session reads `store.*`,
/// `trace.truncate` and `<stage>.panic` from `PRISM_FAULTS`, and
/// [`prism_pipeline::crash_point`] reads `crash.*` from it.
#[derive(Debug, Clone, Default)]
pub struct GridFaultPlan(pub Option<Arc<FaultPlan>>);

impl GridFaultPlan {
    /// The fault (if any) that fires when `shard` starts its
    /// `started`-th unit.
    fn action(&self, shard: usize, started: u64) -> Option<GridFaultKind> {
        self.0
            .as_ref()?
            .armed_for(started, shard)
            .find_map(|site| match site {
                Site::Grid(kind, _) => Some(kind),
                _ => None,
            })
    }
}

/// How [`run_worker_io`] binds the protocol loop to its surroundings.
#[derive(Debug, Default)]
pub struct WorkerOptions {
    /// Shard id this link is supposed to carry; the Hello's shard must
    /// match or the worker refuses the session. `None` trusts the Hello.
    pub expected_shard: Option<usize>,
    /// Artifact store directory override. `None` uses the Hello's
    /// `artifact_dir` (the stdio case, where coordinator and worker share
    /// a filesystem); TCP daemons pass their own local store here and the
    /// Hello's path — meaningless on another host — is ignored.
    pub store_dir: Option<PathBuf>,
    /// LRU byte cap on the worker's store (`prism worker --store-cap` /
    /// `PRISM_STORE_CAP`); `None` leaves growth unbounded.
    pub store_cap: Option<u64>,
    /// Injected worker faults (`PRISM_FAULTS=grid.…`).
    pub faults: GridFaultPlan,
}

/// Looks a workload up in the main registry, then the microbenchmarks.
fn find_workload(name: &str) -> Option<&'static Workload> {
    prism_workloads::by_name(name)
        .or_else(|| prism_workloads::MICRO.iter().find(|m| m.name == name))
}

fn parse_core(name: &str) -> Option<CoreConfig> {
    match name {
        "IO2" => Some(CoreConfig::io2()),
        "OOO2" => Some(CoreConfig::ooo2()),
        "OOO4" => Some(CoreConfig::ooo4()),
        "OOO6" => Some(CoreConfig::ooo6()),
        _ => None,
    }
}

fn parse_bsas(codes: &str) -> Option<Vec<BsaKind>> {
    codes
        .chars()
        .map(|c| BsaKind::ALL.iter().copied().find(|b| b.code() == c))
        .collect()
}

/// One assignment queued on the worker.
struct QueuedUnit {
    id: u64,
    core: String,
    bsas: String,
}

struct UnitQueue {
    pending: VecDeque<QueuedUnit>,
    /// Shutdown received (or input closed): drain and exit.
    closing: bool,
}

fn send<W: Write>(out: &Mutex<W>, msg: &FromWorker) {
    let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
    // A broken pipe means the coordinator is gone; the reader thread will
    // see EOF and wind the worker down, so a failed send is not fatal here.
    let _ = writeln!(out, "{}", msg.encode());
    let _ = out.flush();
}

/// Runs the worker protocol over this process's stdin/stdout until
/// shutdown, returning the process exit code. The shard id comes from
/// `PRISM_GRID_SHARD` (default 0).
#[must_use]
pub fn run_worker() -> i32 {
    let shard: usize = std::env::var(SHARD_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let opts = WorkerOptions {
        expected_shard: Some(shard),
        store_dir: None,
        store_cap: prism_pipeline::store_cap_from_env(),
        faults: GridFaultPlan(FaultPlan::from_env()),
    };
    let stdin = std::io::stdin();
    run_worker_io(stdin.lock(), std::io::stdout(), &opts)
}

/// Serves grid worker sessions over TCP forever: each accepted (and
/// token-authenticated) connection runs one full worker protocol session
/// on its own thread, against this daemon's local artifact store. A
/// coordinator that reconnects after a network fault simply starts a
/// fresh session; the store's memoized artifacts make the re-run cheap.
/// With `store_cap`, the daemon's store evicts least-recently-used
/// artifacts after every put so per-host disk growth stays bounded.
pub fn serve_tcp(
    listener: std::net::TcpListener,
    token: String,
    store_dir: PathBuf,
    store_cap: Option<u64>,
) -> ! {
    prism_net::serve(listener, token, move |stream, shard| {
        let opts = WorkerOptions {
            expected_shard: Some(shard),
            store_dir: Some(store_dir.clone()),
            store_cap,
            faults: GridFaultPlan(FaultPlan::from_env()),
        };
        let reader = match stream.try_clone() {
            Ok(clone) => std::io::BufReader::new(clone),
            Err(e) => {
                eprintln!("[prism-net] shard {shard}: clone failed: {e}");
                return;
            }
        };
        let code = run_worker_io(reader, stream, &opts);
        eprintln!("[prism-net] shard {shard}: worker session ended (exit {code})");
    })
}

/// Runs one worker protocol session over the given byte streams until
/// shutdown or EOF, returning what would be the process exit code. This
/// is the transport-agnostic core behind [`run_worker`] (stdin/stdout)
/// and [`serve_tcp`] (one TCP connection per call).
#[must_use]
pub fn run_worker_io<R: BufRead, W: Write + Send>(
    input: R,
    output: W,
    opts: &WorkerOptions,
) -> i32 {
    let out = Mutex::new(output);
    let mut lines = prism_net::read_frames(input);

    // Handshake: the first line must be a compatible Hello.
    let first = match lines.next() {
        Some(Ok(line)) => line,
        _ => return 2,
    };
    let (shard, workload_names, max_insts, artifact_dir) = match ToWorker::decode(&first) {
        Ok(ToWorker::Hello {
            proto,
            shard: hello_shard,
            workloads,
            max_insts,
            artifact_dir,
        }) => {
            if proto != PROTO_VERSION {
                send(
                    &out,
                    &FromWorker::Fatal {
                        message: format!(
                            "protocol version mismatch: coordinator {proto}, worker {PROTO_VERSION}"
                        ),
                    },
                );
                return 2;
            }
            if let Some(expected) = opts.expected_shard {
                if hello_shard != expected {
                    send(
                        &out,
                        &FromWorker::Fatal {
                            message: format!(
                                "shard mismatch: hello says {hello_shard}, link says {expected}"
                            ),
                        },
                    );
                    return 2;
                }
            }
            (hello_shard, workloads, max_insts, artifact_dir)
        }
        _ => {
            send(
                &out,
                &FromWorker::Fatal {
                    message: format!("expected hello, got: {first}"),
                },
            );
            return 2;
        }
    };

    let store_dir = opts
        .store_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from(&artifact_dir));
    let session = Session::new()
        .with_tracer(TracerConfig {
            max_insts,
            ..TracerConfig::default()
        })
        .with_store_cap(opts.store_cap)
        .with_store_dir(&store_dir);
    // A second handle on the same store for artifact fetch/push frames:
    // the reader thread serves those concurrently with evaluation, and
    // the store's durability is file-level, not handle-level.
    let store = ArtifactStore::new(&store_dir).with_cap(opts.store_cap);

    // Resolve the workload set; unknown names quarantine as whole-workload
    // units (same key shape the pipeline uses for preparation failures).
    let mut workloads: Vec<&'static Workload> = Vec::with_capacity(workload_names.len());
    for name in &workload_names {
        match find_workload(name) {
            Some(w) => workloads.push(w),
            None => send(
                &out,
                &FromWorker::UnitQuarantine {
                    id: None,
                    key: format!("workload:{name}"),
                    error: PipelineError::new(name, Stage::Build, "unknown workload"),
                },
            ),
        }
    }
    send(
        &out,
        &FromWorker::HelloAck {
            shard,
            proto: PROTO_VERSION,
        },
    );

    let queue = Mutex::new(UnitQueue {
        pending: VecDeque::new(),
        closing: false,
    });
    let queue_cv = Condvar::new();
    let inflight = AtomicU64::new(0);
    // Set by an injected hang fault: the worker stalls *and* goes silent,
    // so the coordinator must catch it by heartbeat timeout.
    let hang = AtomicBool::new(false);
    // Set by the evaluator once everything is drained; stops the
    // heartbeat and prewarm threads so the scope can join.
    let finished = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Heartbeat thread.
        scope.spawn(|| {
            while !finished.load(Ordering::Relaxed) {
                if !hang.load(Ordering::Relaxed) {
                    send(
                        &out,
                        &FromWorker::Heartbeat {
                            shard,
                            inflight: inflight.load(Ordering::Relaxed),
                        },
                    );
                }
                std::thread::sleep(HEARTBEAT_INTERVAL);
            }
        });

        // Prewarm thread: prepare traces/IR and oracle tables for queued
        // units while the evaluator works on earlier ones. Failures are
        // ignored here — they resurface, typed, when the unit evaluates.
        scope.spawn(|| {
            let mut prepared = false;
            let mut warmed: BTreeSet<String> = BTreeSet::new();
            loop {
                let upcoming: Vec<String> = {
                    let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                    while q.pending.is_empty() && !q.closing {
                        q = queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                    if q.pending.is_empty() && q.closing {
                        return;
                    }
                    q.pending
                        .iter()
                        .map(|u| u.core.clone())
                        .filter(|c| !warmed.contains(c))
                        .collect()
                };
                if upcoming.is_empty() {
                    // Nothing new to warm; yield until the queue changes.
                    std::thread::sleep(HEARTBEAT_INTERVAL);
                    if finished.load(Ordering::Relaxed) {
                        return;
                    }
                    continue;
                }
                if !prepared {
                    // First touch: pull only chunk 0 of each workload's
                    // trace stream, overlapping the simulator's warm-up
                    // with other shards' evaluation without materializing
                    // any full trace. Full preparation happens (and is
                    // memoized) under the per-core warms below.
                    for w in &workloads {
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            let _ = session.prewarm_chunk0(w);
                        }));
                    }
                    prepared = true;
                }
                for core_name in upcoming {
                    if let Some(core) = parse_core(&core_name) {
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            let (data, _) = session.prepare_quarantined(&workloads);
                            for w in &data {
                                let _ = session.oracle_table(w, &core);
                            }
                        }));
                    }
                    warmed.insert(core_name);
                }
            }
        });

        // Evaluator thread: one result-or-quarantine per popped unit.
        scope.spawn(|| {
            let mut started: u64 = 0;
            let mut reported_workloads: BTreeSet<String> = BTreeSet::new();
            loop {
                let unit = {
                    let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        if let Some(u) = q.pending.pop_front() {
                            break Some(u);
                        }
                        if q.closing {
                            break None;
                        }
                        q = queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                };
                let Some(unit) = unit else {
                    finished.store(true, Ordering::Relaxed);
                    queue_cv.notify_all();
                    return;
                };
                started += 1;
                match opts.faults.action(shard, started) {
                    Some(GridFaultKind::Die) => {
                        eprintln!("[prism-grid] shard {shard}: injected death at unit {started}");
                        std::process::exit(101);
                    }
                    Some(GridFaultKind::Hang) => {
                        eprintln!("[prism-grid] shard {shard}: injected hang at unit {started}");
                        hang.store(true, Ordering::Relaxed);
                        loop {
                            std::thread::sleep(std::time::Duration::from_secs(3600));
                        }
                    }
                    Some(GridFaultKind::Quarantine) => {
                        let label = unit_label(&unit);
                        send(
                            &out,
                            &FromWorker::UnitQuarantine {
                                id: Some(unit.id),
                                key: label.clone(),
                                error: PipelineError::new(
                                    label,
                                    Stage::Evaluate,
                                    format!("injected grid fault: quarantined on shard {shard}"),
                                ),
                            },
                        );
                        inflight.fetch_sub(1, Ordering::Relaxed);
                        continue;
                    }
                    None => {}
                }
                evaluate_unit(&session, &workloads, &unit, &mut reported_workloads, &out);
                inflight.fetch_sub(1, Ordering::Relaxed);
            }
        });

        // Reader (this thread): feed the queue until shutdown, EOF, or an
        // I/O error such as an over-cap frame (either way the session is
        // over). Artifact frames are served inline — store export/import
        // is cheap I/O and must not queue behind a long evaluation.
        'reader: for line in lines {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    eprintln!("[prism-grid] shard {shard}: ending session: {e}");
                    break;
                }
            };
            match ToWorker::decode(&line) {
                Ok(ToWorker::Assign { id, core, bsas }) => {
                    inflight.fetch_add(1, Ordering::Relaxed);
                    let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                    q.pending.push_back(QueuedUnit { id, core, bsas });
                    queue_cv.notify_all();
                }
                Ok(ToWorker::Fetch { keys }) => {
                    for key in keys {
                        // Empty doc = "don't have it" so the coordinator
                        // can account for every requested key.
                        let doc = ContentHash::from_hex(&key)
                            .and_then(|k| store.export(&k))
                            .unwrap_or_default();
                        send(&out, &FromWorker::Artifact { key, doc });
                    }
                }
                Ok(ToWorker::Artifact { key, doc }) => match ContentHash::from_hex(&key) {
                    Some(k) => {
                        if let Err(e) = store.import(&k, &doc) {
                            eprintln!("[prism-grid] shard {shard}: artifact import failed: {e}");
                        }
                    }
                    None => {
                        eprintln!("[prism-grid] shard {shard}: artifact push with bad key {key}");
                    }
                },
                Ok(ToWorker::Shutdown) => break 'reader,
                Ok(ToWorker::Hello { .. }) | Err(_) => {
                    send(
                        &out,
                        &FromWorker::Fatal {
                            message: format!("unexpected message: {line}"),
                        },
                    );
                }
            }
        }
        let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
        q.closing = true;
        queue_cv.notify_all();
    });

    let session_stats = session.stats();
    send(
        &out,
        &FromWorker::Bye {
            walks: session_stats.trace_walks,
            walks_skipped: session_stats.walks_skipped,
            shape_memo_hits: session_stats.shape_memo_hits,
            timing_artifacts_loaded: session_stats.timing_artifacts_loaded,
        },
    );
    0
}

/// The unit's sweep key (Fig. 12 label), derivable without evaluating.
fn unit_label(unit: &QueuedUnit) -> String {
    match (parse_core(&unit.core), parse_bsas(&unit.bsas)) {
        (Some(core), Some(bsas)) => DesignPoint::new(core, bsas).label(),
        _ => format!("{}-{}", unit.core, unit.bsas),
    }
}

/// Evaluates one unit and reports exactly one terminal message for it
/// (plus at most one workload-level quarantine per workload per worker).
fn evaluate_unit<W: Write>(
    session: &Session,
    workloads: &[&Workload],
    unit: &QueuedUnit,
    reported_workloads: &mut BTreeSet<String>,
    out: &Mutex<W>,
) {
    let label = unit_label(unit);
    let (Some(core), Some(bsas)) = (parse_core(&unit.core), parse_bsas(&unit.bsas)) else {
        send(
            out,
            &FromWorker::UnitQuarantine {
                id: Some(unit.id),
                key: label.clone(),
                error: PipelineError::new(
                    label,
                    Stage::Evaluate,
                    format!(
                        "unparseable assignment: core `{}` bsas `{}`",
                        unit.core, unit.bsas
                    ),
                ),
            },
        );
        return;
    };
    let report = session.evaluate_designs(
        workloads,
        std::slice::from_ref(&core),
        std::slice::from_ref(&bsas),
    );
    // Name the store artifact this unit settled into, so a remote
    // coordinator knows what to pull. Preparation is memoized, so
    // recomputing the healthy workload keys here is cheap.
    let artifacts = {
        let (data, _) = session.prepare_quarantined(workloads);
        let wkeys: Vec<ContentHash> = data.iter().map(|p| p.key).collect();
        let mut keys = vec![session.design_point_key(&wkeys, &core, &bsas)];
        // Timing artifacts settled by this unit's walks ride along, so
        // the coordinator can pull them and reuse the walks on cores
        // that share a timing shape with this one.
        keys.extend(session.timing_shape_keys(&data, &core, &bsas));
        keys.iter().map(ContentHash::hex).collect::<Vec<_>>()
    };
    let mut resolved = false;
    for result in report.results {
        send(
            out,
            &FromWorker::UnitResult {
                id: unit.id,
                result,
                artifacts: artifacts.clone(),
            },
        );
        resolved = true;
    }
    for (key, error) in report.quarantined {
        if key == label {
            send(
                out,
                &FromWorker::UnitQuarantine {
                    id: Some(unit.id),
                    key,
                    error,
                },
            );
            resolved = true;
        } else if reported_workloads.insert(key.clone()) {
            // Workload-level failure: not tied to this assignment, and
            // re-derived identically by every unit — report it once.
            send(
                out,
                &FromWorker::UnitQuarantine {
                    id: None,
                    key,
                    error,
                },
            );
        }
    }
    if !resolved {
        send(
            out,
            &FromWorker::UnitQuarantine {
                id: Some(unit.id),
                key: label.clone(),
                error: PipelineError::new(
                    label,
                    Stage::Evaluate,
                    "no healthy workloads to evaluate",
                ),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn grid_faults_fire_only_on_their_shard_and_unit() {
        let plan = FaultPlan::parse("grid.die.0@2,net.drop.0@2").unwrap();
        let faults = GridFaultPlan(Some(Arc::new(plan)));
        assert_eq!(faults.action(0, 2), Some(GridFaultKind::Die));
        assert_eq!(faults.action(3, 2), None);
        assert_eq!(faults.action(0, 1), None);
        assert_eq!(faults.action(0, 3), None);
        assert_eq!(GridFaultPlan::default().action(0, 2), None);
    }

    /// One session against a worker daemon: handshake and Hello, then
    /// `rest` verbatim. Returns every frame the daemon sends before it
    /// closes the connection.
    fn daemon_session(addr: &str, rest: &[u8]) -> Vec<FromWorker> {
        let stream = TcpStream::connect(addr).unwrap();
        prism_net::client_handshake(&stream, 0, "tok").unwrap();
        let hello = ToWorker::Hello {
            proto: PROTO_VERSION,
            shard: 0,
            workloads: Vec::new(),
            max_insts: 1_000,
            artifact_dir: String::new(),
        };
        let mut w = stream.try_clone().unwrap();
        writeln!(w, "{}", hello.encode()).unwrap();
        w.write_all(rest).unwrap();
        // No shutdown of our write side: only the daemon can end this.
        // Heartbeats keep arriving while it lives, so the deadline is
        // checked at least every heartbeat interval.
        let deadline = Instant::now() + Duration::from_secs(30);
        BufReader::new(stream)
            .lines()
            .map_while(Result::ok)
            .take_while(|_| Instant::now() < deadline)
            .map(|line| FromWorker::decode(&line).unwrap())
            .collect()
    }

    fn ended_cleanly(frames: &[FromWorker]) -> bool {
        matches!(frames.first(), Some(FromWorker::HelloAck { .. }))
            && matches!(frames.last(), Some(FromWorker::Bye { .. }))
    }

    #[test]
    fn daemon_drops_an_over_cap_frame_then_serves_a_new_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let store = std::env::temp_dir().join(format!("prism-grid-overcap-{}", std::process::id()));
        let daemon_store = store.clone();
        std::thread::spawn(move || serve_tcp(listener, "tok".into(), daemon_store, None));

        // One byte over the cap and no newline: the daemon stops reading
        // at the cap and ends this session, not the process.
        let flood = vec![b'x'; prism_net::MAX_FRAME_BYTES + 1];
        let frames = daemon_session(&addr, &flood);
        assert!(ended_cleanly(&frames), "{frames:?}");

        let shutdown = format!("{}\n", ToWorker::Shutdown.encode());
        let frames = daemon_session(&addr, shutdown.as_bytes());
        assert!(ended_cleanly(&frames), "{frames:?}");
        let _ = std::fs::remove_dir_all(&store);
    }
}
