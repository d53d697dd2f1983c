//! The prism benchmark: three design-space sweep workloads, measured end
//! to end with tracing off (`--trace 0`) or replayed layer by layer with
//! tracing on (`--trace 1`). See `README.md` in this directory.
//!
//! ```text
//! prism-benchmark --workload <explore-cold|explore-timing-warm|grid-mixed>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The line before it records the run's parameters.

mod host;
mod inputs;
mod probe;
mod replay;
mod span;
mod traced;
mod untraced;

use std::path::{Path, PathBuf};
use std::time::Instant;

use prism_exocore::{evaluate_point, oracle_table, DesignPoint, DesignResult, WorkloadData};
use prism_grid::GridConfig;
use prism_net::{HostSpec, NetFaultPlan};
use prism_pipeline::{parallel_map, ArtifactStore, Json, Session, SweepReport};
use prism_sim::trace_with;

use crate::inputs::SweepInputs;
use crate::untraced::Phase;

const USAGE: &str =
    "usage: prism-benchmark --workload <explore-cold|explore-timing-warm|grid-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Worker threads of the in-process sweeps that are measured or used as
/// references. The host this benchmark was written for has two cores;
/// the grid workload likewise runs two shards.
const JOBS: usize = 2;
/// Design points re-derived per run by the direct oracle.
const CHECK_POINTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    ExploreCold,
    ExploreTimingWarm,
    GridMixed,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "explore-cold" => Some(Kind::ExploreCold),
            "explore-timing-warm" => Some(Kind::ExploreTimingWarm),
            "grid-mixed" => Some(Kind::GridMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::ExploreCold => "explore-cold",
            Kind::ExploreTimingWarm => "explore-timing-warm",
            Kind::GridMixed => "grid-mixed",
        }
    }

    fn inputs(self, seed: u64) -> SweepInputs {
        match self {
            Kind::ExploreCold | Kind::ExploreTimingWarm => inputs::explore(seed),
            Kind::GridMixed => inputs::grid(seed),
        }
    }
}

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child processes of an untraced run.
    phase: Option<(Phase, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut phase, mut dir) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--phase" => {
                phase = Some(Phase::parse(value).ok_or(format!("unknown phase `{value}`"))?)
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        phase: match (phase, dir) {
            (Some(p), Some(d)) => Some((p, d)),
            (None, None) => None,
            _ => return Err("--phase and --dir go together".into()),
        },
    })
}

/// A run's verdict and metrics.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Broken invariants other than unit failures (reconciliation).
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn count(&mut self, name: &str, value: u64) {
        self.metric(name, value as f64, "count");
    }

    /// Counts `units` attempted units, of which those not equal to the
    /// reference's result under the same label failed.
    fn check(&mut self, reference: &[DesignResult], results: &[DesignResult], units: usize) {
        let good = results
            .iter()
            .filter(|r| reference.iter().any(|x| x == *r))
            .count();
        self.attempted += units as u64;
        self.failed += units.saturating_sub(good) as u64;
    }

    fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::F64(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            (
                "correct".into(),
                Json::Bool(self.failed == 0 && self.problems.is_empty()),
            ),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100).
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Where runs keep their stores: inside the checkout, removed at exit.
fn runs_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".bench_runs")
}

fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

fn session(inputs: &SweepInputs, jobs: usize, store: &Path) -> Session {
    Session::new()
        .with_tracer(inputs.tracer)
        .with_jobs(jobs)
        .with_store_dir(store)
}

/// The measured call: the `prism explore` sweep path.
fn sweep(session: &Session, inputs: &SweepInputs) -> SweepReport {
    session.evaluate_designs_resumable(&inputs.refs(), &inputs.cores, &inputs.subsets, false)
}

/// Wall and CPU seconds of one measured call.
#[derive(Debug, Clone, Copy)]
struct Cost {
    wall_s: f64,
    /// CPU seconds of this process and its reaped children.
    cpu_s: f64,
}

/// Runs `f` and measures its [`Cost`].
fn timed<R>(f: impl FnOnce() -> R) -> Result<(R, Cost), String> {
    let cpu0 = host::cpu_s()?;
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_s()? - cpu0;
    Ok((out, Cost { wall_s, cpu_s }))
}

/// Deletes every design-point artifact of the sweep from the store at
/// `dir`, keeping its timing artifacts: the timing-warm state.
fn strip_design_points(inputs: &SweepInputs, dir: &Path) -> Result<(), String> {
    let keys = Session::new()
        .with_tracer(inputs.tracer)
        .with_store_dir(dir);
    let wkeys: Vec<_> = inputs
        .workloads
        .iter()
        .map(|w| keys.workload_key(w.name, w.scaled_n()))
        .collect();
    let store = ArtifactStore::new(dir);
    for core in &inputs.cores {
        for bsas in &inputs.subsets {
            let key = keys.design_point_key(&wkeys, core, bsas);
            // The store files an artifact under the short form of its key.
            let _ = std::fs::remove_file(dir.join(format!("{}.json", key.short())));
            if store.contains(&key) {
                return Err(format!(
                    "design-point artifact {} survived deletion: the store layout changed",
                    key.short()
                ));
            }
        }
    }
    Ok(())
}

/// Fills the store at `dir` with the sweep's timing artifacts but none of
/// its design points, through a full cold sweep. Returns that sweep's
/// report.
fn populate_timing_warm(inputs: &SweepInputs, dir: &Path) -> Result<SweepReport, String> {
    fresh_dir(dir)?;
    let report = sweep(&session(inputs, JOBS, dir), inputs);
    strip_design_points(inputs, dir)?;
    Ok(report)
}

/// Starts a loopback grid worker daemon with its own store, served from
/// this process, and returns its port. The daemon serves until the
/// process exits.
fn start_daemon(store: PathBuf) -> Result<u16, String> {
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind daemon: {e}"))?;
    let port = listener
        .local_addr()
        .map_err(|e| format!("daemon address: {e}"))?
        .port();
    std::thread::spawn(move || prism_grid::serve_tcp(listener, String::new(), store, None));
    Ok(port)
}

/// A running loopback daemon with an empty store under `dir`, plus an
/// empty coordinator store: the grid's environment, as a remote host
/// that is already serving would provide it. Returns the daemon's port
/// and the coordinator's store.
fn grid_hosts(dir: &Path) -> Result<(u16, PathBuf), String> {
    let port = start_daemon(fresh_dir(&dir.join("daemon"))?)?;
    Ok((port, fresh_dir(&dir.join("coordinator"))?))
}

/// The grid of the sweep: one local stdio worker (this executable) plus
/// the loopback daemon on `daemon_port`.
fn grid_config(inputs: &SweepInputs, daemon_port: u16, coordinator_store: PathBuf) -> GridConfig {
    let mut config = GridConfig::full_space(1);
    config.hosts = vec![HostSpec {
        host: "127.0.0.1".into(),
        port: daemon_port,
    }];
    config.workloads = inputs
        .workloads
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    config.cores = inputs.cores.clone();
    config.subsets = inputs.subsets.clone();
    config.max_insts = inputs.tracer.max_insts;
    config.artifact_dir = coordinator_store;
    config.net_faults = NetFaultPlan::default();
    config
}

/// Re-derives `CHECK_POINTS` seeded design points with the direct oracle
/// (whole-trace `run_exocore`, no memo, no store) and checks them against
/// `reference`.
fn direct_check(
    out: &mut Outcome,
    inputs: &SweepInputs,
    seed: u64,
    reference: &[DesignResult],
) -> Result<(), String> {
    let idxs = inputs::check_sample(seed, inputs, CHECK_POINTS);
    let data: Vec<WorkloadData> = parallel_map(&inputs.workloads, JOBS, |_, w| {
        trace_with(&(w.build)(w.scaled_n()), &inputs.tracer)
            .map(WorkloadData::from_trace)
            .map_err(|e| format!("{}: trace failed: {e}", w.name))
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    let core = &inputs.cores[idxs[0] / inputs.subsets.len()];
    let tables = parallel_map(&data, JOBS, |_, d| oracle_table(d, core));
    let points: Vec<DesignPoint> = idxs
        .iter()
        .map(|i| {
            DesignPoint::new(
                core.clone(),
                inputs.subsets[i % inputs.subsets.len()].clone(),
            )
        })
        .collect();
    let results = parallel_map(&points, JOBS, |_, p| evaluate_point(&data, &tables, p));
    out.check(reference, &results, points.len());
    Ok(())
}

/// Best-effort revision of the measured code: the git commit when the
/// checkout is a repository, plus a digest of the sources it builds from.
fn revision() -> (String, String) {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = std::process::Command::new("git")
        .arg("-C")
        .arg(&repo)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let mut files = Vec::new();
    collect_sources(&repo.join("crates"), &mut files);
    collect_sources(&repo.join("benchmark").join("src"), &mut files);
    files.sort();
    let mut h = prism_pipeline::hash::Sha256::new();
    for f in &files {
        h.update_str(&f.display().to_string());
        h.update(&std::fs::read(f).unwrap_or_default());
    }
    (commit, h.finish().short())
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if matches!(
            path.extension().and_then(|x| x.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}

/// The run record printed before the result: what was measured, where.
fn record(args: &Args, inputs: &SweepInputs) -> Json {
    let (commit, digest) = revision();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let sizes = inputs
        .sizes()
        .into_iter()
        .map(|(name, n)| (name.to_string(), Json::U64(u64::from(n))))
        .collect();
    let jobs = if args.trace { 1 } else { JOBS };
    Json::Obj(vec![(
        "record".into(),
        Json::Obj(vec![
            ("rev".into(), Json::Str(commit)),
            ("source_digest".into(), Json::Str(digest)),
            ("workload".into(), Json::Str(args.kind.name().into())),
            ("seed".into(), Json::U64(args.seed)),
            ("seconds".into(), Json::F64(args.seconds)),
            ("trace".into(), Json::Bool(args.trace)),
            ("nproc".into(), Json::U64(nproc as u64)),
            ("jobs".into(), Json::U64(jobs as u64)),
            ("max_insts".into(), Json::U64(inputs.tracer.max_insts)),
            ("design_points".into(), Json::U64(inputs.units() as u64)),
            ("workload_sizes".into(), Json::Obj(sizes)),
        ]),
    )])
}

/// Clears every `PRISM_*` knob so that the run measures the defaults
/// whatever the caller's environment holds, and points the default store
/// into the run directory. Grid workers inherit this environment.
///
/// One default is changed: store and journal writes skip their fsyncs.
/// Their latency belongs to the disk, not to the program, and on a
/// shared virtual disk it moved a cold sweep's wall time by more than the
/// benchmark's bound; the number of writes stays visible as
/// `pipeline.store.put.calls` and `pipeline.journal.append.calls`.
fn isolate_env(run_dir: &Path) {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PRISM_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("PRISM_ARTIFACT_DIR", run_dir.join("default-store"));
    std::env::set_var(prism_pipeline::NO_FSYNC_ENV, "1");
}

fn main() {
    // The grid's stdio workers are this executable, re-entered.
    prism_grid::run_worker_if_env();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let inputs = args.kind.inputs(args.seed);
    if let Some((phase, dir)) = &args.phase {
        match untraced::run_phase(args.kind, *phase, &inputs, dir) {
            Ok(run) => println!("{}", run.to_json()),
            Err(e) => {
                eprintln!(
                    "[benchmark] {} {} phase failed: {e}",
                    args.kind.name(),
                    phase.name()
                );
                std::process::exit(1);
            }
        }
        return;
    }
    let root = runs_root().join(format!("run-{}", std::process::id()));
    isolate_env(&root);
    let result = fresh_dir(&root).and_then(|root| {
        if args.trace {
            traced::run_traced(&args, &inputs, &root)
        } else {
            untraced::run_untraced(&args, &inputs, &root)
        }
    });
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(runs_root());
    match result {
        Ok(outcome) => {
            for p in &outcome.problems {
                eprintln!("[benchmark] check failed: {p}");
            }
            println!("{}", record(&args, &inputs));
            println!("{}", outcome.to_json());
        }
        Err(e) => {
            eprintln!("[benchmark] {} failed: {e}", args.kind.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests;
