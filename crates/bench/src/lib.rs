//! # prism-bench
//!
//! The evaluation harness: one binary per table and figure of *Analyzing
//! Behavior Specialized Acceleration* (ASPLOS 2016). See `DESIGN.md` §4
//! for the experiment index and `EXPERIMENTS.md` for recorded results.
//!
//! Every binary goes through the shared [`session`] — a
//! [`prism_pipeline::Session`] that memoizes trace/IR/plan preparation,
//! caches design-point results in a content-addressed artifact store, and
//! fans work out over `--jobs N` (or `PRISM_JOBS`) worker threads. With
//! `PRISM_WORKERS=N` (N > 1), full-space sweeps additionally shard across
//! N worker *processes* via [`prism_grid`]. `--stats` on any figure
//! binary prints the store/session counters to stderr.

#![warn(missing_docs)]

pub mod published;

use std::sync::OnceLock;

use prism_exocore::DesignResult;
pub use prism_grid::run_worker_if_env;
use prism_grid::{run_grid, workers_from_env, GridConfig};
use prism_pipeline::{
    flag_from_args, jobs_from_args, PipelineError, PreparedWorkload, Session, SweepReport,
};

/// The process-wide pipeline session shared by all bench binaries.
/// Honors a `--jobs N` command-line flag, `PRISM_JOBS`, and
/// `PRISM_ARTIFACT_DIR`.
pub fn session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(|| {
        let args: Vec<String> = std::env::args().collect();
        match jobs_from_args(&args) {
            Some(jobs) => Session::new().with_jobs(jobs),
            None => Session::new(),
        }
    })
}

/// Whether `--stats` was passed to this binary.
#[must_use]
pub fn stats_requested() -> bool {
    let args: Vec<String> = std::env::args().collect();
    flag_from_args(&args, "--stats")
}

/// Whether `--resume` was passed to this binary: replay the sweep
/// journal of a killed run and skip every unit it records as settled.
#[must_use]
pub fn resume_requested() -> bool {
    let args: Vec<String> = std::env::args().collect();
    flag_from_args(&args, "--resume")
}

/// Prints the shared session's counters to stderr when `--stats` was
/// passed. Figure binaries call this after their sweep.
pub fn log_stats_if_requested() {
    if stats_requested() {
        eprint!("{}", session().stats().render());
    }
}

/// Unwraps a pipeline result, exiting with a readable error (workload +
/// stage) instead of a panic backtrace.
pub fn run_or_exit<T>(result: Result<T, PipelineError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// Prepares the workloads of one suite, in parallel.
///
/// # Errors
///
/// Returns a [`PipelineError`] naming the workload and failing stage.
pub fn prepare_suite(
    suite: prism_workloads::Suite,
) -> Result<Vec<PreparedWorkload>, PipelineError> {
    session().prepare_suite(suite)
}

/// Prepares registry workloads by name, in parallel.
///
/// # Errors
///
/// Returns a [`PipelineError`] naming the workload and failing stage; an
/// unknown name fails in the build stage.
pub fn prepare_named(names: &[&str]) -> Result<Vec<PreparedWorkload>, PipelineError> {
    let workloads = names
        .iter()
        .map(|n| {
            prism_workloads::by_name(n).ok_or_else(|| {
                PipelineError::new(*n, prism_pipeline::Stage::Build, "unknown workload")
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    session().prepare_batch(&workloads)
}

/// Runs the full 64-point design-space exploration over all workloads,
/// loading already-evaluated points from the content-addressed artifact
/// store (`target/prism-artifacts`, override with `PRISM_ARTIFACT_DIR`).
/// Artifacts invalidate automatically when any input changes; a fully
/// cached run does no tracing at all. `--stats` prints the session
/// counters.
///
/// Failures are isolated per unit: the report carries results for every
/// healthy design point plus a quarantine list for the rest.
///
/// With `PRISM_WORKERS=N` (N > 1), the sweep is sharded across N worker
/// processes by the [`prism_grid`] coordinator instead; the merged report
/// is identical to the in-process one (both draw from the same
/// content-addressed store).
///
/// The sweep writes an append-only journal of settled units; `--resume`
/// replays it after a kill and recomputes only what is missing, producing
/// the same report as an uninterrupted run.
#[must_use]
pub fn full_design_space() -> SweepReport {
    // Worker mode: under the grid coordinator this binary's stdout is the
    // wire protocol, so re-enter as a worker before printing anything.
    prism_grid::run_worker_if_env();

    if let Some(workers) = workers_from_env() {
        let mut config = GridConfig::full_space(workers);
        config.resume = resume_requested();
        match run_grid(&config) {
            Ok(outcome) => {
                eprintln!(
                    "[grid] {} workers, {} units ({} retried, {} reassigned)",
                    outcome.stats.workers_spawned,
                    outcome.stats.units_total,
                    outcome.stats.units_retried,
                    outcome.stats.units_reassigned
                );
                if stats_requested() {
                    eprint!("{}", outcome.stats.render());
                }
                return outcome.report;
            }
            Err(e) => eprintln!("[grid] {e}; falling back to in-process sweep"),
        }
    }
    let s = session();
    let report = s.full_design_space_resumable(resume_requested());
    log_stats_if_requested();
    report
}

/// Unwraps a sweep for figure binaries: renders the failure summary (if
/// any) to stderr, exits nonzero only when *everything* failed, and
/// otherwise returns the healthy results so the figure still prints from
/// whatever survived.
#[must_use]
pub fn results_or_exit(report: SweepReport) -> Vec<DesignResult> {
    if let Some(summary) = report.failure_summary() {
        eprint!("{summary}");
    }
    if report.all_failed() {
        eprintln!("error: every design point failed; nothing to report");
        std::process::exit(report.exit_code());
    }
    report.results
}

/// Finds a design result by its Fig. 12 label.
///
/// # Panics
///
/// Panics if the label is unknown.
#[must_use]
pub fn by_label<'a>(results: &'a [DesignResult], label: &str) -> &'a DesignResult {
    results
        .iter()
        .find(|r| r.label == label)
        .unwrap_or_else(|| panic!("no design point labeled {label}"))
}
