//! Fault-injection integration tests: sweeps under injected stage panics,
//! corrupt artifacts, failing store I/O, execution budgets, and the
//! µDG-vs-reference divergence guard must isolate failures per unit and
//! keep every healthy point.

use std::sync::Arc;

use prism_pipeline::{DivergenceGuard, ErrorKind, FaultPlan, Session, Stage, SweepReport};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::{CoreConfig, ExecBudget};
use prism_workloads::{Workload, MICRO};

fn quick_tracer() -> TracerConfig {
    TracerConfig {
        max_insts: 20_000,
        ..TracerConfig::default()
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prism-fault-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A session insulated from ambient env knobs, so these tests control
/// fault injection explicitly even under the CI fault matrix.
fn clean_session(tag: &str) -> Session {
    Session::new()
        .with_tracer(quick_tracer())
        .with_jobs(1)
        .with_store_dir(temp_dir(tag))
        .with_faults(None)
        .with_budget(ExecBudget::unlimited())
        .with_divergence_guard(None)
}

fn micro_set() -> Vec<&'static Workload> {
    MICRO.iter().take(3).collect()
}

fn small_grid() -> (Vec<CoreConfig>, Vec<Vec<BsaKind>>) {
    (
        vec![CoreConfig::io2(), CoreConfig::ooo2()],
        vec![
            vec![],
            vec![BsaKind::Simd],
            vec![BsaKind::NsDf],
            BsaKind::ALL.to_vec(),
        ],
    )
}

fn run_sweep(session: &Session) -> SweepReport {
    let (cores, subsets) = small_grid();
    session.evaluate_designs(&micro_set(), &cores, &subsets)
}

#[test]
fn stage_panics_and_corrupt_artifacts_quarantine_per_point() {
    let (cores, subsets) = small_grid();
    let total = cores.len() * subsets.len();

    // Reference: what a healthy sweep produces.
    let healthy = run_sweep(&clean_session("panic-ref"));
    assert!(healthy.quarantined.is_empty());
    assert_eq!(healthy.results.len(), total);

    // Chaos run: the first two design-point evaluations panic, and every
    // artifact load comes back corrupted (forcing the discard path — the
    // store starts empty here, so corruption only matters for re-loads).
    let plan = FaultPlan::parse("evaluate.panic@1,evaluate.panic@2,store.corrupt~1,seed=42")
        .expect("valid spec");
    let session = clean_session("panic-chaos").with_faults(Some(Arc::new(plan)));
    let report = run_sweep(&session);

    assert_eq!(report.quarantined.len(), 2, "{:?}", report.quarantined);
    assert_eq!(report.results.len(), total - 2);
    for (key, err) in &report.quarantined {
        assert_eq!(err.kind, ErrorKind::StagePanicked, "{key}: {err}");
        assert_eq!(err.stage, Stage::Evaluate, "{key}: {err}");
        assert!(err.message.contains("injected fault"), "{key}: {err}");
        // Quarantine keys are design-point labels (core name + BSA codes).
        assert!(key.starts_with("IO2") || key.starts_with("OOO2"), "{key}");
    }
    // Healthy points match the reference run bit-for-bit.
    for r in &report.results {
        let reference = healthy
            .results
            .iter()
            .find(|h| h.label == r.label)
            .expect("healthy run covers every label");
        assert_eq!(r, reference);
    }
    assert!(!report.all_failed());
    assert_eq!(report.exit_code(), 0);
    let summary = report.failure_summary().expect("quarantine summary");
    assert!(summary.contains("2 of"), "{summary}");

    // The panic plan is exhausted: a rerun on the same session heals the
    // two quarantined points (healthy ones load from the store).
    let rerun = run_sweep(&session);
    assert!(rerun.quarantined.is_empty(), "{:?}", rerun.quarantined);
    assert_eq!(rerun.results.len(), total);
}

#[test]
fn total_trace_truncation_fails_everything_with_typed_errors() {
    let plan = FaultPlan::parse("trace.truncate~1,seed=7").expect("valid spec");
    let session = clean_session("truncate").with_faults(Some(Arc::new(plan)));
    let report = run_sweep(&session);

    assert!(report.results.is_empty());
    assert!(report.all_failed());
    assert_eq!(report.exit_code(), 1);
    assert_eq!(report.quarantined.len(), micro_set().len());
    for (key, err) in &report.quarantined {
        assert!(key.starts_with("workload:"), "{key}");
        assert_eq!(err.stage, Stage::Trace, "{err}");
        assert_eq!(err.kind, ErrorKind::Failed, "{err}");
        assert!(err.message.contains("truncated"), "{err}");
    }
}

#[test]
fn dead_store_degrades_to_recompute_with_identical_results() {
    let healthy = run_sweep(&clean_session("deadstore-ref"));

    let plan = FaultPlan::parse("store.io~1,seed=3").expect("valid spec");
    let session = clean_session("deadstore").with_faults(Some(Arc::new(plan)));
    let report = run_sweep(&session);

    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.results, healthy.results);
    let s = session.stats();
    assert!(s.artifacts.io_errors > 0, "{:?}", s.artifacts);
    assert!(s.artifacts.io_retries > 0, "{:?}", s.artifacts);
    assert_eq!(s.artifacts.hits, 0, "a dead store cannot serve hits");
}

#[test]
fn tiny_budget_quarantines_every_point_as_budget_exceeded() {
    let session = clean_session("budget").with_budget(ExecBudget::new(100));
    let report = run_sweep(&session);

    let (cores, subsets) = small_grid();
    assert!(report.results.is_empty());
    assert_eq!(report.quarantined.len(), cores.len() * subsets.len());
    assert!(report.all_failed());
    for (_, err) in &report.quarantined {
        assert_eq!(err.kind, ErrorKind::BudgetExceeded, "{err}");
        assert!(err.message.contains("budget"), "{err}");
    }
}

#[test]
fn divergence_guard_flags_only_beyond_tolerance() {
    // Measure the actual µDG-vs-reference divergence of the sweep's
    // (workload, core) pairs, then set the tolerance on either side of it.
    let probe = clean_session("guard-probe");
    let data = probe.prepare_batch(&micro_set()).expect("prepare");
    let (cores, subsets) = small_grid();
    let mut max_rel = 0.0f64;
    for w in &data {
        for core in &cores {
            // tolerance 0 errs whenever rel > 0 and reports the error.
            if let Err(msg) = DivergenceGuard::new(0.0, 1).check(w, core) {
                let rel: f64 = msg
                    .split("relative error ")
                    .nth(1)
                    .and_then(|s| s.split(' ').next())
                    .and_then(|s| s.parse().ok())
                    .expect("divergence message carries the relative error");
                max_rel = max_rel.max(rel);
            }
        }
    }
    assert!(
        max_rel > 0.0,
        "µDG and reference agree exactly; guard test needs a skew"
    );

    // Tolerance above the worst divergence: nothing quarantined.
    let lenient = clean_session("guard-lenient")
        .with_divergence_guard(Some(DivergenceGuard::new(max_rel * 2.0, 1)));
    let ok = lenient.evaluate_designs(&micro_set(), &cores, &subsets);
    assert!(ok.quarantined.is_empty(), "{:?}", ok.quarantined);

    // Tolerance below it: the offending core's points are quarantined as
    // Diverged, the rest still evaluate.
    let strict = clean_session("guard-strict")
        .with_divergence_guard(Some(DivergenceGuard::new(max_rel / 2.0, 1)));
    let flagged = strict.evaluate_designs(&micro_set(), &cores, &subsets);
    assert!(!flagged.quarantined.is_empty());
    for (_, err) in &flagged.quarantined {
        assert_eq!(err.kind, ErrorKind::Diverged, "{err}");
        assert!(err.message.contains("tolerance"), "{err}");
    }
    // Quarantine granularity is per core: whole multiples of the subset
    // count, never the entire sweep unless every core diverges.
    assert_eq!(flagged.quarantined.len() % subsets.len(), 0);
    assert_eq!(
        flagged.results.len() + flagged.quarantined.len(),
        cores.len() * subsets.len()
    );
}

#[test]
fn env_driven_fault_plan_still_completes_the_sweep() {
    // Under the CI fault matrix (PRISM_FAULTS set) this exercises the
    // whole chaos path end-to-end; without it, it's a plain healthy sweep.
    // Either way: no aborts, and every grid point is accounted for.
    let session = Session::new()
        .with_tracer(quick_tracer())
        .with_jobs(2)
        .with_store_dir(temp_dir("env-driven"));
    let (cores, subsets) = small_grid();
    let report = session.evaluate_designs(&micro_set(), &cores, &subsets);
    let total = cores.len() * subsets.len();
    let workload_failures = report
        .quarantined
        .iter()
        .filter(|(k, _)| k.starts_with("workload:"))
        .count();
    if workload_failures == micro_set().len() {
        // Everything fell over in preparation; nothing else to account.
        assert!(report.results.is_empty());
    } else {
        assert_eq!(
            report.results.len() + (report.quarantined.len() - workload_failures),
            total,
            "{:?}",
            report.quarantined
        );
    }
}
