//! Equivalence proof for the memoized sweep: every design point a
//! `Session` sweep reports must be **byte-identical** to the direct
//! oracle (`prism_exocore::evaluate_point`: one whole-trace `run_exocore`
//! per workload, no timing memo, no shape key, no store) — under plain
//! runs, under fault injection, under streaming mode and under execution
//! budgets. The session walks each distinct µDG shape once and re-prices
//! the shared `ExoTiming` per BSA subset; pricing preserves
//! float-operation order, so not even a ULP may differ, and a shape key
//! that merged two different walks shows up as a mismatch.

mod common;

use prism_pipeline::{ErrorKind, FaultPlan, Session, Stage, SweepReport, INJECTED_PANIC_PREFIX};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::{CoreConfig, ExecBudget, NODES_PER_INST};
use prism_workloads::Workload;

fn quick_tracer() -> TracerConfig {
    TracerConfig {
        max_insts: 4_000,
        ..TracerConfig::default()
    }
}

/// A session insulated from ambient env knobs, writing artifacts under a
/// fresh per-test store.
fn session(tag: &str) -> Session {
    let dir = std::env::temp_dir().join(format!("prism-perf-equiv-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Session::new()
        .with_tracer(quick_tracer())
        .with_jobs(2)
        .with_faults(None)
        .with_budget(ExecBudget::unlimited())
        .with_divergence_guard(None)
        .with_streaming(false)
        .with_store_dir(dir)
}

/// The full registry (every workload, quick-traced).
fn full_registry() -> Vec<&'static Workload> {
    prism_workloads::ALL.iter().collect()
}

/// The full 64-point grid.
fn grid() -> (Vec<CoreConfig>, Vec<Vec<BsaKind>>) {
    (prism_exocore::all_cores(), prism_exocore::all_bsa_subsets())
}

/// A reduced grid for the fault/streaming/budget variants (the
/// orthogonality they exercise does not depend on grid size, and this
/// test binary must stay fast on single-core CI hosts).
fn small_grid() -> (Vec<CoreConfig>, Vec<Vec<BsaKind>>) {
    (
        vec![CoreConfig::io2(), CoreConfig::ooo4()],
        vec![
            vec![],
            vec![BsaKind::Simd],
            vec![BsaKind::NsDf, BsaKind::TraceP],
            BsaKind::ALL.to_vec(),
        ],
    )
}

/// Quarantined design points (not workloads) of a report.
fn quarantined_points(report: &SweepReport) -> Vec<&prism_pipeline::PipelineError> {
    report
        .quarantined
        .iter()
        .filter(|(unit, _)| !unit.starts_with("workload:"))
        .map(|(_, e)| e)
        .collect()
}

#[test]
fn full_registry_sweep_matches_direct_oracle() {
    let workloads = full_registry();
    let (cores, subsets) = grid();
    let report = session("plain").evaluate_designs(&workloads, &cores, &subsets);
    assert!(report.quarantined.is_empty(), "healthy sweep expected");
    let checked = common::assert_matches_direct(&report, &workloads, &cores, &quick_tracer());
    assert_eq!(checked, cores.len() * subsets.len());
}

#[test]
fn faulted_sweep_matches_direct_oracle() {
    // Deterministic fault plan (as if via PRISM_FAULTS): trace truncation
    // quarantines workloads, and the first two evaluate-stage entries
    // panic. Every evaluation runs after the timing prefill, so all of
    // them are memo hits: the fault hook must fire on hits all the same.
    let plan = FaultPlan::parse("trace.truncate~0.05,evaluate.panic@1,evaluate.panic@2,seed=7")
        .expect("valid spec");
    let workloads = full_registry();
    let (cores, subsets) = small_grid();
    let s = session("faults").with_faults(Some(std::sync::Arc::new(plan)));
    let report = s.evaluate_designs(&workloads, &cores, &subsets);

    let points = quarantined_points(&report);
    let truncated = report.quarantined.len() - points.len();
    assert!(
        truncated > 0,
        "fault plan must truncate a trace for this test to mean anything"
    );
    assert_eq!(points.len(), 2, "{:?}", report.quarantined);
    for e in points {
        assert_eq!(
            (e.stage, e.kind),
            (Stage::Evaluate, ErrorKind::StagePanicked)
        );
        assert!(e.message.contains(INJECTED_PANIC_PREFIX), "{e}");
    }
    assert_eq!(report.results.len() + 2, cores.len() * subsets.len());
    assert!(s.stats().shape_memo_hits > 0, "{:?}", s.stats());
    for r in &report.results {
        assert_eq!(r.per_workload.len(), workloads.len() - truncated);
    }
    common::assert_matches_direct(&report, &workloads, &cores, &quick_tracer());
}

#[test]
fn streaming_sweep_matches_direct_oracle() {
    // As if via PRISM_STREAM=1: chunked trace persistence must not
    // disturb the memoized path.
    let workloads = full_registry();
    let (cores, subsets) = small_grid();
    let report = session("stream")
        .with_streaming(true)
        .evaluate_designs(&workloads, &cores, &subsets);
    assert!(report.quarantined.is_empty(), "healthy sweep expected");
    common::assert_matches_direct(&report, &workloads, &cores, &quick_tracer());
}

#[test]
fn budget_is_charged_on_memo_hits() {
    // A budget that fits every oracle table and every one-workload point
    // but not a point over the whole registry. The direct oracle charges
    // each workload's whole-trace walk, so a point fails exactly when its
    // traces exceed the budget — and a session must agree even when the
    // timings it prices come from the memo instead of a walk.
    let workloads = full_registry();
    let (cores, subsets) = small_grid();
    let core = &cores[0];
    let tracer = quick_tracer();
    let data = common::direct_data(&workloads, &tracer);
    let nodes = |len: usize| len as u64 * NODES_PER_INST;
    let table_cost = data
        .values()
        .map(|d| {
            let table = prism_exocore::oracle_table(d, core);
            (1 + table.candidates.len() as u64) * nodes(d.trace.len())
        })
        .max()
        .expect("registry is not empty");
    let point_cost: u64 = data.values().map(|d| nodes(d.trace.len())).sum();
    assert!(
        point_cost > table_cost,
        "the registry must outweigh its costliest table ({point_cost} vs {table_cost})"
    );
    let s = session("budget").with_budget(ExecBudget::new(table_cost));

    // One workload fits: every point is healthy and matches the oracle.
    let one = &workloads[..1];
    let small = s.evaluate_designs(one, &cores[..1], &subsets);
    assert!(small.quarantined.is_empty(), "{:?}", small.quarantined);
    common::assert_matches_direct(&small, one, &cores, &tracer);
    assert!(s.stats().trace_walks > 0);

    // The whole registry does not: the first workload's timings are now
    // memo hits, and every point must still blow the budget.
    let hits_before = s.stats().shape_memo_hits;
    let all = s.evaluate_designs(&workloads, &cores[..1], &subsets);
    assert!(all.results.is_empty(), "no point fits the budget");
    assert_eq!(all.quarantined.len(), subsets.len());
    for (unit, e) in &all.quarantined {
        assert_eq!(e.kind, ErrorKind::BudgetExceeded, "{unit}: {e}");
    }
    assert!(
        s.stats().shape_memo_hits > hits_before,
        "the first workload's timings must come from the memo: {:?}",
        s.stats()
    );
}
