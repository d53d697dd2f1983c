//! Equivalence proof for the timing-reuse layer: shape-keyed timing
//! memoization (in-process, cross-variant) and persistent timing
//! artifacts (cross-process, via the content-addressed store) must be
//! pure caches — every sweep they accelerate must be **byte-identical**
//! to the cold run and to the direct oracle
//! (`prism_exocore::evaluate_point`, see `common`), and a corrupt timing
//! artifact must degrade to recompute, never to an error or a changed
//! result.

mod common;

use prism_pipeline::{FaultPlan, Session, SweepReport};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::{CoreConfig, ExecBudget};
use prism_workloads::Workload;

fn quick_tracer() -> TracerConfig {
    TracerConfig {
        max_insts: 4_000,
        ..TracerConfig::default()
    }
}

/// A session insulated from ambient env knobs, writing artifacts under
/// the given per-test store directory (shared across sessions of one
/// test to model warm restarts; pass a fresh tag for a cold store).
fn session_at(dir: &std::path::Path) -> Session {
    Session::new()
        .with_tracer(quick_tracer())
        .with_jobs(2)
        .with_faults(None)
        .with_budget(ExecBudget::unlimited())
        .with_divergence_guard(None)
        .with_streaming(false)
        .with_store_cap(None)
        .with_store_dir(dir)
}

/// A fresh (removed) store directory unique to this test.
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prism-timing-equiv-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn registry() -> Vec<&'static Workload> {
    prism_workloads::ALL.iter().collect()
}

/// A core that shares IO2's timing shape but not its display name: the
/// design-point key differs (name is priced identity), the µDG shape
/// hash does not.
fn io2_twin() -> CoreConfig {
    let mut core = CoreConfig::io2();
    core.name = "IO2-twin".into();
    core
}

fn small_subsets() -> Vec<Vec<BsaKind>> {
    vec![
        vec![],
        vec![BsaKind::Simd],
        vec![BsaKind::NsDf, BsaKind::TraceP],
        BsaKind::ALL.to_vec(),
    ]
}

fn fingerprint(report: &SweepReport) -> String {
    format!("{report:?}")
}

#[test]
fn warm_store_sweep_is_byte_identical_and_walk_free() {
    let workloads = registry();
    let cores = vec![CoreConfig::io2(), CoreConfig::ooo4()];
    let subsets = small_subsets();

    let warm_dir = fresh_dir("warm");
    let cold = session_at(&warm_dir).evaluate_designs(&workloads, &cores, &subsets);
    assert!(cold.quarantined.is_empty(), "healthy sweep expected");

    // A fresh session over the same store models a warm process restart:
    // byte-identical output, zero trace walks.
    let warm_session = session_at(&warm_dir);
    let warm = warm_session.evaluate_designs(&workloads, &cores, &subsets);
    let stats = warm_session.stats();
    assert_eq!(fingerprint(&cold), fingerprint(&warm));
    assert_eq!(stats.trace_walks, 0, "warm run must not walk: {stats:?}");

    // And the direct oracle agrees byte-for-byte.
    common::assert_matches_direct(&cold, &workloads, &cores, &quick_tracer());
}

#[test]
fn shape_sharing_core_reuses_walks_in_process() {
    let workloads = registry();
    let subsets = small_subsets();

    // Walk count for IO2 alone, with the store disabled as a source
    // (cold dir) so every walk is really performed.
    let solo_session = session_at(&fresh_dir("solo"));
    let _ = solo_session.evaluate_designs(&workloads, &[CoreConfig::io2()], &subsets);
    let solo_walks = solo_session.stats().trace_walks;
    assert!(solo_walks > 0, "cold run must walk");

    // IO2 plus its renamed twin in one session: the twin's timing comes
    // from the shape-keyed memo, so the walk count must not grow.
    let pair_session = session_at(&fresh_dir("pair"));
    let cores = [CoreConfig::io2(), io2_twin()];
    let pair = pair_session.evaluate_designs(&workloads, &cores, &subsets);
    let stats = pair_session.stats();
    assert_eq!(
        stats.trace_walks, solo_walks,
        "twin core must add zero walks: {stats:?}"
    );
    assert!(stats.shape_memo_hits > 0, "memo must be hit: {stats:?}");

    // Both cores' results — the twin's priced from IO2's walks — are
    // byte-identical to the direct oracle on each core.
    assert!(pair.results.iter().any(|r| r.core == "IO2-twin"));
    common::assert_matches_direct(&pair, &workloads, &cores, &quick_tracer());
}

#[test]
fn timing_artifacts_warm_a_fresh_process_across_core_variants() {
    let workloads = registry();
    let subsets = small_subsets();
    let dir = fresh_dir("across");

    // Cold run settles IO2's timing artifacts into the store.
    let _ = session_at(&dir).evaluate_designs(&workloads, &[CoreConfig::io2()], &subsets);

    // A fresh session evaluates only the renamed twin: its design-point
    // results are not in the store (the name differs), but its timing
    // shape is — so it prices loaded summaries instead of walking.
    let warm_session = session_at(&dir);
    let warm = warm_session.evaluate_designs(&workloads, &[io2_twin()], &subsets);
    let stats = warm_session.stats();
    assert_eq!(stats.trace_walks, 0, "twin must not walk: {stats:?}");
    assert!(
        stats.timing_artifacts_loaded > 0,
        "timing artifacts must load: {stats:?}"
    );

    common::assert_matches_direct(&warm, &workloads, &[io2_twin()], &quick_tracer());
}

#[test]
fn corrupt_timing_artifacts_degrade_to_recompute() {
    let workloads = registry();
    let subsets = small_subsets();
    let dir = fresh_dir("corrupt");

    let _ = session_at(&dir).evaluate_designs(&workloads, &[CoreConfig::io2()], &subsets);

    // Corrupt every stored artifact in place (timing summaries included).
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).expect("store dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            std::fs::write(&path, b"{ not an envelope").expect("overwrite artifact");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "the cold run must have stored artifacts");

    // The warm twin run now finds only garbage: it must silently fall
    // back to walking and still produce byte-identical results.
    let warm_session = session_at(&dir);
    let warm = warm_session.evaluate_designs(&workloads, &[io2_twin()], &subsets);
    let stats = warm_session.stats();
    assert!(warm.quarantined.is_empty(), "corruption must not error");
    assert!(stats.trace_walks > 0, "must recompute: {stats:?}");
    assert_eq!(stats.timing_artifacts_loaded, 0, "{stats:?}");

    common::assert_matches_direct(&warm, &workloads, &[io2_twin()], &quick_tracer());
}

#[test]
fn streamed_faulted_sweep_matches_direct_oracle() {
    // As if via PRISM_STREAM=1 + site-seeded PRISM_FAULTS: injected
    // store I/O failures and artifact corruption hit the timing cache
    // too, and must only ever degrade it to recompute.
    let plan = FaultPlan::parse("store.io~0.05,store.corrupt~0.10,seed=11").expect("valid spec");
    let workloads = registry();
    let cores = vec![CoreConfig::io2(), io2_twin()];
    let subsets = small_subsets();

    let report = session_at(&fresh_dir("faults"))
        .with_streaming(true)
        .with_faults(Some(std::sync::Arc::new(plan)))
        .evaluate_designs(&workloads, &cores, &subsets);
    assert!(report.quarantined.is_empty(), "these faults only degrade");
    common::assert_matches_direct(&report, &workloads, &cores, &quick_tracer());
}
