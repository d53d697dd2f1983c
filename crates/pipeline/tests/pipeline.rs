//! End-to-end pipeline tests: artifact-cache round-trips, content-key
//! invalidation, and the determinism guarantee (`--jobs 1` ≡ `--jobs N`).

use std::collections::HashSet;

use prism_exocore::{oracle_pick, oracle_table, DesignPoint};
use prism_pipeline::{ContentHash, Json, Session};
use prism_sim::TracerConfig;
use prism_tdg::{Assignment, BsaKind};
use prism_udg::{CoreConfig, ExecBudget};
use prism_workloads::{Workload, MICRO};

fn quick_tracer() -> TracerConfig {
    TracerConfig {
        max_insts: 20_000,
        ..TracerConfig::default()
    }
}

/// A session insulated from ambient env knobs (`PRISM_FAULTS`,
/// `PRISM_MAX_NODES`, `PRISM_DIVERGENCE`), so these determinism and cache
/// tests hold even under the CI fault-injection matrix.
fn clean_session() -> Session {
    Session::new()
        .with_tracer(quick_tracer())
        .with_jobs(1)
        .with_faults(None)
        .with_budget(ExecBudget::unlimited())
        .with_divergence_guard(None)
        .with_store_cap(None)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("prism-pipeline-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

#[test]
fn artifact_cache_roundtrip_hits_on_second_run() {
    let dir = temp_dir("roundtrip");
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    // Cold run: every point is a miss, then gets stored.
    let cold = clean_session().with_store_dir(&dir);
    let first = cold
        .explore_grid_cached(&workloads, &cores, &subsets)
        .expect("cold run");
    let s = cold.stats();
    assert_eq!(s.artifacts.hits, 0);
    // Every design point misses once, and each distinct timing shape —
    // design point or oracle table — attempts (and misses) a
    // timing-artifact load before its walk.
    assert_eq!(
        s.artifacts.misses,
        (cores.len() * subsets.len()) as u64 + s.trace_walks + s.table_walks,
        "{s:?}"
    );

    // Warm run in a fresh session: every point loads from disk — no
    // tracing happens at all (the workload memo stays empty).
    let warm = clean_session().with_store_dir(&dir);
    let second = warm
        .explore_grid_cached(&workloads, &cores, &subsets)
        .expect("warm run");
    let s = warm.stats();
    assert_eq!(s.artifacts.misses, 0, "warm run must not miss");
    assert_eq!(s.artifacts.hits, (cores.len() * subsets.len()) as u64);
    assert_eq!(s.memo_misses, 0, "warm run must not prepare any workload");

    // Loaded results are bit-identical to computed ones.
    assert_eq!(first, second);
}

#[test]
fn tracer_config_change_invalidates_artifacts() {
    let dir = temp_dir("tracer-invalidation");
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    let a = clean_session().with_store_dir(&dir);
    a.explore_grid_cached(&workloads, &cores, &subsets)
        .expect("first run");

    // Same store, different tracer: every key changes, so nothing hits.
    let other = TracerConfig {
        max_insts: 10_000,
        ..quick_tracer()
    };
    let b = clean_session().with_tracer(other).with_store_dir(&dir);
    b.explore_grid_cached(&workloads, &cores, &subsets)
        .expect("second run");
    let s = b.stats();
    assert_eq!(
        s.artifacts.hits, 0,
        "changed tracer config must miss every artifact"
    );
    // Changed trace identity changes timing shapes too, so each walk's
    // load-before-walk also misses, for tables and design points alike.
    assert_eq!(
        s.artifacts.misses,
        (cores.len() * subsets.len()) as u64 + s.trace_walks + s.table_walks,
        "{s:?}"
    );
}

#[test]
fn corrupt_artifact_recomputes_instead_of_failing() {
    let dir = temp_dir("corrupt");
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    let a = clean_session().with_store_dir(&dir);
    let first = a
        .explore_grid_cached(&workloads, &cores, &subsets)
        .expect("first run");

    // Truncate one *design* artifact and swap valid JSON of the wrong
    // shape into another; both must be treated as misses and recomputed.
    // (Timing artifacts — payloads carrying `timeline_len` — share the
    // store; skip them so exactly two design points are hit.)
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            let text = std::fs::read_to_string(p).expect("read artifact");
            let doc = Json::parse(&text).expect("parse artifact");
            doc.get("payload")
                .map(|pl| pl.get("timeline_len").is_none())
                .unwrap_or(true)
        })
        .collect();
    files.sort();
    std::fs::write(&files[0], "{ truncated").expect("corrupt file");
    std::fs::write(&files[1], Json::Obj(vec![]).to_string()).expect("wrong shape");

    let b = clean_session().with_store_dir(&dir);
    let second = b
        .explore_grid_cached(&workloads, &cores, &subsets)
        .expect("recovery run");
    assert_eq!(first, second);
    let s = b.stats();
    // The 2 corrupt design points miss, and so does each oracle-table
    // timing the first run never stored (only design-point timings are
    // persisted), which the tables then walk.
    assert_eq!(s.artifacts.misses, 2 + s.table_walks, "{s:?}");
    // The 6 intact design points hit, and the 2 recomputed points and
    // their cores' oracle tables reuse the first run's (uncorrupted)
    // timing artifacts instead of walking.
    assert_eq!(
        s.artifacts.hits,
        (cores.len() * subsets.len()) as u64 - 2
            + s.timing_artifacts_loaded
            + s.table_timings_loaded,
        "{s:?}"
    );
    assert_eq!(s.trace_walks, 0, "timing artifacts must cover the walks");
    // The tables also load the timings of the intact points' picks,
    // which no recomputed point uses.
    assert!(s.table_timings_loaded > 0, "{s:?}");
}

#[test]
fn parallel_and_sequential_runs_are_bit_identical() {
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    let seq = clean_session();
    let data = seq.prepare_batch(&workloads).expect("prepare");
    let sequential = seq.explore_grid(&data, &cores, &subsets);

    for jobs in [2, 4] {
        let par = clean_session().with_jobs(jobs);
        let data = par.prepare_batch(&workloads).expect("prepare");
        let parallel = par.explore_grid(&data, &cores, &subsets);
        assert_eq!(
            sequential, parallel,
            "jobs={jobs} must produce bit-identical DesignResults to jobs=1"
        );
    }
}

#[test]
fn deleting_the_store_forces_a_clean_recompute() {
    let dir = temp_dir("cold");
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    let a = clean_session().with_store_dir(&dir);
    let first = a
        .explore_grid_cached(&workloads, &cores, &subsets)
        .expect("first run");

    // The supported way to force a cold run: delete the store directory.
    std::fs::remove_dir_all(&dir).expect("remove store");
    let b = clean_session().with_store_dir(&dir);
    let second = b
        .explore_grid_cached(&workloads, &cores, &subsets)
        .expect("cold run");
    assert_eq!(first, second);
    assert_eq!(b.stats().artifacts.hits, 0, "cold run cannot hit the store");
    assert!(
        b.stats().memo_misses > 0,
        "cold run must actually recompute"
    );
}

/// The µDG shape keys a sweep's oracle tables and design points need,
/// derived from plain [`oracle_table`]s rather than the session's memo:
/// `(table shapes, point shapes)`.
fn shape_sets(
    workloads: &[&Workload],
    cores: &[CoreConfig],
    subsets: &[Vec<BsaKind>],
) -> (HashSet<ContentHash>, HashSet<ContentHash>) {
    let keys = clean_session().with_store_dir(temp_dir("shape-keys"));
    let data = keys.prepare_batch(workloads).expect("prepare");
    let (mut table, mut point) = (HashSet::new(), HashSet::new());
    for core in cores {
        for w in &data {
            let t = oracle_table(&w.data, core);
            table.insert(keys.shape_key(w, core, &Assignment::none()));
            for c in &t.candidates {
                let mut a = Assignment::none();
                a.set(c.lid, c.kind);
                table.insert(keys.shape_key(w, core, &a));
            }
            for bsas in subsets {
                let p = DesignPoint::new(core.clone(), bsas.clone());
                let a = oracle_pick(&t, &w.data, &p.bsas);
                point.insert(keys.shape_key(w, &p.core, &a));
            }
        }
    }
    (table, point)
}

#[test]
fn cold_sweep_walks_each_table_and_point_shape_once() {
    let dir = temp_dir("walk-union");
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    let s = clean_session().with_store_dir(&dir);
    s.explore_grid_cached(&workloads, &cores, &subsets)
        .expect("cold run");
    let st = s.stats();
    let (table, point) = shape_sets(&workloads, &cores, &subsets);
    assert!(
        !table.is_subset(&point) && !point.is_subset(&table) && !table.is_disjoint(&point),
        "the sweep must have table-only, point-only and shared shapes"
    );
    assert_eq!(st.trace_walks, point.len() as u64, "{st:?}");
    assert_eq!(
        st.trace_walks + st.table_walks,
        table.union(&point).count() as u64,
        "{st:?}"
    );
    assert_eq!(
        (st.timing_artifacts_loaded, st.table_timings_loaded),
        (0, 0),
        "{st:?}"
    );
    // Only design-point timings are persisted.
    assert_eq!(
        st.artifacts.recomputes,
        (cores.len() * subsets.len()) as u64 + st.trace_walks,
        "{st:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timing_warm_tables_load_shared_shapes_and_walk_only_their_own() {
    let dir = temp_dir("timing-warm");
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    let cold = clean_session()
        .with_store_dir(&dir)
        .explore_grid_cached(&workloads, &cores, &subsets)
        .expect("cold run");
    // Keep the timing artifacts (payloads carrying `timeline_len`),
    // delete the design points.
    for entry in std::fs::read_dir(&dir).expect("store dir") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read artifact");
        let doc = Json::parse(&text).expect("parse artifact");
        if doc
            .get("payload")
            .and_then(|p| p.get("timeline_len"))
            .is_none()
        {
            std::fs::remove_file(&path).expect("delete design point");
        }
    }

    let s = clean_session().with_store_dir(&dir);
    let warm = s
        .explore_grid_cached(&workloads, &cores, &subsets)
        .expect("timing-warm run");
    assert_eq!(cold, warm);
    let st = s.stats();
    let (table, point) = shape_sets(&workloads, &cores, &subsets);
    assert_eq!(st.trace_walks, 0, "{st:?}");
    assert_eq!(
        st.table_walks,
        table.difference(&point).count() as u64,
        "{st:?}"
    );
    // Every stored timing is a design-point shape, so the tables' loads
    // (the shared shapes) all end up used by a point and count there.
    assert_eq!(st.timing_artifacts_loaded, point.len() as u64, "{st:?}");
    assert_eq!(st.table_timings_loaded, 0, "{st:?}");
    let points = (cores.len() * subsets.len()) as u64;
    assert_eq!(st.artifacts.hits, st.timing_artifacts_loaded, "{st:?}");
    assert_eq!(
        st.artifacts.misses,
        points + st.trace_walks + st.table_walks,
        "{st:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
