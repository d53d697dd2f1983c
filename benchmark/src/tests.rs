//! Self-tests of the benchmark's tracing: the traced replay must agree
//! with the session's own counters and results, and time added to one
//! call must land in that call's layer only. They use a small sweep
//! (three microbenchmarks, two cores, four subsets, short traces) so they
//! run in seconds.

use std::path::PathBuf;
use std::time::Duration;

use prism_exocore::{all_bsa_subsets, all_cores};
use prism_sim::TracerConfig;

use super::*;
use crate::span::{LayerTotal, Recorder};
use crate::traced::MIN_ATTRIBUTED;

fn small_sweep() -> SweepInputs {
    SweepInputs {
        workloads: prism_workloads::MICRO[..3].to_vec(),
        cores: all_cores()[..2].to_vec(),
        subsets: all_bsa_subsets()[..4].to_vec(),
        tracer: TracerConfig {
            max_insts: 20_000,
            ..TracerConfig::default()
        },
    }
}

/// A scratch directory removed when the test ends, pass or fail.
struct TestDir(PathBuf);

impl TestDir {
    fn new(name: &str) -> TestDir {
        let dir = runs_root().join(format!("test-{name}-{}", std::process::id()));
        TestDir(fresh_dir(&dir).expect("test dir"))
    }

    fn join(&self, part: &str) -> PathBuf {
        self.0.join(part)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_runs` behind only while another test still uses it.
        let _ = std::fs::remove_dir(runs_root());
    }
}

struct Traced {
    summary: replay::Summary,
    replay: replay::Replay,
}

fn traced(rec: &Recorder, inputs: &SweepInputs, dir: &Path) -> Traced {
    let replay = replay::replay(rec, inputs, dir).expect("replay");
    Traced {
        summary: replay::Summary::of(rec),
        replay,
    }
}

impl Traced {
    fn layer(&self, name: &str) -> LayerTotal {
        self.summary.layer(name)
    }

    fn attributed_ratio(&self) -> f64 {
        self.summary.attributed_ratio
    }
}

#[test]
fn cold_replay_reconciles_with_session_counters() {
    let inputs = small_sweep();
    let dir = TestDir::new("cold");
    let s = session(&inputs, 1, &dir.join("untraced"));
    let report = sweep(&s, &inputs);
    let stats = s.stats();
    let t = traced(&Recorder::new(), &inputs, &dir.join("replay"));
    assert_eq!(t.replay.report, report, "replay must reproduce the sweep");
    assert!(stats.trace_walks > 0);
    assert_eq!(t.layer("udg.walk").calls, stats.trace_walks);
    assert_eq!(t.replay.get_hits, stats.timing_artifacts_loaded);
    assert_eq!(
        t.layer("pipeline.store.put").calls,
        stats.artifacts.recomputes
    );
    assert!(
        t.attributed_ratio() >= MIN_ATTRIBUTED,
        "{}",
        t.attributed_ratio()
    );
}

#[test]
fn timing_warm_replay_walks_nothing() {
    let inputs = small_sweep();
    let dir = TestDir::new("warm");
    let store = dir.join("store");
    let cold = populate_timing_warm(&inputs, &store).expect("populate");
    let s = session(&inputs, 1, &store);
    let report = sweep(&s, &inputs);
    let stats = s.stats();
    assert_eq!(report, cold);
    strip_design_points(&inputs, &store).expect("strip");
    let t = traced(&Recorder::new(), &inputs, &store);
    assert_eq!(t.replay.report, report);
    assert_eq!(stats.trace_walks, 0);
    assert_eq!(t.layer("udg.walk").calls, 0);
    assert!(stats.timing_artifacts_loaded > 0);
    assert_eq!(t.replay.get_hits, stats.timing_artifacts_loaded);
    assert!(
        t.attributed_ratio() >= MIN_ATTRIBUTED,
        "{}",
        t.attributed_ratio()
    );
}

#[test]
fn added_delay_shows_in_its_layer_only() {
    let inputs = small_sweep();
    let dir = TestDir::new("attribution");
    let delay = Duration::from_millis(25);
    let plain = traced(&Recorder::new(), &inputs, &dir.join("plain"));
    let slowed = traced(
        &Recorder::with_delay("udg.walk", delay),
        &inputs,
        &dir.join("slowed"),
    );
    assert_eq!(slowed.replay.report, plain.replay.report);
    let calls = slowed.layer("udg.walk").calls;
    assert!(calls > 0);
    let added = calls as f64 * delay.as_secs_f64();
    let grew = |name: &str| slowed.layer(name).self_s - plain.layer(name).self_s;
    assert!(
        grew("udg.walk") >= 0.9 * added,
        "udg.walk grew {} of {added}",
        grew("udg.walk")
    );
    for name in slowed.summary.layers.keys().filter(|n| **n != "udg.walk") {
        assert!(
            grew(name) < 0.25 * added,
            "{name} grew {} with the delay in udg.walk",
            grew(name)
        );
    }
}

#[test]
fn args_parse_and_reject() {
    let ok: Vec<String> = [
        "--workload",
        "grid-mixed",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "1",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    let a = parse_args(&ok).expect("valid");
    assert_eq!((a.kind, a.seed, a.trace), (Kind::GridMixed, 3, true));
    let bad: Vec<String> = ["--workload", "nope", "--seed", "1"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    assert!(parse_args(&bad).is_err());
}

#[test]
fn percentiles_use_nearest_rank() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 5.0);
    assert_eq!(percentile(&v, 90.0), 9.0);
    assert_eq!(median(&v), 5.5);
}
