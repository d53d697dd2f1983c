//! Property: the streaming trace architecture is invisible in results.
//!
//! Streaming mode (chunk artifacts persisted and replayed from the store)
//! and plain in-memory mode must produce *identical* [`SweepReport`]s —
//! over every registered workload, and under fault injection where a
//! `trace.truncate` fault lands mid-stream on a chunk site.
//!
//! The whole property lives in one `#[test]` because it pins `PRISM_CHUNK`
//! (so every trace spans many chunks) via the process environment, which
//! must not race with other tests in this binary.

use std::sync::Arc;

use prism::pipeline::{FaultPlan, Session, Site, SweepReport};
use prism::sim::TracerConfig;
use prism::tdg::BsaKind;
use prism::udg::{CoreConfig, ExecBudget};
use prism::workloads::Workload;

/// Small chunk size so the ~10k-inst quick traces span ~3 chunks each.
const CHUNK: &str = "4096";

fn quick_tracer() -> TracerConfig {
    TracerConfig {
        max_insts: 10_000,
        ..TracerConfig::default()
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prism-streameq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn session(tag: &str, streaming: bool, faults: Option<Arc<FaultPlan>>) -> Session {
    Session::new()
        .with_tracer(quick_tracer())
        .with_store_dir(temp_dir(tag))
        .with_faults(faults)
        .with_budget(ExecBudget::unlimited())
        .with_divergence_guard(None)
        .with_streaming(streaming)
}

/// A plan truncating each trace (or stream chunk) with probability 0.2 %.
fn truncating_plan(seed: u64) -> FaultPlan {
    FaultPlan::parse(&format!("trace.truncate~0.002,seed={seed}")).expect("valid spec")
}

fn sweep(s: &Session, workloads: &[&Workload]) -> SweepReport {
    let (data, failed) = s.prepare_quarantined(workloads);
    let mut report = s.explore_grid(
        &data,
        &[CoreConfig::ooo2()],
        &[vec![], BsaKind::ALL.to_vec()],
    );
    for (name, err) in failed {
        report.quarantined.push((format!("workload:{name}"), err));
    }
    report.sort_units();
    report
}

#[test]
fn streaming_and_in_memory_sweeps_are_identical() {
    std::env::set_var("PRISM_CHUNK", CHUNK);
    let workloads: Vec<&Workload> = prism::workloads::ALL.iter().collect();
    assert!(workloads.len() >= 49, "registry shrank?");

    // ---- Healthy runs: in-memory vs streaming vs chunk replay ----------
    let in_memory = sweep(&session("mem", false, None), &workloads);
    assert!(
        in_memory.quarantined.is_empty(),
        "healthy run quarantined: {:?}",
        in_memory.quarantined
    );

    let stream_store = temp_dir("stream");
    let first = Session::new()
        .with_tracer(quick_tracer())
        .with_store_dir(&stream_store)
        .with_faults(None)
        .with_budget(ExecBudget::unlimited())
        .with_divergence_guard(None)
        .with_streaming(true);
    assert_eq!(sweep(&first, &workloads), in_memory);

    // A second streaming session over the same store replays the traces
    // from persisted chunk artifacts instead of re-simulating.
    let replay = Session::new()
        .with_tracer(quick_tracer())
        .with_store_dir(&stream_store)
        .with_faults(None)
        .with_budget(ExecBudget::unlimited())
        .with_divergence_guard(None)
        .with_streaming(true);
    assert_eq!(sweep(&replay, &workloads), in_memory);
    let stats = replay.stats();
    assert!(
        stats.artifacts.hits > 0,
        "replay run should hit chunk artifacts: {stats:?}"
    );
    assert_eq!(
        stats.sim_insts, 0,
        "replay run should not re-simulate anything"
    );

    // ---- Fault-injected runs: truncation landing mid-stream ------------
    // The fault rolls are pure in (seed, site), so both modes see the same
    // truncations. Find a seed whose truncation lands on `mm:chunk1` — a
    // workload long enough (10k insts = 3 chunks here) that chunk 1 is
    // always reached, so the stream dies mid-trace, not at the gate.
    let mid_chunk_seed = (0..5000)
        .find(|&seed| {
            let plan = truncating_plan(seed);
            !plan.rolls(Site::TraceTruncate, "mm")
                && !plan.rolls(Site::TraceTruncate, "mm:chunk0")
                && plan.rolls(Site::TraceTruncate, "mm:chunk1")
        })
        .expect("some seed in 0..5000 truncates mm mid-stream");
    let plan = Arc::new(truncating_plan(mid_chunk_seed));

    let faulted_mem = sweep(&session("fmem", false, Some(Arc::clone(&plan))), &workloads);
    let faulted_stream = sweep(&session("fstream", true, Some(plan)), &workloads);
    assert_eq!(faulted_mem, faulted_stream);
    assert!(
        faulted_mem
            .quarantined
            .iter()
            .any(|(_, e)| e.to_string().contains("truncated at chunk")),
        "expected a mid-stream chunk truncation: {:?}",
        faulted_mem.quarantined
    );
}
