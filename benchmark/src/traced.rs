//! `--trace 1`: the per-layer metrics, from a traced replay of the
//! workload's sweep next to an untraced one, plus the grid's counters
//! and protocol round trips.

use std::path::Path;

use prism_grid::{run_grid, GridStats};

use crate::inputs::SweepInputs;
use crate::span::{LayerTotal, Recorder};
use crate::{
    direct_check, fresh_dir, grid_config, grid_hosts, host, percentile, populate_timing_warm,
    probe, replay, session, strip_design_points, sweep, timed, Args, Kind, Outcome,
};

/// Smallest `trace.attributed_ratio` a traced run accepts.
pub const MIN_ATTRIBUTED: f64 = 0.9;

/// Span names whose self time is reported as `<name>.self_s`.
const LAYERS: [&str; 16] = [
    "workloads.build",
    "sim.trace",
    "exocore.prepare",
    "exocore.oracle_table",
    "exocore.oracle_pick",
    "pipeline.key",
    "udg.walk",
    "core.price",
    "exocore.assemble",
    "pipeline.codec.encode",
    "pipeline.codec.decode",
    "pipeline.store.get",
    "pipeline.store.put",
    "pipeline.journal.append",
    "pipeline.journal.open",
    "pipeline.journal.remove",
];

/// `--trace 1`: one untraced sweep on one thread for the session's own
/// counters and the overhead baseline, then the traced replay of the same
/// sweep from the same starting store, then the fabric probes.
pub fn run_traced(args: &Args, inputs: &SweepInputs, root: &Path) -> Result<Outcome, String> {
    let units = inputs.units();
    let mut out = Outcome::default();
    let (untraced_dir, replay_dir, population) = match args.kind {
        Kind::ExploreTimingWarm => {
            let dir = root.join("store");
            let population = populate_timing_warm(inputs, &dir)?;
            (dir.clone(), dir, Some(population))
        }
        _ => (
            fresh_dir(&root.join("untraced"))?,
            fresh_dir(&root.join("replay"))?,
            None,
        ),
    };

    let s = session(inputs, 1, &untraced_dir);
    let (untraced, untraced_cost) = timed(|| sweep(&s, inputs))?;
    let stats = s.stats();
    if args.kind == Kind::ExploreTimingWarm {
        strip_design_points(inputs, &replay_dir)?;
    }

    let bytes_before = host::dir_bytes(&replay_dir);
    let rec = Recorder::new();
    let replayed = replay::replay(&rec, inputs, &replay_dir)?;
    let bytes_written = host::dir_bytes(&replay_dir).saturating_sub(bytes_before);
    let summary = replay::Summary::of(&rec);
    let layer = |name: &str| summary.layer(name);

    // The design-point tier: a fresh session over the now-complete store.
    let (reloaded, reload_cost) = timed(|| sweep(&session(inputs, 1, &replay_dir), inputs))?;

    let reference = population.unwrap_or_else(|| untraced.clone());
    out.check(&reference.results, &untraced.results, units);
    out.check(&reference.results, &replayed.report.results, units);
    out.check(&reference.results, &reloaded.results, units);

    // The grid run has no spans inside this process, so its self time is
    // its wall time.
    let (grid, grid_run_s) = if args.kind == Kind::GridMixed {
        let (port, coordinator) = grid_hosts(&root.join("grid"))?;
        let config = grid_config(inputs, port, coordinator);
        let (outcome, cost) = timed(|| run_grid(&config))?;
        let outcome = outcome.map_err(|e| e.to_string())?;
        out.check(&reference.results, &outcome.report.results, units);
        (outcome.stats, cost.wall_s)
    } else {
        (GridStats::default(), 0.0)
    };
    let rtts = probe::measure(&fresh_dir(&root.join("probe"))?)?;
    direct_check(&mut out, inputs, args.seed, &reference.results)?;

    let walk = layer("udg.walk");
    out.require(
        walk.calls == stats.trace_walks,
        format!(
            "udg.walk.calls {} != session.trace_walks {}",
            walk.calls, stats.trace_walks
        ),
    );
    out.require(
        replayed.get_hits == stats.timing_artifacts_loaded,
        format!(
            "store get hits {} != session.timing_artifacts_loaded {}",
            replayed.get_hits, stats.timing_artifacts_loaded
        ),
    );
    if args.kind == Kind::ExploreTimingWarm {
        out.require(
            walk.calls == 0,
            format!("timing-warm replay walked {} traces", walk.calls),
        );
    }
    let attributed_ratio = summary.attributed_ratio;
    out.require(
        attributed_ratio >= MIN_ATTRIBUTED,
        format!("trace.attributed_ratio {attributed_ratio:.3} < {MIN_ATTRIBUTED}"),
    );

    for name in LAYERS {
        out.metric(&format!("{name}.self_s"), layer(name).self_s, "s");
    }
    let per_s = |count: u64, t: LayerTotal| {
        if t.self_s > 0.0 {
            count as f64 / t.self_s
        } else {
            0.0
        }
    };
    out.count("sim.insts", replayed.sim_insts);
    out.metric(
        "sim.insts_per_s",
        per_s(replayed.sim_insts, layer("sim.trace")),
        "1/s",
    );
    let table = layer("exocore.oracle_table");
    out.count("exocore.oracle_table.calls", table.calls);
    out.count("exocore.oracle_table.candidates", replayed.candidates);
    out.count("udg.walk.calls", walk.calls);
    out.metric(
        "udg.walk.insts_per_s",
        per_s(replayed.walk_insts, walk),
        "1/s",
    );
    out.count("core.price.calls", layer("core.price").calls);
    let (get, put) = (layer("pipeline.store.get"), layer("pipeline.store.put"));
    out.count("pipeline.store.put.calls", put.calls);
    out.metric(
        "pipeline.store.bytes_written",
        bytes_written as f64,
        "bytes",
    );
    out.count("pipeline.store.get.calls", get.calls);
    let hit_ratio = replayed.get_hits as f64 / get.calls.max(1) as f64;
    out.metric("pipeline.store.get.hit_ratio", hit_ratio, "ratio");
    let append = layer("pipeline.journal.append");
    out.count("pipeline.journal.append.calls", append.calls);
    out.metric("pipeline.design_point_load_s", reload_cost.wall_s, "s");

    out.count("session.trace_walks", stats.trace_walks);
    out.count("session.walks_skipped", stats.walks_skipped);
    out.count(
        "session.timing_artifacts_loaded",
        stats.timing_artifacts_loaded,
    );
    out.count("session.recomputes", stats.artifacts.recomputes);
    let requests = stats.trace_walks + stats.walks_skipped;
    let reuse = stats.walks_skipped as f64 / requests.max(1) as f64;
    out.metric("session.walk_reuse_ratio", reuse, "ratio");

    out.count("grid.walks", grid.walks);
    out.count("grid.timing_artifacts_loaded", grid.timing_artifacts_loaded);
    out.count("grid.units_reassigned", grid.units_reassigned as u64);
    out.count("grid.units_retried", grid.units_retried as u64);
    out.count("grid.workers_died", grid.workers_died as u64);
    let shipped: u64 = grid.hosts.iter().map(|h| h.bytes_shipped).sum();
    let reconnects: usize = grid.hosts.iter().map(|h| h.reconnects).sum();
    out.metric("net.bytes_shipped", shipped as f64, "bytes");
    out.count("net.reconnects", reconnects as u64);
    out.metric("grid.run.self_s", grid_run_s, "s");
    out.metric("grid.hello_rtt.p50_s", percentile(&rtts.hello, 50.0), "s");
    out.metric("grid.hello_rtt.p90_s", percentile(&rtts.hello, 90.0), "s");
    out.metric("grid.assign_rtt.p50_s", percentile(&rtts.assign, 50.0), "s");
    out.metric("grid.assign_rtt.p90_s", percentile(&rtts.assign, 90.0), "s");

    out.metric("trace.wall_s", summary.wall_s, "s");
    out.metric("trace.attributed_ratio", attributed_ratio, "ratio");
    out.metric(
        "trace.overhead_s",
        summary.wall_s - untraced_cost.wall_s,
        "s",
    );
    Ok(out)
}
