//! `--trace 0`: the end-to-end metrics. Every measured sweep runs in a
//! child process of the benchmark (a `--phase`), so that it starts from
//! an empty heap like a `prism explore` invocation and its peak memory is
//! its own; the parent collects the samples and checks the results.

use std::path::Path;
use std::time::Instant;

use prism_exocore::DesignResult;
use prism_grid::run_grid;
use prism_pipeline::{decode_design_result, encode_design_result, Json};

use crate::inputs::SweepInputs;
use crate::{
    direct_check, fresh_dir, grid_config, grid_hosts, host, median, populate_timing_warm, session,
    strip_design_points, sweep, timed, Args, Cost, Kind, Outcome, JOBS,
};

/// Set-up samples per cold or grid repetition: their set-up (a session
/// open; a daemon start) takes well under a millisecond, so one sample
/// would mostly measure scheduler accidents.
const CHEAP_SETUP_SAMPLES: usize = 9;
/// Measured sweeps per untraced run, however long they take: a median
/// of one sample would carry all of one sweep's host noise.
const MIN_SWEEPS: usize = 2;
/// Timing-warm sweeps measured on one populated store; the design-point
/// artifacts are deleted again before each.
const WARM_SWEEPS_PER_STORE: usize = 3;

/// What one child process of an untraced run measured.
#[derive(Debug)]
pub struct ChildRun {
    /// Set-up samples, in seconds.
    setups: Vec<f64>,
    /// The measured call; absent for the timing-warm population phase.
    cost: Option<Cost>,
    /// Peak resident memory of the child process.
    peak_rss_mib: f64,
    /// The sweep's results.
    results: Vec<DesignResult>,
}

impl ChildRun {
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "setups".into(),
                Json::Arr(self.setups.iter().map(|t| Json::F64(*t)).collect()),
            ),
            ("peak_rss_mib".into(), Json::F64(self.peak_rss_mib)),
            (
                "results".into(),
                Json::Arr(self.results.iter().map(encode_design_result).collect()),
            ),
        ];
        if let Some(c) = self.cost {
            fields.push(("wall_s".into(), Json::F64(c.wall_s)));
            fields.push(("cpu_s".into(), Json::F64(c.cpu_s)));
        }
        Json::Obj(fields)
    }

    fn from_json(doc: &Json) -> Option<ChildRun> {
        let f64s = |key: &str| -> Option<Vec<f64>> {
            doc.get(key)?.as_arr()?.iter().map(Json::as_f64).collect()
        };
        let cost = match (doc.get("wall_s"), doc.get("cpu_s")) {
            (Some(w), Some(c)) => Some(Cost {
                wall_s: w.as_f64()?,
                cpu_s: c.as_f64()?,
            }),
            _ => None,
        };
        // An undecodable result counts as a missing, hence failed, unit.
        let results = doc
            .get("results")?
            .as_arr()?
            .iter()
            .filter_map(decode_design_result)
            .collect();
        Some(ChildRun {
            setups: f64s("setups")?,
            cost,
            peak_rss_mib: doc.get("peak_rss_mib")?.as_f64()?,
            results,
        })
    }
}

/// A child process's part of an untraced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fill the timing-warm store (the workload's set-up).
    Populate,
    /// Set up and run one measured sweep.
    Measure,
}

impl Phase {
    pub fn parse(name: &str) -> Option<Phase> {
        match name {
            "populate" => Some(Phase::Populate),
            "measure" => Some(Phase::Measure),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Phase::Populate => "populate",
            Phase::Measure => "measure",
        }
    }
}

/// Runs `prepare` and then times `setup` on its output, `samples` times,
/// keeping the last result. `prepare` is the benchmark's own work, such as
/// giving each sample an empty directory; only the program's set-up is
/// timed.
fn repeated_setup<P, T>(
    samples: usize,
    mut prepare: impl FnMut(usize) -> Result<P, String>,
    mut setup: impl FnMut(P) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for i in 0..samples {
        let prepared = prepare(i)?;
        let start = Instant::now();
        last = Some(setup(prepared)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up sample"), times))
}

/// The child side: one phase of one repetition, in the store under `dir`.
pub fn run_phase(
    kind: Kind,
    phase: Phase,
    inputs: &SweepInputs,
    dir: &Path,
) -> Result<ChildRun, String> {
    let (setups, cost, report) = match (kind, phase) {
        (Kind::ExploreTimingWarm, Phase::Populate) => {
            let (report, setups) =
                repeated_setup(1, |_| Ok(()), |()| populate_timing_warm(inputs, dir))?;
            (setups, None, report)
        }
        (_, Phase::Populate) => return Err(format!("{} has no populate phase", kind.name())),
        (Kind::ExploreCold, Phase::Measure) => {
            // A store directory that does not exist yet: the store creates
            // it on its first write, as in a first `prism explore`.
            let (s, setups) = repeated_setup(
                CHEAP_SETUP_SAMPLES,
                |i| Ok(dir.join(format!("setup{i}"))),
                |store| Ok(session(inputs, JOBS, &store)),
            )?;
            let (report, cost) = timed(|| sweep(&s, inputs))?;
            (setups, Some(cost), report)
        }
        (Kind::ExploreTimingWarm, Phase::Measure) => {
            let (s, setups) = repeated_setup(
                1,
                |_| strip_design_points(inputs, dir),
                |()| Ok(session(inputs, JOBS, dir)),
            )?;
            let (report, cost) = timed(|| sweep(&s, inputs))?;
            if s.stats().trace_walks != 0 {
                eprintln!(
                    "[benchmark] warning: timing-warm sweep walked {} traces",
                    s.stats().trace_walks
                );
            }
            (setups, Some(cost), report)
        }
        (Kind::GridMixed, Phase::Measure) => {
            // Every sample starts its own daemon; the unused ones idle in
            // `accept` until the process exits.
            let (config, setups) = repeated_setup(
                CHEAP_SETUP_SAMPLES,
                |i| grid_hosts(&dir.join(format!("setup{i}"))),
                |(port, coordinator)| Ok(grid_config(inputs, port, coordinator)),
            )?;
            let (outcome, cost) = timed(|| run_grid(&config))?;
            (
                setups,
                Some(cost),
                outcome.map_err(|e| e.to_string())?.report,
            )
        }
    };
    Ok(ChildRun {
        setups,
        cost,
        peak_rss_mib: host::peak_rss_mib()?,
        results: report.results,
    })
}

/// Runs one phase in a fresh child process, so that every measured sweep
/// starts from an empty heap like a `prism explore` invocation and its
/// peak memory is its own.
fn spawn_phase(args: &Args, phase: Phase, dir: &Path) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .args(["--phase", phase.name()])
        .arg("--dir")
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {} phase: {e}", phase.name()))?;
    if !output.status.success() {
        return Err(format!("{} phase failed: {}", phase.name(), output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or_default();
    Json::parse(last)
        .ok()
        .as_ref()
        .and_then(ChildRun::from_json)
        .ok_or_else(|| format!("{} phase printed no result", phase.name()))
}

/// One measured sweep of an untraced run.
struct Sample {
    /// Set-up samples that preceded this sweep (empty when it reused the
    /// previous sweep's store).
    setups: Vec<f64>,
    cost: Cost,
    peak_rss_mib: f64,
    results: Vec<DesignResult>,
}

impl Sample {
    fn from_child(run: ChildRun) -> Result<Sample, String> {
        Ok(Sample {
            setups: run.setups,
            cost: run.cost.ok_or("measure phase reported no cost")?,
            peak_rss_mib: run.peak_rss_mib,
            results: run.results,
        })
    }
}

/// `--trace 0`: measured sweeps, each in its own process, until `seconds`
/// of sweep time have been measured; reports medians.
pub fn run_untraced(args: &Args, inputs: &SweepInputs, root: &Path) -> Result<Outcome, String> {
    let units = inputs.units();
    let mut samples: Vec<Sample> = Vec::new();
    let mut populations: Vec<Vec<DesignResult>> = Vec::new();
    let measured = |samples: &[Sample]| samples.iter().map(|s| s.cost.wall_s).sum::<f64>();
    let mut rep = 0;
    while samples.len() < MIN_SWEEPS || measured(&samples) < args.seconds {
        let dir = root.join(format!("rep{rep}"));
        rep += 1;
        if args.kind == Kind::ExploreTimingWarm {
            let population = spawn_phase(args, Phase::Populate, &dir)?;
            populations.push(population.results);
            for i in 0..WARM_SWEEPS_PER_STORE {
                if i > 0 && samples.len() >= MIN_SWEEPS && measured(&samples) >= args.seconds {
                    break;
                }
                let mut sample = Sample::from_child(spawn_phase(args, Phase::Measure, &dir)?)?;
                if i == 0 {
                    // The first sweep on a store pays for populating it.
                    let fill: f64 = population.setups.iter().sum();
                    sample.setups = vec![fill + sample.setups.iter().sum::<f64>()];
                } else {
                    sample.setups.clear();
                }
                samples.push(sample);
            }
        } else {
            samples.push(Sample::from_child(spawn_phase(
                args,
                Phase::Measure,
                &dir,
            )?)?);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut out = Outcome::default();
    let reference = match args.kind {
        Kind::ExploreCold => samples[0].results.clone(),
        Kind::ExploreTimingWarm => populations[0].clone(),
        Kind::GridMixed => {
            let dir = fresh_dir(&root.join("in-process"))?;
            sweep(&session(inputs, JOBS, &dir), inputs).results
        }
    };
    // A reference that lost units makes every comparison against it fail.
    out.attempted += units.saturating_sub(reference.len()) as u64;
    out.failed += units.saturating_sub(reference.len()) as u64;
    for results in samples.iter().map(|s| &s.results).chain(&populations) {
        out.check(&reference, results, units);
    }
    direct_check(&mut out, inputs, args.seed, &reference)?;

    let pick = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    out.metric("sweep_wall_s", pick(|s| s.cost.wall_s), "s");
    out.metric("sweep_cpu_s", pick(|s| s.cost.cpu_s), "s");
    out.metric("peak_rss_mib", pick(|s| s.peak_rss_mib), "MiB");
    let setups: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.setups.iter().copied())
        .collect();
    out.metric("setup_s", median(&setups), "s");
    let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("unit_ok_ratio", ok, "ratio");
    eprintln!(
        "[benchmark] {} repetitions: {:?}",
        samples.len(),
        samples.iter().map(|s| s.cost).collect::<Vec<_>>()
    );
    Ok(out)
}
