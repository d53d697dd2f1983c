//! The direct oracle the sweep-equivalence suites check against.
//!
//! Every healthy design point a `Session` sweep reports is re-derived
//! with `prism_exocore::evaluate_point` — one whole-trace `run_exocore`
//! per workload, with no timing memo, no µDG shape key and no artifact
//! store — over exactly the workloads that result reports, and must match
//! it byte for byte.

use std::collections::HashMap;

use prism_exocore::{evaluate_point, oracle_table, DesignPoint, DesignResult, WorkloadData};
use prism_pipeline::{parallel_map, SweepReport};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::CoreConfig;
use prism_workloads::Workload;

/// Worker threads for the oracle's own fan-out.
const JOBS: usize = 2;

/// Traces every workload the way a session does (registry build at the
/// scaled default size, `tracer`), keyed by the name results report.
#[must_use]
pub fn direct_data(
    workloads: &[&Workload],
    tracer: &TracerConfig,
) -> HashMap<String, WorkloadData> {
    parallel_map(workloads, JOBS, |_, w| {
        let program = (w.build)(w.scaled_n());
        WorkloadData::prepare_with(&program, tracer)
            .unwrap_or_else(|e| panic!("{}: direct trace failed: {e}", w.name))
    })
    .into_iter()
    .map(|d| (d.name.clone(), d))
    .collect()
}

/// The BSAs named by a result's `bsas` code string (e.g. `"SNT"`).
fn bsas_of(codes: &str) -> Vec<BsaKind> {
    codes
        .chars()
        .map(|c| {
            *BsaKind::ALL
                .iter()
                .find(|b| b.code() == c)
                .unwrap_or_else(|| panic!("unknown BSA code {c}"))
        })
        .collect()
}

/// Asserts that every result in `report` is byte-identical to the direct
/// oracle's evaluation of the same design point over the workloads the
/// result reports. `cores` are the sweep's base cores (matched by name);
/// `workloads` must cover every workload any result reports. Returns the
/// number of results checked.
///
/// # Panics
///
/// Panics on the first mismatch, naming the design point.
pub fn assert_matches_direct(
    report: &SweepReport,
    workloads: &[&Workload],
    cores: &[CoreConfig],
    tracer: &TracerConfig,
) -> usize {
    let data = direct_data(workloads, tracer);
    // Group results by (core, reported workload list): each group shares
    // one set of oracle tables, as a session's points do.
    let mut groups: HashMap<(&str, Vec<&str>), Vec<&DesignResult>> = HashMap::new();
    for r in &report.results {
        let names = r.per_workload.iter().map(|m| m.workload.as_str()).collect();
        groups.entry((&r.core, names)).or_default().push(r);
    }
    for ((core_name, names), members) in &groups {
        let core = cores
            .iter()
            .find(|c| c.name == *core_name)
            .unwrap_or_else(|| panic!("result on unknown core {core_name}"));
        let group_data: Vec<WorkloadData> = names
            .iter()
            .map(|n| {
                data.get(*n)
                    .unwrap_or_else(|| panic!("result reports unknown workload {n}"))
                    .clone()
            })
            .collect();
        let tables = parallel_map(&group_data, JOBS, |_, d| oracle_table(d, core));
        let expected = parallel_map(members, JOBS, |_, r| {
            let point = DesignPoint::new(core.clone(), bsas_of(&r.bsas));
            evaluate_point(&group_data, &tables, &point)
        });
        for (r, want) in members.iter().zip(&expected) {
            assert_eq!(
                format!("{r:?}"),
                format!("{want:?}"),
                "{} differs from the direct oracle",
                r.label
            );
        }
    }
    report.results.len()
}
