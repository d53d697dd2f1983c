//! Cross-crate integration tests: the full pipeline from kernel authoring
//! through tracing, IR reconstruction, BSA planning, scheduling, and
//! combined-TDG evaluation.

use prism::exocore::{all_cores, amdahl_schedule, oracle_schedule, WorkloadData};
use prism::tdg::{price_exocore, run_exocore, run_exocore_timing, Assignment, BsaKind, ExecUnit};
use prism::udg::{simulate_trace, try_simulate_trace, CoreConfig, ExecBudget};

fn prepared(name: &str) -> WorkloadData {
    let w = prism::workloads::by_name(name).unwrap_or_else(|| panic!("{name} not registered"));
    WorkloadData::prepare(&(w.build)(w.default_n / 3 + 16)).expect(name)
}

#[test]
fn pipeline_is_deterministic() {
    let a = prepared("stencil");
    let b = prepared("stencil");
    assert_eq!(a.trace.stats, b.trace.stats);
    let core = CoreConfig::ooo2();
    let ra = simulate_trace(&a.trace, &core);
    let rb = simulate_trace(&b.trace, &core);
    assert_eq!(ra.cycles, rb.cycles);
    assert_eq!(ra.events.core, rb.events.core);
    let sa = oracle_schedule(&a, &core, &BsaKind::ALL);
    let sb = oracle_schedule(&b, &core, &BsaKind::ALL);
    assert_eq!(sa.map, sb.map);
}

#[test]
fn exocore_never_loses_instructions() {
    for name in ["mm", "cjpeg-1", "tpch1", "181.mcf"] {
        let data = prepared(name);
        let core = CoreConfig::ooo2();
        let schedule = oracle_schedule(&data, &core, &BsaKind::ALL);
        let run = run_exocore(
            &data.trace,
            &data.ir,
            &core,
            &data.plans,
            &schedule,
            &BsaKind::ALL,
        );
        let covered: u64 = run.unit_insts.iter().sum();
        assert_eq!(
            covered,
            data.trace.len() as u64,
            "{name}: instructions lost"
        );
        let cycles: u64 = run.unit_cycles.iter().sum();
        assert_eq!(cycles, run.cycles, "{name}: cycle breakdown mismatch");
    }
}

#[test]
fn oracle_beats_or_matches_every_single_bsa_choice_on_ed() {
    // The Oracle (with all BSAs) must produce energy-delay at least as
    // good as restricting it to any single BSA.
    let data = prepared("cjpeg-1");
    let core = CoreConfig::ooo2();
    let table = prism::exocore::oracle_table(&data, &core);
    let full = prism::exocore::oracle_pick(&table, &data, &BsaKind::ALL);
    let full_run = run_exocore(
        &data.trace,
        &data.ir,
        &core,
        &data.plans,
        &full,
        &BsaKind::ALL,
    );
    let full_ed = full_run.cycles as f64 * full_run.energy.total();
    for kind in BsaKind::ALL {
        let sub = prism::exocore::oracle_pick(&table, &data, &[kind]);
        let run = run_exocore(&data.trace, &data.ir, &core, &data.plans, &sub, &[kind]);
        let ed = run.cycles as f64 * run.energy.total();
        // Allow 10% slack: leakage of extra present accelerators can cost.
        assert!(
            full_ed <= ed * 1.10,
            "full oracle ED {full_ed:.3e} worse than {kind}-only {ed:.3e}"
        );
    }
}

#[test]
fn amdahl_schedule_runs_on_every_suite_representative() {
    for name in ["conv", "spmv", "gsmdecode", "tpch2", "473.astar"] {
        let data = prepared(name);
        let core = CoreConfig::ooo2();
        let schedule = amdahl_schedule(&data, &core, &BsaKind::ALL);
        assert!(schedule.is_well_formed(&data.ir), "{name}");
        let run = run_exocore(
            &data.trace,
            &data.ir,
            &core,
            &data.plans,
            &schedule,
            &BsaKind::ALL,
        );
        assert!(run.cycles > 0, "{name}");
    }
}

#[test]
fn accelerated_runs_preserve_total_instruction_attribution() {
    let data = prepared("mpeg2enc"); // two-phase workload
    let core = CoreConfig::ooo2();
    let schedule = oracle_schedule(&data, &core, &BsaKind::ALL);
    let run = run_exocore(
        &data.trace,
        &data.ir,
        &core,
        &data.plans,
        &schedule,
        &BsaKind::ALL,
    );
    // The two phases should use at least two distinct units (incl. GPP).
    let used = run.unit_insts.iter().filter(|&&c| c > 0).count();
    assert!(
        used >= 2,
        "expected multi-unit execution, got {:?}",
        run.unit_insts
    );
}

#[test]
fn empty_assignment_reproduces_plain_core_everywhere() {
    for name in ["fft", "458.sjeng"] {
        let data = prepared(name);
        for core in [CoreConfig::io2(), CoreConfig::ooo4()] {
            let base = simulate_trace(&data.trace, &core);
            let run = run_exocore(
                &data.trace,
                &data.ir,
                &core,
                &data.plans,
                &Assignment::none(),
                &[],
            );
            assert_eq!(base.cycles, run.cycles, "{name}/{}", core.name);
            assert_eq!(
                run.unit_insts[ExecUnit::Gpp as usize],
                data.trace.len() as u64
            );
        }
    }
}

#[test]
fn oracle_baseline_prices_the_plain_core_across_the_registry() {
    // An oracle table's baseline is the empty assignment's trace-walk
    // timing priced with no BSA present, so it can share the walk of the
    // no-BSA design point; it must equal the plain-core model in cycles
    // and energy bits on every kernel and core.
    assert_eq!(prism::workloads::ALL.len(), 49);
    for w in prism::workloads::ALL {
        let data = WorkloadData::prepare(&w.build_default()).expect(w.name);
        for core in all_cores() {
            let plain = try_simulate_trace(&data.trace, &core, &ExecBudget::unlimited())
                .expect("unlimited budget cannot trip");
            let timing = run_exocore_timing(
                &data.trace,
                &data.ir,
                &core,
                &data.plans,
                &Assignment::none(),
            );
            let priced = price_exocore(&timing, &core, &[]);
            let at = format!("{}/{}", w.name, core.name);
            assert_eq!(priced.cycles, plain.cycles, "{at}");
            assert_eq!(
                priced.energy.total().to_bits(),
                plain.energy.total().to_bits(),
                "{at}"
            );
        }
    }
}

#[test]
fn wider_cores_never_slower_across_registry_sample() {
    for name in ["conv", "needle", "164.gzip", "tpch1"] {
        let data = prepared(name);
        let io2 = simulate_trace(&data.trace, &CoreConfig::io2()).cycles;
        let ooo2 = simulate_trace(&data.trace, &CoreConfig::ooo2()).cycles;
        let ooo6 = simulate_trace(&data.trace, &CoreConfig::ooo6()).cycles;
        assert!(ooo2 <= io2 + io2 / 20, "{name}: OOO2 {ooo2} vs IO2 {io2}");
        assert!(
            ooo6 <= ooo2 + ooo2 / 20,
            "{name}: OOO6 {ooo6} vs OOO2 {ooo2}"
        );
    }
}

#[test]
fn energy_increases_with_core_size_on_identical_work() {
    let data = prepared("lbm");
    let e2 = simulate_trace(&data.trace, &CoreConfig::ooo2())
        .energy
        .total();
    let e6 = simulate_trace(&data.trace, &CoreConfig::ooo6())
        .energy
        .total();
    // The 6-wide core does the same work with costlier structures; energy
    // per run can drop only via leakage×time, which the speedup rarely
    // fully offsets in this model.
    assert!(
        e6 > 0.8 * e2,
        "OOO6 energy {e6} implausibly low vs OOO2 {e2}"
    );
}
