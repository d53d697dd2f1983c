//! BSA selection: the Oracle scheduler and the Amdahl-tree scheduler of
//! the paper's §3.3 / §4.

use std::sync::Arc;

use prism_ir::LoopId;
use prism_tdg::{price_exocore, run_exocore_timing, Assignment, BsaKind, ExoRunResult, ExoTiming};
use prism_udg::{BudgetExceeded, CoreConfig, ExecBudget, FuelMeter, NODES_PER_INST};

use crate::WorkloadData;

/// Maximum per-region slowdown the Oracle accepts (paper §4: "no
/// individual region should reduce the performance by more than 10%").
pub const MAX_REGION_SLOWDOWN: f64 = 0.10;

/// One measured Oracle candidate: assigning `kind` to loop `lid`.
#[derive(Debug, Clone)]
pub struct CandidateGain {
    /// Target loop.
    pub lid: LoopId,
    /// Candidate BSA.
    pub kind: BsaKind,
    /// Whole-program cycles with only this assignment active.
    pub cycles: u64,
    /// Whole-program energy with only this assignment active (J).
    pub energy: f64,
    /// Energy-delay improvement over the baseline (positive = better).
    pub ed_gain: f64,
    /// Whether the region's slowdown stays within the 10% bound.
    pub perf_ok: bool,
}

/// The Oracle's measurement table for one (workload, core) pair: every
/// candidate evaluated in isolation against the plain-core baseline.
#[derive(Debug, Clone)]
pub struct OracleTable {
    /// Plain-core baseline: the empty assignment, priced with no BSA
    /// present.
    pub baseline: ExoRunResult,
    /// Measured candidates.
    pub candidates: Vec<CandidateGain>,
}

/// Builds the Oracle table: one combined-TDG run per (loop, BSA) plan.
///
/// This is the "based on past execution characteristics" measurement the
/// paper's Oracle uses.
#[must_use]
pub fn oracle_table(data: &WorkloadData, core: &CoreConfig) -> OracleTable {
    oracle_table_budgeted(data, core, &ExecBudget::unlimited())
        .expect("unlimited budget cannot trip")
}

/// Charges one whole-trace evaluation (µDG nodes for every dynamic
/// instruction) against `meter`.
fn charge_run(meter: &mut FuelMeter, trace_len: usize) -> Result<(), BudgetExceeded> {
    meter.charge((trace_len as u64).saturating_mul(NODES_PER_INST))
}

/// [`oracle_table`] under an [`ExecBudget`].
///
/// The budget covers the whole table: the baseline run plus one
/// combined-TDG run per (loop, BSA) candidate, each charged at
/// [`NODES_PER_INST`] nodes per dynamic instruction. Workloads with many
/// candidate loops cost proportionally more, which is exactly what a fuel
/// cap should capture.
///
/// Every run here is a fresh windowed µDG walk ([`run_exocore_timing`]),
/// so auxiliary timing state is O(window), not O(trace) — the table walks
/// the trace, it never copies it. [`oracle_table_with`] measures the same
/// table from a caller's timing source instead.
///
/// # Errors
///
/// Returns [`BudgetExceeded`] as soon as the next run would not fit.
pub fn oracle_table_budgeted(
    data: &WorkloadData,
    core: &CoreConfig,
    budget: &ExecBudget,
) -> Result<OracleTable, BudgetExceeded> {
    oracle_table_with(data, core, budget, &mut |assignment| {
        Arc::new(run_exocore_timing(
            &data.trace,
            &data.ir,
            core,
            &data.plans,
            assignment,
        ))
    })
}

/// [`oracle_table_budgeted`] with the trace-walk timings supplied by
/// `timing`, which is asked once for the empty baseline assignment and
/// once per single-loop candidate assignment, all on `core`. Each answer
/// is priced with [`price_exocore`]: the baseline with no BSA present,
/// a candidate with only its own BSA.
///
/// The fuel meter is charged before every request exactly as if each one
/// were walked, so a caching `timing` trips the budget at the same
/// candidate as an uncached one. `timing` must return what
/// [`run_exocore_timing`] would for (`data`, `core`, assignment); the
/// table is then bit-identical to [`oracle_table_budgeted`]'s.
///
/// # Errors
///
/// Returns [`BudgetExceeded`] as soon as the next run would not fit.
pub fn oracle_table_with(
    data: &WorkloadData,
    core: &CoreConfig,
    budget: &ExecBudget,
    timing: &mut dyn FnMut(&Assignment) -> Arc<ExoTiming>,
) -> Result<OracleTable, BudgetExceeded> {
    let mut meter = budget.meter();
    charge_run(&mut meter, data.trace.len())?;
    let baseline = price_exocore(&timing(&Assignment::none()), core, &[]);
    let base_ed = baseline.cycles as f64 * baseline.energy.total();
    let mut candidates = Vec::new();
    for kind in BsaKind::ALL {
        let lids: Vec<LoopId> = match kind {
            BsaKind::Simd => data.plans.simd.keys().copied().collect(),
            BsaKind::DpCgra => data.plans.dp_cgra.keys().copied().collect(),
            BsaKind::NsDf => data.plans.ns_df.keys().copied().collect(),
            BsaKind::TraceP => data.plans.trace_p.keys().copied().collect(),
        };
        for lid in lids {
            let mut a = Assignment::none();
            a.set(lid, kind);
            charge_run(&mut meter, data.trace.len())?;
            let run = price_exocore(&timing(&a), core, &[kind]);
            let ed = run.cycles as f64 * run.energy.total();
            // Region share of baseline time, approximated by its dynamic-
            // instruction share.
            let region_share =
                data.ir.loops.loops[lid as usize].dyn_insts as f64 / data.trace.len().max(1) as f64;
            let slowdown = run.cycles as f64 - baseline.cycles as f64;
            let allowed = MAX_REGION_SLOWDOWN * region_share * baseline.cycles as f64;
            candidates.push(CandidateGain {
                lid,
                kind,
                cycles: run.cycles,
                energy: run.energy.total(),
                ed_gain: base_ed - ed,
                perf_ok: slowdown <= allowed.max(1.0),
            });
        }
    }
    Ok(OracleTable {
        baseline,
        candidates,
    })
}

/// Picks the Oracle assignment from a measured table, restricted to the
/// `enabled` BSAs: best energy-delay first, greedy non-overlapping.
#[must_use]
pub fn oracle_pick(table: &OracleTable, data: &WorkloadData, enabled: &[BsaKind]) -> Assignment {
    let mut ranked: Vec<&CandidateGain> = table
        .candidates
        .iter()
        .filter(|c| enabled.contains(&c.kind) && c.perf_ok && c.ed_gain > 0.0)
        .collect();
    ranked.sort_by(|a, b| {
        b.ed_gain
            .partial_cmp(&a.ed_gain)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut assignment = Assignment::none();
    let mut taken: Vec<LoopId> = Vec::new();
    let overlaps = |a: LoopId, b: LoopId| -> bool {
        let anc = |mut x: LoopId, y: LoopId| loop {
            if x == y {
                return true;
            }
            match data.ir.loops.loops[x as usize].parent {
                Some(p) => x = p,
                None => return false,
            }
        };
        anc(a, b) || anc(b, a)
    };
    for c in ranked {
        if taken.iter().any(|&t| overlaps(t, c.lid)) {
            continue;
        }
        assignment.set(c.lid, c.kind);
        taken.push(c.lid);
    }
    assignment
}

/// Convenience: build the table and pick in one call.
#[must_use]
pub fn oracle_schedule(data: &WorkloadData, core: &CoreConfig, enabled: &[BsaKind]) -> Assignment {
    oracle_pick(&oracle_table(data, core), data, enabled)
}

/// The Amdahl-tree scheduler (paper §3.3, Fig. 9): a bottom-up traversal
/// of the loop tree applying Amdahl's law with each BSA's *static* speedup
/// estimate — what a profile-guided compiler could do without oracle runs.
#[must_use]
pub fn amdahl_schedule(data: &WorkloadData, core: &CoreConfig, enabled: &[BsaKind]) -> Assignment {
    let loops = &data.ir.loops.loops;
    let n = loops.len();
    // Process smallest-body loops first so children are solved before
    // parents.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| loops[i].blocks.len());

    // best_time[i]: estimated time (in dynamic-instruction units) for the
    // subtree rooted at loop i; choice[i]: the BSA assigned at i, if any.
    let mut best_time: Vec<f64> = loops.iter().map(|l| l.dyn_insts as f64).collect();
    let mut choice: Vec<Option<BsaKind>> = vec![None; n];

    // Width of the host core scales BSA appeal: a wide OOO core leaves
    // less on the table (paper Fig. 12's trend).
    let core_strength = f64::from(core.width).sqrt();

    for &i in &order {
        let l = &loops[i];
        let child_insts: u64 = l
            .children
            .iter()
            .map(|&c| loops[c as usize].dyn_insts)
            .sum();
        let child_best: f64 = l.children.iter().map(|&c| best_time[c as usize]).sum();
        let own = l.dyn_insts.saturating_sub(child_insts) as f64;
        let keep = own + child_best;

        let mut best = keep;
        let mut pick = None;
        for kind in enabled {
            if let Some(est) = data.plans.est_speedup(*kind, l.id) {
                let effective = (est / core_strength).max(0.6);
                let t = l.dyn_insts as f64 / effective;
                if t < best {
                    best = t;
                    pick = Some(*kind);
                }
            }
        }
        best_time[i] = best;
        choice[i] = pick;
    }

    // Emit assignments top-down: an assigned ancestor suppresses its
    // descendants.
    let mut assignment = Assignment::none();
    let mut order_desc = order;
    order_desc.reverse(); // largest (outermost) first
    'outer: for &i in &order_desc {
        if choice[i].is_none() {
            continue;
        }
        let mut cur = loops[i].parent;
        while let Some(p) = cur {
            if assignment.map.contains_key(&p) {
                continue 'outer;
            }
            cur = loops[p as usize].parent;
        }
        assignment.set(loops[i].id, choice[i].expect("checked"));
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_isa::{Program, ProgramBuilder, Reg};
    use prism_tdg::run_exocore;

    fn dp_kernel(n: i64) -> Program {
        let (pa, pb, i) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let (fa, ft) = (Reg::fp(0), Reg::fp(1));
        let mut b = ProgramBuilder::new("dp");
        b.init_reg(pa, 0x10000);
        b.init_reg(pb, 0x24000);
        b.init_reg(i, n);
        let head = b.bind_new_label();
        b.fld(fa, pa, 0);
        b.fmul(ft, fa, fa);
        b.fadd(ft, ft, fa);
        b.fst(ft, pb, 0);
        b.addi(pa, pa, 8);
        b.addi(pb, pb, 8);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn oracle_picks_something_profitable_on_dp_code() {
        let data = WorkloadData::prepare(&dp_kernel(600)).unwrap();
        let core = CoreConfig::ooo2();
        let table = oracle_table(&data, &core);
        assert!(!table.candidates.is_empty());
        let a = oracle_pick(&table, &data, &BsaKind::ALL);
        assert!(
            !a.map.is_empty(),
            "oracle found nothing on a vectorizable loop"
        );
        // And the pick actually beats the baseline on energy-delay.
        let run = run_exocore(&data.trace, &data.ir, &core, &data.plans, &a, &BsaKind::ALL);
        let base_ed = table.baseline.cycles as f64 * table.baseline.energy.total();
        let ed = run.cycles as f64 * run.energy.total();
        assert!(
            ed < base_ed,
            "oracle pick must improve ED: {ed} vs {base_ed}"
        );
    }

    #[test]
    fn oracle_respects_enabled_subset() {
        let data = WorkloadData::prepare(&dp_kernel(600)).unwrap();
        let table = oracle_table(&data, &CoreConfig::ooo2());
        let only_nsdf = oracle_pick(&table, &data, &[BsaKind::NsDf]);
        for kind in only_nsdf.map.values() {
            assert_eq!(*kind, BsaKind::NsDf);
        }
        let none = oracle_pick(&table, &data, &[]);
        assert!(none.map.is_empty());
    }

    #[test]
    fn oracle_table_budget_trips_before_candidates() {
        let data = WorkloadData::prepare(&dp_kernel(600)).unwrap();
        let core = CoreConfig::ooo2();
        // Enough for the baseline run but not for the first candidate.
        let one_run = ExecBudget::for_trace_insts(data.trace.len() as u64, 1);
        let err = oracle_table_budgeted(&data, &core, &one_run)
            .expect_err("one-run budget cannot cover the candidate sweep");
        assert!(err.used > err.max_nodes);
        // A generous budget reproduces the unbudgeted table.
        let full = oracle_table(&data, &core);
        let roomy =
            ExecBudget::for_trace_insts(data.trace.len() as u64, full.candidates.len() as u64 + 1);
        let budgeted = oracle_table_budgeted(&data, &core, &roomy).expect("roomy budget");
        assert_eq!(budgeted.candidates.len(), full.candidates.len());
        assert_eq!(budgeted.baseline.cycles, full.baseline.cycles);
    }

    /// A timing source that walks on request and counts its calls.
    fn counting_walker<'a>(
        data: &'a WorkloadData,
        core: &'a CoreConfig,
        calls: &'a mut usize,
    ) -> impl FnMut(&Assignment) -> Arc<ExoTiming> + 'a {
        move |a| {
            *calls += 1;
            Arc::new(run_exocore_timing(
                &data.trace,
                &data.ir,
                core,
                &data.plans,
                a,
            ))
        }
    }

    #[test]
    fn seam_table_matches_direct_runs_bit_for_bit() {
        let data = WorkloadData::prepare(&dp_kernel(600)).unwrap();
        let core = CoreConfig::ooo2();
        let mut calls = 0;
        let table = oracle_table_with(
            &data,
            &core,
            &ExecBudget::unlimited(),
            &mut counting_walker(&data, &core, &mut calls),
        )
        .expect("unlimited budget");
        assert_eq!(calls, 1 + table.candidates.len(), "one request per run");

        let budgeted = oracle_table_budgeted(&data, &core, &ExecBudget::unlimited()).unwrap();
        let base = prism_udg::simulate_trace(&data.trace, &core);
        assert_eq!(table.baseline.cycles, base.cycles);
        assert_eq!(
            table.baseline.energy.total().to_bits(),
            base.energy.total().to_bits()
        );
        assert_eq!(table.candidates.len(), budgeted.candidates.len());
        let base_ed = base.cycles as f64 * base.energy.total();
        for (c, b) in table.candidates.iter().zip(&budgeted.candidates) {
            let mut a = Assignment::none();
            a.set(c.lid, c.kind);
            let direct = run_exocore(&data.trace, &data.ir, &core, &data.plans, &a, &[c.kind]);
            let ed_gain = base_ed - direct.cycles as f64 * direct.energy.total();
            for other in [c, b] {
                assert_eq!((other.lid, other.kind), (c.lid, c.kind));
                assert_eq!(other.cycles, direct.cycles);
                assert_eq!(other.energy.to_bits(), direct.energy.total().to_bits());
                assert_eq!(other.ed_gain.to_bits(), ed_gain.to_bits());
            }
            assert_eq!(c.perf_ok, b.perf_ok);
        }
    }

    #[test]
    fn cached_timing_trips_the_budget_at_the_same_candidate() {
        let data = WorkloadData::prepare(&dp_kernel(600)).unwrap();
        let core = CoreConfig::ooo2();
        let full = oracle_table(&data, &core);
        let runs = full.candidates.len() as u64 + 1;
        // Every timing the table needs, ready before the table asks.
        let mut cache = std::collections::HashMap::new();
        let _ = oracle_table_with(&data, &core, &ExecBudget::unlimited(), &mut |a| {
            let t = Arc::new(run_exocore_timing(
                &data.trace,
                &data.ir,
                &core,
                &data.plans,
                a,
            ));
            cache.insert(format!("{:?}", a.map), Arc::clone(&t));
            t
        });
        for fits in 1..=runs {
            let budget = ExecBudget::for_trace_insts(data.trace.len() as u64, fits);
            let mut walked = 0;
            let uncached = oracle_table_with(
                &data,
                &core,
                &budget,
                &mut counting_walker(&data, &core, &mut walked),
            );
            let mut served = 0;
            let cached = oracle_table_with(&data, &core, &budget, &mut |a| {
                served += 1;
                Arc::clone(&cache[&format!("{:?}", a.map)])
            });
            assert_eq!(walked, served, "budget {fits}: requests before the trip");
            assert_eq!(walked as u64, fits, "budget {fits}");
            match (uncached, cached) {
                (Err(u), Err(c)) => assert_eq!((u.used, u.max_nodes), (c.used, c.max_nodes)),
                (Ok(u), Ok(c)) => assert_eq!(u.candidates.len(), c.candidates.len()),
                (u, c) => panic!("budget {fits}: uncached {u:?} vs cached {c:?}"),
            }
        }
    }

    #[test]
    fn amdahl_schedule_is_well_formed_and_nonempty() {
        let data = WorkloadData::prepare(&dp_kernel(600)).unwrap();
        let a = amdahl_schedule(&data, &CoreConfig::ooo2(), &BsaKind::ALL);
        assert!(a.is_well_formed(&data.ir));
        assert!(!a.map.is_empty());
    }

    #[test]
    fn amdahl_runs_without_oracle_information() {
        // The Amdahl schedule must be executable (every assignment has a
        // plan) and complete without panics on an irregular workload too.
        let (x, i, t) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let mut b = ProgramBuilder::new("irr");
        b.init_reg(x, 123456789);
        b.init_reg(i, 600);
        let head = b.bind_new_label();
        let skip = b.label();
        b.andi(t, x, 3);
        b.beq_label(t, Reg::ZERO, skip);
        b.shri(t, x, 2);
        b.xor(x, x, t);
        b.bind(skip);
        b.addi(x, x, 7);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
        let data = WorkloadData::prepare(&b.build().unwrap()).unwrap();
        let core = CoreConfig::ooo2();
        let a = amdahl_schedule(&data, &core, &BsaKind::ALL);
        let _ = run_exocore(&data.trace, &data.ir, &core, &data.plans, &a, &BsaKind::ALL);
    }
}
