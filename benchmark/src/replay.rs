//! Traced replay of one sweep.
//!
//! [`replay`] makes the calls that `Session::evaluate_designs_resumable(..,
//! false)` makes into each crate's public functions, in the session's
//! order, with a span around each call. It keeps the session's in-memory
//! memo of oracle tables and timings, reads and writes the same store
//! artifacts and journal records, and must produce the same report: the
//! benchmark checks that it does. It runs on one thread so the spans form
//! one tree whose self times add up to the replay's wall time.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use prism_exocore::{
    oracle_pick, oracle_table_budgeted, DesignPoint, DesignResult, OracleTable, WorkloadData,
    WorkloadMetrics,
};
use prism_pipeline::{
    decode_design_result, decode_exo_timing, encode_design_result, encode_exo_timing, sweep_key,
    ArtifactStore, ContentHash, PreparedWorkload, Session, SweepJournal, SweepReport,
};
use prism_sim::trace_with;
use prism_tdg::{price_exocore, run_exocore_timing, Assignment, ExoTiming};
use prism_udg::{CoreConfig, ExecBudget};

use crate::inputs::SweepInputs;
use crate::span::{self, LayerTotal, Recorder};

/// Name of the span around the whole replay; every other span is a layer.
pub const ROOT: &str = "sweep";

/// What the replay produced, plus the work counts its spans cannot carry.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// The sweep report, sorted like the session's.
    pub report: SweepReport,
    /// Instructions the functional simulator traced.
    pub sim_insts: u64,
    /// Trace instructions covered by µDG timing walks.
    pub walk_insts: u64,
    /// Oracle-table candidates measured.
    pub candidates: u64,
    /// Store loads that found an artifact.
    pub get_hits: u64,
}

/// Per-layer totals of a replay and how much of its wall they cover.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Calls and self time per span name, [`ROOT`] included.
    pub layers: BTreeMap<&'static str, LayerTotal>,
    /// Duration of the [`ROOT`] span.
    pub wall_s: f64,
    /// Sum of every layer's self time over `wall_s`.
    pub attributed_ratio: f64,
}

impl Summary {
    /// Summarizes the spans of a recorder that ran one [`replay`].
    #[must_use]
    pub fn of(rec: &Recorder) -> Summary {
        let spans = rec.spans();
        let layers = span::totals(&spans);
        let wall_s = spans
            .iter()
            .find(|s| s.name == ROOT && s.parent.is_none())
            .map_or(0.0, |s| (s.end - s.start).as_secs_f64());
        let attributed: f64 = layers
            .iter()
            .filter(|(name, _)| **name != ROOT)
            .map(|(_, t)| t.self_s)
            .sum();
        Summary {
            layers,
            wall_s,
            attributed_ratio: attributed / wall_s.max(f64::MIN_POSITIVE),
        }
    }

    /// The totals of one layer (zero when it never ran).
    #[must_use]
    pub fn layer(&self, name: &str) -> LayerTotal {
        self.layers.get(name).copied().unwrap_or_default()
    }
}

/// Replays the sweep of `inputs` against the store at `store_dir` inside
/// a [`ROOT`] span of `rec`.
///
/// # Errors
///
/// Returns a description of the first stage that failed; the session
/// would have quarantined the unit instead, and the benchmark counts any
/// failure as a broken run.
pub fn replay(rec: &Recorder, inputs: &SweepInputs, store_dir: &Path) -> Result<Replay, String> {
    // Key derivation only: the session's memo and store stay unused.
    let keys = Session::new()
        .with_tracer(inputs.tracer)
        .with_store_dir(store_dir);
    let store = ArtifactStore::new(store_dir);
    rec.span(ROOT, || replay_sweep(rec, inputs, &keys, &store))
}

struct Walker<'a> {
    rec: &'a Recorder,
    keys: &'a Session,
    store: &'a ArtifactStore,
    memo: HashMap<ContentHash, Arc<ExoTiming>>,
}

impl Walker<'_> {
    /// The session's timing lookup: in-memory memo, then the store, then
    /// a trace walk whose summary is saved.
    fn timing(
        &mut self,
        out: &mut Replay,
        w: &PreparedWorkload,
        core: &CoreConfig,
        assignment: &Assignment,
    ) -> Arc<ExoTiming> {
        let rec = self.rec;
        let key = rec.span("pipeline.key", || self.keys.shape_key(w, core, assignment));
        if let Some(t) = self.memo.get(&key) {
            return Arc::clone(t);
        }
        let loaded = rec.span("pipeline.store.get", || self.store.load(&key));
        if let Some(payload) = loaded {
            out.get_hits += 1;
            if let Some(t) = rec.span("pipeline.codec.decode", || decode_exo_timing(&payload)) {
                let t = Arc::new(t);
                self.memo.insert(key, Arc::clone(&t));
                return t;
            }
        }
        let t = Arc::new(rec.span("udg.walk", || {
            run_exocore_timing(&w.trace, &w.ir, core, &w.plans, assignment)
        }));
        out.walk_insts += w.trace.len() as u64;
        let payload = rec.span("pipeline.codec.encode", || encode_exo_timing(&t));
        rec.span("pipeline.store.put", || self.store.save(&key, payload));
        self.memo.insert(key, Arc::clone(&t));
        t
    }
}

fn replay_sweep(
    rec: &Recorder,
    inputs: &SweepInputs,
    keys: &Session,
    store: &ArtifactStore,
) -> Result<Replay, String> {
    let (cores, subsets) = (&inputs.cores, &inputs.subsets);
    let total = inputs.units();
    let mut out = Replay::default();
    let sizes: Vec<(String, u32)> = inputs
        .workloads
        .iter()
        .map(|w| (w.name.to_string(), w.scaled_n()))
        .collect();
    let sweep = rec.span("pipeline.key", || {
        sweep_key(&sizes, &inputs.tracer, cores, subsets)
    });
    let (journal, _) = rec
        .span("pipeline.journal.open", || {
            SweepJournal::open(store.dir(), &sweep, false)
        })
        .map_err(|e| format!("journal open: {e}"))?;
    let wkeys: Vec<ContentHash> = rec.span("pipeline.key", || {
        sizes
            .iter()
            .map(|(n, s)| keys.workload_key(n, *s))
            .collect()
    });

    // Design-point artifacts first: a fully cached sweep prepares nothing.
    let mut results: Vec<Option<DesignResult>> = Vec::with_capacity(total);
    for core in cores {
        for bsas in subsets {
            let key = rec.span("pipeline.key", || keys.design_point_key(&wkeys, core, bsas));
            let loaded = rec.span("pipeline.store.get", || store.load(&key));
            results.push(loaded.and_then(|payload| {
                out.get_hits += 1;
                rec.span("pipeline.codec.decode", || decode_design_result(&payload))
            }));
        }
    }
    let missing: Vec<usize> = (0..total).filter(|&i| results[i].is_none()).collect();

    if !missing.is_empty() {
        let mut data = Vec::with_capacity(inputs.workloads.len());
        for (w, key) in inputs.workloads.iter().zip(&wkeys) {
            let program = rec.span("workloads.build", || (w.build)(w.scaled_n()));
            let trace = rec
                .span("sim.trace", || trace_with(&program, &inputs.tracer))
                .map_err(|e| format!("{}: trace failed: {e:?}", w.name))?;
            out.sim_insts += trace.stats.insts;
            let prepared = rec.span("exocore.prepare", || WorkloadData::from_trace(trace));
            data.push(PreparedWorkload {
                key: *key,
                data: Arc::new(prepared),
            });
        }
        let point_keys: Vec<ContentHash> = rec.span("pipeline.key", || {
            cores
                .iter()
                .flat_map(|c| subsets.iter().map(|b| keys.design_point_key(&wkeys, c, b)))
                .collect()
        });

        let mut tables: Vec<Vec<OracleTable>> = vec![Vec::new(); cores.len()];
        let mut core_ids: Vec<usize> = missing.iter().map(|i| i / subsets.len()).collect();
        core_ids.dedup();
        for &c in &core_ids {
            for w in &data {
                let table = rec
                    .span("exocore.oracle_table", || {
                        oracle_table_budgeted(&w.data, &cores[c], &ExecBudget::unlimited())
                    })
                    .map_err(|e| format!("{}: oracle table: {e:?}", w.name))?;
                out.candidates += table.candidates.len() as u64;
                tables[c].push(table);
            }
        }

        // Walk each distinct timing shape once before evaluating points.
        let mut walker = Walker {
            rec,
            keys,
            store,
            memo: HashMap::new(),
        };
        let mut seen = HashSet::new();
        let mut walks: Vec<(usize, CoreConfig, Assignment)> = Vec::new();
        for &idx in &missing {
            let (c, s) = (idx / subsets.len(), idx % subsets.len());
            let point = DesignPoint::new(cores[c].clone(), subsets[s].clone());
            for (wi, w) in data.iter().enumerate() {
                let assignment = rec.span("exocore.oracle_pick", || {
                    oracle_pick(&tables[c][wi], &w.data, &point.bsas)
                });
                let key = rec.span("pipeline.key", || {
                    keys.shape_key(w, &point.core, &assignment)
                });
                if seen.insert(key) {
                    walks.push((wi, point.core.clone(), assignment));
                }
            }
        }
        for (wi, core, assignment) in &walks {
            walker.timing(&mut out, &data[*wi], core, assignment);
        }

        for &idx in &missing {
            let (c, s) = (idx / subsets.len(), idx % subsets.len());
            let point = DesignPoint::new(cores[c].clone(), subsets[s].clone());
            let mut per_workload = Vec::with_capacity(data.len());
            for (wi, w) in data.iter().enumerate() {
                let assignment = rec.span("exocore.oracle_pick", || {
                    oracle_pick(&tables[c][wi], &w.data, &point.bsas)
                });
                let timing = walker.timing(&mut out, w, &point.core, &assignment);
                let run = rec.span("core.price", || {
                    price_exocore(&timing, &point.core, &point.bsas)
                });
                per_workload.push(rec.span("exocore.assemble", || {
                    WorkloadMetrics::from_run(&run, &w.name)
                }));
            }
            let result = rec.span("exocore.assemble", || DesignResult {
                label: point.label(),
                core: point.core.name.clone(),
                bsas: point.bsas.iter().map(|b| b.code()).collect(),
                area_mm2: point.area_mm2(),
                per_workload,
            });
            let payload = rec.span("pipeline.codec.encode", || encode_design_result(&result));
            rec.span("pipeline.store.put", || {
                store.save(&point_keys[idx], payload)
            });
            rec.span("pipeline.journal.append", || {
                journal.append_done(&result.label, &result)
            })
            .map_err(|e| format!("journal append: {e}"))?;
            results[idx] = Some(result);
        }
    }

    out.report = SweepReport {
        results: results.into_iter().flatten().collect(),
        ..SweepReport::default()
    };
    out.report.sort_units();
    rec.span("pipeline.journal.remove", || journal.remove())
        .map_err(|e| format!("journal remove: {e}"))?;
    Ok(out)
}
