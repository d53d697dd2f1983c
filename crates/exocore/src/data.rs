//! Per-workload prepared data: trace, IR, and accelerator plans — computed
//! once and shared across every design point of the exploration.

use prism_ir::ProgramIr;
use prism_sim::{Trace, TraceError, TracerConfig};
use prism_tdg::AccelPlans;

/// A workload prepared for evaluation: the recorded trace, its
/// reconstructed IR, and all four BSAs' analysis plans.
#[derive(Debug, Clone)]
pub struct WorkloadData {
    /// Workload name.
    pub name: String,
    /// Recorded dynamic trace.
    pub trace: Trace,
    /// Reconstructed program IR.
    pub ir: ProgramIr,
    /// BSA analysis plans.
    pub plans: AccelPlans,
}

impl WorkloadData {
    /// Traces `program` with the default tracer and runs the analysis
    /// stack.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the program fails validation or execution.
    pub fn prepare(program: &prism_isa::Program) -> Result<Self, TraceError> {
        WorkloadData::prepare_with(program, &TracerConfig::default())
    }

    /// Like [`WorkloadData::prepare`] with an explicit tracer config.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the program fails validation or execution.
    pub fn prepare_with(
        program: &prism_isa::Program,
        config: &TracerConfig,
    ) -> Result<Self, TraceError> {
        Ok(WorkloadData::from_trace(prism_sim::trace_with(
            program, config,
        )?))
    }

    /// Runs the analysis stack over an already-recorded `trace` (from
    /// [`prism_sim::trace_with`]).
    ///
    /// The IR reconstruction (Ball–Larus path profiling) genuinely needs
    /// random access over the whole stream, so this is where the full
    /// trace meets the analyses.
    #[must_use]
    pub fn from_trace(trace: Trace) -> Self {
        let ir = ProgramIr::analyze(&trace);
        let plans = AccelPlans::analyze(&ir);
        WorkloadData {
            name: trace.program.name.clone(),
            trace,
            ir,
            plans,
        }
    }
}
