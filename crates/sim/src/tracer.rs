//! The trace generator: drives the functional machine through the cache and
//! branch-predictor models to produce a [`Trace`] — the role gem5 plays in
//! the paper's Figure 2.

use prism_isa::Program;

use crate::{
    BranchPredictor, BranchPredictorConfig, BranchRecord, CacheConfig, DynInst, ExecError, Machine,
    MemLevel, MemRecord, MemoryHierarchy, Trace, TraceStats, DEFAULT_DRAM_LATENCY,
};

/// Configuration for trace generation.
#[derive(Debug, Clone, Copy)]
pub struct TracerConfig {
    /// Retire at most this many instructions after fast-forward.
    pub max_insts: u64,
    /// Execute (and warm caches/predictors through) this many instructions
    /// before recording, mirroring the paper's fast-forward methodology.
    pub fast_forward: u64,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// DRAM latency behind the L2, in cycles.
    pub dram_latency: u32,
    /// Branch predictor sizing.
    pub branch: BranchPredictorConfig,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            max_insts: 2_000_000,
            fast_forward: 0,
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            dram_latency: DEFAULT_DRAM_LATENCY,
            branch: BranchPredictorConfig::default(),
        }
    }
}

/// Errors from trace generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The program failed validation before execution.
    InvalidProgram(prism_isa::ValidateProgramError),
    /// The functional executor faulted mid-run.
    Exec(ExecError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            TraceError::Exec(e) => write!(f, "execution fault: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<ExecError> for TraceError {
    fn from(e: ExecError) -> Self {
        TraceError::Exec(e)
    }
}

impl From<prism_isa::ValidateProgramError> for TraceError {
    fn from(e: prism_isa::ValidateProgramError) -> Self {
        TraceError::InvalidProgram(e)
    }
}

/// Traces `program` with the default configuration.
///
/// # Errors
///
/// See [`trace_with`].
pub fn trace(program: &Program) -> Result<Trace, TraceError> {
    trace_with(program, &TracerConfig::default())
}

/// Traces `program`, recording up to `config.max_insts` retired
/// instructions after `config.fast_forward`.
///
/// Caches and the branch predictor observe *all* executed instructions
/// (including the fast-forward prefix) so recorded latencies reflect warm
/// state, as in the paper's methodology.
///
/// # Errors
///
/// Returns [`TraceError::InvalidProgram`] if validation fails, or
/// [`TraceError::Exec`] if execution faults (e.g. a runaway pc).
pub fn trace_with(program: &Program, config: &TracerConfig) -> Result<Trace, TraceError> {
    program.validate()?;
    let mut machine = Machine::new(program);
    let mut dcache = MemoryHierarchy::new(config.l1d, config.l2, config.dram_latency);
    let mut predictor = BranchPredictor::new(config.branch);
    let mut stats = TraceStats::default();
    let mut insts = Vec::new();
    let mut executed = 0u64;

    while !machine.is_halted() && stats.insts < config.max_insts {
        let effect = machine.step(program)?;
        let recording = executed >= config.fast_forward;
        executed += 1;

        let mem = effect.mem.map(|m| {
            let (latency, level) = dcache.access(m.addr, effect.sid);
            MemRecord {
                addr: m.addr,
                width: m.width,
                is_store: m.is_store,
                latency,
                level,
            }
        });

        let is_cond_branch = program.inst(effect.sid).op.is_cond_branch();
        let branch = effect.control.map(|c| {
            let mispredicted = if is_cond_branch {
                predictor.conditional(effect.sid, c.taken)
            } else if c.is_call {
                predictor.call(effect.sid + 1);
                false
            } else if c.is_return {
                predictor.ret(c.target)
            } else {
                false // direct jmp / halt
            };
            BranchRecord {
                taken: c.taken,
                target: c.target,
                mispredicted,
            }
        });

        if recording {
            if let Some(m) = &mem {
                if m.is_store {
                    stats.stores += 1;
                } else {
                    stats.loads += 1;
                }
                match m.level {
                    MemLevel::L1 => stats.l1_hits += 1,
                    MemLevel::L2 => stats.l2_hits += 1,
                    MemLevel::Dram => stats.dram_accesses += 1,
                }
            }
            if let Some(b) = &branch {
                if is_cond_branch {
                    stats.cond_branches += 1;
                }
                if b.mispredicted {
                    stats.mispredicts += 1;
                }
            }
            insts.push(DynInst {
                seq: stats.insts,
                sid: effect.sid,
                mem,
                branch,
            });
            stats.insts += 1;
        }
        if effect.halted {
            break;
        }
    }

    Ok(Trace {
        program: program.clone(),
        insts,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_isa::{ProgramBuilder, Reg};

    /// A loop over `n` array elements; returns (program, n).
    fn array_sum(n: i64) -> Program {
        let (ptr, cnt, sum, x) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        let mut b = ProgramBuilder::new("sum");
        b.init_reg(ptr, 0x1000);
        b.init_reg(cnt, n);
        let head = b.bind_new_label();
        b.ld(x, ptr, 0);
        b.add(sum, sum, x);
        b.addi(ptr, ptr, 8);
        b.addi(cnt, cnt, -1);
        b.bne_label(cnt, Reg::ZERO, head);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn records_expected_instruction_count() {
        let p = array_sum(10);
        let t = trace(&p).unwrap();
        // 5 insts per iteration × 10 + halt.
        assert_eq!(t.stats.insts, 51);
        assert_eq!(t.stats.loads, 10);
        assert_eq!(t.stats.cond_branches, 10);
        assert_eq!(t.len(), 51);
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let p = array_sum(5);
        let t = trace(&p).unwrap();
        for (i, d) in t.insts.iter().enumerate() {
            assert_eq!(d.seq, i as u64);
        }
    }

    #[test]
    fn memory_latencies_show_locality() {
        let p = array_sum(64);
        let t = trace(&p).unwrap();
        // 64 sequential 8B loads touch 8 cache lines; the stride prefetcher
        // covers all but the first few cold misses.
        assert!(
            t.stats.dram_accesses <= 3,
            "dram = {}",
            t.stats.dram_accesses
        );
        assert!(t.stats.l1_hits >= 56, "l1 hits = {}", t.stats.l1_hits);
    }

    #[test]
    fn loop_branch_prediction_warms_up() {
        let p = array_sum(200);
        let t = trace(&p).unwrap();
        // A monotone loop branch mispredicts at most a handful of times
        // (warmup + final not-taken).
        assert!(
            t.stats.mispredicts <= 4,
            "mispredicts = {}",
            t.stats.mispredicts
        );
    }

    #[test]
    fn max_insts_truncates() {
        let p = array_sum(1000);
        let cfg = TracerConfig {
            max_insts: 100,
            ..TracerConfig::default()
        };
        let t = trace_with(&p, &cfg).unwrap();
        assert_eq!(t.stats.insts, 100);
    }

    #[test]
    fn fast_forward_skips_prefix() {
        let p = array_sum(100);
        let cfg = TracerConfig {
            fast_forward: 250,
            ..TracerConfig::default()
        };
        let t = trace_with(&p, &cfg).unwrap();
        // 501 total dynamic insts; 250 skipped.
        assert_eq!(t.stats.insts, 251);
        // Caches were warmed during fast-forward, so the recorded suffix
        // sees fewer cold misses than a cold run of the same length.
        assert!(t.stats.dram_accesses < 8);
    }

    #[test]
    fn invalid_program_rejected() {
        let p = Program::from_insts("empty", vec![]);
        assert!(matches!(trace(&p), Err(TraceError::InvalidProgram(_))));
    }
}
