//! # prism-ir
//!
//! Program-IR reconstruction for the Prism TDG framework — the compiler
//! side of the TDG from *Analyzing Behavior Specialized Acceleration*
//! (ASPLOS 2016, §2).
//!
//! The TDG pairs the µDG with "a Program IR (typically a standard DFG +
//! CFG) which has a one-to-one mapping with µDG nodes", reconstructed from
//! the binary and the trace. This crate builds that IR:
//!
//! * [`Cfg`] — basic blocks and control edges with dynamic counts,
//! * [`Dominators`] — immediate-dominator tree,
//! * [`LoopForest`] — natural loops, nesting, trip counts,
//! * [`profile_paths`] — Ball–Larus-style per-loop path profiles,
//! * [`analyze_memory`] — per-op strides and loop-carried memory
//!   dependences (dynamic, optimistic — the paper's §2.7 caveat),
//! * [`classify_loop_registers`] — induction/reduction/cross-iteration
//!   classification of back-edge-carried registers.
//!
//! [`ProgramIr::analyze`] runs the whole stack and is what the TDG
//! analyzers in `prism-tdg` consume.
//!
//! # Examples
//!
//! ```
//! use prism_isa::{ProgramBuilder, Reg};
//! use prism_ir::ProgramIr;
//!
//! let (p, i, sum, x) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
//! let mut b = ProgramBuilder::new("sum");
//! b.init_reg(p, 0x1000);
//! b.init_reg(i, 32);
//! let head = b.bind_new_label();
//! b.ld(x, p, 0);
//! b.add(sum, sum, x);
//! b.addi(p, p, 8);
//! b.addi(i, i, -1);
//! b.bne_label(i, Reg::ZERO, head);
//! b.halt();
//! let trace = prism_sim::trace(&b.build()?)?;
//! let ir = ProgramIr::analyze(&trace);
//! assert_eq!(ir.loops.len(), 1);
//! let l = ir.loops.innermost().next().unwrap();
//! assert!(ir.mem[&l.id].vectorizable_memory());
//! assert!(ir.regs[&l.id].vectorizable_dataflow());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod cfg;
mod dom;
mod loops;
mod memdep;
mod paths;
mod regdep;
mod spills;

use std::collections::HashMap;

pub use cfg::{BasicBlock, BlockId, Cfg};
pub use dom::Dominators;
pub use loops::{Loop, LoopForest, LoopId};
pub use memdep::{analyze_memory, AccessPattern, LoopMemInfo};
pub use paths::{profile_paths, PathProfile};
pub use regdep::{classify_loop_registers, CarriedClass, LoopRegInfo};
pub use spills::{find_spills, SpillPair};

/// The complete reconstructed IR of a traced execution.
#[derive(Debug, Clone)]
pub struct ProgramIr {
    /// The analyzed program (owned copy, so analyzer passes can read
    /// opcodes without holding the trace).
    pub program: prism_isa::Program,
    /// Control-flow graph with dynamic counts.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dom: Dominators,
    /// Natural loops with dynamic statistics.
    pub loops: LoopForest,
    /// Path profile per innermost loop.
    pub paths: HashMap<LoopId, PathProfile>,
    /// Memory behavior per innermost loop.
    pub mem: HashMap<LoopId, LoopMemInfo>,
    /// Register dataflow classification per innermost loop.
    pub regs: HashMap<LoopId, LoopRegInfo>,
}

impl ProgramIr {
    /// Runs the full analysis stack over a trace.
    ///
    /// This consumer needs the whole [`prism_sim::Trace`], not a window
    /// of it: Ball–Larus path profiling and the loop analyses make
    /// multiple random-access passes over the full dynamic stream.
    #[must_use]
    pub fn analyze(trace: &prism_sim::Trace) -> Self {
        let cfg = Cfg::build(trace);
        let dom = Dominators::compute(&cfg);
        let loops = LoopForest::build(&cfg, &dom, trace);
        let paths = profile_paths(&cfg, &loops, trace);
        let mem = analyze_memory(&cfg, &loops, trace);
        let regs = loops
            .innermost()
            .map(|l| (l.id, classify_loop_registers(&trace.program, &cfg, l)))
            .collect();
        ProgramIr {
            program: trace.program.clone(),
            cfg,
            dom,
            loops,
            paths,
            mem,
            regs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_isa::{ProgramBuilder, Reg};

    #[test]
    fn full_stack_on_nested_branchy_program() {
        let (i, j, t, acc) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        let mut b = ProgramBuilder::new("nest");
        b.init_reg(i, 6);
        let oh = b.bind_new_label();
        b.li(j, 8);
        let ih = b.bind_new_label();
        let skip = b.label();
        b.andi(t, j, 1);
        b.beq_label(t, Reg::ZERO, skip);
        b.addi(acc, acc, 3);
        b.bind(skip);
        b.addi(j, j, -1);
        b.bne_label(j, Reg::ZERO, ih);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, oh);
        b.halt();
        let trace = prism_sim::trace(&b.build().unwrap()).unwrap();
        let ir = ProgramIr::analyze(&trace);

        assert_eq!(ir.loops.len(), 2);
        let inner = ir.loops.innermost().next().unwrap();
        assert_eq!(inner.iterations, 48);
        let prof = &ir.paths[&inner.id];
        assert_eq!(prof.paths.len(), 2);
        assert!((prof.hot_path_fraction() - 0.5).abs() < 1e-9);
        // Both analyses present for the inner loop only.
        assert!(ir.regs.contains_key(&inner.id));
        let outer_id = ir
            .loops
            .loops
            .iter()
            .find(|l| !l.is_innermost())
            .unwrap()
            .id;
        assert!(!ir.regs.contains_key(&outer_id));
    }
}
