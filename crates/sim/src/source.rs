//! Streaming trace production: fixed-size chunks instead of one
//! monolithic `Vec<DynInst>`.
//!
//! The paper's scalability argument for the TDG is that node times are
//! finalized at insertion, so the graph only ever needs a *window* of
//! state. The same applies one level down: the functional simulator does
//! not need to materialize a whole trace before the µDG can start
//! consuming it. A [`TraceSource`] yields [`TraceChunk`]s — bounded
//! blocks of retired [`DynInst`]s plus running [`TraceStats`] — produced
//! lazily by [`SimSource`] (the simulator loop) or replayed from an
//! existing trace by [`MaterializedSource`].
//!
//! Chunk size is controlled by the `PRISM_CHUNK` environment variable
//! (default [`DEFAULT_CHUNK_INSTS`] = 64 Ki instructions). Consumers that
//! genuinely need random access (Ball-Larus path profiling in `prism-ir`,
//! Trace-P region replay) use [`TraceSource::materialize`] to collect the
//! stream into a [`Trace`].

use std::sync::atomic::{AtomicU64, Ordering};

use prism_isa::Program;

use crate::{
    BranchPredictor, BranchRecord, DynInst, Machine, MemRecord, MemoryHierarchy, Trace, TraceError,
    TraceStats, TracerConfig,
};

/// Environment variable selecting the chunk size in instructions.
pub const CHUNK_ENV: &str = "PRISM_CHUNK";

/// Default chunk size: 64 Ki retired instructions per chunk.
pub const DEFAULT_CHUNK_INSTS: usize = 64 * 1024;

/// High-water mark of chunk payload bytes produced by any source in this
/// process (for the `--stats` `peak_chunk_bytes` counter).
static PEAK_CHUNK_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_chunk_bytes(insts: usize) {
    let bytes = (insts * std::mem::size_of::<DynInst>()) as u64;
    PEAK_CHUNK_BYTES.fetch_max(bytes, Ordering::Relaxed);
}

/// Largest single chunk (in bytes of `DynInst` payload) produced by any
/// [`TraceSource`] in this process so far.
#[must_use]
pub fn peak_chunk_bytes() -> u64 {
    PEAK_CHUNK_BYTES.load(Ordering::Relaxed)
}

/// Resets the [`peak_chunk_bytes`] high-water mark (for tests).
pub fn reset_peak_chunk_bytes() {
    PEAK_CHUNK_BYTES.store(0, Ordering::Relaxed);
}

/// Chunk size in instructions: `PRISM_CHUNK` or [`DEFAULT_CHUNK_INSTS`].
///
/// # Panics
///
/// Panics when the variable is set but not a positive integer — like the
/// other env knobs, a typo must not silently run at the default size.
#[must_use]
pub fn chunk_size_from_env() -> usize {
    std::env::var(CHUNK_ENV).map_or(DEFAULT_CHUNK_INSTS, |v| parse_chunk(&v))
}

fn parse_chunk(v: &str) -> usize {
    let n = v
        .trim()
        .parse::<usize>()
        .unwrap_or_else(|e| panic!("bad {CHUNK_ENV} value `{v}`: {e}"));
    assert!(n >= 1, "bad {CHUNK_ENV} value `{v}`: must be >= 1");
    n
}

/// One bounded block of the retired instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceChunk {
    /// 0-based chunk index within the stream.
    pub index: u64,
    /// `seq` of the first instruction in this chunk.
    pub first_seq: u64,
    /// The retired instructions of this chunk.
    pub insts: Vec<DynInst>,
    /// Running statistics over the stream *through* this chunk.
    pub stats: TraceStats,
    /// `true` when no further chunk follows.
    pub last: bool,
}

/// A producer of [`TraceChunk`]s.
///
/// Implementations yield chunks in stream order; `next_chunk` returns
/// `Ok(None)` once the stream is exhausted.
pub trait TraceSource {
    /// The program the stream was recorded from.
    fn program(&self) -> &Program;

    /// Produces the next chunk, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if producing the chunk faults (lazy
    /// simulation only; replay sources are infallible).
    fn next_chunk(&mut self) -> Result<Option<TraceChunk>, TraceError>;

    /// Collects the whole stream into a [`Trace`] — the random-access
    /// adapter for consumers like Ball-Larus path profiling that need the
    /// full instruction vector.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TraceError`] from `next_chunk`.
    fn materialize(mut self) -> Result<Trace, TraceError>
    where
        Self: Sized,
    {
        let program = self.program().clone();
        let mut insts = Vec::new();
        let mut stats = TraceStats::default();
        while let Some(chunk) = self.next_chunk()? {
            insts.extend_from_slice(&chunk.insts);
            stats = chunk.stats;
        }
        Ok(Trace {
            program,
            insts,
            stats,
        })
    }
}

/// Lazy trace production: the functional simulator loop, yielding one
/// chunk per call instead of a monolithic trace.
///
/// Holds the machine, cache hierarchy, and branch predictor across calls,
/// so a chunk costs exactly the simulation of its own instructions.
#[derive(Debug)]
pub struct SimSource<'p> {
    program: &'p Program,
    config: TracerConfig,
    chunk_size: usize,
    machine: Machine,
    dcache: MemoryHierarchy,
    predictor: BranchPredictor,
    stats: TraceStats,
    executed: u64,
    next_index: u64,
    done: bool,
}

impl<'p> SimSource<'p> {
    /// Validates `program` and prepares a lazy source with the
    /// environment-selected chunk size.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidProgram`] if validation fails.
    pub fn new(program: &'p Program, config: &TracerConfig) -> Result<Self, TraceError> {
        program.validate()?;
        Ok(SimSource {
            program,
            config: *config,
            chunk_size: chunk_size_from_env(),
            machine: Machine::new(program),
            dcache: MemoryHierarchy::new(config.l1d, config.l2, config.dram_latency),
            predictor: BranchPredictor::new(config.branch),
            stats: TraceStats::default(),
            executed: 0,
            next_index: 0,
            done: false,
        })
    }

    /// Overrides the chunk size (tests and embedders; the CLI path uses
    /// `PRISM_CHUNK`).
    #[must_use]
    pub fn with_chunk_size(mut self, insts: usize) -> Self {
        self.chunk_size = insts.max(1);
        self
    }

    /// Instructions recorded so far across all produced chunks.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.stats.insts
    }
}

impl TraceSource for SimSource<'_> {
    fn program(&self) -> &Program {
        self.program
    }

    fn next_chunk(&mut self) -> Result<Option<TraceChunk>, TraceError> {
        if self.done {
            return Ok(None);
        }
        let first_seq = self.stats.insts;
        let index = self.next_index;
        let mut insts = Vec::new();

        while !self.machine.is_halted()
            && self.stats.insts < self.config.max_insts
            && insts.len() < self.chunk_size
        {
            let effect = self.machine.step(self.program)?;
            let recording = self.executed >= self.config.fast_forward;
            self.executed += 1;

            let mem = effect.mem.map(|m| {
                let (latency, level) = self.dcache.access(m.addr, effect.sid);
                MemRecord {
                    addr: m.addr,
                    width: m.width,
                    is_store: m.is_store,
                    latency,
                    level,
                }
            });

            let branch = effect.control.map(|c| {
                let inst = self.program.inst(effect.sid);
                let mispredicted = if inst.op.is_cond_branch() {
                    self.predictor.conditional(effect.sid, c.taken)
                } else if c.is_call {
                    self.predictor.call(effect.sid + 1);
                    false
                } else if c.is_return {
                    self.predictor.ret(c.target)
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
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                    }
                    match m.level {
                        crate::MemLevel::L1 => self.stats.l1_hits += 1,
                        crate::MemLevel::L2 => self.stats.l2_hits += 1,
                        crate::MemLevel::Dram => self.stats.dram_accesses += 1,
                    }
                }
                if let Some(b) = &branch {
                    if self.program.inst(effect.sid).op.is_cond_branch() {
                        self.stats.cond_branches += 1;
                    }
                    if b.mispredicted {
                        self.stats.mispredicts += 1;
                    }
                }
                insts.push(DynInst {
                    seq: self.stats.insts,
                    sid: effect.sid,
                    mem,
                    branch,
                });
                self.stats.insts += 1;
                if self.stats.insts >= self.config.max_insts {
                    break;
                }
            }
            if effect.halted {
                break;
            }
        }

        let last = self.machine.is_halted() || self.stats.insts >= self.config.max_insts;
        if last {
            self.done = true;
        }
        if insts.is_empty() && index > 0 {
            // The stream ended exactly on the previous chunk boundary.
            return Ok(None);
        }
        self.next_index += 1;
        note_chunk_bytes(insts.len());
        Ok(Some(TraceChunk {
            index,
            first_seq,
            insts,
            stats: self.stats,
            last,
        }))
    }
}

/// Replays an already-materialized [`Trace`] as a chunk stream — the
/// adapter that lets every streaming consumer also accept random-access
/// traces.
#[derive(Debug)]
pub struct MaterializedSource<'t> {
    trace: &'t Trace,
    chunk_size: usize,
    pos: usize,
    next_index: u64,
    stats: TraceStats,
}

impl<'t> MaterializedSource<'t> {
    /// Wraps `trace` with the environment-selected chunk size.
    #[must_use]
    pub fn new(trace: &'t Trace) -> Self {
        MaterializedSource {
            trace,
            chunk_size: chunk_size_from_env(),
            pos: 0,
            next_index: 0,
            stats: TraceStats::default(),
        }
    }

    /// Overrides the chunk size.
    #[must_use]
    pub fn with_chunk_size(mut self, insts: usize) -> Self {
        self.chunk_size = insts.max(1);
        self
    }
}

impl TraceSource for MaterializedSource<'_> {
    fn program(&self) -> &Program {
        &self.trace.program
    }

    fn next_chunk(&mut self) -> Result<Option<TraceChunk>, TraceError> {
        if self.pos >= self.trace.insts.len() {
            if self.next_index == 0 && self.trace.insts.is_empty() {
                // An empty trace still yields one (empty, last) chunk so
                // chunk-wise consumers observe its (default) stats.
                self.next_index = 1;
                return Ok(Some(TraceChunk {
                    index: 0,
                    first_seq: 0,
                    insts: Vec::new(),
                    stats: self.trace.stats,
                    last: true,
                }));
            }
            return Ok(None);
        }
        let end = (self.pos + self.chunk_size).min(self.trace.insts.len());
        let slice = &self.trace.insts[self.pos..end];
        for d in slice {
            accumulate(&mut self.stats, d, &self.trace.program);
        }
        let chunk = TraceChunk {
            index: self.next_index,
            first_seq: slice[0].seq,
            insts: slice.to_vec(),
            stats: self.stats,
            last: end == self.trace.insts.len(),
        };
        self.pos = end;
        self.next_index += 1;
        note_chunk_bytes(chunk.insts.len());
        Ok(Some(chunk))
    }
}

/// Folds one retired instruction into running statistics (the inverse of
/// how the tracer accumulated them, so replayed chunks carry the same
/// running stats as lazily-produced ones).
fn accumulate(stats: &mut TraceStats, d: &DynInst, program: &Program) {
    if let Some(m) = &d.mem {
        if m.is_store {
            stats.stores += 1;
        } else {
            stats.loads += 1;
        }
        match m.level {
            crate::MemLevel::L1 => stats.l1_hits += 1,
            crate::MemLevel::L2 => stats.l2_hits += 1,
            crate::MemLevel::Dram => stats.dram_accesses += 1,
        }
    }
    if let Some(b) = &d.branch {
        if program.inst(d.sid).op.is_cond_branch() {
            stats.cond_branches += 1;
        }
        if b.mispredicted {
            stats.mispredicts += 1;
        }
    }
    stats.insts += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_isa::{ProgramBuilder, Reg};

    fn counting_loop(n: i64) -> Program {
        let (i, acc) = (Reg::int(1), Reg::int(2));
        let mut b = ProgramBuilder::new("count");
        b.init_reg(i, n);
        let head = b.bind_new_label();
        b.add(acc, acc, i);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn chunked_stream_equals_monolithic_trace() {
        let p = counting_loop(100);
        let whole = crate::trace(&p).unwrap();
        let mut src = SimSource::new(&p, &TracerConfig::default())
            .unwrap()
            .with_chunk_size(37);
        let mut insts = Vec::new();
        let mut chunks = 0;
        let mut stats = TraceStats::default();
        while let Some(c) = src.next_chunk().unwrap() {
            assert_eq!(c.index, chunks);
            assert_eq!(c.first_seq, insts.len() as u64);
            assert!(c.insts.len() <= 37);
            insts.extend_from_slice(&c.insts);
            stats = c.stats;
            chunks += 1;
        }
        assert_eq!(insts, whole.insts);
        assert_eq!(stats, whole.stats);
        assert_eq!(chunks, (whole.len() as u64).div_ceil(37));
    }

    #[test]
    fn materialized_source_replays_identically() {
        let p = counting_loop(64);
        let whole = crate::trace(&p).unwrap();
        let mut replay = MaterializedSource::new(&whole).with_chunk_size(50);
        let mut sim = SimSource::new(&p, &TracerConfig::default())
            .unwrap()
            .with_chunk_size(50);
        loop {
            let (a, b) = (replay.next_chunk().unwrap(), sim.next_chunk().unwrap());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn materialize_adapter_roundtrips() {
        let p = counting_loop(33);
        let whole = crate::trace(&p).unwrap();
        let back = MaterializedSource::new(&whole)
            .with_chunk_size(7)
            .materialize()
            .unwrap();
        assert_eq!(back.insts, whole.insts);
        assert_eq!(back.stats, whole.stats);
    }

    #[test]
    fn last_flag_marks_the_final_chunk() {
        let p = counting_loop(10); // 31 recorded insts + halt
        let mut src = SimSource::new(&p, &TracerConfig::default())
            .unwrap()
            .with_chunk_size(16);
        let mut flags = Vec::new();
        while let Some(c) = src.next_chunk().unwrap() {
            flags.push(c.last);
        }
        assert!(flags.ends_with(&[true]));
        assert!(flags.iter().filter(|&&l| l).count() == 1);
    }

    #[test]
    fn peak_chunk_bytes_tracks_high_water_mark() {
        reset_peak_chunk_bytes();
        let p = counting_loop(100);
        let mut src = SimSource::new(&p, &TracerConfig::default())
            .unwrap()
            .with_chunk_size(64);
        while src.next_chunk().unwrap().is_some() {}
        assert_eq!(
            peak_chunk_bytes(),
            64 * std::mem::size_of::<DynInst>() as u64
        );
    }

    #[test]
    fn max_insts_bounds_the_stream() {
        let p = counting_loop(1000);
        let cfg = TracerConfig {
            max_insts: 100,
            ..TracerConfig::default()
        };
        let t = SimSource::new(&p, &cfg)
            .unwrap()
            .with_chunk_size(30)
            .materialize()
            .unwrap();
        assert_eq!(t.stats.insts, 100);
    }

    #[test]
    #[should_panic(expected = "bad PRISM_CHUNK value `4k`")]
    fn typoed_chunk_value_panics() {
        assert_eq!(parse_chunk("4096"), 4096);
        let _ = parse_chunk("4k");
    }
}
