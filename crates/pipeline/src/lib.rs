//! # prism-pipeline
//!
//! The staged evaluation pipeline behind every prism experiment:
//!
//! ```text
//! workload ──trace──▶ Trace ──analyze──▶ ProgramIr ──plan──▶ AccelPlans
//!                                                              │
//!              oracle tables (per workload × base core)  ◀─────┘
//!                                │
//!                        design-point evaluation ──▶ DesignResult
//! ```
//!
//! A [`Session`] memoizes every stage in memory and stores design-point
//! results in an on-disk, content-addressed [`ArtifactStore`]. Keys cover
//! workload identity and build size, the full [`prism_sim::TracerConfig`],
//! the full core configuration, the BSA subset, and the schema/crate
//! version — so stale artifacts are structurally impossible: change any
//! input and the key changes; only the affected stages recompute.
//!
//! Fan-out across (workload × design point) runs on [`parallel_map`],
//! which reduces in canonical input order: results are bit-identical
//! whether run with `--jobs 1` or `--jobs N` (also settable via the
//! `PRISM_JOBS` environment variable).
//!
//! ## Fault tolerance
//!
//! Sweeps isolate failures instead of aborting: a panicking model stage,
//! a budget-blown evaluation, or a diverging timing model quarantines the
//! affected (workload, design point) unit into
//! [`SweepReport::quarantined`] while every healthy point still produces
//! a result. Store I/O is retried with bounded backoff and degrades to
//! recompute. A seeded [`FaultPlan`] (from the `PRISM_FAULTS` environment
//! variable, one grammar over the site registry in [`fault`]) injects
//! store I/O errors, artifact corruption, trace truncation, stage panics,
//! process kills, and grid-worker and network-link faults
//! deterministically for chaos testing.
//!
//! ## Crash consistency
//!
//! Store puts are fsync-then-rename durable (opt out with
//! `PRISM_NO_FSYNC=1`), every sweep writes an append-only
//! [`SweepJournal`] of settled units, and `--resume` replays it to skip
//! completed work after a kill — producing byte-identical output. A
//! deterministic kill harness ([`crash_point`] /
//! `PRISM_FAULTS=crash.<site>@<n>`)
//! proves the property at every kill site, and [`run_fsck`] checks and
//! repairs a store offline.

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod fault;
pub mod fsck;
pub mod hash;
pub mod journal;
pub mod json;
pub mod key;
pub mod par;
pub mod session;
pub mod store;
pub mod sweep;

pub use codec::{
    decode_design_result, decode_exo_timing, decode_pipeline_error, decode_trace_chunk,
    encode_design_result, encode_exo_timing, encode_pipeline_error, encode_trace_chunk,
};
pub use error::{ErrorKind, PipelineError, Stage};
pub use fault::{
    crash_point, FaultPlan, FaultSpecError, GridFaultKind, NetFaultKind, Site, CRASH_EXIT_CODE,
    FAULTS_ENV, INJECTED_PANIC_PREFIX, SITE_GRID_FRAME, SITE_JOURNAL_APPEND, SITE_STORE_PUT,
    SITE_UNIT_COMPLETE,
};
pub use fsck::{run_fsck, FsckReport, QUARANTINE_SUBDIR};
pub use hash::ContentHash;
pub use journal::{journal_path, sweep_key, JournalReplay, SweepJournal, JOURNAL_SUBDIR};
pub use json::Json;
pub use key::{KeyBuilder, KEY_SCHEMA_VERSION, MIN_SCHEMA_VERSION, SCHEMA_VERSION};
pub use par::{flag_from_args, jobs_from_args, parallel_map, resolve_jobs};
pub use session::{DivergenceGuard, PreparedWorkload, Session, SessionStats, STREAM_ENV};
pub use store::{
    fsync_enabled, store_cap_from_env, ArtifactStore, StoreStats, GC_SAFETY_WINDOW, NO_FSYNC_ENV,
    STORE_CAP_ENV,
};
pub use sweep::SweepReport;
