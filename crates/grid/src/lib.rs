//! # prism-grid
//!
//! Sharded multi-process execution of the design-space sweep: a
//! coordinator partitions the (core × BSA-subset) unit space across
//! worker subprocesses — re-invocations of the current executable in a
//! dedicated worker mode — and merges their [`prism_pipeline::SweepReport`]s.
//!
//! ```text
//!               ┌─ worker 0 (PRISM_GRID_WORKER=1, shard 0) ─┐
//! coordinator ──┼─ worker 1 (shard 1)                        ├─ shared
//!   run_grid    └─ worker N (shard N)                        ┘ artifact store
//! ```
//!
//! The coordinator and each worker speak newline-delimited JSON over the
//! worker's stdin/stdout (see [`proto`]): a versioned handshake, unit
//! assignments with a small per-worker window (so a worker *prepares*
//! the next unit while it *evaluates* the current one), heartbeats, one
//! result-or-quarantine per unit, and a clean shutdown. Failure policy:
//!
//! - a **quarantined unit** is retried once (configurable) on a
//!   *different* shard; if the retry succeeds the unit counts as
//!   recovered, not quarantined,
//! - a **dead worker** (crash, heartbeat silence, protocol corruption)
//!   has its in-flight units reassigned, never lost,
//! - when **no eligible worker** remains, units are evaluated in-process
//!   by the coordinator.
//!
//! All local shards share one content-addressed artifact store, so grid
//! runs and single-process runs warm the same cache and — on a healthy
//! fleet — produce byte-identical merged reports.
//!
//! The same protocol also runs over TCP (see [`prism_net`]): remote
//! daemons started with `prism worker --listen` occupy shard slots after
//! the local ones ([`GridConfig::hosts`]), authenticate with a shared
//! secret, ship result artifacts back by content hash, and reconnect
//! with bounded backoff when the link drops — in-flight units are
//! reassigned exactly like a local worker death.

#![warn(missing_docs)]

pub mod coord;
pub mod proto;
pub mod worker;

pub use coord::{
    parse_grid_timeout, run_grid, GridConfig, GridError, GridOutcome, GridStats, HostStats,
    GRID_TIMEOUT_ENV,
};
pub use proto::{FromWorker, ToWorker, HEARTBEAT_INTERVAL, PROTO_VERSION};
pub use worker::{
    run_worker, run_worker_if_env, run_worker_io, serve_tcp, GridFaultPlan, WorkerOptions,
    SHARD_ENV, WORKER_ENV,
};

/// Environment variable selecting the grid worker count for front-ends
/// ([`workers_from_env`]).
pub const WORKERS_ENV: &str = "PRISM_WORKERS";

/// The worker count requested via `PRISM_WORKERS`, when it asks for an
/// actual fleet (a value of 0 or 1 means "stay single-process").
///
/// # Panics
///
/// Panics when the variable is set but not a number — like the other env
/// knobs, a typo must not silently run single-process.
#[must_use]
pub fn workers_from_env() -> Option<usize> {
    fleet_size(&std::env::var(WORKERS_ENV).ok()?)
}

fn fleet_size(v: &str) -> Option<usize> {
    let n: usize = v
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("bad {WORKERS_ENV} value `{v}`: {e}"));
    (n > 1).then_some(n)
}

#[cfg(test)]
mod tests {
    #[test]
    #[should_panic(expected = "bad PRISM_WORKERS value `four`")]
    fn typoed_workers_value_panics() {
        assert_eq!(super::fleet_size("0"), None);
        assert_eq!(super::fleet_size("1"), None);
        assert_eq!(super::fleet_size(" 4 "), Some(4));
        let _ = super::fleet_size("four");
    }
}
