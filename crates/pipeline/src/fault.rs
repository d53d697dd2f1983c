//! Deterministic fault injection: one registry of fault sites, one
//! grammar, one environment variable.
//!
//! Every injected fault — a recoverable store or stage failure, a
//! process kill, a grid worker or a network link misbehaving — is named
//! by a *site* in [`SITES`] and armed through `PRISM_FAULTS` (or any
//! string with the same grammar, via [`FaultPlan::parse`]):
//!
//! ```text
//! PRISM_FAULTS=store.io~0.05,store.corrupt~0.02,trace.panic@1,seed=42
//! ```
//!
//! Entries are comma-separated:
//!
//! * `<site>~P` — a seeded roll on each call: the site fires with
//!   probability `P`,
//! * `<site>@N` — the site fires on its `N`-th hit (1-based); repeat the
//!   entry to fire on several hits,
//! * `seed=N` — the seed of every roll (default 0).
//!
//! Each site accepts exactly one trigger. An unknown site (including a
//! stage nothing hooks, such as `analyze.panic`), a wrong trigger, a bad
//! value and a plan with no fault at all are typed [`FaultSpecError`]s:
//! a typo must not silently disable a chaos run.
//!
//! [`Site`] documents what each site does when it fires; `DESIGN.md`
//! §11 tabulates the sites and where each one counts its hits. A
//! `.<shard>` suffix is a 0-based shard index. Hits are counted once per
//! call per site. Probability rolls are a pure function of
//! `(seed, instance)` — the *instance* string names the decision point
//! (e.g. `load:3fa92c1b:try0`) — so outcomes do not depend on thread
//! interleaving and a parallel sweep injects the same faults as a
//! sequential one.
//!
//! A crash is not recoverable: [`crash_point`] models SIGKILL / power
//! loss, exiting at once with [`CRASH_EXIT_CODE`]. The crash-consistency
//! layer (durable store puts, the sweep journal, `--resume`) must make
//! such a kill recoverable at every crash site.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::error::Stage;

/// Environment variable holding the fault plan for [`FaultPlan::from_env`].
pub const FAULTS_ENV: &str = "PRISM_FAULTS";

/// Message prefix for every injected panic, so caught panics are
/// attributable to the plan rather than to a real bug.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// Exit status of an injected crash — mirrors a SIGKILL'd process
/// (128 + 9) so drivers treat it exactly like a real kill.
pub const CRASH_EXIT_CODE: i32 = 137;

/// Kill point in [`crate::store::ArtifactStore`]: tmp file written and
/// synced, rename not yet performed (leaks the tmp file; the artifact is
/// invisible to readers).
pub const SITE_STORE_PUT: &str = "store-put";

/// Kill point in [`crate::journal::SweepJournal`]: the unit's result is
/// already durable in the store, but its journal record was never
/// written.
pub const SITE_JOURNAL_APPEND: &str = "journal-append";

/// Kill point after a unit's journal record is written and synced — the
/// latest possible kill inside one unit's lifecycle.
pub const SITE_UNIT_COMPLETE: &str = "unit-complete";

/// Kill point in the grid coordinator's event loop, before a
/// result/quarantine frame from a worker is handled.
pub const SITE_GRID_FRAME: &str = "grid-frame";

/// What an injected grid fault does to the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridFaultKind {
    /// Exit the process immediately.
    Die,
    /// Stop heartbeating and stall forever.
    Hang,
    /// Quarantine the unit without evaluating it.
    Quarantine,
}

/// What an injected network fault does to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Discard the frame, then cut the connection.
    Drop,
    /// Deliver the frame late.
    Delay,
    /// Deliver the frame, then cut the connection.
    Disconnect,
}

/// A hooked decision point: where a layer asks the plan whether to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `store.io`: an artifact-store read or write fails.
    StoreIo,
    /// `store.corrupt`: a loaded artifact comes back corrupted.
    StoreCorrupt,
    /// `trace.truncate`: the tracer reports a truncated trace (rolled per
    /// workload and per stream chunk).
    TraceTruncate,
    /// `<stage>.panic`: the stage panics on entry (build, trace and
    /// evaluate are hooked; hits counted per plan, i.e. per session).
    Panic(Stage),
    /// `crash.<name>`: the process exits at one of the `SITE_*` kill
    /// points (hits counted process-wide).
    Crash(&'static str),
    /// `grid.<kind>.<shard>`: the worker on that shard misbehaves when it
    /// starts a unit (hits count the units it started).
    Grid(GridFaultKind, usize),
    /// `net.<kind>.<shard>`: the coordinator's link to that shard
    /// misbehaves on an inbound frame (hits count frames across
    /// reconnects).
    Net(NetFaultKind, usize),
}

/// The trigger a site accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// `@N`: fires on the `N`-th hit.
    Hit,
    /// `~P`: a seeded roll with probability `P` on each call.
    Chance,
}

impl std::fmt::Display for Trigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Trigger::Hit => "@N",
            Trigger::Chance => "~P",
        })
    }
}

/// One row of the site registry.
#[derive(Debug)]
pub struct SiteSpec {
    /// The name as written in `PRISM_FAULTS`; a trailing `.<shard>`
    /// stands for a 0-based shard index.
    pub name: &'static str,
    /// The only trigger the site accepts.
    pub trigger: Trigger,
    site: fn(usize) -> Site,
}

const fn row(name: &'static str, trigger: Trigger, site: fn(usize) -> Site) -> SiteSpec {
    SiteSpec {
        name,
        trigger,
        site,
    }
}

/// Every live fault site — the only names [`FaultPlan::parse`] accepts.
pub const SITES: &[SiteSpec] = {
    use GridFaultKind as G;
    use NetFaultKind as N;
    use Site::{Crash, Grid, Net, Panic};
    use Trigger::{Chance, Hit};
    &[
        row("store.io", Chance, |_| Site::StoreIo),
        row("store.corrupt", Chance, |_| Site::StoreCorrupt),
        row("trace.truncate", Chance, |_| Site::TraceTruncate),
        row("build.panic", Hit, |_| Panic(Stage::Build)),
        row("trace.panic", Hit, |_| Panic(Stage::Trace)),
        row("evaluate.panic", Hit, |_| Panic(Stage::Evaluate)),
        row("crash.store-put", Hit, |_| Crash(SITE_STORE_PUT)),
        row("crash.journal-append", Hit, |_| Crash(SITE_JOURNAL_APPEND)),
        row("crash.unit-complete", Hit, |_| Crash(SITE_UNIT_COMPLETE)),
        row("crash.grid-frame", Hit, |_| Crash(SITE_GRID_FRAME)),
        row("grid.die.<shard>", Hit, |s| Grid(G::Die, s)),
        row("grid.hang.<shard>", Hit, |s| Grid(G::Hang, s)),
        row("grid.quarantine.<shard>", Hit, |s| Grid(G::Quarantine, s)),
        row("net.drop.<shard>", Hit, |s| Net(N::Drop, s)),
        row("net.delay.<shard>", Hit, |s| Net(N::Delay, s)),
        row("net.disconnect.<shard>", Hit, |s| Net(N::Disconnect, s)),
    ]
};

/// Resolves a site name against [`SITES`].
fn lookup(name: &str) -> Option<(&'static SiteSpec, Site)> {
    SITES.iter().find_map(|spec| {
        let shard = match spec.name.strip_suffix(".<shard>") {
            Some(prefix) => name.strip_prefix(prefix)?.strip_prefix('.')?.parse().ok()?,
            None if name == spec.name => 0,
            None => return None,
        };
        Some((spec, (spec.site)(shard)))
    })
}

/// A malformed `PRISM_FAULTS` value. Returned (never panicked) by
/// [`FaultPlan::parse`] so front-ends can surface the problem with
/// context; each variant carries the offending entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// No fault entry at all (unset the variable instead).
    Empty,
    /// The entry names no site in [`SITES`].
    UnknownSite(String),
    /// The entry's trigger is missing or not the one its site accepts.
    WrongTrigger(String),
    /// A hit count that is not an integer >= 1, or a probability
    /// outside `[0, 1]`.
    BadValue(String),
    /// A `seed=N` entry whose `N` is not a `u64`.
    BadSeed(String),
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::Empty => write!(
                f,
                "empty fault spec (name at least one fault, or unset {FAULTS_ENV})"
            ),
            FaultSpecError::UnknownSite(entry) => {
                write!(f, "bad fault `{entry}`: unknown site (known:")?;
                for spec in SITES {
                    write!(f, " {}{}", spec.name, spec.trigger)?;
                }
                f.write_str(")")
            }
            FaultSpecError::WrongTrigger(entry) => {
                write!(f, "bad fault `{entry}`: wrong trigger")?;
                let name = entry.split(['@', '~']).next().unwrap_or_default().trim();
                match lookup(name) {
                    Some((spec, _)) => write!(f, " (`{name}` takes `{}`)", spec.trigger),
                    None => Ok(()),
                }
            }
            FaultSpecError::BadValue(entry) => write!(
                f,
                "bad fault `{entry}`: hits are integers >= 1, probabilities lie in [0, 1]"
            ),
            FaultSpecError::BadSeed(entry) => write!(f, "bad fault `{entry}`: seed=N takes a u64"),
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// A seeded, deterministic fault-injection plan: the parsed form of one
/// `PRISM_FAULTS` value. Each layer reads the entries of its own sites.
///
/// Shared via `Arc` (hit counters are atomics, so the plan itself is not
/// `Clone`).
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// `~P` entries.
    chances: Vec<(Site, f64)>,
    /// `@N` entries, one per site, with the site's hit counter.
    armed: Vec<Armed>,
}

#[derive(Debug)]
struct Armed {
    site: Site,
    hits: Vec<u64>,
    seen: AtomicU64,
}

/// splitmix64: tiny, high-quality 64-bit mixer (public-domain algorithm).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the instance string: cheap, stable identity.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl FaultPlan {
    /// Parses a plan from the [`FAULTS_ENV`] environment variable.
    /// Returns `None` when the variable is unset or empty. A malformed
    /// value is a hard error: silently ignoring a typoed fault plan would
    /// make a chaos run look suspiciously healthy.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but does not parse.
    #[must_use]
    pub fn from_env() -> Option<Arc<FaultPlan>> {
        let raw = std::env::var(FAULTS_ENV).ok()?;
        if raw.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&raw) {
            Ok(plan) => Some(Arc::new(plan)),
            Err(e) => panic!("bad {FAULTS_ENV} value `{raw}`: {e}"),
        }
    }

    /// Parses a plan from its textual form (the `PRISM_FAULTS` grammar).
    ///
    /// # Errors
    ///
    /// Returns a typed [`FaultSpecError`] for the first malformed entry;
    /// a plan with no fault entry is [`FaultSpecError::Empty`].
    pub fn parse(text: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for entry in text.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            if entry == "seed" || entry.starts_with("seed=") {
                plan.seed = entry
                    .strip_prefix("seed=")
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or_else(|| FaultSpecError::BadSeed(entry.into()))?;
                continue;
            }
            let (name, trigger, value) = match entry.find(['@', '~']) {
                Some(at) => {
                    let trigger = if entry.as_bytes()[at] == b'@' {
                        Trigger::Hit
                    } else {
                        Trigger::Chance
                    };
                    (&entry[..at], Some(trigger), entry[at + 1..].trim())
                }
                None => (entry, None, ""),
            };
            let (spec, site) =
                lookup(name.trim()).ok_or_else(|| FaultSpecError::UnknownSite(entry.into()))?;
            if trigger != Some(spec.trigger) {
                return Err(FaultSpecError::WrongTrigger(entry.into()));
            }
            let bad_value = || FaultSpecError::BadValue(entry.into());
            match spec.trigger {
                Trigger::Chance => {
                    let p: f64 = value.parse().map_err(|_| bad_value())?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(bad_value());
                    }
                    plan.chances.retain(|&(s, _)| s != site);
                    plan.chances.push((site, p));
                }
                Trigger::Hit => {
                    let hit: u64 = value.parse().map_err(|_| bad_value())?;
                    if hit == 0 {
                        return Err(bad_value());
                    }
                    match plan.armed.iter_mut().find(|a| a.site == site) {
                        Some(armed) => armed.hits.push(hit),
                        None => plan.armed.push(Armed {
                            site,
                            hits: vec![hit],
                            seen: AtomicU64::new(0),
                        }),
                    }
                }
            }
        }
        if plan.chances.is_empty() && plan.armed.is_empty() {
            return Err(FaultSpecError::Empty);
        }
        Ok(plan)
    }

    /// Deterministic roll in `[0, 1)` for `instance`.
    fn roll(&self, instance: &str) -> f64 {
        let bits = splitmix64(self.seed ^ fnv1a(instance));
        // Take the top 53 bits for a uniform double in [0, 1).
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether the `~P` site `site` fires at `instance`.
    #[must_use]
    pub fn rolls(&self, site: Site, instance: &str) -> bool {
        self.chances
            .iter()
            .find(|&&(s, _)| s == site)
            .is_some_and(|&(_, p)| p > 0.0 && self.roll(instance) < p)
    }

    /// Counts one hit of the `@N` site `site` in this plan, returning the
    /// hit's 1-based number when the plan arms it. Sites the plan does
    /// not name are not counted.
    fn hit(&self, site: Site) -> Option<u64> {
        let armed = self.armed.iter().find(|a| a.site == site)?;
        let n = armed.seen.fetch_add(1, Ordering::SeqCst) + 1;
        armed.hits.contains(&n).then_some(n)
    }

    /// Every site the plan names, `~P` and `@N` alike.
    pub fn sites(&self) -> impl Iterator<Item = Site> + '_ {
        let rolled = self.chances.iter().map(|&(site, _)| site);
        rolled.chain(self.armed.iter().map(|a| a.site))
    }

    /// The `@N` sites armed at their `hit`-th hit.
    fn armed_at(&self, hit: u64) -> impl Iterator<Item = Site> + '_ {
        self.armed
            .iter()
            .filter(move |a| a.hits.contains(&hit))
            .map(|a| a.site)
    }

    /// The sharded `@N` sites (`grid.*`, `net.*`) of shard `shard` armed
    /// at their `hit`-th hit, for layers that count hits themselves
    /// (grid workers count started units, net links count inbound
    /// frames). A `.<shard>` entry never fires on another shard.
    pub fn armed_for(&self, hit: u64, shard: usize) -> impl Iterator<Item = Site> + '_ {
        self.armed_at(hit).filter(move |site| match *site {
            Site::Grid(_, s) | Site::Net(_, s) => s == shard,
            _ => false,
        })
    }

    /// Entry hook for `stage`: panics (with [`INJECTED_PANIC_PREFIX`]) on
    /// the hits the plan arms for `<stage>.panic`.
    ///
    /// # Panics
    ///
    /// By design, on an armed hit.
    pub fn maybe_panic(&self, stage: Stage, instance: &str) {
        if self.hit(Site::Panic(stage)).is_some() {
            panic!("{INJECTED_PANIC_PREFIX} {stage} stage panic at {instance}");
        }
    }

    /// Deterministically mutates artifact text to simulate on-disk
    /// corruption: flips a byte in the middle of the payload.
    #[must_use]
    pub fn corrupt_text(&self, instance: &str, text: &str) -> String {
        let mut bytes = text.as_bytes().to_vec();
        if bytes.is_empty() {
            return "\u{0}".into();
        }
        let idx = (splitmix64(self.seed ^ fnv1a(instance) ^ 0xC0DE) as usize) % bytes.len();
        bytes[idx] ^= 0x5A;
        // Re-encode leniently: invalid UTF-8 becomes replacement chars,
        // which is exactly the kind of garbage a torn write produces.
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// Records one hit of the crash site `site` (one of the `SITE_*` kill
/// points), exiting the process with [`CRASH_EXIT_CODE`] on a hit the
/// process-wide plan arms for `crash.<site>`. Without `PRISM_FAULTS` this
/// costs one `OnceLock` load and a branch.
///
/// # Panics
///
/// Panics when `PRISM_FAULTS` is set but does not parse.
pub fn crash_point(site: &'static str) {
    static PLAN: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
    let Some(plan) = PLAN.get_or_init(FaultPlan::from_env) else {
        return;
    };
    if let Some(n) = plan.hit(Site::Crash(site)) {
        eprintln!("[prism-crash] injected kill at site `{site}` (hit {n})");
        std::process::exit(CRASH_EXIT_CODE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(text: &str) -> FaultPlan {
        FaultPlan::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"))
    }

    #[test]
    fn every_registered_site_parses_with_its_trigger_only() {
        for spec in SITES {
            let name = spec.name.replace("<shard>", "3");
            let (good, bad) = match spec.trigger {
                Trigger::Hit => (format!("{name}@2"), format!("{name}~0.5")),
                Trigger::Chance => (format!("{name}~0.5"), format!("{name}@2")),
            };
            let p = plan(&good);
            let site = (spec.site)(3);
            match spec.trigger {
                Trigger::Hit => assert_eq!(p.armed_at(2).collect::<Vec<_>>(), [site], "{good}"),
                Trigger::Chance => assert_eq!(p.chances, [(site, 0.5)], "{good}"),
            }
            assert_eq!(
                FaultPlan::parse(&bad).unwrap_err(),
                FaultSpecError::WrongTrigger(bad.clone())
            );
        }
    }

    #[test]
    fn well_formed_specs_parse() {
        // (spec, seed, `~P` sites, `@N` sites armed at hit 1, at hit 2)
        type Sites = &'static [Site];
        let cases: &[(&str, u64, Sites, Sites, Sites)] = &[
            (
                "store.io~0.05,store.corrupt~0.02,trace.panic@1,seed=42",
                42,
                &[Site::StoreIo, Site::StoreCorrupt],
                &[Site::Panic(Stage::Trace)],
                &[],
            ),
            (
                "evaluate.panic@1,evaluate.panic@2,trace.truncate~0.05,seed=42",
                42,
                &[Site::TraceTruncate],
                &[Site::Panic(Stage::Evaluate)],
                &[Site::Panic(Stage::Evaluate)],
            ),
            (
                " crash.grid-frame @ 1 ",
                0,
                &[],
                &[Site::Crash(SITE_GRID_FRAME)],
                &[],
            ),
            (
                "grid.die.0@2, grid.hang.2@1 ,grid.quarantine.1@2",
                0,
                &[],
                &[Site::Grid(GridFaultKind::Hang, 2)],
                &[
                    Site::Grid(GridFaultKind::Die, 0),
                    Site::Grid(GridFaultKind::Quarantine, 1),
                ],
            ),
            (
                "net.drop.0@1,net.delay.1@2,net.disconnect.1@2,",
                0,
                &[],
                &[Site::Net(NetFaultKind::Drop, 0)],
                &[
                    Site::Net(NetFaultKind::Delay, 1),
                    Site::Net(NetFaultKind::Disconnect, 1),
                ],
            ),
        ];
        for &(text, seed, chances, at1, at2) in cases {
            let p = plan(text);
            assert_eq!(p.seed, seed, "{text}");
            let rolled: Vec<Site> = p.chances.iter().map(|&(s, _)| s).collect();
            assert_eq!(rolled, chances, "{text}");
            assert_eq!(p.armed_at(1).collect::<Vec<_>>(), at1, "{text}");
            assert_eq!(p.armed_at(2).collect::<Vec<_>>(), at2, "{text}");
        }
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        use FaultSpecError::{BadSeed, BadValue, Empty, UnknownSite, WrongTrigger};
        type Expected = fn(String) -> FaultSpecError;
        let cases: &[(&str, Expected)] = &[
            // No trigger, or the trigger the site does not take.
            ("store.io", WrongTrigger),
            ("trace.panic", WrongTrigger),
            ("crash.store-put", WrongTrigger),
            ("grid.die.0", WrongTrigger),
            ("net.drop.0", WrongTrigger),
            ("store.io@3", WrongTrigger),
            ("evaluate.panic~0.5", WrongTrigger),
            // Sites nothing hooks, typos, and missing or bad shards.
            ("analyze.panic@1", UnknownSite),
            ("plan.panic@1", UnknownSite),
            ("store.panic@1", UnknownSite),
            ("warp.panic@1", UnknownSite),
            ("flux.capacitor~0.5", UnknownSite),
            ("bitflip~0.5", UnknownSite),
            ("store-io~0.5", UnknownSite),
            ("store.io~0.1,velocity=88", UnknownSite),
            ("@3", UnknownSite),
            ("crash.x@1", UnknownSite),
            ("grid.die@1", UnknownSite),
            ("grid.die.x@2", UnknownSite),
            ("grid.explode.0@2", UnknownSite),
            ("grid.die.0@2,grid.hang", UnknownSite),
            ("net.drop@1", UnknownSite),
            ("net.drop.x@2", UnknownSite),
            ("net.sever.0@2", UnknownSite),
            // Probabilities outside [0, 1] or not numbers; hits not >= 1.
            ("store.io~2.0", BadValue),
            ("store.io~1.5", BadValue),
            ("store.io~-0.1", BadValue),
            ("store.io~inf", BadValue),
            ("store.io~NaN", BadValue),
            ("store.corrupt~lots", BadValue),
            ("trace.truncate~", BadValue),
            ("store.io~0.1~extra", BadValue),
            ("crash.store-put@", BadValue),
            ("crash.store-put@0", BadValue),
            ("crash.store-put@-1", BadValue),
            ("grid.die.0@x", BadValue),
            ("net.delay.1@1.5", BadValue),
            // Seeds.
            ("store.io~0.5,seed", BadSeed),
            ("store.io~0.5,seed=", BadSeed),
            ("store.io~0.5,seed=x", BadSeed),
        ];
        for &(text, expected) in cases {
            // The offending entry is the last one of each case.
            let entry = text.rsplit(',').next().unwrap_or_default().trim();
            assert_eq!(
                FaultPlan::parse(text).unwrap_err(),
                expected(entry.into()),
                "{text}"
            );
        }
        // A plan that arms nothing would make a chaos run look healthy.
        for empty in ["", "   ", ",", " , ,", "seed=5"] {
            assert_eq!(FaultPlan::parse(empty).unwrap_err(), Empty, "{empty:?}");
        }
        // Every error names its entry; unknown sites list the registry,
        // and a wrong trigger names the one its site takes.
        let err = FaultPlan::parse("analyze.panic@1").unwrap_err().to_string();
        assert!(err.contains("`analyze.panic@1`"), "{err}");
        assert!(
            err.contains("evaluate.panic@N") && err.contains("store.io~P"),
            "{err}"
        );
        let err = FaultPlan::parse("grid.die.1~0.5").unwrap_err().to_string();
        assert!(err.contains("`grid.die.1` takes `@N`"), "{err}");
        let err = FaultPlan::parse("store.io").unwrap_err().to_string();
        assert!(err.contains("`store.io` takes `~P`"), "{err}");
    }

    #[test]
    fn sharded_sites_fire_only_on_their_shard() {
        let p = plan("grid.die.0@2,net.drop.1@1,net.delay.1@2,crash.grid-frame@2");
        let die = Site::Grid(GridFaultKind::Die, 0);
        let drop = Site::Net(NetFaultKind::Drop, 1);
        let delay = Site::Net(NetFaultKind::Delay, 1);
        // (hit, shard, sites that fire) — unsharded sites never do.
        let cases: &[(u64, usize, &[Site])] = &[
            (2, 0, &[die]),
            (2, 1, &[delay]),
            (2, 3, &[]),
            (1, 1, &[drop]),
            (1, 0, &[]),
            (3, 0, &[]),
        ];
        for &(hit, shard, fires) in cases {
            let got: Vec<Site> = p.armed_for(hit, shard).collect();
            assert_eq!(got, fires, "hit {hit}, shard {shard}");
        }
    }

    #[test]
    fn sites_lists_every_entry() {
        let p = plan("store.io~0.1,trace.panic@1,trace.panic@2,net.drop.1@1");
        let sites: Vec<Site> = p.sites().collect();
        assert_eq!(
            sites,
            [
                Site::StoreIo,
                Site::Panic(Stage::Trace),
                Site::Net(NetFaultKind::Drop, 1)
            ]
        );
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::default();
        for i in 0..100 {
            let instance = format!("site{i}");
            for site in [Site::StoreIo, Site::StoreCorrupt, Site::TraceTruncate] {
                assert!(!plan.rolls(site, &instance));
            }
            assert_eq!(plan.armed_at(i).count(), 0);
        }
        plan.maybe_panic(Stage::Trace, "anywhere"); // must not panic
    }

    #[test]
    fn rolls_are_deterministic_and_instance_dependent() {
        let a = plan("store.io~0.5,seed=7");
        let b = plan("store.io~0.5,seed=7");
        let mut hits = 0;
        let mut diverged = false;
        for i in 0..200 {
            let instance = format!("load:{i}");
            assert_eq!(
                a.rolls(Site::StoreIo, &instance),
                b.rolls(Site::StoreIo, &instance)
            );
            assert!(
                !a.rolls(Site::StoreCorrupt, &instance),
                "unarmed site rolled"
            );
            hits += u32::from(a.rolls(Site::StoreIo, &instance));
            if a.rolls(Site::StoreIo, &instance) != a.rolls(Site::StoreIo, &format!("save:{i}")) {
                diverged = true;
            }
        }
        // p=0.5 over 200 instances: both outcomes must occur, and distinct
        // instances must not be lock-stepped.
        assert!(hits > 50 && hits < 150, "hits = {hits}");
        assert!(diverged, "distinct instances always rolled identically");
    }

    #[test]
    fn different_seeds_give_different_outcomes() {
        let a = plan("store.io~0.5,seed=1");
        let b = plan("store.io~0.5,seed=2");
        let differs = (0..100).any(|i| {
            let instance = format!("s{i}");
            a.rolls(Site::StoreIo, &instance) != b.rolls(Site::StoreIo, &instance)
        });
        assert!(differs);
    }

    #[test]
    fn stage_panic_fires_on_exactly_the_armed_hits() {
        let plan = plan("evaluate.panic@1,evaluate.panic@3");
        for (i, fires) in [true, false, true, false].into_iter().enumerate() {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.maybe_panic(Stage::Evaluate, "pt");
            }));
            assert_eq!(r.is_err(), fires, "hit {}", i + 1);
        }
        plan.maybe_panic(Stage::Trace, "pt"); // other stages unaffected
    }

    #[test]
    fn corrupt_text_changes_the_payload_deterministically() {
        let plan = plan("store.corrupt~1,seed=9");
        let original = "{\"schema\":1,\"payload\":42}";
        let c1 = plan.corrupt_text("site", original);
        let c2 = plan.corrupt_text("site", original);
        assert_eq!(c1, c2);
        assert_ne!(c1, original);
    }

    #[test]
    fn unarmed_crash_point_is_a_no_op() {
        // The test runner never arms a crash site (the CI fault matrix
        // arms only store, trace and stage sites), so hits must not exit.
        crash_point(SITE_STORE_PUT);
        crash_point(SITE_UNIT_COMPLETE);
    }
}
