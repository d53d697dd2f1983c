//! Seeded sweep inputs. The program under test only ever sees the built
//! [`Workload`] values, cores and subsets; the seed stays here.

use prism_exocore::{all_bsa_subsets, all_cores};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::CoreConfig;
use prism_workloads::Workload;

/// Problem sizes are drawn from `[default_n * (1 - BAND), default_n * (1 + BAND)]`.
/// Draws are independent per kernel, so the total work of a 49-kernel
/// sweep moves far less than any one kernel does between seeds.
pub const SIZE_BAND: f64 = 0.10;

/// SplitMix64: small, seedable, identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// One sweep: workloads × cores × BSA subsets under one tracer config.
#[derive(Debug, Clone)]
pub struct SweepInputs {
    /// Workloads, in sweep order, each at its drawn size (`default_n`).
    pub workloads: Vec<Workload>,
    /// Cores of the design grid.
    pub cores: Vec<CoreConfig>,
    /// BSA subsets of the design grid.
    pub subsets: Vec<Vec<BsaKind>>,
    /// Tracer configuration shared by every workload.
    pub tracer: TracerConfig,
}

impl SweepInputs {
    /// The workloads as the slice of references the session API takes.
    #[must_use]
    pub fn refs(&self) -> Vec<&Workload> {
        self.workloads.iter().collect()
    }

    /// Design points in the sweep.
    #[must_use]
    pub fn units(&self) -> usize {
        self.cores.len() * self.subsets.len()
    }

    /// `(name, n)` per workload, for the run record.
    #[must_use]
    pub fn sizes(&self) -> Vec<(&'static str, u32)> {
        self.workloads
            .iter()
            .map(|w| (w.name, w.scaled_n()))
            .collect()
    }
}

/// The explore workloads: every registered kernel, in registry order,
/// each at a seeded size within [`SIZE_BAND`] of its default, over the
/// paper's 64 design points.
#[must_use]
pub fn explore(seed: u64) -> SweepInputs {
    let mut rng = Rng::new(seed);
    let workloads = prism_workloads::ALL
        .iter()
        .map(|w| {
            let d = f64::from(w.default_n);
            let lo = ((d * (1.0 - SIZE_BAND)).ceil() as u64).max(1);
            let hi = ((d * (1.0 + SIZE_BAND)).floor() as u64).max(lo);
            Workload {
                default_n: rng.range(lo, hi) as u32,
                ..*w
            }
        })
        .collect();
    SweepInputs {
        workloads,
        cores: all_cores(),
        subsets: all_bsa_subsets(),
        tracer: TracerConfig::default(),
    }
}

/// The grid workload: grid workers resolve kernels by registry name at
/// their default size, so the seed draws the order of the sweep's
/// kernels instead of their sizes. Every kernel is kept so that seeds
/// change the work's order, not its amount.
#[must_use]
pub fn grid(seed: u64) -> SweepInputs {
    let mut workloads: Vec<Workload> = prism_workloads::ALL.to_vec();
    Rng::new(seed).shuffle(&mut workloads);
    SweepInputs {
        workloads,
        cores: all_cores(),
        subsets: all_bsa_subsets(),
        tracer: TracerConfig::default(),
    }
}

/// `count` distinct design-point indices (core-major) for the direct
/// oracle check, all on one seeded core so the check measures one set
/// of oracle tables.
#[must_use]
pub fn check_sample(seed: u64, inputs: &SweepInputs, count: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
    let core = rng.range(0, inputs.cores.len() as u64 - 1) as usize;
    let mut subsets: Vec<usize> = (0..inputs.subsets.len()).collect();
    rng.shuffle(&mut subsets);
    subsets
        .into_iter()
        .take(count)
        .map(|s| core * inputs.subsets.len() + s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = explore(7).sizes();
        assert_eq!(a, explore(7).sizes());
        assert_ne!(a, explore(8).sizes());
        let names = |i: &SweepInputs| i.workloads.iter().map(|w| w.name).collect::<Vec<_>>();
        assert_eq!(names(&grid(7)), names(&grid(7)));
        assert_ne!(names(&grid(7)), names(&grid(8)));
    }

    #[test]
    fn sizes_stay_in_band() {
        for seed in 0..20 {
            for (w, d) in explore(seed).workloads.iter().zip(prism_workloads::ALL) {
                let (n, d) = (f64::from(w.default_n), f64::from(d.default_n));
                assert!(
                    n >= (d * (1.0 - SIZE_BAND)).floor() && n <= (d * (1.0 + SIZE_BAND)).ceil()
                );
            }
        }
    }
}
