//! The probe loop and its overlap matrix (Figure 3).

use crate::pairs::{default_pairs, DomainPair};
use crate::resolvers::{panel_resolver_id, resolver_panel, ResolverDescription};
use netsim_dns::{Authority, RecursiveResolver};
use netsim_types::{Duration, Instant};
use serde::{Deserialize, Serialize};

/// Probe parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// How often every resolver is queried (the paper: every 6 minutes).
    pub interval: Duration,
    /// Total probe duration (the paper: ~8 days).
    pub duration: Duration,
    /// The pairs to probe.
    pub pairs: Vec<DomainPair>,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            interval: Duration::from_mins(6),
            duration: Duration::from_days(8),
            pairs: default_pairs(),
        }
    }
}

impl ProbeConfig {
    /// A shorter probe (handy for tests and quick runs).
    pub fn quick() -> Self {
        ProbeConfig {
            interval: Duration::from_mins(6),
            duration: Duration::from_hours(12),
            pairs: default_pairs(),
        }
    }

    /// Number of time slots the configuration produces.
    pub fn slot_count(&self) -> usize {
        (self.duration.as_millis() / self.interval.as_millis().max(1)) as usize
    }
}

/// The Figure 3 data: for every pair and time slot, the number of resolvers
/// whose answers for the two domains overlapped.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OverlapMatrix {
    /// The probed pairs, row order of the matrix.
    pub pairs: Vec<DomainPair>,
    /// Slot start times.
    pub timestamps: Vec<Instant>,
    /// Number of resolvers on the panel.
    pub resolver_count: usize,
    /// `counts[pair][slot]` = resolvers with overlapping answers.
    pub counts: Vec<Vec<u32>>,
}

impl OverlapMatrix {
    /// The overlap counts for one pair.
    pub fn row(&self, pair_index: usize) -> &[u32] {
        &self.counts[pair_index]
    }

    /// Fraction of slots in which at least one resolver observed overlapping
    /// answers for the pair.
    pub fn any_overlap_share(&self, pair_index: usize) -> f64 {
        let row = self.row(pair_index);
        if row.is_empty() {
            return 0.0;
        }
        row.iter().filter(|&&count| count > 0).count() as f64 / row.len() as f64
    }

    /// Mean overlap count (over slots) for the pair.
    pub fn mean_overlap(&self, pair_index: usize) -> f64 {
        let row = self.row(pair_index);
        if row.is_empty() {
            return 0.0;
        }
        row.iter().map(|&c| c as f64).sum::<f64>() / row.len() as f64
    }
}

/// The probe itself.
#[derive(Clone, Debug)]
pub struct ProbeExperiment {
    config: ProbeConfig,
    panel: Vec<ResolverDescription>,
}

impl ProbeExperiment {
    /// A probe with the default 14-resolver panel.
    pub fn new(config: ProbeConfig) -> Self {
        ProbeExperiment { config, panel: resolver_panel() }
    }

    /// The configuration.
    pub fn config(&self) -> &ProbeConfig {
        &self.config
    }

    /// The resolver panel (Table 11).
    pub fn panel(&self) -> &[ResolverDescription] {
        &self.panel
    }

    /// Run the probe against an authority (typically
    /// `WebEnvironment::authority` from a generated population).
    pub fn run(&self, authority: &Authority) -> OverlapMatrix {
        let mut resolvers: Vec<RecursiveResolver> =
            (0..self.panel.len()).map(|index| RecursiveResolver::new(panel_resolver_id(index))).collect();

        let slots = self.config.slot_count();
        let mut timestamps = Vec::with_capacity(slots);
        let mut counts = vec![Vec::with_capacity(slots); self.config.pairs.len()];
        for slot in 0..slots {
            let now = Instant::EPOCH + Duration::from_millis(self.config.interval.as_millis() * slot as u64);
            timestamps.push(now);
            for (pair_index, pair) in self.config.pairs.iter().enumerate() {
                let mut overlapping = 0u32;
                for resolver in resolvers.iter_mut() {
                    // `resolve` hands out a borrow of the resolver's cache;
                    // clone the first answer so the second lookup can run.
                    let origin = resolver.resolve(authority, &pair.origin, now).cloned();
                    let previous = resolver.resolve(authority, &pair.previous, now);
                    if let (Ok(origin), Ok(previous)) = (origin, previous) {
                        if origin.overlaps(previous) {
                            overlapping += 1;
                        }
                    }
                }
                counts[pair_index].push(overlapping);
            }
        }
        OverlapMatrix {
            pairs: self.config.pairs.clone(),
            timestamps,
            resolver_count: self.panel.len(),
            counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_web::{PopulationBuilder, PopulationProfile};

    fn authority() -> Authority {
        // The population installs the third-party services, which is all the
        // probe needs; site count barely matters.
        PopulationBuilder::new(PopulationProfile::alexa(), 2, 123).build().authority
    }

    #[test]
    fn probe_produces_a_full_matrix() {
        let config = ProbeConfig {
            interval: Duration::from_mins(6),
            duration: Duration::from_hours(3),
            pairs: default_pairs(),
        };
        let slots = config.slot_count();
        assert_eq!(slots, 30);
        let matrix = ProbeExperiment::new(config).run(&authority());
        assert_eq!(matrix.pairs.len(), 20);
        assert_eq!(matrix.timestamps.len(), slots);
        assert_eq!(matrix.resolver_count, 14);
        for row in &matrix.counts {
            assert_eq!(row.len(), slots);
            assert!(row.iter().all(|&c| c <= 14));
        }
    }

    #[test]
    fn unsynchronized_pairs_overlap_only_sometimes() {
        let config = ProbeConfig {
            interval: Duration::from_mins(30),
            duration: Duration::from_days(2),
            pairs: vec![
                DomainPair::new("www.google-analytics.com", "www.googletagmanager.com"),
                DomainPair::new("www.facebook.com", "connect.facebook.net"),
            ],
        };
        let matrix = ProbeExperiment::new(config).run(&authority());
        for pair_index in 0..matrix.pairs.len() {
            let share = matrix.any_overlap_share(pair_index);
            let mean = matrix.mean_overlap(pair_index);
            // The pools have 8 members and answers are per-resolver hashed,
            // so overlap must be neither absent nor universal.
            assert!(share > 0.0, "pair {pair_index} never overlapped");
            assert!(mean < 14.0 * 0.9, "pair {pair_index} overlapped almost always (mean {mean})");
        }
    }

    #[test]
    fn same_domain_pair_always_overlaps() {
        let config = ProbeConfig {
            interval: Duration::from_mins(6),
            duration: Duration::from_hours(1),
            pairs: vec![DomainPair::new("www.google-analytics.com", "www.google-analytics.com")],
        };
        let matrix = ProbeExperiment::new(config).run(&authority());
        assert!(matrix.row(0).iter().all(|&count| count == 14));
        assert!((matrix.any_overlap_share(0) - 1.0).abs() < 1e-9);
        assert!((matrix.mean_overlap(0) - 14.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_domains_never_overlap() {
        let config = ProbeConfig {
            interval: Duration::from_mins(6),
            duration: Duration::from_hours(1),
            pairs: vec![DomainPair::new("does-not-exist.example", "www.google-analytics.com")],
        };
        let matrix = ProbeExperiment::new(config).run(&authority());
        assert!(matrix.row(0).iter().all(|&count| count == 0));
    }
}
