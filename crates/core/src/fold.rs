//! The paper tables' per-site fold: one [`TableFold`] per (crawl, duration
//! model) pair streams every site through the classifier once and keeps
//! only what the tables read — the Table 1 counts, the Figure 2 histogram,
//! the §5.1 lifetimes and the attribution maps of Tables 2–6 and 8–12.

use crate::aggregate::{Accumulator, DatasetSummary};
use crate::attribution::AttributionFold;
use crate::classify::classify_site;
use crate::lifetime::LifetimeStatistics;
use crate::observation::{DurationModel, SiteObservation};
use crate::report::CdfSeries;
use netsim_asdb::AsRegistry;
use netsim_types::Duration;

/// Everything the paper's tables read of one crawl under one duration
/// model, folded one site at a time. Folds over consecutive site ranges
/// merge earlier range first ([`TableFold::merge`]), which reproduces the
/// one-pass fold exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableFold {
    model: DurationModel,
    accumulator: Accumulator,
    /// `redundant_histogram[k]`: sites with exactly `k` redundant
    /// connections (Figure 2).
    redundant_histogram: Vec<u64>,
    /// The lifetimes of the connections that closed (§5.1), in site order.
    closed_lifetimes: Vec<Duration>,
    attribution: AttributionFold,
}

impl TableFold {
    /// An empty fold classifying under `model`.
    pub fn new(model: DurationModel) -> Self {
        TableFold {
            model,
            accumulator: Accumulator::new(),
            redundant_histogram: Vec::new(),
            closed_lifetimes: Vec::new(),
            attribution: AttributionFold::default(),
        }
    }

    /// The one-pass fold of `sites`, in order, under `model`.
    pub fn of_sites(
        model: DurationModel,
        registry: &AsRegistry,
        sites: impl IntoIterator<Item = SiteObservation>,
    ) -> Self {
        let mut fold = TableFold::new(model);
        for site in sites {
            fold.observe(&site, registry);
        }
        fold
    }

    /// The duration model the fold classifies under.
    pub fn model(&self) -> DurationModel {
        self.model
    }

    /// Classify one site under the fold's model and fold it; `registry`
    /// resolves the site's addresses to ASes (Table 6).
    pub fn observe(&mut self, site: &SiteObservation, registry: &AsRegistry) {
        let classification = classify_site(site, self.model);
        self.accumulator.observe(&classification);
        let redundant = classification.redundant_connections();
        if self.redundant_histogram.len() <= redundant {
            self.redundant_histogram.resize(redundant + 1, 0);
        }
        self.redundant_histogram[redundant] += 1;
        self.closed_lifetimes.extend(site.connections.iter().filter_map(|connection| connection.lifetime()));
        self.attribution.observe(site, &classification, registry);
    }

    /// Fold a later site range's fold into this one.
    pub fn merge(&mut self, later: &TableFold) {
        assert_eq!(self.model, later.model, "folds under different duration models");
        self.accumulator.merge(&later.accumulator);
        let histogram = &mut self.redundant_histogram;
        histogram.resize(histogram.len().max(later.redundant_histogram.len()), 0);
        histogram.iter_mut().zip(&later.redundant_histogram).for_each(|(sites, later)| *sites += later);
        self.closed_lifetimes.extend_from_slice(&later.closed_lifetimes);
        self.attribution.merge(&later.attribution);
    }

    /// Number of sites folded so far (including non-HTTP/2 sites).
    pub fn observed_sites(&self) -> usize {
        self.accumulator.observed_sites()
    }

    /// The Table 1 column block under `label`.
    pub fn summary(&self, label: &str) -> DatasetSummary {
        self.accumulator.clone().finish(label)
    }

    /// The Figure 2 survival function over every folded site, up to `max_k`.
    pub fn redundancy_series(&self, label: &str, max_k: usize) -> CdfSeries {
        CdfSeries::from_histogram(label, &self.redundant_histogram, max_k)
    }

    /// The §5.1 connection-lifetime statistics.
    pub fn lifetimes(&self) -> LifetimeStatistics {
        let connections = self.accumulator.state().total_connections as usize;
        LifetimeStatistics::of(connections, &self.closed_lifetimes)
    }

    /// The attribution tables' fold.
    pub fn attribution(&self) -> &AttributionFold {
        &self.attribution
    }
}
