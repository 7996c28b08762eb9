//! The mitigation sweep engine: the full 2^4 what-if matrix over the
//! deployable fixes the paper's conclusion proposes.
//!
//! The single `whatif` experiment spot-checks three deployments; the sweep
//! runs the *entire grid*: every combination of [`Mitigation::OriginFrames`],
//! [`Mitigation::SynchronizedDns`], [`Mitigation::CertificateCoalescing`]
//! and [`Mitigation::CredentialPooling`] — 16 cells. Each cell generates an
//! Alexa-shaped population deployed under its mitigation set (same sites,
//! same request plans; only DNS/PKI deployment differs), crawls it with the
//! matching browser policy and classifies the redundancy through the crate's
//! grid kernel (the streaming classifier, checked against `classify_site`
//! by `tests/fastpath_equivalence.rs`), and the report
//! compares:
//!
//! * per-cell measurements (connections opened, classified redundancy,
//!   per-cause counts),
//! * each mitigation's **solo** savings (that mitigation alone vs. the
//!   measured web),
//! * each mitigation's **marginal** savings (averaged over all 8 cells it
//!   can be added to — the grid makes interaction effects visible),
//! * the **combined** savings of the full set.
//!
//! The headline metric is **connections saved**: how many connections the
//! browser did not have to open under the deployment. Classified redundancy
//! is reported per cell but is *not* monotone under mitigation — e.g.
//! synchronizing DNS moves third parties that were unavoidable (different
//! address, disjunct certificates) onto shared addresses, where the
//! classifier now counts them as `CERT` coalescing potential. Fewer real
//! connections, more visible potential; the report footer calls this out.
//!
//! ## Sharding and determinism
//!
//! Cells are independent, so the 16 of them are the tasks of one
//! [`connreuse_executor::run_indexed`] run (task index = mitigation bits):
//! workers steal cells from each other, and the results come back in task
//! order. Every stochastic choice inside a cell flows from RNG streams
//! forked off the root seed by *stable labels* (site index, visit index),
//! never from worker identity or steal schedule — so every thread count
//! produces byte-identical reports (asserted in `tests/determinism.rs`). All cells
//! deliberately share the same population and crawl seeds: a cell differs
//! from the baseline only by its deployment, which is what makes the
//! per-mitigation deltas meaningful.

use crate::grid::{run_deployments, GridWork, GridWorker, Population};
use crate::render::{format_count, format_percent, TextTable};
use crate::scenario::{ScenarioConfig, ALEXA_CRAWL_SEED_OFFSET};
use connreuse_core::{Cause, DatasetSummary};
use netsim_browser::{BrowserConfig, Crawler};
use netsim_types::{Mitigation, MitigationSet};
use netsim_web::WebEnvironment;

/// Sizing and seeding of one sweep run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepConfig {
    /// Sites per cell population (Alexa-shaped).
    pub sites: usize,
    /// Root seed; cells share it so that only the deployment differs.
    pub seed: u64,
    /// Worker threads the 16 cells are sharded across.
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        let scenario = ScenarioConfig::default();
        SweepConfig { sites: scenario.alexa_sites, seed: scenario.seed, threads: scenario.threads }
    }
}

impl SweepConfig {
    /// A small configuration for tests, examples and the CI smoke run.
    pub fn quick() -> Self {
        SweepConfig { sites: 120, ..SweepConfig::default() }
    }

    /// The sweep that matches a scenario: same Alexa population size, same
    /// seed, same thread budget — so the sweep's baseline cell reproduces
    /// the scenario's own Alexa measurement.
    pub fn from_scenario(config: &ScenarioConfig) -> Self {
        SweepConfig { sites: config.alexa_sites, seed: config.seed, threads: config.threads }
    }
}

/// One cell of the sweep grid: a mitigation combination and the classified
/// summary of the crawl measured under it.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCell {
    /// The deployed mitigation combination.
    pub mitigations: MitigationSet,
    /// Classified redundancy of the cell's crawl (recorded durations).
    pub summary: DatasetSummary,
}

/// The completed sweep: all 16 cells, ordered by mitigation bits (cell 0 is
/// the measured web, cell 15 the full deployment).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepReport {
    /// The configuration the sweep ran with.
    pub config: SweepConfig,
    /// One cell per mitigation combination, indexed by [`MitigationSet::bits`].
    pub cells: Vec<SweepCell>,
}

/// Run the full mitigation sweep: all 16 cells, scheduled across
/// `config.threads` workers.
pub fn run_sweep(config: &SweepConfig) -> SweepReport {
    sweep_grid(config).0
}

/// [`run_sweep`], with the generation work its workers did.
fn sweep_grid(config: &SweepConfig) -> (SweepReport, GridWork) {
    let combos = MitigationSet::all_combinations();
    let cells = run_deployments(config.threads, &combos, |worker, task| {
        let mitigations = combos[task];
        let population = Population::alexa(config.sites, config.seed, mitigations);
        worker.with_population(population, |worker, env| run_cell(worker, env, config, mitigations))
    });
    (SweepReport { config: *config, cells: cells.results }, cells.work)
}

/// Measure one cell: `env`, the population deployed under the mitigations,
/// crawled with the matching browser policy through the grid kernel,
/// classified with recorded durations.
///
/// The seeds reuse the [`crate::scenario`] Alexa offsets, so the baseline
/// cell equals the scenario's own Alexa run (asserted in the
/// tests below).
fn run_cell(
    worker: &mut GridWorker<'_>,
    env: &WebEnvironment,
    config: &SweepConfig,
    mitigations: MitigationSet,
) -> SweepCell {
    let label = mitigations.label();
    let crawler = Crawler::new(
        &label,
        BrowserConfig::with_mitigations(mitigations),
        config.seed + ALEXA_CRAWL_SEED_OFFSET,
    );
    SweepCell { mitigations, summary: worker.measure(env, &crawler).accumulator.finish(&label) }
}

impl SweepReport {
    /// The cell measuring one mitigation combination.
    pub fn cell(&self, mitigations: MitigationSet) -> &SweepCell {
        &self.cells[mitigations.bits() as usize]
    }

    /// The measured-web cell (no mitigation deployed).
    pub fn baseline(&self) -> &SweepCell {
        self.cell(MitigationSet::empty())
    }

    /// Connections the deployment avoided opening, vs. the measured web.
    /// Every avoided connection was a redundant one (the request rode an
    /// existing session instead).
    pub fn connections_saved(&self, mitigations: MitigationSet) -> usize {
        let baseline = self.baseline().summary.total.connections;
        baseline.saturating_sub(self.cell(mitigations).summary.total.connections)
    }

    /// Connection savings of a combination vs. the baseline, as a share of
    /// all baseline connections (the metric the `whatif` experiment quotes).
    pub fn savings(&self, mitigations: MitigationSet) -> f64 {
        let baseline = self.baseline().summary.total.connections;
        if baseline == 0 {
            return 0.0;
        }
        self.connections_saved(mitigations) as f64 / baseline as f64
    }

    /// Savings when only `mitigation` is deployed.
    pub fn solo_savings(&self, mitigation: Mitigation) -> f64 {
        self.savings(MitigationSet::single(mitigation))
    }

    /// Marginal savings of `mitigation`: the mean drop in opened connections
    /// (relative to baseline connections) over all 8 combinations it can be
    /// added to. Solo and marginal together separate a mitigation's own
    /// effect from overlap with the others.
    pub fn marginal_savings(&self, mitigation: Mitigation) -> f64 {
        let baseline = self.baseline().summary.total.connections;
        if baseline == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for combo in MitigationSet::all_combinations() {
            if combo.contains(mitigation) {
                continue;
            }
            let without = self.cell(combo).summary.total.connections as f64;
            let with = self.cell(combo.with(mitigation)).summary.total.connections as f64;
            total += (without - with) / baseline as f64;
            count += 1;
        }
        total / count as f64
    }

    /// Savings of the full deployment (all four mitigations).
    pub fn combined_savings(&self) -> f64 {
        self.savings(MitigationSet::all())
    }

    /// Classified-redundancy change of a combination vs. the baseline
    /// (positive = fewer connections classified redundant). Unlike
    /// [`SweepReport::savings`] this can go *negative*: a mitigation can
    /// expose coalescing potential the baseline deployment hid (see the
    /// module docs).
    pub fn redundant_reduction(&self, mitigations: MitigationSet) -> f64 {
        let baseline = self.baseline().summary.redundant.connections;
        if baseline == 0 {
            return 0.0;
        }
        1.0 - self.cell(mitigations).summary.redundant.connections as f64 / baseline as f64
    }

    /// Render the comparison report: the 16-cell grid, the per-mitigation
    /// effect table and the combined-deployment summary line.
    pub fn render(&self) -> String {
        let baseline = &self.baseline().summary;
        let mut grid = TextTable::new(
            &format!(
                "Mitigation sweep: connections per deployment ({} sites, seed {}, recorded durations)",
                self.config.sites, self.config.seed
            ),
            &["deployment", "conns.", "saved", "redundant", "red. sites", "IP", "CRED", "CERT"],
        );
        for cell in &self.cells {
            grid.push_row([
                cell.mitigations.label(),
                format_count(cell.summary.total.connections),
                format_percent(self.savings(cell.mitigations)),
                format_count(cell.summary.redundant.connections),
                format_percent(cell.summary.redundant_site_share()),
                format_count(cell.summary.cause(Cause::Ip).connections),
                format_count(cell.summary.cause(Cause::Cred).connections),
                format_count(cell.summary.cause(Cause::Cert).connections),
            ]);
        }

        let mut effects = TextTable::new(
            "Per-mitigation effect (connections saved vs. the measured web)",
            &["mitigation", "solo", "marginal (mean over 8 pairs)", "what it deploys"],
        );
        for mitigation in Mitigation::ALL {
            effects.push_row([
                mitigation.label().to_string(),
                format_percent(self.solo_savings(mitigation)),
                format_percent(self.marginal_savings(mitigation)),
                mitigation.description().to_string(),
            ]);
        }

        format!(
            "{}\n{}\nbaseline: {} redundant of {} connections on {} sites | combined deployment \
             saves {} connections ({}), removing {} of the classified redundancy\nnote: \
             'redundant' counts the classifier's coalescing potential under each deployment; a \
             mitigation can expose potential the measured web hid (e.g. synchronized DNS turns \
             unavoidable third parties into CERT-coalescible pairs), so that column is not \
             monotone — 'saved' is.\n",
            grid.render(),
            effects.render(),
            format_count(baseline.redundant.connections),
            format_count(baseline.total.connections),
            format_count(baseline.total.sites),
            format_count(self.connections_saved(MitigationSet::all())),
            format_percent(self.combined_savings()),
            format_percent(self.redundant_reduction(MitigationSet::all())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn shared_report() -> &'static SweepReport {
        static RUN: OnceLock<SweepReport> = OnceLock::new();
        RUN.get_or_init(|| run_sweep(&SweepConfig { sites: 80, seed: 20_210_420, threads: 8 }))
    }

    #[test]
    fn sweep_builds_one_population_per_environment() {
        // One worker builds each of the 4 environments once for the 16
        // cells; any schedule issues 4 deployments and measures the same
        // cells.
        let config = SweepConfig { sites: 20, seed: 20_210_420, threads: 1 };
        let (serial, work) = sweep_grid(&config);
        assert_eq!(work, GridWork { builds: 4, issued: 4 });
        let (sharded, work) = sweep_grid(&SweepConfig { threads: 3, ..config });
        assert_eq!(work.issued, 4);
        assert!((4..=MitigationSet::COMBINATIONS).contains(&work.builds), "{work:?}");
        assert_eq!(serial.cells, sharded.cells);
    }

    #[test]
    fn sweep_covers_the_whole_grid_in_order() {
        let report = shared_report();
        assert_eq!(report.cells.len(), MitigationSet::COMBINATIONS);
        for (index, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.mitigations.bits() as usize, index);
            assert!(cell.summary.total.connections > 0, "cell {index} measured nothing");
        }
        assert!(report.baseline().summary.redundant.connections > 0);
    }

    #[test]
    fn mitigations_reduce_redundancy_as_the_paper_projects() {
        let report = shared_report();
        // §7: ORIGIN-frame adoption and synchronized DNS each avoid
        // redundant connections.
        let origin = report.solo_savings(Mitigation::OriginFrames);
        let dns = report.solo_savings(Mitigation::SynchronizedDns);
        assert!(origin > 0.0, "ORIGIN frames should save connections, got {origin}");
        assert!(dns > 0.0, "synchronized DNS should save connections, got {dns}");
        // Deploying both does at least as well as either alone.
        let both =
            report.savings(MitigationSet::single(Mitigation::OriginFrames).with(Mitigation::SynchronizedDns));
        assert!(both >= origin && both >= dns, "both={both} origin={origin} dns={dns}");
        // The full deployment dominates every single mitigation.
        let combined = report.combined_savings();
        for m in Mitigation::ALL {
            assert!(combined >= report.solo_savings(m), "combined beats {m}");
        }
        assert!(combined > 0.0);
    }

    #[test]
    fn connection_savings_are_monotone_across_the_whole_grid() {
        // Every mitigation is a pure relaxation (client side) or alignment
        // (deployment side): adding one to any combination never makes the
        // browser open *more* connections.
        let report = shared_report();
        for combo in MitigationSet::all_combinations() {
            for m in Mitigation::ALL {
                if combo.contains(m) {
                    continue;
                }
                let without = report.cell(combo).summary.total.connections;
                let with = report.cell(combo.with(m)).summary.total.connections;
                assert!(
                    with <= without,
                    "adding {m} to {combo} opened more connections ({with} > {without})"
                );
            }
        }
    }

    #[test]
    fn baseline_cell_reproduces_the_scenario_alexa_measurement() {
        use crate::scenario::{Crawl, Scenario, ScenarioConfig};
        use connreuse_core::DurationModel;

        let config = ScenarioConfig {
            archive_sites: 30,
            alexa_sites: 40,
            overlap_sites: 16,
            seed: 20_210_420,
            threads: 4,
        };
        let scenario = Scenario::new(config);
        let report = run_sweep(&SweepConfig::from_scenario(&config));
        // Labelled like the baseline cell so the summaries compare whole.
        let alexa = scenario.fold(Crawl::Alexa, DurationModel::Recorded).summary("none");
        assert_eq!(report.baseline().summary, alexa);
    }

    #[test]
    fn classified_redundancy_reduction_is_tracked() {
        let report = shared_report();
        assert!(report.redundant_reduction(MitigationSet::empty()).abs() < f64::EPSILON);
        assert!(report.redundant_reduction(MitigationSet::single(Mitigation::OriginFrames)) > 0.0);
        // The full deployment removes at least as much classified redundancy
        // as ORIGIN frames alone (it subsumes them).
        assert!(
            report.redundant_reduction(MitigationSet::all())
                >= report.redundant_reduction(MitigationSet::single(Mitigation::OriginFrames))
        );
    }

    #[test]
    fn credential_pooling_removes_the_cred_cause() {
        let report = shared_report();
        let pooled = report.cell(MitigationSet::single(Mitigation::CredentialPooling));
        assert_eq!(pooled.summary.cause(Cause::Cred).connections, 0);
        assert!(report.baseline().summary.cause(Cause::Cred).connections > 0);
    }

    #[test]
    fn certificate_coalescing_removes_the_cert_cause() {
        let report = shared_report();
        let single = MitigationSet::single(Mitigation::CertificateCoalescing);
        assert!(report.baseline().summary.cause(Cause::Cert).connections > 0);
        assert_eq!(report.cell(single).summary.cause(Cause::Cert).connections, 0);
        // Fewer connections are actually opened, not just re-attributed.
        assert!(report.connections_saved(single) > 0);
    }

    #[test]
    fn report_renders_every_cell_and_effect() {
        let report = shared_report();
        let text = report.render();
        for cell in &report.cells {
            assert!(text.contains(&cell.mitigations.label()), "missing {}", cell.mitigations);
        }
        for m in Mitigation::ALL {
            assert!(text.contains(m.description()));
        }
    }
}
