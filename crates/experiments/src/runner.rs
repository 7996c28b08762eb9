//! The experiment implementations: one function per table / figure.

use crate::paper;
use crate::render::{format_count, format_percent, TextTable};
use crate::scenario::{Crawl, Scenario};
use connreuse_core::attribution::{AttributionFold, IssuerAttribution};
use connreuse_core::{Cause, DatasetSummary, DurationModel};
use connreuse_probe::{ProbeConfig, ProbeExperiment};
use netsim_types::Duration;

/// All experiment names understood by [`run_experiment`], in paper order.
/// `whatif` is not a published table; it quantifies the mitigations the
/// paper's conclusion proposes (ORIGIN-frame adoption, synchronized DNS,
/// dropping the Fetch credentials flag). `sweep` generalizes it to the full
/// 2^4 mitigation matrix (see [`crate::sweep`]).
pub const EXPERIMENTS: &[&str] = &[
    "headline", "figure2", "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
    "table9", "table10", "table11", "table12", "figure3", "filters", "whatif", "sweep", "cost", "atlas",
    "fleet", "chaos", "store",
];

/// The rendered result of one experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentOutput {
    /// Experiment name (one of [`EXPERIMENTS`]).
    pub name: String,
    /// Human-readable report.
    pub text: String,
}

/// Run one experiment by name. Unknown names return an error string.
pub fn run_experiment(name: &str, scenario: &Scenario) -> Result<ExperimentOutput, String> {
    let text = match name {
        "headline" => headline(scenario),
        "figure2" => figure2(scenario),
        "table1" => table1(scenario),
        "table2" => origin_table(scenario, TABLES, "Table 2: top origins for cause IP", 4),
        "table3" => issuer_table(scenario, TABLES, "Table 3: top certificate issuers for cause CERT", 7),
        "table4" => cert_domain_table(scenario, TABLES, "Table 4: top domains for cause CERT"),
        "table5" => table5(scenario),
        "table6" => table6(scenario),
        "table7" => table7(scenario),
        "table8" => origin_table(scenario, OVERLAP_TABLES, "Table 8: top origins for cause IP (overlap)", 5),
        "table9" => issuer_table(scenario, OVERLAP_TABLES, "Table 9: top CERT issuers (overlap)", 5),
        "table10" => cert_domain_table(scenario, OVERLAP_TABLES, "Table 10: top CERT domains (overlap)"),
        "table11" => table11(),
        "table12" => origin_table(scenario, TABLES, "Table 12: top 20 domains for the IP case", 20),
        "figure3" => figure3(),
        "filters" => filters(scenario),
        "whatif" => whatif(scenario),
        "sweep" => sweep(scenario),
        "cost" => cost(scenario),
        "atlas" => atlas(scenario),
        "fleet" => fleet(scenario),
        "chaos" => chaos(scenario),
        "store" => store(scenario),
        other => return Err(format!("unknown experiment '{other}'; known: {}", EXPERIMENTS.join(", "))),
    };
    Ok(ExperimentOutput { name: name.to_string(), text })
}

fn summary(scenario: &Scenario, crawl: Crawl, model: DurationModel, label: &str) -> DatasetSummary {
    scenario.fold(crawl, model).summary(label)
}

/// The (crawl, model) pairs of the attribution tables: the HAR corpus under
/// the endless model and the Alexa crawl as recorded.
const TABLES: [(Crawl, DurationModel); 2] =
    [(Crawl::Har, DurationModel::Endless), (Crawl::Alexa, DurationModel::Recorded)];

/// The same pairs on the overlap population (Tables 8–10).
const OVERLAP_TABLES: [(Crawl, DurationModel); 2] =
    [(Crawl::OverlapHar, DurationModel::Endless), (Crawl::OverlapAlexa, DurationModel::Recorded)];

/// §5.1 headline numbers, paper vs. measured.
fn headline(scenario: &Scenario) -> String {
    let har_endless = summary(scenario, Crawl::Har, DurationModel::Endless, "HAR Endless");
    let har_immediate = summary(scenario, Crawl::Har, DurationModel::Immediate, "HAR Immediate");
    let alexa = summary(scenario, Crawl::Alexa, DurationModel::Recorded, "Alexa");
    let alexa_endless = summary(scenario, Crawl::Alexa, DurationModel::Endless, "Alexa Endless");
    let patched = summary(scenario, Crawl::AlexaWithoutFetch, DurationModel::Recorded, "Alexa w/o Fetch");
    let lifetimes = scenario.fold(Crawl::Alexa, DurationModel::Recorded).lifetimes();

    let median_lifetime = lifetimes.median_lifetime.map(|d| format!("{:.1} s", d.as_secs_f64()));
    let reduction = if alexa.redundant.connections == 0 {
        0.0
    } else {
        1.0 - patched.redundant.connections as f64 / alexa.redundant.connections as f64
    };
    let rows = [
        (
            "HAR endless: sites with redundant connections",
            format_percent(paper::headline::HAR_ENDLESS_REDUNDANT_SITES),
            format_percent(har_endless.redundant_site_share()),
        ),
        (
            "HAR immediate: sites with redundant connections",
            format_percent(paper::headline::HAR_IMMEDIATE_REDUNDANT_SITES),
            format_percent(har_immediate.redundant_site_share()),
        ),
        (
            "Alexa: sites with redundant connections",
            format_percent(paper::headline::ALEXA_REDUNDANT_SITES),
            format_percent(alexa.redundant_site_share()),
        ),
        (
            "Alexa endless vs recorded: redundant sites delta",
            "~0 %".to_string(),
            format_percent(alexa_endless.redundant_site_share() - alexa.redundant_site_share()),
        ),
        (
            "connections closing before test end",
            format_percent(paper::headline::CLOSED_CONNECTION_SHARE),
            format_percent(lifetimes.closed_share()),
        ),
        (
            "median lifetime of early-closing connections",
            format!("{:.1} s", paper::headline::MEDIAN_LIFETIME_SECS),
            median_lifetime.unwrap_or_else(|| "n/a".to_string()),
        ),
        (
            "redundancy reduction when ignoring the Fetch flag",
            format_percent(paper::headline::WITHOUT_FETCH_REDUCTION),
            format_percent(reduction),
        ),
    ];
    let mut table = TextTable::new("Headline (§5.1): paper vs. measured", &["metric", "paper", "measured"]);
    for (metric, paper, measured) in rows {
        table.push_row([metric.to_string(), paper, measured]);
    }
    table.render()
}

/// Figure 2: survival function of redundant connections per site.
fn figure2(scenario: &Scenario) -> String {
    let max_k = 15;
    let series = [
        (Crawl::Har, DurationModel::Endless, "HTTP Archive Endless"),
        (Crawl::Alexa, DurationModel::Recorded, "Alexa Top"),
        (Crawl::AlexaWithoutFetch, DurationModel::Recorded, "Alexa w/o Fetch"),
    ]
    .map(|(crawl, model, label)| scenario.fold(crawl, model).redundancy_series(label, max_k));
    let mut table = TextTable::new(
        "Figure 2: fraction of sites with >= k redundant connections (1 - CDF)",
        &["k", &series[0].label, &series[1].label, &series[2].label],
    );
    for k in 0..=max_k {
        table.push_row([
            k.to_string(),
            format!("{:.3}", series[0].at_least(k)),
            format!("{:.3}", series[1].at_least(k)),
            format!("{:.3}", series[2].at_least(k)),
        ]);
    }
    let mut text = table.render();
    text.push_str(&format!(
        "\nmedian redundant connections per site: HAR={} Alexa={} (paper: ~2 / ~6)\n",
        series[0].median(),
        series[1].median()
    ));
    text
}

/// Table 1: cause counts per dataset and duration model.
fn table1(scenario: &Scenario) -> String {
    let columns = [
        ("HAR Endless", Crawl::Har, DurationModel::Endless),
        ("HAR Immediate", Crawl::Har, DurationModel::Immediate),
        ("Alexa Endless", Crawl::Alexa, DurationModel::Endless),
        ("Alexa", Crawl::Alexa, DurationModel::Recorded),
        ("Alexa w/o Fetch", Crawl::AlexaWithoutFetch, DurationModel::Recorded),
    ]
    .map(|(label, crawl, model)| (label, summary(scenario, crawl, model, label)));
    let table = cause_table("Table 1: causes of redundant connections", &columns);

    // Percentage comparison against the paper.
    let mut comparison = TextTable::new(
        "Table 1 (shape check): share of sites / connections per cause, paper vs. measured",
        &["dataset", "cause", "paper sites", "measured sites", "paper conns.", "measured conns."],
    );
    let references = paper::table1_references();
    let mapping: Vec<(&str, &DatasetSummary)> = vec![
        ("HAR Endless", &columns[0].1),
        ("HAR Immediate", &columns[1].1),
        ("Alexa", &columns[3].1),
        ("Alexa w/o Fetch", &columns[4].1),
    ];
    for (label, measured) in mapping {
        let Some(reference) = references.iter().find(|r| r.dataset == label) else { continue };
        for cause in Cause::ALL {
            let (paper_sites, paper_conns) = match cause {
                Cause::Cert => (reference.cert_sites, reference.cert_connections),
                Cause::Ip => (reference.ip_sites, reference.ip_connections),
                Cause::Cred => (reference.cred_sites, reference.cred_connections),
            };
            comparison.push_row([
                label.to_string(),
                cause.label().to_string(),
                format_percent(paper_sites),
                format_percent(measured.site_share(cause)),
                format_percent(paper_conns),
                format_percent(measured.connection_share(cause)),
            ]);
        }
        comparison.push_row([
            label.to_string(),
            "Redund.".to_string(),
            format_percent(reference.redundant_sites),
            format_percent(measured.redundant_site_share()),
            format_percent(reference.redundant_connections),
            format_percent(measured.redundant_connection_share()),
        ]);
    }
    format!("{}\n{}", table.render(), comparison.render())
}

/// Sites and connections per cause, redundant and in total, one column
/// pair per labelled summary (Tables 1 and 7).
fn cause_table(title: &str, columns: &[(&str, DatasetSummary)]) -> TextTable {
    let mut headers: Vec<String> = vec!["Cause".to_string()];
    for (label, _) in columns {
        headers.push(format!("{label} Sites"));
        headers.push(format!("{label} Conns."));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = TextTable::new(title, &header_refs);
    // One row per cause, then the redundant and the total counts.
    let counts = |summary: &DatasetSummary, row: usize| match Cause::ALL.get(row) {
        Some(cause) => summary.cause(*cause),
        None if row == Cause::ALL.len() => summary.redundant,
        None => summary.total,
    };
    for (row, label) in Cause::ALL.map(Cause::label).into_iter().chain(["Redund.", "Total"]).enumerate() {
        let mut cells = vec![label.to_string()];
        for (_, summary) in columns {
            let counts = counts(summary, row);
            cells.extend([format_count(counts.sites), format_count(counts.connections)]);
        }
        table.push_row(cells);
    }
    table
}

/// One attribution table per (crawl, model) pair of `pairs`: `rows` turns
/// the pair's fold into ranked rows, each led here by its rank.
fn attribution_tables(
    scenario: &Scenario,
    pairs: [(Crawl, DurationModel); 2],
    title: &str,
    headers: &[&str],
    rows: impl Fn(&AttributionFold) -> Vec<Vec<String>>,
) -> String {
    let mut out = String::new();
    for (crawl, model) in pairs {
        let mut table = TextTable::new(&format!("{title} — {}", crawl.label()), headers);
        for (rank, row) in rows(scenario.fold(crawl, model).attribution()).into_iter().enumerate() {
            table.push_row(std::iter::once((rank + 1).to_string()).chain(row));
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// Tables 2, 8 and 12: top IP-cause origins with their most frequent
/// previous origin. The full-dataset tables also count the previous origin
/// and name the paper's top origins.
fn origin_table(
    scenario: &Scenario,
    pairs: [(Crawl, DurationModel); 2],
    title: &str,
    limit: usize,
) -> String {
    let counted = pairs == TABLES;
    let headers: &[&str] = &["rank", "origin", "conns.", "prev", "prev conns."];
    let mut out =
        attribution_tables(scenario, pairs, title, &headers[..4 + counted as usize], |attribution| {
            let rows = attribution.ip_origins(limit).into_iter();
            rows.map(|row| {
                let (previous, count) = row
                    .top_previous()
                    .map(|(domain, count)| (domain.to_string(), format_count(*count)))
                    .unwrap_or_else(|| ("-".to_string(), "0".to_string()));
                let cells = [row.origin.to_string(), format_count(row.connections), previous, count];
                cells[..3 + counted as usize].to_vec()
            })
            .collect()
        });
    if counted {
        out.push_str(&format!("paper top origins: {}\n", paper::TABLE2_TOP_ORIGINS.join(", ")));
    }
    out
}

const ISSUER_HEADERS: [&str; 4] = ["rank", "issuer", "conns.", "unique domains"];

fn issuer_rows(rows: Vec<IssuerAttribution>) -> Vec<Vec<String>> {
    let cells = |row: IssuerAttribution| {
        vec![
            row.issuer.organization().to_string(),
            format_count(row.connections),
            format_count(row.unique_domains),
        ]
    };
    rows.into_iter().map(cells).collect()
}

/// Tables 3 and 9: certificate issuers behind CERT redundancy. Table 3
/// names the paper's top issuers.
fn issuer_table(
    scenario: &Scenario,
    pairs: [(Crawl, DurationModel); 2],
    title: &str,
    limit: usize,
) -> String {
    let mut out = attribution_tables(scenario, pairs, title, &ISSUER_HEADERS, |attribution| {
        issuer_rows(attribution.cert_issuers(limit))
    });
    if pairs == TABLES {
        out.push_str(&format!("paper top issuers: {}\n", paper::TABLE3_TOP_ISSUERS.join(", ")));
    }
    out
}

/// Table 5: issuer share over all connections.
fn table5(scenario: &Scenario) -> String {
    let title = "Table 5: top certificate issuers over all connections";
    attribution_tables(scenario, TABLES, title, &ISSUER_HEADERS, |attribution| {
        issuer_rows(attribution.issuer_share(10))
    })
}

/// Tables 4 and 10: the top 5 CERT domains with a previous origin and the
/// issuer. Table 4 names the paper's top domains.
fn cert_domain_table(scenario: &Scenario, pairs: [(Crawl, DurationModel); 2], title: &str) -> String {
    let headers = ["rank", "domain", "conns.", "prev", "issuer"];
    let mut out = attribution_tables(scenario, pairs, title, &headers, |attribution| {
        let rows = attribution.cert_domains(5).into_iter();
        rows.map(|row| {
            let previous =
                row.previous.first().map(|(d, _)| d.to_string()).unwrap_or_else(|| "-".to_string());
            let issuer = row.issuer.short_code().to_string();
            vec![row.domain.to_string(), format_count(row.connections), previous, issuer]
        })
        .collect()
    });
    if pairs == TABLES {
        out.push_str(&format!("paper top CERT domains: {}\n", paper::TABLE4_TOP_DOMAINS.join(", ")));
    }
    out
}

/// Table 6: ASes behind the IP cause.
fn table6(scenario: &Scenario) -> String {
    let headers = ["rank", "AS", "conns.", "unique domains"];
    let mut out = attribution_tables(
        scenario,
        TABLES,
        "Table 6: top ASes for connections of cause IP",
        &headers,
        |attribution| {
            let rows = attribution.ip_systems(10).into_iter();
            rows.map(|row| {
                vec![row.system.to_string(), format_count(row.connections), format_count(row.unique_domains)]
            })
            .collect()
        },
    );
    out.push_str(&format!("paper top ASes: {}\n", paper::TABLE6_TOP_ASES.join(", ")));
    out
}

/// Table 7: causes on the overlap datasets.
fn table7(scenario: &Scenario) -> String {
    let columns = [
        ("HAR", summary(scenario, Crawl::OverlapHar, DurationModel::Endless, "HAR Overlap Endless")),
        ("Alexa", summary(scenario, Crawl::OverlapAlexa, DurationModel::Endless, "Alexa Overlap Endless")),
    ];
    let table = cause_table("Table 7: causes on the HTTP-Archive / Alexa overlap", &columns);
    format!("{}\noverlapping sites: {}\n", table.render(), format_count(scenario.overlap_sites()))
}

/// Table 11: the DNS resolver panel.
fn table11() -> String {
    let mut table = TextTable::new(
        "Table 11: DNS resolvers used to analyze DNS-based load balancing",
        &["address", "country", "operator", "vantage"],
    );
    for description in connreuse_probe::resolver_panel() {
        table.push_row([
            description.address.clone(),
            description.country.clone(),
            description.operator.clone(),
            description.vantage.to_string(),
        ]);
    }
    table.render()
}

/// Figure 3: the DNS overlap time series. The probed pairs are catalog
/// names, so the unmitigated service deployment answers them as the Alexa
/// population's authority would.
fn figure3() -> String {
    let config = ProbeConfig {
        interval: Duration::from_mins(6),
        duration: Duration::from_days(2),
        pairs: connreuse_probe::default_pairs(),
    };
    let experiment = ProbeExperiment::new(config);
    let deployment = netsim_web::DeploymentCache::standard().deployment(netsim_types::MitigationSet::empty());
    let matrix = experiment.run(&deployment.authority);
    let mut table = TextTable::new(
        "Figure 3: resolvers with overlapping answers per probed pair (2-day probe, 6-minute interval)",
        &["pair", "mean overlap", "slots with any overlap", "sparkline (hourly max of 14)"],
    );
    for (index, pair) in matrix.pairs.iter().enumerate() {
        table.push_row([
            pair.label(),
            format!("{:.1}", matrix.mean_overlap(index)),
            format_percent(matrix.any_overlap_share(index)),
            sparkline(matrix.row(index), matrix.resolver_count, 10),
        ]);
    }
    format!("{}\nresolver panel size: {}\n", table.render(), matrix.resolver_count)
}

/// Downsample a row of overlap counts into a textual sparkline.
fn sparkline(row: &[u32], max_value: usize, slots_per_bucket: usize) -> String {
    const LEVELS: [char; 5] = [' ', '.', ':', '*', '#'];
    row.chunks(slots_per_bucket.max(1))
        .map(|chunk| {
            let peak = chunk.iter().copied().max().unwrap_or(0) as usize;
            let level = if max_value == 0 { 0 } else { (peak * (LEVELS.len() - 1)).div_ceil(max_value) };
            LEVELS[level.min(LEVELS.len() - 1)]
        })
        .collect()
}

/// §4.3: HAR filter statistics.
fn filters(scenario: &Scenario) -> String {
    let stats = scenario.har_filter_statistics();
    let mut table = TextTable::new("HAR filter statistics (§4.3)", &["defect class", "entries"]);
    table.push_row(["socket id 0", &format_count(stats.zero_socket_id as usize)]);
    table.push_row(["missing IP", &format_count(stats.missing_ip as usize)]);
    table.push_row(["invalid method", &format_count(stats.invalid_method as usize)]);
    table.push_row(["HTTP/1 entries", &format_count(stats.http1 as usize)]);
    table.push_row(["HTTP/3 entries", &format_count(stats.http3 as usize)]);
    table.push_row(["missing certificate", &format_count(stats.missing_certificate as usize)]);
    table.push_row(["bad page reference", &format_count(stats.bad_page_reference as usize)]);
    table.push_row(["retained HTTP/2 entries", &format_count(stats.retained_http2 as usize)]);
    table.push_row(["total entries", &format_count(stats.total_entries as usize)]);
    format!(
        "{}\ndropped share: {}\n",
        table.render(),
        format_percent(stats.dropped() as f64 / stats.total_entries.max(1) as f64)
    )
}

/// What-if analysis of the mitigations discussed in §5.3 and the conclusion:
/// how much redundancy remains if servers announce ORIGIN frames and clients
/// honour them, if providers synchronize their DNS load balancing, if the
/// Fetch credentials flag is dropped, and if all three happen at once.
fn whatif(scenario: &Scenario) -> String {
    use crate::grid::Population;
    use crate::scenario::{ALEXA_CRAWL_SEED_OFFSET, ALEXA_POPULATION_SEED_OFFSET};
    use netsim_browser::{BrowserConfig, Crawler};
    use netsim_types::MitigationSet;
    use netsim_web::{PopulationBuilder, PopulationProfile, ServiceCatalog};

    let config = scenario.config;
    let baseline = summary(scenario, Crawl::Alexa, DurationModel::Recorded, "baseline");
    let without_fetch = summary(scenario, Crawl::AlexaWithoutFetch, DurationModel::Recorded, "w/o Fetch");

    // Providers synchronize their DNS (same population size and seed, fixed
    // catalog).
    let synchronized_env = PopulationBuilder::new(
        PopulationProfile::alexa(),
        config.alexa_sites,
        config.seed + ALEXA_POPULATION_SEED_OFFSET,
    )
    .with_catalog(ServiceCatalog::standard().with_synchronized_dns())
    .build();
    let mut all_mitigations = BrowserConfig::with_origin_frames();
    all_mitigations.reuse_policy.follow_fetch_credentials = false;

    // One grid cell per deployment: ORIGIN-frame adoption on the unchanged
    // web (`None`: the worker's Alexa population), synchronized DNS measured
    // with stock Chromium, and everything at once.
    let cells = [
        ("ORIGIN frames", None, BrowserConfig::with_origin_frames()),
        ("synchronized DNS", Some(&synchronized_env), BrowserConfig::alexa_measurement()),
        ("all mitigations", Some(&synchronized_env), all_mitigations),
    ];
    let unmitigated = Population::alexa(config.alexa_sites, config.seed, MitigationSet::empty());
    let measured = crate::grid::run_grid(config.threads, cells.len(), |worker, task| {
        let (label, env, browser) = &cells[task];
        let crawler = Crawler::new(label, browser.clone(), config.seed + ALEXA_CRAWL_SEED_OFFSET);
        let record = match env {
            Some(env) => worker.measure(env, &crawler),
            None => worker.with_population(unmitigated, |worker, env| worker.measure(env, &crawler)),
        };
        record.accumulator.finish(label)
    });
    let [origin_frames, synchronized, all_mitigations] =
        <[DatasetSummary; 3]>::try_from(measured.results).expect("one summary per cell");

    let mut table = TextTable::new(
        "What-if: redundancy under the mitigations the paper proposes (Alexa population, recorded durations)",
        &["deployment", "connections", "redundant conns.", "redundant sites", "IP", "CRED", "CERT"],
    );
    let baseline_connections = baseline.total.connections.max(1);
    for row in [&baseline, &without_fetch, &origin_frames, &synchronized, &all_mitigations] {
        table.push_row([
            row.label.clone(),
            format_count(row.total.connections),
            format_count(row.redundant.connections),
            format_percent(row.redundant_site_share()),
            format_count(row.cause(Cause::Ip).connections),
            format_count(row.cause(Cause::Cred).connections),
            format_count(row.cause(Cause::Cert).connections),
        ]);
    }
    format!(
        "{}\nconnection savings vs. baseline: w/o Fetch {} / ORIGIN frames {} / synchronized DNS {} / all {}\n",
        table.render(),
        format_percent(1.0 - without_fetch.total.connections as f64 / baseline_connections as f64),
        format_percent(1.0 - origin_frames.total.connections as f64 / baseline_connections as f64),
        format_percent(1.0 - synchronized.total.connections as f64 / baseline_connections as f64),
        format_percent(1.0 - all_mitigations.total.connections as f64 / baseline_connections as f64),
    )
}

/// The 2^4 mitigation what-if matrix (see [`crate::sweep`] for the engine).
/// Sized like the scenario's Alexa measurement, so the sweep's baseline cell
/// reproduces the `Alexa` column of Table 1.
fn sweep(scenario: &Scenario) -> String {
    crate::sweep::run_sweep(&crate::sweep::SweepConfig::from_scenario(&scenario.config)).render()
}

/// The mitigation matrix priced in round trips, handshake bytes and
/// page-load time under three link profiles (see [`crate::cost`] for the
/// engine). Sized like the scenario's Alexa measurement, so the broadband
/// baseline cell reproduces the sweep's measured-web crawl.
fn cost(scenario: &Scenario) -> String {
    crate::cost::run_cost(&crate::cost::CostConfig::from_scenario(&scenario.config)).render()
}

/// The atlas scale scenario (see [`crate::atlas`] for the engine): a
/// Zipf-mixed population crawled chunk by chunk with streaming, shard-merged
/// aggregation. Sized from the scenario config; the full 100 k-site run is
/// available via the `connreuse-atlas` bin.
fn atlas(scenario: &Scenario) -> String {
    crate::atlas::run_atlas(&crate::atlas::AtlasConfig::from_scenario(&scenario.config)).render()
}

/// Multi-page user sessions over the connection-pool lifecycle (see
/// [`crate::fleet`] for the engine): the redundancy tax of the measured web
/// when cross-page reuse, TLS resumption and a session DNS cache are allowed
/// to amortise it — versus the paper's cold single-visit methodology.
fn fleet(scenario: &Scenario) -> String {
    crate::fleet::run_fleet(&crate::fleet::FleetConfig::from_scenario(&scenario.config)).render()
}

/// Deterministic fault injection over the fleet's warm session trace (see
/// [`crate::chaos`] for the engine): what faults cost each deployment at
/// each failure level and link, and what bounded retries, backoff and
/// hedged dials buy back.
fn chaos(scenario: &Scenario) -> String {
    crate::chaos::run_chaos(&crate::chaos::ChaosConfig::from_scenario(&scenario.config)).render()
}

/// The persistent shard store: build a demo store, answer the demo what-if
/// queries from disk, render both.
fn store(scenario: &Scenario) -> String {
    crate::store::run_store_demo(&crate::store::StoreConfig::from_scenario(&scenario.config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use std::sync::OnceLock;

    fn shared_scenario() -> &'static Scenario {
        static SCENARIO: OnceLock<Scenario> = OnceLock::new();
        SCENARIO.get_or_init(|| Scenario::new(ScenarioConfig::quick()))
    }

    #[test]
    fn experiments_reading_only_the_config_build_no_table_population() {
        let scenario = Scenario::new(ScenarioConfig { threads: 1, ..ScenarioConfig::quick() });
        for name in ["table11", "atlas", "fleet", "sweep", "cost", "chaos", "store"] {
            run_experiment(name, &scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(scenario.work(), (0, 0), "{name} built a table population");
        }
        // Table 1 reads the archive and Alexa populations: one pass each, one
        // build per chunk, and nothing more when it is asked again.
        let first = run_experiment("table1", &scenario).expect("table1");
        let work = scenario.work();
        assert_eq!(work, (2, 3), "300 archive sites in 2 chunks, 180 Alexa sites in 1");
        assert_eq!(run_experiment("table1", &scenario).expect("table1"), first);
        assert_eq!(scenario.work(), work);
    }

    #[test]
    fn every_experiment_runs_and_produces_output() {
        let scenario = shared_scenario();
        for name in EXPERIMENTS {
            let output = run_experiment(name, scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&output.name, name);
            assert!(output.text.len() > 40, "{name} produced almost no output");
        }
        assert!(run_experiment("nonsense", scenario).is_err());
    }

    #[test]
    fn table1_shape_matches_the_paper_ordering() {
        let scenario = shared_scenario();
        let har = summary(scenario, Crawl::Har, DurationModel::Endless, "HAR Endless");
        // IP affects the most connections, CERT the fewest (paper §5.2).
        assert!(har.cause(Cause::Ip).connections > har.cause(Cause::Cred).connections);
        assert!(har.cause(Cause::Cred).connections > har.cause(Cause::Cert).connections);
        // Most sites are affected, with IP the leading cause site-wise.
        assert!(har.redundant_site_share() > 0.5);
        assert!(har.site_share(Cause::Ip) >= har.site_share(Cause::Cert));
        // The immediate model reduces redundancy (it is the lower bound).
        let immediate = summary(scenario, Crawl::Har, DurationModel::Immediate, "HAR Immediate");
        assert!(immediate.redundant.connections <= har.redundant.connections);
    }

    #[test]
    fn ignoring_fetch_removes_the_cred_cause() {
        let scenario = shared_scenario();
        let patched = summary(scenario, Crawl::AlexaWithoutFetch, DurationModel::Recorded, "Alexa w/o Fetch");
        assert_eq!(patched.cause(Cause::Cred).connections, 0, "CRED must vanish without the Fetch flag");
        let stock = summary(scenario, Crawl::Alexa, DurationModel::Recorded, "Alexa");
        assert!(stock.cause(Cause::Cred).connections > 0);
        assert!(patched.redundant.connections < stock.redundant.connections);
    }

    #[test]
    fn ip_attribution_is_led_by_the_analytics_and_social_origins() {
        let scenario = shared_scenario();
        let rows = scenario.fold(Crawl::Alexa, DurationModel::Recorded).attribution().ip_origins(6);
        assert!(!rows.is_empty());
        let names: Vec<String> = rows.iter().map(|r| r.origin.to_string()).collect();
        assert!(
            names.iter().any(|n| n.contains("google") || n.contains("facebook") || n.contains("doubleclick")),
            "expected a Google/Facebook origin among the top IP origins, got {names:?}"
        );
    }
}
