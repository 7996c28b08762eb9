//! The third-party service catalog.
//!
//! Each [`ThirdPartyService`] models one of the embedded services the paper
//! traces redundancy to (§5.3, Tables 2, 4, 12): the requests it triggers
//! when a page embeds it, how its domains are spread across IP pools, how
//! those domains are grouped into certificates and who issues them, and which
//! autonomous system hosts the whole thing. The combination of *IP cluster*
//! and *certificate group* is what decides which of the paper's causes a
//! service can produce:
//!
//! | IP relation        | certificate relation | outcome                     |
//! |--------------------|----------------------|-----------------------------|
//! | same address       | shared certificate   | reuse works (or `CRED`)     |
//! | same address       | disjunct certificates| `CERT`                      |
//! | different address  | shared certificate   | `IP`                        |
//! | different address  | disjunct certificates| unavoidable third party     |

use netsim_asdb::{well_known, AutonomousSystem};
use netsim_fetch::RequestDestination;
use netsim_tls::Issuer;
use netsim_types::{DomainName, Mitigation, MitigationSet};

/// One request a service triggers when embedded.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceRequest {
    /// Host serving the resource.
    pub domain: DomainName,
    /// Resource path (shared across every site embedding the service).
    pub path: &'static str,
    /// Resource kind (fixes Fetch mode/credentials defaults).
    pub destination: RequestDestination,
    /// `true` if the request is made without credentials (anonymous CORS).
    pub anonymous: bool,
    /// Response body size in octets.
    pub body_size: u64,
    /// Index of the service request that triggers this one; `None` when the
    /// embedding document triggers it directly.
    pub initiated_by: Option<usize>,
    /// Probability that this request occurs on a given embedding (sampled per
    /// site by the population builder).
    pub probability: f64,
}

impl ServiceRequest {
    fn new(
        domain: &str,
        path: &'static str,
        destination: RequestDestination,
        initiated_by: Option<usize>,
        body_size: u64,
    ) -> Self {
        ServiceRequest {
            domain: DomainName::literal(domain),
            path,
            destination,
            anonymous: false,
            body_size,
            initiated_by,
            probability: 1.0,
        }
    }

    fn anonymous(mut self) -> Self {
        self.anonymous = true;
        self
    }

    fn with_probability(mut self, probability: f64) -> Self {
        self.probability = probability;
        self
    }
}

/// How the domains of one IP cluster are mapped to addresses.
#[derive(Clone, Debug, PartialEq)]
pub enum DnsDeployment {
    /// Every domain of the cluster resolves to one shared static address.
    SingleHost,
    /// All domains draw from one shared pool, but each domain is balanced
    /// independently per resolver and epoch — the *unsynchronized* deployment
    /// behind the paper's `IP` cause.
    UnsynchronizedPool {
        /// Number of addresses in the shared pool (one /24 is carved up).
        pool_size: u8,
        /// Addresses returned per answer.
        answer_size: usize,
    },
    /// All domains draw from one pool with a selection that ignores the
    /// domain, so they always land on the same member — the deployment the
    /// paper recommends (shared CNAME / anycast).
    SynchronizedPool {
        /// Number of addresses in the shared pool.
        pool_size: u8,
        /// Addresses returned per answer.
        answer_size: usize,
    },
    /// Every domain gets its own static address in its own /24 — genuinely
    /// distributed infrastructure (the wp.com case), not interchangeable.
    DistinctNetworks,
}

/// A group of domains that share address infrastructure.
#[derive(Clone, Debug, PartialEq)]
pub struct IpCluster {
    /// Domains in the cluster.
    pub domains: Vec<DomainName>,
    /// How they are mapped to addresses.
    pub deployment: DnsDeployment,
}

/// Hosting description of a service.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceHosting {
    /// Operating party (used in reports only).
    pub operator: String,
    /// Autonomous system announcing the service's prefixes.
    pub autonomous_system: AutonomousSystem,
    /// CA issuing the service's certificates.
    pub issuer: Issuer,
    /// Address clusters.
    pub ip_clusters: Vec<IpCluster>,
    /// Domains listed together share one certificate; domains in separate
    /// groups get disjunct certificates.
    pub certificate_groups: Vec<Vec<DomainName>>,
}

/// A third-party service that sites can embed.
#[derive(Clone, Debug, PartialEq)]
pub struct ThirdPartyService {
    /// Stable catalog name (referenced by population profiles).
    pub name: String,
    /// The request chain the embedding triggers.
    pub requests: Vec<ServiceRequest>,
    /// Hosting/PKI/DNS description.
    pub hosting: ServiceHosting,
}

impl ThirdPartyService {
    /// Every domain the service can be contacted on.
    pub fn domains(&self) -> Vec<DomainName> {
        let mut domains: Vec<DomainName> =
            self.hosting.ip_clusters.iter().flat_map(|c| c.domains.iter().cloned()).collect();
        domains.sort();
        domains.dedup();
        domains
    }
}

fn d(s: &str) -> DomainName {
    DomainName::literal(s)
}

fn ds(names: &[&str]) -> Vec<DomainName> {
    names.iter().map(|s| d(s)).collect()
}

/// The full catalog of modelled services.
#[derive(Clone, Debug)]
pub struct ServiceCatalog {
    services: Vec<ThirdPartyService>,
}

impl ServiceCatalog {
    /// The standard catalog mirroring the origins of Tables 2, 4 and 12.
    pub fn standard() -> Self {
        ServiceCatalog {
            services: vec![
                google_analytics(),
                facebook_pixel(),
                google_ads(),
                google_fonts(),
                google_platform(),
                youtube_embed(),
                hotjar(),
                klaviyo(),
                wordpress_stats(),
                squarespace_assets(),
                reddit_widget(),
                unruly_sync(),
            ],
        }
    }

    /// All services.
    pub fn services(&self) -> &[ThirdPartyService] {
        &self.services
    }

    /// Look a service up by its catalog name.
    pub fn get(&self, name: &str) -> Option<&ThirdPartyService> {
        self.services.iter().find(|s| s.name == name)
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// `true` if the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// A what-if variant of the catalog in which every provider has fixed its
    /// DNS the way the paper suggests (§5.3.1): all unsynchronized pools
    /// become synchronized (same CNAME / anycast-style), so co-hosted domains
    /// always resolve to the same address. Certificate grouping and request
    /// chains are unchanged.
    pub fn with_synchronized_dns(&self) -> ServiceCatalog {
        let services = self
            .services
            .iter()
            .cloned()
            .map(|mut service| {
                for cluster in &mut service.hosting.ip_clusters {
                    if let DnsDeployment::UnsynchronizedPool { pool_size, answer_size } = cluster.deployment {
                        cluster.deployment = DnsDeployment::SynchronizedPool { pool_size, answer_size };
                    }
                }
                service
            })
            .collect();
        ServiceCatalog { services }
    }

    /// A what-if variant in which every provider has coalesced its
    /// certificates: all certificate groups of a service merge into a single
    /// group, so one certificate covers every domain the service serves.
    /// DNS deployments and request chains are unchanged. This is the
    /// catalog-side half of [`Mitigation::CertificateCoalescing`].
    pub fn with_coalesced_certificates(&self) -> ServiceCatalog {
        let services = self
            .services
            .iter()
            .cloned()
            .map(|mut service| {
                let mut merged: Vec<DomainName> =
                    service.hosting.certificate_groups.drain(..).flatten().collect();
                merged.sort();
                merged.dedup();
                if !merged.is_empty() {
                    service.hosting.certificate_groups = vec![merged];
                }
                service
            })
            .collect();
        ServiceCatalog { services }
    }

    /// The catalog as deployed under `mitigations`: applies
    /// [`Mitigation::SynchronizedDns`] and
    /// [`Mitigation::CertificateCoalescing`] when present (the other two
    /// mitigations are client-side and do not change the catalog). The empty
    /// set returns the catalog unchanged.
    pub fn with_mitigations(&self, mitigations: MitigationSet) -> ServiceCatalog {
        let mut catalog = self.clone();
        if mitigations.contains(Mitigation::SynchronizedDns) {
            catalog = catalog.with_synchronized_dns();
        }
        if mitigations.contains(Mitigation::CertificateCoalescing) {
            catalog = catalog.with_coalesced_certificates();
        }
        catalog
    }
}

/// Google Tag Manager → Google Analytics: the paper's top `IP`-cause pair.
/// Both domains sit in one Google certificate but are load balanced
/// independently; the trailing `collect` beacon is credential-less and hits
/// the analytics domain again, producing the same-domain `CRED` case.
fn google_analytics() -> ThirdPartyService {
    ThirdPartyService {
        name: "google-analytics".to_string(),
        requests: vec![
            ServiceRequest::new(
                "www.googletagmanager.com",
                "/gtag/js",
                RequestDestination::Script,
                None,
                94_000,
            ),
            ServiceRequest::new(
                "www.google-analytics.com",
                "/analytics.js",
                RequestDestination::Script,
                Some(0),
                50_000,
            ),
            ServiceRequest::new(
                "www.google-analytics.com",
                "/j/collect",
                RequestDestination::Beacon,
                Some(1),
                35,
            )
            .anonymous()
            .with_probability(0.8),
            ServiceRequest::new(
                "www.google-analytics.com",
                "/collect",
                RequestDestination::Image,
                Some(1),
                35,
            )
            .with_probability(0.35),
            // gtag keeps talking to the tag manager after analytics loaded,
            // which keeps the first connection alive past the point where the
            // analytics connection is opened (matters for the paper's
            // "immediate" duration bound).
            ServiceRequest::new(
                "www.googletagmanager.com",
                "/gtag/destination",
                RequestDestination::Xhr,
                Some(1),
                2_300,
            )
            .with_probability(0.6),
        ],
        hosting: ServiceHosting {
            operator: "Google".to_string(),
            autonomous_system: well_known::google(),
            issuer: Issuer::google_trust_services(),
            ip_clusters: vec![IpCluster {
                domains: ds(&["www.googletagmanager.com", "www.google-analytics.com"]),
                deployment: DnsDeployment::UnsynchronizedPool { pool_size: 8, answer_size: 1 },
            }],
            certificate_groups: vec![ds(&["www.googletagmanager.com", "www.google-analytics.com"])],
        },
    }
}

/// The Facebook pixel: `connect.facebook.net` script loading a 1×1 GIF from
/// `www.facebook.com`; shared certificate, independently balanced addresses
/// in the same /24 (paper §5.3.1).
fn facebook_pixel() -> ThirdPartyService {
    ThirdPartyService {
        name: "facebook-pixel".to_string(),
        requests: vec![
            ServiceRequest::new(
                "connect.facebook.net",
                "/en_US/fbevents.js",
                RequestDestination::Script,
                None,
                104_000,
            ),
            ServiceRequest::new("www.facebook.com", "/tr/", RequestDestination::Image, Some(0), 44),
            ServiceRequest::new(
                "www.facebook.com",
                "/tr/?ev=PageView",
                RequestDestination::Image,
                Some(0),
                44,
            )
            .with_probability(0.4),
            ServiceRequest::new(
                "connect.facebook.net",
                "/signals/config/1234",
                RequestDestination::Script,
                Some(1),
                38_000,
            )
            .with_probability(0.5),
        ],
        hosting: ServiceHosting {
            operator: "Facebook".to_string(),
            autonomous_system: well_known::facebook(),
            issuer: Issuer::digicert(),
            ip_clusters: vec![IpCluster {
                domains: ds(&["connect.facebook.net", "www.facebook.com"]),
                deployment: DnsDeployment::UnsynchronizedPool { pool_size: 8, answer_size: 1 },
            }],
            certificate_groups: vec![ds(&["connect.facebook.net", "www.facebook.com"])],
        },
    }
}

/// The Google ads stack: the syndication/doubleclick domains share one
/// certificate but are balanced independently (`IP`), while
/// `adservice.google.*` and `www.googleadservices.com` carry their own GTS
/// certificates on the same pool (`CERT` whenever they land on an address an
/// earlier ads connection already uses).
fn google_ads() -> ThirdPartyService {
    ThirdPartyService {
        name: "google-ads".to_string(),
        requests: vec![
            ServiceRequest::new(
                "pagead2.googlesyndication.com",
                "/pagead/js/adsbygoogle.js",
                RequestDestination::Script,
                None,
                255_000,
            ),
            ServiceRequest::new(
                "www.googleadservices.com",
                "/pagead/conversion_async.js",
                RequestDestination::Script,
                Some(0),
                31_000,
            )
            .with_probability(0.45),
            ServiceRequest::new(
                "googleads.g.doubleclick.net",
                "/pagead/id",
                RequestDestination::Xhr,
                Some(0),
                1_200,
            )
            .with_probability(0.9),
            ServiceRequest::new(
                "adservice.google.com",
                "/adsid/integrator.js",
                RequestDestination::Script,
                Some(0),
                15_000,
            )
            .with_probability(0.5),
            ServiceRequest::new(
                "adservice.google.de",
                "/adsid/integrator.js",
                RequestDestination::Script,
                Some(0),
                15_000,
            )
            .with_probability(0.08),
            ServiceRequest::new(
                "tpc.googlesyndication.com",
                "/simgad/1234567890",
                RequestDestination::Image,
                Some(2),
                48_000,
            )
            .with_probability(0.7),
            ServiceRequest::new(
                "stats.g.doubleclick.net",
                "/j/collect",
                RequestDestination::Beacon,
                Some(2),
                35,
            )
            .anonymous()
            .with_probability(0.4),
            ServiceRequest::new(
                "www.googletagservices.com",
                "/tag/js/gpt.js",
                RequestDestination::Script,
                None,
                62_000,
            )
            .with_probability(0.45),
            ServiceRequest::new(
                "securepubads.g.doubleclick.net",
                "/gpt/pubads_impl.js",
                RequestDestination::Script,
                Some(7),
                210_000,
            )
            .with_probability(0.4),
            ServiceRequest::new(
                "partner.googleadservices.com",
                "/gampad/ads",
                RequestDestination::Xhr,
                Some(7),
                4_000,
            )
            .with_probability(0.3),
            ServiceRequest::new("cm.g.doubleclick.net", "/pixel", RequestDestination::Image, Some(2), 43)
                .with_probability(0.25),
            // Late ad refreshes keep the syndication connection in use after
            // the doubleclick connection exists.
            ServiceRequest::new(
                "pagead2.googlesyndication.com",
                "/pagead/js/r20210420/show_ads_impl.js",
                RequestDestination::Script,
                Some(2),
                120_000,
            )
            .with_probability(0.55),
        ],
        hosting: ServiceHosting {
            operator: "Google".to_string(),
            autonomous_system: well_known::google(),
            issuer: Issuer::google_trust_services(),
            ip_clusters: vec![IpCluster {
                domains: ds(&[
                    "pagead2.googlesyndication.com",
                    "googleads.g.doubleclick.net",
                    "tpc.googlesyndication.com",
                    "stats.g.doubleclick.net",
                    "securepubads.g.doubleclick.net",
                    "www.googletagservices.com",
                    "partner.googleadservices.com",
                    "www.googleadservices.com",
                    "adservice.google.com",
                    "adservice.google.de",
                    "cm.g.doubleclick.net",
                ]),
                deployment: DnsDeployment::UnsynchronizedPool { pool_size: 12, answer_size: 1 },
            }],
            certificate_groups: vec![
                ds(&[
                    "pagead2.googlesyndication.com",
                    "googleads.g.doubleclick.net",
                    "tpc.googlesyndication.com",
                    "stats.g.doubleclick.net",
                    "securepubads.g.doubleclick.net",
                    "www.googletagservices.com",
                    "partner.googleadservices.com",
                    "cm.g.doubleclick.net",
                ]),
                ds(&["www.googleadservices.com"]),
                ds(&["adservice.google.com"]),
                ds(&["adservice.google.de"]),
            ],
        },
    }
}

/// Google Fonts: the stylesheet is credentialed, the font files are
/// credential-less CORS fetches, and some sites additionally pull an icon
/// stylesheet anonymously — producing the same-domain `CRED` case the paper
/// reports for most CRED-affected sites.
fn google_fonts() -> ThirdPartyService {
    ThirdPartyService {
        name: "google-fonts".to_string(),
        requests: vec![
            ServiceRequest::new(
                "fonts.googleapis.com",
                "/css2?family=Roboto",
                RequestDestination::Style,
                None,
                1_800,
            ),
            ServiceRequest::new(
                "fonts.gstatic.com",
                "/s/roboto/v30/KFOmCnqEu92Fr1Mu4mxK.woff2",
                RequestDestination::Font,
                Some(0),
                15_000,
            ),
            ServiceRequest::new(
                "fonts.gstatic.com",
                "/s/roboto/v30/KFOlCnqEu92Fr1MmEU9fBBc4.woff2",
                RequestDestination::Font,
                Some(0),
                15_500,
            )
            .with_probability(0.7),
            ServiceRequest::new(
                "fonts.googleapis.com",
                "/icon?family=Material+Icons",
                RequestDestination::Style,
                None,
                900,
            )
            .anonymous()
            .with_probability(0.35),
            ServiceRequest::new(
                "ajax.googleapis.com",
                "/ajax/libs/webfont/1.6.26/webfont.js",
                RequestDestination::Script,
                None,
                18_000,
            )
            .with_probability(0.3),
            ServiceRequest::new(
                "maps.googleapis.com",
                "/maps/api/js",
                RequestDestination::Script,
                None,
                110_000,
            )
            .with_probability(0.15),
        ],
        hosting: ServiceHosting {
            operator: "Google".to_string(),
            autonomous_system: well_known::google(),
            issuer: Issuer::google_trust_services(),
            ip_clusters: vec![
                IpCluster {
                    domains: ds(&["fonts.googleapis.com", "ajax.googleapis.com", "maps.googleapis.com"]),
                    deployment: DnsDeployment::UnsynchronizedPool { pool_size: 6, answer_size: 1 },
                },
                IpCluster {
                    domains: ds(&["fonts.gstatic.com"]),
                    deployment: DnsDeployment::UnsynchronizedPool { pool_size: 6, answer_size: 1 },
                },
            ],
            certificate_groups: vec![
                ds(&["fonts.googleapis.com", "ajax.googleapis.com", "maps.googleapis.com"]),
                ds(&["fonts.gstatic.com"]),
            ],
        },
    }
}

/// Google platform widgets (`apis.google.com`, `ogs.google.com`) that ride on
/// `www.gstatic.com` assets — a visible `IP` pair in the Alexa measurement.
fn google_platform() -> ThirdPartyService {
    ThirdPartyService {
        name: "google-platform".to_string(),
        requests: vec![
            ServiceRequest::new(
                "www.gstatic.com",
                "/og/_/js/k=og.qtm.en_US.js",
                RequestDestination::Script,
                None,
                86_000,
            ),
            ServiceRequest::new(
                "apis.google.com",
                "/js/platform.js",
                RequestDestination::Script,
                Some(0),
                58_000,
            )
            .with_probability(0.8),
            ServiceRequest::new("ogs.google.com", "/widget/app", RequestDestination::Iframe, Some(0), 22_000)
                .with_probability(0.4),
            ServiceRequest::new(
                "www.google.com",
                "/recaptcha/api.js",
                RequestDestination::Script,
                None,
                1_200,
            )
            .with_probability(0.35),
        ],
        hosting: ServiceHosting {
            operator: "Google".to_string(),
            autonomous_system: well_known::google(),
            issuer: Issuer::google_trust_services(),
            ip_clusters: vec![IpCluster {
                domains: ds(&["www.gstatic.com", "apis.google.com", "ogs.google.com", "www.google.com"]),
                deployment: DnsDeployment::UnsynchronizedPool { pool_size: 8, answer_size: 1 },
            }],
            certificate_groups: vec![ds(&[
                "www.gstatic.com",
                "apis.google.com",
                "ogs.google.com",
                "www.google.com",
            ])],
        },
    }
}

/// An embedded YouTube player: iframe plus thumbnails and player assets.
fn youtube_embed() -> ThirdPartyService {
    ThirdPartyService {
        name: "youtube-embed".to_string(),
        requests: vec![
            ServiceRequest::new(
                "www.youtube.com",
                "/embed/dQw4w9WgXcQ",
                RequestDestination::Iframe,
                None,
                62_000,
            ),
            ServiceRequest::new(
                "i.ytimg.com",
                "/vi/dQw4w9WgXcQ/hqdefault.jpg",
                RequestDestination::Image,
                Some(0),
                28_000,
            ),
            ServiceRequest::new(
                "www.youtube.com",
                "/s/player/base.js",
                RequestDestination::Script,
                Some(0),
                1_100_000,
            )
            .with_probability(0.8),
            ServiceRequest::new(
                "i.ytimg.com",
                "/vi/dQw4w9WgXcQ/mqdefault.jpg",
                RequestDestination::Image,
                Some(0),
                12_000,
            )
            .with_probability(0.3),
        ],
        hosting: ServiceHosting {
            operator: "Google".to_string(),
            autonomous_system: well_known::google(),
            issuer: Issuer::google_trust_services(),
            ip_clusters: vec![IpCluster {
                domains: ds(&["www.youtube.com", "i.ytimg.com"]),
                deployment: DnsDeployment::UnsynchronizedPool { pool_size: 8, answer_size: 1 },
            }],
            certificate_groups: vec![ds(&["www.youtube.com", "i.ytimg.com"])],
        },
    }
}

/// hotjar web analytics: four subdomains behind CloudFront (AMAZON-02) with a
/// shared certificate but independently balanced addresses.
fn hotjar() -> ThirdPartyService {
    ThirdPartyService {
        name: "hotjar".to_string(),
        requests: vec![
            ServiceRequest::new(
                "static.hotjar.com",
                "/c/hotjar-1234.js",
                RequestDestination::Script,
                None,
                19_000,
            ),
            ServiceRequest::new(
                "script.hotjar.com",
                "/modules.96a24ce.js",
                RequestDestination::Script,
                Some(0),
                230_000,
            ),
            ServiceRequest::new("vars.hotjar.com", "/box-1234.html", RequestDestination::Xhr, Some(1), 2_400)
                .anonymous()
                .with_probability(0.8),
            ServiceRequest::new(
                "in.hotjar.com",
                "/api/v2/client/sites/1234",
                RequestDestination::Xhr,
                Some(1),
                600,
            )
            .with_probability(0.6),
        ],
        hosting: ServiceHosting {
            operator: "Hotjar".to_string(),
            autonomous_system: well_known::amazon_02(),
            issuer: Issuer::amazon(),
            ip_clusters: vec![IpCluster {
                domains: ds(&["static.hotjar.com", "script.hotjar.com", "vars.hotjar.com", "in.hotjar.com"]),
                deployment: DnsDeployment::UnsynchronizedPool { pool_size: 4, answer_size: 1 },
            }],
            certificate_groups: vec![ds(&[
                "static.hotjar.com",
                "script.hotjar.com",
                "vars.hotjar.com",
                "in.hotjar.com",
            ])],
        },
    }
}

/// Klaviyo onsite marketing: two subdomains on the same host with *separate*
/// Let's-Encrypt certificates — the paper's top `CERT` domain.
fn klaviyo() -> ThirdPartyService {
    ThirdPartyService {
        name: "klaviyo".to_string(),
        requests: vec![
            ServiceRequest::new(
                "static.klaviyo.com",
                "/onsite/js/klaviyo.js",
                RequestDestination::Script,
                None,
                65_000,
            ),
            ServiceRequest::new(
                "fast.a.klaviyo.com",
                "/media/js/onsite/onsite.js",
                RequestDestination::Script,
                Some(0),
                120_000,
            ),
        ],
        hosting: ServiceHosting {
            operator: "Klaviyo".to_string(),
            autonomous_system: well_known::amazon_02(),
            issuer: Issuer::lets_encrypt(),
            ip_clusters: vec![IpCluster {
                domains: ds(&["static.klaviyo.com", "fast.a.klaviyo.com"]),
                deployment: DnsDeployment::SingleHost,
            }],
            certificate_groups: vec![ds(&["static.klaviyo.com"]), ds(&["fast.a.klaviyo.com"])],
        },
    }
}

/// Wordpress.com statistics and asset CDN: shared certificate but genuinely
/// distinct networks, so the redundancy is real distribution rather than
/// load-balancing accident (paper §5.3.1 notes the IPs are not
/// interchangeable).
fn wordpress_stats() -> ThirdPartyService {
    ThirdPartyService {
        name: "wp-stats".to_string(),
        requests: vec![
            ServiceRequest::new(
                "c0.wp.com",
                "/c/5.7.2/wp-includes/js/jquery/jquery.min.js",
                RequestDestination::Script,
                None,
                98_000,
            ),
            ServiceRequest::new("stats.wp.com", "/e-202120.js", RequestDestination::Script, Some(0), 10_000),
            ServiceRequest::new("pixel.wp.com", "/g.gif", RequestDestination::Image, Some(1), 43)
                .with_probability(0.7),
        ],
        hosting: ServiceHosting {
            operator: "Automattic".to_string(),
            autonomous_system: well_known::automattic(),
            issuer: Issuer::lets_encrypt(),
            ip_clusters: vec![IpCluster {
                domains: ds(&["c0.wp.com", "stats.wp.com", "pixel.wp.com"]),
                deployment: DnsDeployment::DistinctNetworks,
            }],
            certificate_groups: vec![ds(&["c0.wp.com", "stats.wp.com", "pixel.wp.com"])],
        },
    }
}

/// Squarespace-hosted assets: static scripts and the image CDN share hosts
/// but carry separate DigiCert certificates (`CERT`, Table 4 rank 5).
fn squarespace_assets() -> ThirdPartyService {
    ThirdPartyService {
        name: "squarespace-assets".to_string(),
        requests: vec![
            ServiceRequest::new(
                "static1.squarespace.com",
                "/static/vta/site-bundle.js",
                RequestDestination::Script,
                None,
                310_000,
            ),
            ServiceRequest::new(
                "images.squarespace-cdn.com",
                "/content/v1/hero.jpg",
                RequestDestination::Image,
                Some(0),
                240_000,
            ),
            ServiceRequest::new(
                "images.squarespace-cdn.com",
                "/content/v1/gallery-1.jpg",
                RequestDestination::Image,
                Some(0),
                180_000,
            )
            .with_probability(0.6),
        ],
        hosting: ServiceHosting {
            operator: "Squarespace".to_string(),
            autonomous_system: well_known::fastly(),
            issuer: Issuer::digicert(),
            ip_clusters: vec![IpCluster {
                domains: ds(&["static1.squarespace.com", "images.squarespace-cdn.com"]),
                deployment: DnsDeployment::SingleHost,
            }],
            certificate_groups: vec![ds(&["static1.squarespace.com"]), ds(&["images.squarespace-cdn.com"])],
        },
    }
}

/// An embedded Reddit widget: static assets and the API load balancer share a
/// host but use disjunct certificates (Table 10's `alb.reddit.com`).
fn reddit_widget() -> ThirdPartyService {
    ThirdPartyService {
        name: "reddit-widget".to_string(),
        requests: vec![
            ServiceRequest::new(
                "www.redditstatic.com",
                "/desktop2x/js/ads.js",
                RequestDestination::Script,
                None,
                42_000,
            ),
            ServiceRequest::new("alb.reddit.com", "/rp.gif", RequestDestination::Image, Some(0), 43),
        ],
        hosting: ServiceHosting {
            operator: "Reddit".to_string(),
            autonomous_system: well_known::fastly(),
            issuer: Issuer::digicert(),
            ip_clusters: vec![IpCluster {
                domains: ds(&["www.redditstatic.com", "alb.reddit.com"]),
                deployment: DnsDeployment::SingleHost,
            }],
            certificate_groups: vec![ds(&["www.redditstatic.com"]), ds(&["alb.reddit.com"])],
        },
    }
}

/// Ad-tech cookie syncing between 1rx.io and unrulymedia.com: same host,
/// disjunct DigiCert certificates (Table 4 / Table 10, Alexa only).
fn unruly_sync() -> ThirdPartyService {
    ThirdPartyService {
        name: "unruly-sync".to_string(),
        requests: vec![
            ServiceRequest::new("sync.1rx.io", "/usync", RequestDestination::Image, None, 43),
            ServiceRequest::new(
                "sync.targeting.unrulymedia.com",
                "/match",
                RequestDestination::Image,
                Some(0),
                43,
            ),
        ],
        hosting: ServiceHosting {
            operator: "Unruly".to_string(),
            autonomous_system: well_known::amazon_aes(),
            issuer: Issuer::digicert(),
            ip_clusters: vec![IpCluster {
                domains: ds(&["sync.1rx.io", "sync.targeting.unrulymedia.com"]),
                deployment: DnsDeployment::SingleHost,
            }],
            certificate_groups: vec![ds(&["sync.1rx.io"]), ds(&["sync.targeting.unrulymedia.com"])],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_contains_the_paper_headliners() {
        let catalog = ServiceCatalog::standard();
        assert!(!catalog.is_empty());
        assert!(catalog.len() >= 10);
        for name in [
            "google-analytics",
            "facebook-pixel",
            "google-ads",
            "google-fonts",
            "hotjar",
            "klaviyo",
            "wp-stats",
            "squarespace-assets",
        ] {
            assert!(catalog.get(name).is_some(), "missing service {name}");
        }
        assert!(catalog.get("does-not-exist").is_none());
    }

    #[test]
    fn request_chains_reference_earlier_requests_only() {
        for service in ServiceCatalog::standard().services() {
            for (index, request) in service.requests.iter().enumerate() {
                if let Some(parent) = request.initiated_by {
                    assert!(
                        parent < index,
                        "{}: request {index} references later parent {parent}",
                        service.name
                    );
                }
                assert!((0.0..=1.0).contains(&request.probability));
                assert!(request.body_size > 0);
            }
        }
    }

    #[test]
    fn each_domain_is_owned_by_exactly_one_service() {
        let catalog = ServiceCatalog::standard();
        let mut seen: std::collections::BTreeMap<DomainName, String> = std::collections::BTreeMap::new();
        for service in catalog.services() {
            for domain in service.domains() {
                if let Some(owner) = seen.insert(domain, service.name.clone()) {
                    panic!("domain {domain} owned by both {owner} and {}", service.name);
                }
            }
        }
    }

    #[test]
    fn every_request_domain_belongs_to_an_ip_cluster() {
        for service in ServiceCatalog::standard().services() {
            let domains = service.domains();
            for request in &service.requests {
                assert!(
                    domains.contains(&request.domain),
                    "{}: request domain {} missing from ip clusters",
                    service.name,
                    request.domain
                );
            }
        }
    }

    #[test]
    fn certificate_groups_cover_every_cluster_domain() {
        for service in ServiceCatalog::standard().services() {
            let covered: Vec<&DomainName> = service.hosting.certificate_groups.iter().flatten().collect();
            for domain in service.domains() {
                assert!(
                    covered.contains(&&domain),
                    "{}: domain {} not covered by any certificate group",
                    service.name,
                    domain
                );
            }
        }
    }

    #[test]
    fn analytics_pair_is_shared_cert_unsynchronized() {
        let catalog = ServiceCatalog::standard();
        let ga = catalog.get("google-analytics").unwrap();
        assert_eq!(ga.hosting.certificate_groups.len(), 1);
        assert!(matches!(ga.hosting.ip_clusters[0].deployment, DnsDeployment::UnsynchronizedPool { .. }));
    }

    #[test]
    fn klaviyo_pair_is_single_host_disjunct_certs() {
        let catalog = ServiceCatalog::standard();
        let klaviyo = catalog.get("klaviyo").unwrap();
        assert_eq!(klaviyo.hosting.certificate_groups.len(), 2);
        assert_eq!(klaviyo.hosting.ip_clusters[0].deployment, DnsDeployment::SingleHost);
        assert_eq!(klaviyo.hosting.issuer, Issuer::lets_encrypt());
    }

    #[test]
    fn synchronized_variant_replaces_unsynchronized_pools_only() {
        let standard = ServiceCatalog::standard();
        let synchronized = standard.with_synchronized_dns();
        assert_eq!(standard.len(), synchronized.len());
        for (original, fixed) in standard.services().iter().zip(synchronized.services()) {
            assert_eq!(original.requests, fixed.requests);
            assert_eq!(original.hosting.certificate_groups, fixed.hosting.certificate_groups);
            for (a, b) in original.hosting.ip_clusters.iter().zip(&fixed.hosting.ip_clusters) {
                match (&a.deployment, &b.deployment) {
                    (
                        DnsDeployment::UnsynchronizedPool { pool_size, answer_size },
                        DnsDeployment::SynchronizedPool { pool_size: p, answer_size: s },
                    ) => {
                        assert_eq!(pool_size, p);
                        assert_eq!(answer_size, s);
                    }
                    (other_a, other_b) => assert_eq!(other_a, other_b),
                }
            }
        }
    }

    #[test]
    fn coalesced_variant_merges_certificate_groups_only() {
        let standard = ServiceCatalog::standard();
        let coalesced = standard.with_coalesced_certificates();
        assert_eq!(standard.len(), coalesced.len());
        let mut some_service_merged = false;
        for (original, fixed) in standard.services().iter().zip(coalesced.services()) {
            assert_eq!(original.requests, fixed.requests);
            assert_eq!(original.hosting.ip_clusters, fixed.hosting.ip_clusters);
            assert!(fixed.hosting.certificate_groups.len() <= 1);
            // No domain is lost in the merge.
            let mut original_domains: Vec<DomainName> =
                original.hosting.certificate_groups.iter().flatten().cloned().collect();
            original_domains.sort();
            original_domains.dedup();
            let merged: Vec<DomainName> =
                fixed.hosting.certificate_groups.iter().flatten().cloned().collect();
            assert_eq!(original_domains, merged);
            if original.hosting.certificate_groups.len() > 1 {
                some_service_merged = true;
            }
        }
        assert!(some_service_merged, "the standard catalog should have a split-certificate service");
    }

    #[test]
    fn mitigated_catalog_composes_the_environment_side_fixes() {
        let standard = ServiceCatalog::standard();
        assert_eq!(standard.with_mitigations(MitigationSet::empty()).services(), standard.services());
        let both = standard.with_mitigations(
            MitigationSet::single(Mitigation::SynchronizedDns)
                .with(Mitigation::CertificateCoalescing)
                // Client-side mitigations must not change the catalog.
                .with(Mitigation::CredentialPooling)
                .with(Mitigation::OriginFrames),
        );
        let expected = standard.with_synchronized_dns().with_coalesced_certificates();
        assert_eq!(both.services(), expected.services());
    }

    #[test]
    fn analytics_chain_contains_anonymous_beacon() {
        let catalog = ServiceCatalog::standard();
        let ga = catalog.get("google-analytics").unwrap();
        assert!(ga.requests.iter().any(|r| r.anonymous && r.domain == d("www.google-analytics.com")));
    }
}
