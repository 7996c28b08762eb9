//! Certificate-authority organisations and their market-share model.
//!
//! Tables 3, 5 and 9 of the paper break redundant connections down by the
//! *Issuer Organisation* of the presented certificate. The population
//! generator needs the same vocabulary plus relative market shares so that the
//! simulated PKI reproduces the paper's headline: Google Trust Services
//! dominates by connection volume on few heavy-hitter domains, Let's Encrypt
//! dominates by unique-domain count with a long tail of small operators.

use std::fmt;
use std::sync::Arc;

/// A certificate-issuing organisation, identified by its Issuer `O=` string.
///
/// The organisation string is shared (`Arc<str>`): the population generator
/// stamps an issuer on every generated certificate, so cloning an issuer must
/// be a refcount bump, not a string copy.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Issuer {
    organization: Arc<str>,
}

/// One shared instance per well-known CA, so the per-site constructor calls
/// in the population generator allocate nothing.
fn well_known(slot: &'static std::sync::OnceLock<Arc<str>>, name: &str) -> Issuer {
    Issuer { organization: Arc::clone(slot.get_or_init(|| Arc::from(name))) }
}

macro_rules! well_known_issuer {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<Arc<str>> = std::sync::OnceLock::new();
        well_known(&SLOT, $name)
    }};
}

impl Issuer {
    /// An issuer with an arbitrary organisation name.
    pub fn named(organization: &str) -> Self {
        Issuer { organization: Arc::from(organization) }
    }

    /// The issuer organisation string as it appears in report tables.
    pub fn organization(&self) -> &str {
        &self.organization
    }

    /// Let's Encrypt — free, automated; the default for small operators and
    /// the long tail of per-subdomain certbot certificates.
    pub fn lets_encrypt() -> Self {
        well_known_issuer!("Let's Encrypt")
    }

    /// Google Trust Services — issues for Google's own ad/analytics domains.
    pub fn google_trust_services() -> Self {
        well_known_issuer!("Google Trust Services")
    }

    /// DigiCert Inc — large commercial CA.
    pub fn digicert() -> Self {
        well_known_issuer!("DigiCert Inc")
    }

    /// Sectigo Limited.
    pub fn sectigo() -> Self {
        well_known_issuer!("Sectigo Limited")
    }

    /// Cloudflare, Inc. — certificates for customers fronted by Cloudflare.
    pub fn cloudflare() -> Self {
        well_known_issuer!("Cloudflare, Inc.")
    }

    /// GlobalSign nv-sa.
    pub fn globalsign() -> Self {
        well_known_issuer!("GlobalSign nv-sa")
    }

    /// Amazon — certificates for CloudFront / ACM customers.
    pub fn amazon() -> Self {
        well_known_issuer!("Amazon")
    }

    /// GoDaddy.com, Inc.
    pub fn godaddy() -> Self {
        well_known_issuer!("GoDaddy.com, Inc.")
    }

    /// Yandex LLC.
    pub fn yandex() -> Self {
        well_known_issuer!("Yandex LLC")
    }

    /// COMODO CA Limited.
    pub fn comodo() -> Self {
        well_known_issuer!("COMODO CA Limited")
    }

    /// Microsoft Corporation.
    pub fn microsoft() -> Self {
        well_known_issuer!("Microsoft Corporation")
    }

    /// The short code used in Table 4 / Table 10 ("LE", "GTS", "DCI", …).
    pub fn short_code(&self) -> &'static str {
        match &*self.organization {
            "Let's Encrypt" => "LE",
            "Google Trust Services" => "GTS",
            "DigiCert Inc" => "DCI",
            "Sectigo Limited" => "SEC",
            "Cloudflare, Inc." => "CF",
            "GlobalSign nv-sa" => "GS",
            "Amazon" => "AMZ",
            "GoDaddy.com, Inc." => "GD",
            "Yandex LLC" => "YDX",
            "COMODO CA Limited" => "CMD",
            "Microsoft Corporation" => "MS",
            _ => "OTH",
        }
    }
}

impl fmt::Display for Issuer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.organization)
    }
}

impl fmt::Debug for Issuer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Issuer({})", self.organization)
    }
}

/// The set of issuers known to the simulation together with the relative
/// weight used when the population generator picks a CA for a small,
/// independent website (the long tail). Heavy hitters (Google properties,
/// Facebook, CDNs) pin their issuer explicitly in the service catalog instead
/// of sampling from these weights.
#[derive(Clone, Debug)]
pub struct IssuerCatalog {
    entries: Vec<(Issuer, f64)>,
}

impl IssuerCatalog {
    /// The default catalog, with weights shaped after Table 5's per-domain
    /// ranking (Let's Encrypt and Cloudflare lead by unique domains, then
    /// DigiCert, Sectigo, Amazon, GlobalSign, GoDaddy and a small remainder).
    pub fn default_market() -> Self {
        IssuerCatalog {
            entries: vec![
                (Issuer::lets_encrypt(), 0.40),
                (Issuer::cloudflare(), 0.17),
                (Issuer::digicert(), 0.10),
                (Issuer::sectigo(), 0.09),
                (Issuer::amazon(), 0.07),
                (Issuer::globalsign(), 0.04),
                (Issuer::godaddy(), 0.04),
                (Issuer::google_trust_services(), 0.05),
                (Issuer::comodo(), 0.02),
                (Issuer::microsoft(), 0.01),
                (Issuer::yandex(), 0.01),
            ],
        }
    }

    /// All issuers with their sampling weights.
    pub fn entries(&self) -> &[(Issuer, f64)] {
        &self.entries
    }

    /// Just the sampling weights, aligned with [`IssuerCatalog::entries`].
    pub fn weights(&self) -> Vec<f64> {
        self.entries.iter().map(|(_, w)| *w).collect()
    }

    /// The issuer at `index` (panics if out of range — callers obtain indices
    /// from weighted sampling over [`IssuerCatalog::weights`]).
    pub fn issuer_at(&self, index: usize) -> &Issuer {
        &self.entries[index].0
    }

    /// Number of catalog entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the catalog has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_codes_match_paper_tables() {
        assert_eq!(Issuer::lets_encrypt().short_code(), "LE");
        assert_eq!(Issuer::google_trust_services().short_code(), "GTS");
        assert_eq!(Issuer::digicert().short_code(), "DCI");
        assert_eq!(Issuer::named("Some Other CA").short_code(), "OTH");
    }

    #[test]
    fn catalog_weights_are_positive_and_normalised_enough() {
        let catalog = IssuerCatalog::default_market();
        assert!(!catalog.is_empty());
        assert_eq!(catalog.len(), catalog.weights().len());
        let total: f64 = catalog.weights().iter().sum();
        assert!((0.9..=1.1).contains(&total), "total weight {total}");
        assert!(catalog.weights().iter().all(|w| *w > 0.0));
    }

    #[test]
    fn lets_encrypt_leads_by_weight() {
        let catalog = IssuerCatalog::default_market();
        let le_weight =
            catalog.entries().iter().find(|(i, _)| *i == Issuer::lets_encrypt()).map(|(_, w)| *w).unwrap();
        assert!(catalog.entries().iter().all(|(_, w)| *w <= le_weight));
    }

    #[test]
    fn issuer_equality_is_by_organization() {
        assert_eq!(Issuer::named("Let's Encrypt"), Issuer::lets_encrypt());
        assert_ne!(Issuer::lets_encrypt(), Issuer::digicert());
        assert_eq!(Issuer::amazon().to_string(), "Amazon");
    }
}
