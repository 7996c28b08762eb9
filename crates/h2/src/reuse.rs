//! The RFC 7540 §9.1.1 Connection Reuse predicate.
//!
//! A request for origin `O` may be sent on an existing connection `C` when
//!
//! 1. the scheme and port match,
//! 2. `C`'s destination IP equals the IP that `O`'s host resolves to, and
//! 3. the certificate presented on `C` is valid for `O`'s host,
//!
//! unless the server has excluded the host via HTTP 421. RFC 8336 extends
//! this: if the server announced an origin set, membership in the set can
//! substitute for the IP equality check. On top of the RFC rules, browsers
//! following the WHATWG Fetch Standard additionally require the *credentials
//! partition* to match — the mechanism behind the paper's `CRED` cause.
//!
//! Two functions answer it. [`admits`] is the browser's question, "may this
//! request ride this connection?": it runs the checks in the order the
//! paper's causes make cheapest (credentials partition, origin set / IP,
//! scheme and port, stream state, 421 exclusion) and asks for certificate
//! coverage, the only check that walks a SAN list, last, returning at the
//! first refusal. The loader's coalescing scan calls it for every open
//! candidate. [`evaluate_set`] returns the complete set of reasons reuse
//! fails (the empty set means reusable, exactly when [`admits`] is `true`);
//! it is for readers of the reasons: this module's unit tests, the
//! monotonicity and equivalence proptests in `tests/properties.rs` and the
//! predicate benches in `crates/bench/benches/substrates.rs`. The paper's
//! §4.1 root causes are not derived from either: `connreuse_core::classify`
//! attributes them from connection records alone.
//!
//! [`coverage_checks`] counts this thread's certificate-coverage checks made
//! by [`admits`], a deterministic measure of the scan's SAN work.

use crate::connection::Connection;
use netsim_types::{DomainName, IpAddr, Mitigation, MitigationSet, Origin};
use std::cell::Cell;

/// A single reason why an existing connection cannot serve a new request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReuseRefusal {
    /// Scheme or port differ.
    SchemePortMismatch,
    /// The new request's host resolves to a different destination IP
    /// (and no origin-set membership overrides it) — the paper's `IP` cause.
    IpMismatch,
    /// The connection's certificate does not cover the host — the `CERT`
    /// cause.
    CertificateMismatch,
    /// The server answered 421 for this host earlier on this connection.
    ExcludedByServer,
    /// The server announced an RFC 8336 origin set that does not contain the
    /// host, so the client should not coalesce onto this connection.
    NotInOriginSet,
    /// The Fetch Standard credentials partition differs (credentialed vs.
    /// credential-less) — the `CRED` cause.
    CredentialsMismatch,
    /// The connection is draining (GOAWAY received) or closed.
    NotAcceptingStreams,
}

impl ReuseRefusal {
    /// All refusal reasons in declaration (= `Ord`) order.
    pub const ALL: [ReuseRefusal; 7] = [
        ReuseRefusal::SchemePortMismatch,
        ReuseRefusal::IpMismatch,
        ReuseRefusal::CertificateMismatch,
        ReuseRefusal::ExcludedByServer,
        ReuseRefusal::NotInOriginSet,
        ReuseRefusal::CredentialsMismatch,
        ReuseRefusal::NotAcceptingStreams,
    ];

    /// The bit this reason occupies in a [`RefusalSet`].
    const fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// A set of [`ReuseRefusal`]s packed into one copyable word, so evaluating
/// a candidate connection never allocates. Iteration order is the `Ord` order of [`ReuseRefusal`], so
/// [`RefusalSet::to_vec`] is sorted and deduplicated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RefusalSet(u16);

impl RefusalSet {
    /// The empty set (reuse allowed).
    pub const EMPTY: RefusalSet = RefusalSet(0);

    /// Add a reason.
    pub fn insert(&mut self, reason: ReuseRefusal) {
        self.0 |= reason.bit();
    }

    /// `true` if no reason is present (the connection is reusable).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// `true` if `reason` is present.
    pub fn contains(self, reason: ReuseRefusal) -> bool {
        self.0 & reason.bit() != 0
    }

    /// Number of distinct reasons.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The reasons in `Ord` order.
    pub fn iter(self) -> impl Iterator<Item = ReuseRefusal> {
        ReuseRefusal::ALL.into_iter().filter(move |reason| self.contains(*reason))
    }

    /// Materialise as the sorted, deduplicated vector of reasons.
    pub fn to_vec(self) -> Vec<ReuseRefusal> {
        self.iter().collect()
    }
}

/// Policy knobs governing the reuse check. Defaults model Chromium 87 as used
/// in the paper's measurements: the Fetch credentials partition is enforced
/// and ORIGIN frames are ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReusePolicy {
    /// Enforce the Fetch Standard credentials partition ("privacy mode").
    /// Disabling this reproduces the paper's "Alexa w/o Fetch" run.
    pub follow_fetch_credentials: bool,
    /// Honour RFC 8336 ORIGIN frames (Chromium does not).
    pub honor_origin_frame: bool,
    /// RFC 8336 §2.4 strictness when `honor_origin_frame` is set: if `true`,
    /// a host *absent* from an announced origin set refuses coalescing
    /// outright ([`ReuseRefusal::NotInOriginSet`]); if `false`, absence
    /// merely withholds the IP-check substitution and the normal RFC 7540
    /// rules apply. The relaxed mode is what the mitigation sweep uses — it
    /// makes enabling ORIGIN frames a pure relaxation of the predicate
    /// (reuse decisions stay monotone under mitigation).
    pub strict_origin_set: bool,
}

impl Default for ReusePolicy {
    fn default() -> Self {
        ReusePolicy { follow_fetch_credentials: true, honor_origin_frame: false, strict_origin_set: true }
    }
}

impl ReusePolicy {
    /// The Chromium-87 behaviour used in the paper's main measurement.
    pub fn chromium() -> Self {
        ReusePolicy::default()
    }

    /// Chromium patched to ignore the Fetch credentials flag (the paper's
    /// second Alexa run, "Alexa w/o Fetch").
    pub fn chromium_without_fetch() -> Self {
        ReusePolicy { follow_fetch_credentials: false, ..ReusePolicy::default() }
    }

    /// A hypothetical client that fully implements RFC 8336, including the
    /// strict must-not-coalesce rule for hosts outside an origin set.
    pub fn with_origin_frame() -> Self {
        ReusePolicy { honor_origin_frame: true, ..ReusePolicy::default() }
    }

    /// The policy a client runs when the given mitigations are deployed:
    /// [`Mitigation::OriginFrames`] honours origin sets in relaxed mode (a
    /// pure relaxation of the predicate) and [`Mitigation::CredentialPooling`]
    /// drops the Fetch credentials partition. The environment-side
    /// mitigations (DNS synchronization, certificate coalescing) do not
    /// change the client policy — they change what the client observes.
    ///
    /// Enabling any mitigation only ever *removes* refusal reasons: for all
    /// sets `S ⊆ T`, `refusals(with_mitigations(T)) ⊆
    /// refusals(with_mitigations(S))` on every connection/request pair (the
    /// monotonicity property tested in `tests/properties.rs`).
    pub fn with_mitigations(mitigations: MitigationSet) -> Self {
        ReusePolicy {
            follow_fetch_credentials: !mitigations.contains(Mitigation::CredentialPooling),
            honor_origin_frame: mitigations.contains(Mitigation::OriginFrames),
            strict_origin_set: false,
        }
    }
}

/// Evaluate whether `connection` can carry a request for `target` origin that
/// resolves to `target_ip` and whose Fetch credentials mode is
/// `request_credentialed`: the complete refusal set packed in one word (empty
/// = reusable). It allocates nothing. It asks every check, coverage
/// included; a caller that needs only the verdict calls [`admits`].
pub fn evaluate_set(
    connection: &Connection,
    target: &Origin,
    target_ip: IpAddr,
    request_credentialed: bool,
    policy: &ReusePolicy,
) -> RefusalSet {
    let mut refusals = RefusalSet::EMPTY;

    if !connection.initial_origin.same_scheme_port(target) {
        refusals.insert(ReuseRefusal::SchemePortMismatch);
    }

    if !connection.can_open_stream() {
        refusals.insert(ReuseRefusal::NotAcceptingStreams);
    }

    if connection.excluded_domains.contains(&target.host) {
        refusals.insert(ReuseRefusal::ExcludedByServer);
    }

    if !connection.certificate.covers(&target.host) {
        refusals.insert(ReuseRefusal::CertificateMismatch);
    }

    let origin_set_match = origin_set_contains(connection, &target.host);
    match origin_set_match {
        // Origin-set membership substitutes for the IP check (RFC 8336).
        Some(true) if policy.honor_origin_frame => {}
        // Absent from an announced set: strict clients refuse outright (and
        // skip the IP rule, which membership would have replaced); relaxed
        // clients simply fall back to the plain RFC 7540 IP check.
        Some(false) if policy.honor_origin_frame && policy.strict_origin_set => {
            refusals.insert(ReuseRefusal::NotInOriginSet);
        }
        _ => {
            if connection.remote_ip != target_ip {
                refusals.insert(ReuseRefusal::IpMismatch);
            }
        }
    }

    if policy.follow_fetch_credentials && connection.credentialed != request_credentialed {
        refusals.insert(ReuseRefusal::CredentialsMismatch);
    }

    refusals
}

thread_local! {
    static COVERAGE_CHECKS: Cell<u64> = const { Cell::new(0) };
}

/// Whether `connection` can carry a request for `target` origin that
/// resolves to `target_ip` in the given credentials mode: `true` exactly
/// when [`evaluate_set`] returns the empty set. The checks run cheapest and
/// most often refusing first, and the first refusal returns, so certificate
/// coverage is asked only of a candidate every other check admits.
pub fn admits(
    connection: &Connection,
    target: &Origin,
    target_ip: IpAddr,
    request_credentialed: bool,
    policy: &ReusePolicy,
) -> bool {
    if policy.follow_fetch_credentials && connection.credentialed != request_credentialed {
        return false;
    }
    let ip_rule_holds = match origin_set_contains(connection, &target.host) {
        Some(true) if policy.honor_origin_frame => true,
        Some(false) if policy.honor_origin_frame && policy.strict_origin_set => false,
        _ => connection.remote_ip == target_ip,
    };
    if !ip_rule_holds
        || !connection.initial_origin.same_scheme_port(target)
        || !connection.can_open_stream()
        || connection.excluded_domains.contains(&target.host)
    {
        return false;
    }
    COVERAGE_CHECKS.with(|checks| checks.set(checks.get() + 1));
    connection.certificate.covers(&target.host)
}

/// This thread's certificate-coverage checks made by [`admits`]. A work
/// counter: take the difference around a section to see how many candidates
/// passed every cheaper check.
pub fn coverage_checks() -> u64 {
    COVERAGE_CHECKS.with(Cell::get)
}

/// Whether the connection's origin set (if announced) contains `host`.
fn origin_set_contains(connection: &Connection, host: &DomainName) -> Option<bool> {
    connection.origin_set.as_ref().map(|set| set.contains(host))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::Connection;
    use netsim_tls::{CertificateStore, IssuancePolicy, Issuer};
    use netsim_types::{ConnectionId, Instant};

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn conn(cert_domains: &[&str], ip: IpAddr, credentialed: bool) -> Connection {
        let mut store = CertificateStore::new();
        let names: Vec<DomainName> = cert_domains.iter().map(|s| d(s)).collect();
        store.issue_with_policy(
            &Issuer::google_trust_services(),
            &IssuancePolicy::SharedSan,
            &names,
            Instant::EPOCH,
        );
        Connection::establish(
            ConnectionId(1),
            Origin::https(names[0]),
            ip,
            std::sync::Arc::clone(store.get_arc(netsim_tls::CertificateId(0)).unwrap()),
            credentialed,
            Instant::EPOCH,
        )
    }

    const IP_A: IpAddr = IpAddr::new(142, 250, 74, 10);
    const IP_B: IpAddr = IpAddr::new(142, 250, 74, 77);

    /// The refusals for a request to `https://{host}` that resolved to `ip`,
    /// in the given credentials mode; [`admits`] must agree with them.
    fn refusals_for(
        c: &Connection,
        host: &str,
        ip: IpAddr,
        credentialed: bool,
        policy: ReusePolicy,
    ) -> RefusalSet {
        let target = Origin::https(d(host));
        let refusals = evaluate_set(c, &target, ip, credentialed, &policy);
        assert_eq!(admits(c, &target, ip, credentialed, &policy), refusals.is_empty());
        refusals
    }

    #[test]
    fn admits_asks_coverage_only_of_candidates_every_cheaper_check_admits() {
        let c = conn(&["www.googletagmanager.com", "www.google-analytics.com"], IP_A, true);
        let chromium = ReusePolicy::chromium();
        let ga = Origin::https(d("www.google-analytics.com"));
        let other = Origin::https(d("www.example.com"));
        let checks = coverage_checks();
        // Refused by the credentials partition, then by the IP rule.
        assert!(!admits(&c, &ga, IP_A, false, &chromium));
        assert!(!admits(&c, &ga, IP_B, true, &chromium));
        assert_eq!(coverage_checks(), checks, "a cheap refusal walked the SAN list");
        // Past every cheap check, coverage decides.
        assert!(admits(&c, &ga, IP_A, true, &chromium));
        assert!(!admits(&c, &other, IP_A, true, &chromium));
        assert_eq!(coverage_checks(), checks + 2);
    }

    #[test]
    fn reusable_when_everything_matches() {
        let c = conn(&["www.googletagmanager.com", "www.google-analytics.com"], IP_A, true);
        let refusals = refusals_for(&c, "www.google-analytics.com", IP_A, true, ReusePolicy::chromium());
        assert!(refusals.is_empty());
    }

    #[test]
    fn ip_mismatch_is_the_paper_ip_cause() {
        let c = conn(&["www.googletagmanager.com", "www.google-analytics.com"], IP_A, true);
        let refusals = refusals_for(&c, "www.google-analytics.com", IP_B, true, ReusePolicy::chromium());
        assert_eq!(refusals.to_vec(), [ReuseRefusal::IpMismatch]);
    }

    #[test]
    fn certificate_mismatch_is_the_cert_cause() {
        let c = conn(&["static.klaviyo.com"], IP_A, true);
        let refusals = refusals_for(&c, "fast.a.klaviyo.com", IP_A, true, ReusePolicy::chromium());
        assert_eq!(refusals.to_vec(), [ReuseRefusal::CertificateMismatch]);
    }

    #[test]
    fn credentials_partition_is_the_cred_cause() {
        let c = conn(&["fonts.gstatic.com", "www.gstatic.com"], IP_A, true);
        // Cross-origin font fetch: no credentials, same IP, covered by SAN.
        let strict = refusals_for(&c, "fonts.gstatic.com", IP_A, false, ReusePolicy::chromium());
        assert_eq!(strict.to_vec(), [ReuseRefusal::CredentialsMismatch]);
        // The patched browser ("Alexa w/o Fetch") reuses it.
        let patched =
            refusals_for(&c, "fonts.gstatic.com", IP_A, false, ReusePolicy::chromium_without_fetch());
        assert!(patched.is_empty());
    }

    #[test]
    fn multiple_reasons_are_all_reported() {
        let c = conn(&["static.klaviyo.com"], IP_A, true);
        let refusals = refusals_for(&c, "fast.a.klaviyo.com", IP_B, false, ReusePolicy::chromium());
        assert!(refusals.contains(ReuseRefusal::CertificateMismatch));
        assert!(refusals.contains(ReuseRefusal::IpMismatch));
        assert!(refusals.contains(ReuseRefusal::CredentialsMismatch));
        assert_eq!(refusals.len(), 3);
        // Iteration follows the `Ord` order of the reasons.
        assert_eq!(
            refusals.iter().collect::<Vec<_>>(),
            [ReuseRefusal::IpMismatch, ReuseRefusal::CertificateMismatch, ReuseRefusal::CredentialsMismatch]
        );
    }

    #[test]
    fn http_421_exclusion_blocks_reuse() {
        let mut c = conn(&["www.example.com", "api.example.com"], IP_A, true);
        c.send_request().unwrap();
        c.complete_response(&d("api.example.com"), 421, 0);
        let refusals = refusals_for(&c, "api.example.com", IP_A, true, ReusePolicy::chromium());
        assert!(refusals.contains(ReuseRefusal::ExcludedByServer));
    }

    #[test]
    fn origin_frame_substitutes_for_ip_match_when_honored() {
        let mut c = conn(&["cdn.example.com", "img.example.com"], IP_A, true);
        c.receive_origin_set([d("img.example.com")]);
        // Different IP, but origin-set membership + cert coverage suffice
        // when the client honours RFC 8336.
        let honored = refusals_for(&c, "img.example.com", IP_B, true, ReusePolicy::with_origin_frame());
        assert!(honored.is_empty());
        // Chromium ignores the frame, so the IP mismatch still refuses reuse.
        let chromium = refusals_for(&c, "img.example.com", IP_B, true, ReusePolicy::chromium());
        assert_eq!(chromium.to_vec(), [ReuseRefusal::IpMismatch]);
    }

    #[test]
    fn origin_frame_restricts_non_members() {
        let mut c = conn(&["cdn.example.com", "img.example.com", "other.example.com"], IP_A, true);
        c.receive_origin_set([d("img.example.com")]);
        let refusals = refusals_for(&c, "other.example.com", IP_A, true, ReusePolicy::with_origin_frame());
        assert!(refusals.contains(ReuseRefusal::NotInOriginSet));
    }

    #[test]
    fn mitigation_policy_with_empty_set_is_chromium() {
        assert_eq!(
            ReusePolicy::with_mitigations(MitigationSet::empty()),
            ReusePolicy { strict_origin_set: false, ..ReusePolicy::chromium() }
        );
        let c = conn(&["www.example.com"], IP_A, true);
        // Without an announced origin set the strictness flag is inert.
        let refusals = refusals_for(
            &c,
            "www.example.com",
            IP_B,
            true,
            ReusePolicy::with_mitigations(MitigationSet::empty()),
        );
        assert_eq!(refusals.to_vec(), [ReuseRefusal::IpMismatch]);
    }

    #[test]
    fn relaxed_origin_set_honoring_never_adds_refusals() {
        let mut c = conn(&["cdn.example.com", "img.example.com", "other.example.com"], IP_A, true);
        c.receive_origin_set([d("img.example.com")]);
        let relaxed = ReusePolicy::with_mitigations(MitigationSet::single(Mitigation::OriginFrames));
        // Membership substitutes for the IP check, as in strict mode.
        assert!(refusals_for(&c, "img.example.com", IP_B, true, relaxed).is_empty());
        // Non-members fall back to the IP rule instead of refusing outright.
        assert!(refusals_for(&c, "other.example.com", IP_A, true, relaxed).is_empty());
        let mismatch = refusals_for(&c, "other.example.com", IP_B, true, relaxed);
        assert_eq!(mismatch.to_vec(), [ReuseRefusal::IpMismatch]);
        // The strict RFC 8336 client still refuses the same non-member.
        let strict = refusals_for(&c, "other.example.com", IP_A, true, ReusePolicy::with_origin_frame());
        assert!(strict.contains(ReuseRefusal::NotInOriginSet));
    }

    #[test]
    fn credential_pooling_mitigation_drops_the_cred_refusal() {
        let c = conn(&["fonts.gstatic.com", "www.gstatic.com"], IP_A, true);
        let pooled = ReusePolicy::with_mitigations(MitigationSet::single(Mitigation::CredentialPooling));
        assert!(refusals_for(&c, "fonts.gstatic.com", IP_A, false, pooled).is_empty());
    }

    #[test]
    fn scheme_port_and_lifecycle_checks() {
        let mut c = conn(&["www.example.com"], IP_A, true);
        let other_port = Origin::new(netsim_types::Scheme::Https, d("www.example.com"), 8443);
        let refusals = evaluate_set(&c, &other_port, IP_A, true, &ReusePolicy::chromium());
        assert!(refusals.contains(ReuseRefusal::SchemePortMismatch));
        assert!(!admits(&c, &other_port, IP_A, true, &ReusePolicy::chromium()));
        c.receive_goaway();
        let draining = refusals_for(&c, "www.example.com", IP_A, true, ReusePolicy::chromium());
        assert!(draining.contains(ReuseRefusal::NotAcceptingStreams));
    }
}
