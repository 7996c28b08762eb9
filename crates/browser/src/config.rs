//! Browser configuration.
//!
//! The knobs mirror the measurement setup described in §4.2.2 of the paper:
//! Chromium 87 with a 300 s page-load timeout, certificate errors not
//! ignored, caches reset between visits — plus the one deliberate patch the
//! authors apply for their second Alexa run, ignoring the Fetch credentials
//! flag (`privacy_mode`). The authors also disabled QUIC and Chromium's field
//! trials; the model needs no knob for either, since it speaks only HTTP/2
//! and has no field trials.

use crate::fault::{FaultProfile, RetryPolicy};
use netsim_cost::LinkProfile;
use netsim_dns::ResolverId;
use netsim_h2::reuse::ReusePolicy;
use netsim_tls::HandshakeConfig;
use netsim_types::{Duration, MitigationSet};
use serde::{Deserialize, Serialize};

/// How connection end times are produced by the simulation.
///
/// HAR files only carry request times, so the paper evaluates two bounds for
/// the HTTP Archive ("endless" and "immediate"); the own measurements know
/// real end times, where most connections stay open until the test ends and
/// the few that close early live a median of ~122 s.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ConnectionDurationModel {
    /// Connections stay open until the visit ends (no recorded close).
    KeepOpen,
    /// A fraction of connections is closed early by server idle timeouts;
    /// the rest stay open. Mirrors the 3.5 % / 122.2 s observation.
    IdleTimeouts {
        /// Probability that a connection closes before the visit ends.
        close_probability: f64,
        /// Median lifetime of the early-closing connections, in seconds.
        median_lifetime_secs: u64,
    },
}

/// Full browser configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BrowserConfig {
    /// Connection-reuse policy (Fetch credentials partition, ORIGIN frames).
    /// Simulated servers announce an RFC 8336 ORIGIN frame — every exact DNS
    /// name of the presented certificate — on each new connection exactly
    /// when the policy honours ORIGIN frames (Chromium does not, so only the
    /// what-if deployments announce them).
    pub reuse_policy: ReusePolicy,
    /// TLS/TCP handshake cost model.
    pub handshake: HandshakeConfig,
    /// Base round-trip time to any server, in milliseconds.
    pub base_rtt_ms: u64,
    /// Downstream bandwidth in bytes per millisecond (~ kB/ms).
    pub bandwidth_bytes_per_ms: u64,
    /// Packet-loss probability of the access link in parts per million.
    /// Handshake round trips are retransmission-inflated accordingly
    /// (`netsim_cost::loss_retransmit_extra`); 0 — the measurement default —
    /// reproduces the historical loss-free behaviour exactly.
    pub loss_ppm: u32,
    /// How connection end times are generated.
    pub duration_model: ConnectionDurationModel,
    /// Page-load timeout (requests beyond it are dropped).
    pub page_timeout: Duration,
    /// Identity of the recursive resolver the browser uses (part of the
    /// authoritative load-balancing key, so two crawlers with different
    /// resolvers see different pool members).
    pub resolver: ResolverId,
    /// Seconds of simulated spacing between consecutive site visits during a
    /// crawl (advances the global clock, which matters for time-varying DNS).
    pub visit_spacing_secs: u64,
    /// Integer-ppm failure processes injected along the visit fast path. The
    /// default is fully inert (all rates zero, no randomness consumed), which
    /// reproduces the historical fault-free behaviour exactly.
    pub faults: FaultProfile,
    /// How the loader recovers from injected faults: bounded attempts,
    /// exponential backoff with deterministic jitter, a per-resource stage
    /// budget, and the optional hedged-dial mitigation.
    pub retry: RetryPolicy,
}

impl Default for BrowserConfig {
    fn default() -> Self {
        BrowserConfig {
            reuse_policy: ReusePolicy::chromium(),
            handshake: HandshakeConfig::default(),
            base_rtt_ms: 30,
            bandwidth_bytes_per_ms: 6_000,
            loss_ppm: 0,
            duration_model: ConnectionDurationModel::IdleTimeouts {
                close_probability: 0.035,
                median_lifetime_secs: 122,
            },
            page_timeout: Duration::from_secs(300),
            resolver: ResolverId(1000),
            visit_spacing_secs: 3,
            faults: FaultProfile::default(),
            retry: RetryPolicy::default(),
        }
    }
}

impl BrowserConfig {
    /// The configuration of the paper's own Alexa measurement (Chromium 87,
    /// Fetch credentials respected, the university's own resolver).
    pub fn alexa_measurement() -> Self {
        BrowserConfig::default()
    }

    /// The paper's second Alexa run: Chromium patched to ignore the Fetch
    /// credentials flag.
    pub fn alexa_without_fetch() -> Self {
        BrowserConfig { reuse_policy: ReusePolicy::chromium_without_fetch(), ..BrowserConfig::default() }
    }

    /// The HTTP-Archive crawler: a North-American vantage with its own
    /// resolver; connection end times are unknown (HAR only), so connections
    /// are kept open.
    pub fn http_archive_crawler() -> Self {
        BrowserConfig {
            duration_model: ConnectionDurationModel::KeepOpen,
            resolver: ResolverId(2000),
            visit_spacing_secs: 1,
            ..BrowserConfig::default()
        }
    }

    /// A what-if deployment in which servers announce RFC 8336 ORIGIN frames
    /// and the client honours them (neither is true in the measured web).
    pub fn with_origin_frames() -> Self {
        BrowserConfig { reuse_policy: ReusePolicy::with_origin_frame(), ..BrowserConfig::default() }
    }

    /// The browser-side deployment of a mitigation combination, measured like
    /// the paper's Alexa run: the reuse policy honours ORIGIN frames and/or
    /// drops the credentials partition per
    /// [`ReusePolicy::with_mitigations`], so servers announce origin sets
    /// exactly when [`netsim_types::Mitigation::OriginFrames`] is deployed.
    /// All other knobs stay at the measurement defaults so sweep cells differ
    /// only in the mitigation under test.
    pub fn with_mitigations(mitigations: MitigationSet) -> Self {
        BrowserConfig { reuse_policy: ReusePolicy::with_mitigations(mitigations), ..BrowserConfig::default() }
    }

    /// Check the configuration for values that are always a
    /// misconfiguration, independent of scenario.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_ms` is zero. The transfer-time model
    /// divides by it; clamping the divisor at the point of use (as the
    /// loader once did) silently turned a typo into a semantically different
    /// simulation. [`crate::Browser::new`] and
    /// [`crate::Browser::with_id_base`] call this, so an unusable
    /// configuration fails loudly before any visit runs —
    /// [`netsim_cost::LinkProfile::new`] enforces the same invariant on the
    /// profile side.
    pub fn assert_valid(&self) {
        assert!(
            self.bandwidth_bytes_per_ms > 0,
            "BrowserConfig.bandwidth_bytes_per_ms is zero; the transfer-time model divides by it — \
             configure a positive bandwidth"
        );
    }

    /// Run this configuration over the given network path: RTT, bandwidth
    /// and loss come from the [`LinkProfile`]; every policy knob is left
    /// untouched. One profile knob turns any scenario into a family of
    /// workloads (datacenter / broadband / lossy cellular).
    pub fn over_link(mut self, link: &LinkProfile) -> Self {
        self.base_rtt_ms = link.rtt_ms;
        self.bandwidth_bytes_per_ms = link.bandwidth_bytes_per_ms;
        self.loss_ppm = link.loss_ppm;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_types::Mitigation;

    #[test]
    fn presets_differ_where_the_paper_says_they_do() {
        let alexa = BrowserConfig::alexa_measurement();
        let patched = BrowserConfig::alexa_without_fetch();
        assert!(alexa.reuse_policy.follow_fetch_credentials);
        assert!(!patched.reuse_policy.follow_fetch_credentials);
        assert_eq!(alexa.resolver, ResolverId(1000));

        let archive = BrowserConfig::http_archive_crawler();
        assert_eq!(archive.duration_model, ConnectionDurationModel::KeepOpen);
        assert_eq!(archive.resolver, ResolverId(2000));
    }

    #[test]
    fn mitigation_presets_flip_the_right_knobs() {
        let none = BrowserConfig::with_mitigations(MitigationSet::empty());
        assert!(none.reuse_policy.follow_fetch_credentials);
        assert!(!none.reuse_policy.honor_origin_frame);

        let origin = BrowserConfig::with_mitigations(MitigationSet::single(Mitigation::OriginFrames));
        assert!(origin.reuse_policy.honor_origin_frame);
        assert!(!origin.reuse_policy.strict_origin_set);

        let pooled = BrowserConfig::with_mitigations(MitigationSet::single(Mitigation::CredentialPooling));
        assert!(!pooled.reuse_policy.follow_fetch_credentials);
        assert!(!pooled.reuse_policy.honor_origin_frame);

        // Environment-side mitigations leave the browser untouched.
        let dns = BrowserConfig::with_mitigations(MitigationSet::single(Mitigation::SynchronizedDns));
        assert_eq!(dns.reuse_policy, none.reuse_policy);
    }

    #[test]
    fn defaults_match_methodology() {
        let cfg = BrowserConfig::default();
        assert_eq!(cfg.faults, FaultProfile::default(), "measurement presets inject no faults");
        assert!(!cfg.retry.hedged_dials);
        assert!(!cfg.reuse_policy.honor_origin_frame, "Chromium ignores ORIGIN frames");
        assert_eq!(cfg.page_timeout, Duration::from_secs(300));
        assert_eq!(cfg.loss_ppm, 0, "the measurement setup models a loss-free path");
        assert!(matches!(cfg.duration_model, ConnectionDurationModel::IdleTimeouts { .. }));
    }

    #[test]
    #[should_panic(expected = "bandwidth_bytes_per_ms is zero")]
    fn zero_bandwidth_is_rejected() {
        let config = BrowserConfig { bandwidth_bytes_per_ms: 0, ..BrowserConfig::default() };
        config.assert_valid();
    }

    #[test]
    fn link_profiles_set_only_the_path_parameters() {
        let cell = BrowserConfig::alexa_measurement().over_link(&LinkProfile::lossy_cellular());
        assert_eq!(cell.base_rtt_ms, 120);
        assert_eq!(cell.bandwidth_bytes_per_ms, 1_500);
        assert_eq!(cell.loss_ppm, 20_000);
        // Policy knobs are untouched by the link.
        assert_eq!(cell.reuse_policy, BrowserConfig::alexa_measurement().reuse_policy);
        assert_eq!(cell.page_timeout, Duration::from_secs(300));
        // Broadband is the historical default path.
        let broadband = BrowserConfig::alexa_measurement().over_link(&LinkProfile::broadband());
        assert_eq!(broadband.base_rtt_ms, BrowserConfig::default().base_rtt_ms);
        assert_eq!(broadband.bandwidth_bytes_per_ms, BrowserConfig::default().bandwidth_bytes_per_ms);
    }
}
