//! Deterministic fault injection and recovery policy.
//!
//! The cost engine prices the redundancy tax under a perfect network; this
//! module prices the other side of the trade: connection reuse and
//! coalescing concentrate a page on fewer connections, so one reset or dead
//! pooled connection has a larger blast radius, while sharding spreads it.
//!
//! [`FaultProfile`] holds integer parts-per-million rates for five failure
//! processes (the same style as the loss model — integers only, `0` means
//! the process is off *and consumes no randomness*):
//!
//! - **DNS failure** — a SERVFAIL/lost query before the authority walk runs.
//! - **TLS handshake failure** — the dial burns its full setup latency and
//!   the client's first flight, then aborts.
//! - **Mid-transfer reset** — the transport dies under an in-flight request;
//!   the request is retried on a fresh connection.
//! - **Dead on reuse** — a parked pooled connection turns out to be dead when
//!   the session lends it out (the server hung up while it idled).
//! - **GOAWAY mid-page** — the server announces shutdown after a response;
//!   in-flight streams finish but the connection accepts no new ones.
//!
//! All draws come from a per-visit `fork("fault")` of the visit RNG, so the
//! fault stream never perturbs the loader's existing draws: with every rate
//! at zero, runs are byte-identical to a build without this module. See
//! ARCHITECTURE.md ("The failure model & recovery") for the draw ordering
//! contract.
//!
//! [`RetryPolicy`] bounds recovery: attempts per resource, exponential
//! backoff with deterministic jitter charged to the virtual clock, and a
//! per-resource stage budget that caps the total backoff wait. When retries
//! exhaust, the visit degrades gracefully — the resource is counted in
//! [`VisitOutcome::Degraded`] instead of panicking the crawl.

use netsim_types::{Duration, SimRng};

/// Integer-ppm rates for the five failure processes. `Default` is fully
/// inert: every rate zero, no randomness consumed anywhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultProfile {
    /// Probability (ppm) that one DNS resolution attempt fails.
    pub dns_failure_ppm: u32,
    /// Probability (ppm) that one TLS dial attempt fails after burning its
    /// full setup latency.
    pub tls_failure_ppm: u32,
    /// Probability (ppm) that one request's transfer is cut by a transport
    /// reset.
    pub reset_ppm: u32,
    /// Probability (ppm) that a pooled connection is dead when lent.
    pub dead_on_reuse_ppm: u32,
    /// Probability (ppm) that the server sends GOAWAY after a response.
    pub goaway_ppm: u32,
}

impl FaultProfile {
    /// Every process at the same rate — the chaos experiment's failure
    /// levels.
    pub fn uniform(ppm: u32) -> Self {
        FaultProfile {
            dns_failure_ppm: ppm,
            tls_failure_ppm: ppm,
            reset_ppm: ppm,
            dead_on_reuse_ppm: ppm,
            goaway_ppm: ppm,
        }
    }
}

/// Bounded-retry policy: how a visit recovers from an injected fault.
///
/// All quantities are integers on the virtual clock. The backoff before
/// attempt `k` (the first attempt is `1` and waits nothing) is
/// `base_backoff × multiplier^(k-2)` plus a deterministic additive jitter of
/// up to `jitter_ppm` parts-per-million of the backoff, drawn from the
/// visit's fault stream. Cumulative backoff per resource is capped by
/// `stage_budget`: a retry whose wait would burst the budget is abandoned
/// instead, degrading the visit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per resource stage (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_backoff: Duration,
    /// Multiplier applied to the backoff on each further attempt.
    pub backoff_multiplier: u64,
    /// Additive jitter ceiling, in parts-per-million of the backoff.
    pub jitter_ppm: u32,
    /// Cap on the *cumulative* backoff wait per resource.
    pub stage_budget: Duration,
    /// Hedge new dials: race a second connection attempt against the first
    /// (Vulimiri et al., "Low Latency via Redundancy"). A dial then only
    /// fails when *both* attempts draw a failure, it pays no backoff —
    /// the hedge was already in flight — and every hedged dial charges a
    /// second handshake's octets to the wire.
    pub hedged_dials: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(100),
            backoff_multiplier: 2,
            jitter_ppm: 250_000,
            stage_budget: Duration::from_secs(10),
            hedged_dials: false,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff charged before attempt `attempt` (1-based).
    /// Attempt 1 waits nothing, and so does every attempt under a hedged
    /// policy (the redundant dial was already racing). Consumes exactly one
    /// draw from `rng` when a nonzero-jitter wait is computed, none
    /// otherwise.
    pub fn backoff_before(&self, attempt: u32, rng: &mut SimRng) -> Duration {
        if attempt <= 1 || self.hedged_dials {
            return Duration::ZERO;
        }
        let exponent = attempt.saturating_sub(2);
        let factor = self.backoff_multiplier.saturating_pow(exponent);
        let base = self.base_backoff.as_millis().saturating_mul(factor);
        let jitter = if self.jitter_ppm == 0 || base == 0 {
            0
        } else {
            let draw = rng.in_range(0..=self.jitter_ppm) as u64;
            base.saturating_mul(draw) / 1_000_000
        };
        Duration::from_millis(base.saturating_add(jitter))
    }

    /// Attempts clamped to at least one, so a malformed policy can never
    /// suppress the first try.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// How a page visit ended once the fault layer has had its say.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VisitOutcome {
    /// Every resource was fetched (possibly after retries).
    #[default]
    Complete,
    /// Some resources exhausted their retry budget and were abandoned; the
    /// page rendered without them.
    Degraded {
        /// Resources given up on.
        failed_resources: u64,
    },
}

impl VisitOutcome {
    /// Build the outcome from a failed-resource count.
    pub fn from_failures(failed_resources: u64) -> Self {
        if failed_resources == 0 {
            VisitOutcome::Complete
        } else {
            VisitOutcome::Degraded { failed_resources }
        }
    }

    /// `true` for [`VisitOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, VisitOutcome::Complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_profile_is_inert() {
        assert_eq!(FaultProfile::uniform(0), FaultProfile::default());
    }

    #[test]
    fn backoff_grows_exponentially_and_first_attempt_is_free() {
        let policy = RetryPolicy { jitter_ppm: 0, ..Default::default() };
        let mut rng = SimRng::new(1);
        assert_eq!(policy.backoff_before(1, &mut rng), Duration::ZERO);
        assert_eq!(policy.backoff_before(2, &mut rng), Duration::from_millis(100));
        assert_eq!(policy.backoff_before(3, &mut rng), Duration::from_millis(200));
        assert_eq!(policy.backoff_before(4, &mut rng), Duration::from_millis(400));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_additive() {
        let policy = RetryPolicy::default(); // jitter_ppm = 250_000 → ≤ +25 %
        let a = policy.backoff_before(2, &mut SimRng::new(9));
        let b = policy.backoff_before(2, &mut SimRng::new(9));
        assert_eq!(a, b, "same seed, same wait");
        assert!(a >= Duration::from_millis(100));
        assert!(a <= Duration::from_millis(125));
    }

    #[test]
    fn zero_jitter_consumes_no_randomness() {
        let policy = RetryPolicy { jitter_ppm: 0, ..Default::default() };
        let mut drawn = SimRng::new(4);
        let mut untouched = SimRng::new(4);
        let _ = policy.backoff_before(3, &mut drawn);
        assert_eq!(drawn.in_range(0..=u64::MAX), untouched.in_range(0..=u64::MAX));
    }

    #[test]
    fn hedged_policies_never_wait() {
        let policy = RetryPolicy { hedged_dials: true, ..Default::default() };
        let mut rng = SimRng::new(2);
        for attempt in 1..=4 {
            assert_eq!(policy.backoff_before(attempt, &mut rng), Duration::ZERO);
        }
    }

    #[test]
    fn attempts_are_clamped_to_at_least_one() {
        assert_eq!(RetryPolicy { max_attempts: 0, ..Default::default() }.attempts(), 1);
        assert_eq!(RetryPolicy::default().attempts(), 3);
    }

    #[test]
    fn outcome_reports_failed_resources() {
        assert!(VisitOutcome::from_failures(0).is_complete());
        assert_eq!(VisitOutcome::from_failures(2), VisitOutcome::Degraded { failed_resources: 2 });
        assert_eq!(VisitOutcome::default(), VisitOutcome::Complete);
    }
}
