//! Link profiles: the network conditions a crawl is priced under.
//!
//! A [`LinkProfile`] bundles the three path parameters the cost model needs —
//! round-trip time, downstream bandwidth and packet loss — into one named
//! knob. The presets mirror the environments the related work measures:
//!
//! * [`LinkProfile::datacenter`] — the vantage the paper's own crawl ran
//!   from: ~2 ms to well-peered servers, effectively loss-free.
//! * [`LinkProfile::broadband`] — a residential access link. RTT and
//!   bandwidth are deliberately identical to the browser substrate's
//!   historical defaults (30 ms, 6 000 bytes/ms). Its 0.1 % loss rate
//!   amounts to ~60 µs per two-round-trip setup — less than a whole
//!   millisecond per connection, which is why the penalty is computed in
//!   **microseconds** ([`loss_retransmit_extra_micros`]) and carried as a
//!   sub-millisecond remainder across a visit's connections instead of
//!   being truncated per call (per-call truncation charged broadband
//!   exactly zero on every setup, a free ride the aggregate loss tax
//!   inherited across millions of connections).
//! * [`LinkProfile::lossy_cellular`] — the lossy cellular path of Goel et
//!   al.: ~120 ms RTT, ~12 Mbit/s and 2 % packet loss, where every extra
//!   handshake hurts the most.
//!
//! Loss is carried as **parts per million** and the retransmission penalty
//! ([`loss_retransmit_extra`]) is pure integer arithmetic, so every derived
//! cost is bit-identical across machines and thread counts.

use netsim_types::Duration;

/// Named RTT / bandwidth / loss parameters of one simulated network path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkProfile {
    /// Human-readable preset name (report headings).
    pub name: String,
    /// Round-trip time to any server, in milliseconds.
    pub rtt_ms: u64,
    /// Downstream bandwidth in bytes per millisecond (~ kB/ms).
    pub bandwidth_bytes_per_ms: u64,
    /// Packet-loss probability in parts per million (20 000 = 2 %).
    pub loss_ppm: u32,
}

impl LinkProfile {
    /// Build a profile, rejecting unusable parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_ms` is zero. A zero-bandwidth link is
    /// always a misconfiguration — the transfer-time model divides by it —
    /// and masking it (the model once clamped the divisor to 1 at the point
    /// of use) silently turned every body into a multi-second transfer.
    /// Constructing the profile is where the mistake is visible; reject it
    /// there.
    pub fn new(name: &str, rtt_ms: u64, bandwidth_bytes_per_ms: u64, loss_ppm: u32) -> Self {
        assert!(
            bandwidth_bytes_per_ms > 0,
            "link profile {name:?} has zero bandwidth; bandwidth_bytes_per_ms must be positive"
        );
        LinkProfile { name: name.to_string(), rtt_ms, bandwidth_bytes_per_ms, loss_ppm }
    }

    /// A well-peered datacenter / university vantage: 2 ms, 1 Gbit/s, no
    /// loss.
    pub fn datacenter() -> Self {
        LinkProfile::new("datacenter", 2, 125_000, 0)
    }

    /// A residential broadband link — the browser substrate's historical
    /// defaults, so this preset reprices existing crawls without changing
    /// their behaviour.
    pub fn broadband() -> Self {
        LinkProfile::new("broadband", 30, 6_000, 1_000)
    }

    /// The lossy cellular path of Goel et al.: 120 ms, ~12 Mbit/s, 2 % loss.
    pub fn lossy_cellular() -> Self {
        LinkProfile::new("lossy-cellular", 120, 1_500, 20_000)
    }

    /// Number of [`LinkProfile::presets`].
    pub const PRESET_COUNT: usize = 3;

    /// The three presets, in increasing order of per-connection pain.
    pub fn presets() -> Vec<LinkProfile> {
        (0..LinkProfile::PRESET_COUNT).filter_map(LinkProfile::preset).collect()
    }

    /// Preset `index` in [`LinkProfile::presets`] order, built alone; `None`
    /// past the last preset.
    pub fn preset(index: usize) -> Option<LinkProfile> {
        match index {
            0 => Some(LinkProfile::datacenter()),
            1 => Some(LinkProfile::broadband()),
            2 => Some(LinkProfile::lossy_cellular()),
            _ => None,
        }
    }

    /// The round-trip time as a [`Duration`].
    pub fn rtt(&self) -> Duration {
        Duration::from_millis(self.rtt_ms)
    }

    /// Wall-clock time for `rtts` sequential round trips over this link,
    /// including the expected retransmission penalty of its loss rate.
    pub fn time_for_rtts(&self, rtts: u64) -> Duration {
        self.rtt().saturating_mul(rtts) + loss_retransmit_extra(self.rtt(), rtts, self.loss_ppm)
    }
}

/// Expected extra latency that packet loss adds to `rtts` sequential round
/// trips, in **microseconds**: each round trip is retried with probability
/// `p`, costing one more RTT, so the expected overhead is
/// `rtts × p / (1 − p)` round trips.
///
/// Computed in pure integer arithmetic over parts-per-million so the result
/// is deterministic everywhere; `loss_ppm = 0` yields exactly `0`, which
/// keeps loss-free configurations byte-identical to the pre-cost-model
/// behaviour. Microsecond resolution is the whole point: broadband's
/// 1 000 ppm over a 2-RTT setup is worth 60 µs — real money across millions
/// of connections, invisible to any per-call whole-millisecond rounding.
/// Callers that charge the integer-millisecond virtual clock accumulate
/// these exact values and round **once per visit** (the loader keeps a
/// sub-millisecond carry in its scratch), never once per connection.
pub fn loss_retransmit_extra_micros(rtt: Duration, rtts: u64, loss_ppm: u32) -> u64 {
    if loss_ppm == 0 || rtts == 0 {
        return 0;
    }
    let ppm = u64::from(loss_ppm.min(999_999));
    rtt.as_millis().saturating_mul(1_000).saturating_mul(rtts).saturating_mul(ppm) / (1_000_000 - ppm)
}

/// [`loss_retransmit_extra_micros`] truncated to a whole-millisecond
/// [`Duration`] — the aggregate repricing form ([`LinkProfile::time_for_rtts`]
/// calls it once over a crawl's total round trips, where the sub-millisecond
/// remainder is noise). Per-connection callers must use the microsecond form
/// and carry the remainder; truncating here per call is exactly the
/// free-ride bug the microsecond split fixed.
pub fn loss_retransmit_extra(rtt: Duration, rtts: u64, loss_ppm: u32) -> Duration {
    Duration::from_millis(loss_retransmit_extra_micros(rtt, rtts, loss_ppm) / 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_escalate_in_per_connection_pain() {
        let [dc, bb, cell] = <[LinkProfile; 3]>::try_from(LinkProfile::presets()).unwrap();
        assert!(dc.rtt_ms < bb.rtt_ms && bb.rtt_ms < cell.rtt_ms);
        assert!(dc.bandwidth_bytes_per_ms > bb.bandwidth_bytes_per_ms);
        assert!(bb.bandwidth_bytes_per_ms > cell.bandwidth_bytes_per_ms);
        assert!(dc.loss_ppm < bb.loss_ppm && bb.loss_ppm < cell.loss_ppm);
        assert_eq!(dc.name, "datacenter");
        assert_eq!(LinkProfile::preset(LinkProfile::PRESET_COUNT), None, "PRESET_COUNT is the last one");
    }

    #[test]
    fn broadband_matches_the_browser_defaults() {
        // Pricing under `broadband` describes the substrate's historical
        // 30 ms / 6 000 bytes-per-ms configuration, and its 0.1 % loss is
        // worth 60 µs per 2-round-trip setup (90 µs per 3). The whole-
        // millisecond form still truncates a single setup to zero — which
        // is precisely why per-connection callers must use the microsecond
        // form and carry the remainder across the visit (the loader does;
        // ~17 broadband setups accumulate into a real millisecond instead
        // of riding free).
        let bb = LinkProfile::broadband();
        assert_eq!(bb.rtt_ms, 30);
        assert_eq!(bb.bandwidth_bytes_per_ms, 6_000);
        assert_eq!(loss_retransmit_extra_micros(bb.rtt(), 2, bb.loss_ppm), 60);
        assert_eq!(loss_retransmit_extra_micros(bb.rtt(), 3, bb.loss_ppm), 90);
        assert_eq!(loss_retransmit_extra(bb.rtt(), 2, bb.loss_ppm), Duration::ZERO);
        // 17 two-RTT setups: 17 × 60 µs = 1 020 µs — one whole millisecond
        // a per-call truncation would have dropped entirely.
        assert_eq!(loss_retransmit_extra_micros(bb.rtt(), 2 * 17, bb.loss_ppm) / 1_000, 1);
    }

    #[test]
    fn micros_and_millis_forms_agree_on_the_floor() {
        // The Duration form is exactly the microsecond form truncated to
        // whole milliseconds, for every profile and round-trip count.
        for profile in LinkProfile::presets() {
            for rtts in [0, 1, 2, 3, 10, 1_000] {
                assert_eq!(
                    loss_retransmit_extra(profile.rtt(), rtts, profile.loss_ppm),
                    Duration::from_millis(
                        loss_retransmit_extra_micros(profile.rtt(), rtts, profile.loss_ppm) / 1_000
                    ),
                    "{} × {rtts}",
                    profile.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_is_rejected_at_construction() {
        let _ = LinkProfile::new("broken", 30, 0, 0);
    }

    #[test]
    fn zero_loss_adds_zero_latency() {
        let rtt = Duration::from_millis(30);
        assert_eq!(loss_retransmit_extra(rtt, 1_000, 0), Duration::ZERO);
        assert_eq!(loss_retransmit_extra(rtt, 0, 20_000), Duration::ZERO);
    }

    #[test]
    fn loss_penalty_is_monotone_in_loss_and_rtts() {
        let rtt = Duration::from_millis(120);
        // 2 % loss over 1000 round trips: 120 000 ms × 20000 / 980000 ≈ 2448 ms.
        assert_eq!(loss_retransmit_extra(rtt, 1_000, 20_000), Duration::from_millis(2_448));
        assert!(loss_retransmit_extra(rtt, 1_000, 50_000) > loss_retransmit_extra(rtt, 1_000, 20_000));
        assert!(loss_retransmit_extra(rtt, 2_000, 20_000) > loss_retransmit_extra(rtt, 1_000, 20_000));
    }

    #[test]
    fn time_for_rtts_composes_base_and_penalty() {
        let cell = LinkProfile::lossy_cellular();
        let base = cell.rtt().saturating_mul(10);
        assert!(cell.time_for_rtts(10) > base);
        let dc = LinkProfile::datacenter();
        assert_eq!(dc.time_for_rtts(10), Duration::from_millis(20));
    }
}
