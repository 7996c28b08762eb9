//! TLS handshake cost model.
//!
//! Section 2.1 of the paper motivates connection reuse with the latency price
//! of every additional connection: one RTT for the TCP handshake plus one or
//! two more for TLS, plus slow-start. The browser substrate charges this cost
//! when it opens a connection so that page-load timelines (and the ablation
//! benches quantifying the price of redundancy) are meaningful.

use netsim_types::Duration;

/// TLS protocol version; determines the number of handshake round trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TlsVersion {
    /// TLS 1.2 — 2 round trips for a full handshake.
    Tls12,
    /// TLS 1.3 — 1 round trip for a full handshake.
    Tls13,
}

impl TlsVersion {
    /// Full-handshake round trips for this version.
    pub const fn handshake_rtts(self) -> u32 {
        match self {
            TlsVersion::Tls12 => 2,
            TlsVersion::Tls13 => 1,
        }
    }
}

/// Parameters of the connection-establishment cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HandshakeConfig {
    /// TLS version spoken by both endpoints.
    pub version: TlsVersion,
    /// Whether TLS session resumption (or 0-RTT) skips one round trip.
    pub session_resumption: bool,
    /// Whether the transport is QUIC (combines transport + TLS handshake).
    pub quic: bool,
}

impl Default for HandshakeConfig {
    fn default() -> Self {
        // The measurement setup: Chromium 87 with QUIC disabled, TLS 1.3,
        // cold caches (caches are reset between visits, so no resumption).
        HandshakeConfig { version: TlsVersion::Tls13, session_resumption: false, quic: false }
    }
}

impl HandshakeConfig {
    /// Number of network round trips needed before the first HTTP request can
    /// be sent on a *new* connection.
    pub fn setup_rtts(&self) -> u32 {
        if self.quic {
            // QUIC merges transport and crypto handshakes; 0-RTT resumes.
            if self.session_resumption {
                0
            } else {
                1
            }
        } else {
            let tcp = 1;
            let tls = if self.session_resumption {
                self.version.handshake_rtts().saturating_sub(1)
            } else {
                self.version.handshake_rtts()
            };
            tcp + tls
        }
    }

    /// The wall-clock setup latency for a path with round-trip time `rtt`.
    pub fn setup_latency(&self, rtt: Duration) -> Duration {
        rtt.times(self.setup_rtts() as u64)
    }

    /// This configuration with session resumption switched on: the tariff a
    /// client pays when it holds a fresh session ticket for the origin. The
    /// multi-page session loader applies it per connection — the *first*
    /// handshake against an origin runs at the configured (usually full)
    /// price and mints the ticket, later ones in the same session resume.
    pub fn resumed(self) -> Self {
        HandshakeConfig { session_resumption: true, ..self }
    }

    /// Approximate octets a *new* connection spends on the wire before the
    /// first HTTP request: transport handshake segments plus the TLS flights.
    ///
    /// Session resumption's byte discount is the dominant one: a resumed
    /// handshake authenticates via ticket/PSK and never retransmits the
    /// certificate chain — by far the heaviest flight. TLS 1.2 pays an extra
    /// legacy key-exchange flight over 1.3; QUIC folds the transport
    /// handshake into the crypto flights, so it skips the TCP segments.
    pub fn handshake_octets(&self) -> u64 {
        let transport = if self.quic { 0 } else { TCP_HANDSHAKE_OCTETS };
        let mut tls = CLIENT_HELLO_OCTETS + SERVER_PARAMS_OCTETS + FINISHED_OCTETS;
        if !self.session_resumption {
            tls += CERTIFICATE_CHAIN_OCTETS;
            if self.version == TlsVersion::Tls12 {
                tls += TLS12_KEY_EXCHANGE_OCTETS;
            }
        }
        transport + tls
    }

    /// Octets a *failed* handshake wastes on the wire: the transport
    /// handshake (if the fault hit after transport setup) plus the client's
    /// first crypto flight. The server's heavy flights never arrive, so an
    /// aborted dial is much cheaper in bytes than a completed one — but it
    /// still burns the full [`HandshakeConfig::setup_latency`] in wall-clock
    /// time before the client notices and retries.
    pub fn aborted_handshake_octets(&self) -> u64 {
        let transport = if self.quic { 0 } else { TCP_HANDSHAKE_OCTETS };
        transport + CLIENT_HELLO_OCTETS
    }
}

/// TCP SYN, SYN-ACK and ACK segments (40 octets of headers each).
pub const TCP_HANDSHAKE_OCTETS: u64 = 120;
/// ClientHello with a contemporary extension block.
const CLIENT_HELLO_OCTETS: u64 = 512;
/// ServerHello plus encrypted extensions / session parameters.
const SERVER_PARAMS_OCTETS: u64 = 256;
/// A typical leaf + intermediate certificate chain — the flight that session
/// resumption elides.
const CERTIFICATE_CHAIN_OCTETS: u64 = 4_096;
/// Finished / ticket flights in both directions.
const FINISHED_OCTETS: u64 = 256;
/// The separate ServerKeyExchange/ClientKeyExchange flights of a full
/// TLS 1.2 handshake.
const TLS12_KEY_EXCHANGE_OCTETS: u64 = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tls13_full_handshake_is_two_rtts_over_tcp() {
        let cfg = HandshakeConfig::default();
        assert_eq!(cfg.setup_rtts(), 2); // 1 TCP + 1 TLS1.3
        assert_eq!(cfg.setup_latency(Duration::from_millis(50)), Duration::from_millis(100));
    }

    #[test]
    fn tls12_adds_a_round_trip() {
        let cfg = HandshakeConfig { version: TlsVersion::Tls12, ..Default::default() };
        assert_eq!(cfg.setup_rtts(), 3);
    }

    #[test]
    fn resumed_enables_resumption_and_keeps_the_rest() {
        let full = HandshakeConfig { version: TlsVersion::Tls12, session_resumption: false, quic: true };
        let resumed = full.resumed();
        assert!(resumed.session_resumption);
        assert_eq!(resumed.version, full.version);
        assert_eq!(resumed.quic, full.quic);
        // Idempotent: resuming an already-resumed config changes nothing.
        assert_eq!(resumed.resumed(), resumed);
    }

    #[test]
    fn resumption_saves_a_round_trip() {
        let cfg = HandshakeConfig { session_resumption: true, ..Default::default() };
        assert_eq!(cfg.setup_rtts(), 1);
        let cfg12 = HandshakeConfig { version: TlsVersion::Tls12, session_resumption: true, quic: false };
        assert_eq!(cfg12.setup_rtts(), 2);
    }

    #[test]
    fn resumption_discount_skips_the_certificate_chain() {
        let full = HandshakeConfig::default();
        let resumed = HandshakeConfig { session_resumption: true, ..Default::default() };
        // The byte discount is exactly the certificate-chain flight.
        assert_eq!(full.handshake_octets() - resumed.handshake_octets(), 4_096);
        assert!(resumed.handshake_octets() > TCP_HANDSHAKE_OCTETS);
    }

    #[test]
    fn handshake_octets_order_tls12_over_tls13_over_quic() {
        let tls13 = HandshakeConfig::default();
        let tls12 = HandshakeConfig { version: TlsVersion::Tls12, ..Default::default() };
        let quic = HandshakeConfig { quic: true, ..Default::default() };
        assert!(tls12.handshake_octets() > tls13.handshake_octets());
        // QUIC skips the TCP segments but still ships the TLS flights.
        assert_eq!(tls13.handshake_octets() - quic.handshake_octets(), TCP_HANDSHAKE_OCTETS);
    }

    #[test]
    fn aborted_handshake_is_cheaper_than_any_completed_one() {
        for cfg in [
            HandshakeConfig::default(),
            HandshakeConfig { version: TlsVersion::Tls12, ..Default::default() },
            HandshakeConfig { session_resumption: true, ..Default::default() },
            HandshakeConfig { quic: true, ..Default::default() },
        ] {
            assert!(cfg.aborted_handshake_octets() < cfg.handshake_octets(), "{cfg:?}");
        }
        assert_eq!(HandshakeConfig::default().aborted_handshake_octets(), TCP_HANDSHAKE_OCTETS + 512);
    }

    #[test]
    fn quic_merges_handshakes() {
        let quic = HandshakeConfig { quic: true, ..Default::default() };
        assert_eq!(quic.setup_rtts(), 1);
        let zero_rtt = HandshakeConfig { quic: true, session_resumption: true, ..Default::default() };
        assert_eq!(zero_rtt.setup_rtts(), 0);
        assert_eq!(zero_rtt.setup_latency(Duration::from_millis(80)), Duration::ZERO);
    }
}
