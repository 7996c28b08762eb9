//! The mitigation model: the deployable fixes the paper's conclusion (§7)
//! proposes against redundant connections, as a small composable vocabulary.
//!
//! Each [`Mitigation`] names one deployment change; a [`MitigationSet`] is any
//! combination of them. The set lives here, in the shared-vocabulary crate,
//! because the individual mitigations plug into different layers of the
//! stack:
//!
//! | mitigation | acts on | layer it changes |
//! |---|---|---|
//! | [`Mitigation::OriginFrames`] | browser | `netsim-h2` reuse policy + `netsim-browser` servers |
//! | [`Mitigation::SynchronizedDns`] | web | `netsim-dns` load balancing + `netsim-web` deployments |
//! | [`Mitigation::CertificateCoalescing`] | web | `netsim-tls` issuance + `netsim-web` certificate groups |
//! | [`Mitigation::CredentialPooling`] | browser | `netsim-h2` reuse policy (collapses the `netsim-fetch` credentials partition) |
//!
//! The experiment harness sweeps all 2^4 = 16 combinations and reports the
//! marginal and combined redundancy reduction of each mitigation. Only the
//! two web mitigations change the generated environment, so the 16
//! combinations deploy 4 distinct webs ([`MitigationSet::environment`]).

/// One deployable mitigation against redundant HTTP/2 connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mitigation {
    /// Servers announce RFC 8336 ORIGIN frames listing the exact DNS names of
    /// their certificate, and clients let origin-set membership substitute
    /// for the IP-equality check — dissolving the paper's `IP` cause where
    /// certificates already span the sharded domains. Acts in the browser:
    /// the frame's origin set is the certificate the web already serves.
    OriginFrames,
    /// Providers synchronize their DNS load balancing (shared CNAME /
    /// anycast-style): co-hosted domains resolve to the *same* pool member
    /// for a given resolver and epoch, so the RFC 7540 IP check succeeds.
    /// Acts on the web: it changes the deployed DNS zones.
    SynchronizedDns,
    /// Operators coalesce their per-domain certificates into one certificate
    /// covering every shard, removing the `CERT` cause. Acts on the web: it
    /// changes the issued certificates.
    CertificateCoalescing,
    /// Clients stop partitioning the HTTP/2 session pool by the Fetch
    /// credentials flag (the paper's patched-Chromium run), removing the
    /// `CRED` cause. Acts in the browser only.
    CredentialPooling,
}

impl Mitigation {
    /// All mitigations in canonical (bit) order.
    pub const ALL: [Mitigation; 4] = [
        Mitigation::OriginFrames,
        Mitigation::SynchronizedDns,
        Mitigation::CertificateCoalescing,
        Mitigation::CredentialPooling,
    ];

    /// The bit this mitigation occupies in a [`MitigationSet`].
    pub fn bit(self) -> u8 {
        match self {
            Mitigation::OriginFrames => 1 << 0,
            Mitigation::SynchronizedDns => 1 << 1,
            Mitigation::CertificateCoalescing => 1 << 2,
            Mitigation::CredentialPooling => 1 << 3,
        }
    }

    /// Short report label.
    pub fn label(self) -> &'static str {
        match self {
            Mitigation::OriginFrames => "ORIGIN",
            Mitigation::SynchronizedDns => "SYNC-DNS",
            Mitigation::CertificateCoalescing => "COALESCE-CERT",
            Mitigation::CredentialPooling => "POOL-CRED",
        }
    }

    /// One-line description for report footers.
    pub fn description(self) -> &'static str {
        match self {
            Mitigation::OriginFrames => "servers announce RFC 8336 ORIGIN frames and clients honour them",
            Mitigation::SynchronizedDns => "providers synchronize DNS answers across co-hosted domains",
            Mitigation::CertificateCoalescing => "operators merge per-shard certificates into one",
            Mitigation::CredentialPooling => "clients drop the Fetch credentials pool partition",
        }
    }
}

impl std::fmt::Display for Mitigation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A combination of [`Mitigation`]s, stored as a 4-bit set.
///
/// The empty set models the measured web (no mitigation deployed); the full
/// set is the paper's best case. [`MitigationSet::all_combinations`]
/// enumerates the whole 2^4 grid in a stable order, which the sweep engine
/// relies on for deterministic sharding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MitigationSet {
    bits: u8,
}

impl MitigationSet {
    /// Number of distinct combinations (2^4).
    pub const COMBINATIONS: usize = 16;

    /// No mitigation deployed — the measured web.
    pub fn empty() -> Self {
        MitigationSet { bits: 0 }
    }

    /// Every mitigation deployed at once.
    pub fn all() -> Self {
        Mitigation::ALL.iter().fold(MitigationSet::empty(), |set, m| set.with(*m))
    }

    /// The set containing exactly one mitigation.
    pub fn single(mitigation: Mitigation) -> Self {
        MitigationSet::empty().with(mitigation)
    }

    /// Reconstruct a set from its bit representation (extra bits are masked).
    pub fn from_bits(bits: u8) -> Self {
        MitigationSet { bits: bits & 0b1111 }
    }

    /// The bit representation (0..16), also the set's grid index.
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// `true` if `mitigation` is in the set.
    pub fn contains(self, mitigation: Mitigation) -> bool {
        self.bits & mitigation.bit() != 0
    }

    /// The set plus `mitigation`.
    #[must_use]
    pub fn with(self, mitigation: Mitigation) -> Self {
        MitigationSet { bits: self.bits | mitigation.bit() }
    }

    /// The set minus `mitigation`.
    #[must_use]
    pub fn without(self, mitigation: Mitigation) -> Self {
        MitigationSet { bits: self.bits & !mitigation.bit() }
    }

    /// The part of the set the web deploys: [`Mitigation::SynchronizedDns`]
    /// and [`Mitigation::CertificateCoalescing`]. [`Mitigation::OriginFrames`]
    /// and [`Mitigation::CredentialPooling`] act only through the browser's
    /// configuration, so two sets with the same environment generate the
    /// same web, and a generated environment is keyed by this projection.
    #[must_use]
    pub fn environment(self) -> Self {
        MitigationSet {
            bits: self.bits & (Mitigation::SynchronizedDns.bit() | Mitigation::CertificateCoalescing.bit()),
        }
    }

    /// `true` for the empty set.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Number of mitigations in the set.
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// The mitigations in the set, in canonical order.
    pub fn iter(self) -> impl Iterator<Item = Mitigation> {
        Mitigation::ALL.into_iter().filter(move |m| self.contains(*m))
    }

    /// Every combination, ordered by bit value: index 0 is the empty set,
    /// index 15 the full set. Stable across runs — the sweep grid order.
    pub fn all_combinations() -> Vec<MitigationSet> {
        (0..Self::COMBINATIONS as u8).map(MitigationSet::from_bits).collect()
    }

    /// Report label: `"none"` for the empty set, otherwise the `+`-joined
    /// mitigation labels (e.g. `"ORIGIN+SYNC-DNS"`).
    pub fn label(self) -> String {
        if self.is_empty() {
            "none".to_string()
        } else {
            self.iter().map(Mitigation::label).collect::<Vec<_>>().join("+")
        }
    }
}

impl std::fmt::Display for MitigationSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations_round_trip() {
        let set = MitigationSet::empty().with(Mitigation::OriginFrames).with(Mitigation::CredentialPooling);
        assert!(set.contains(Mitigation::OriginFrames));
        assert!(set.contains(Mitigation::CredentialPooling));
        assert!(!set.contains(Mitigation::SynchronizedDns));
        assert_eq!(set.len(), 2);
        assert_eq!(set.without(Mitigation::OriginFrames).len(), 1);
        assert_eq!(MitigationSet::from_bits(set.bits()), set);
        assert_eq!(set.label(), "ORIGIN+POOL-CRED");
        assert_eq!(MitigationSet::empty().label(), "none");
    }

    #[test]
    fn all_combinations_cover_the_grid_in_order() {
        let combos = MitigationSet::all_combinations();
        assert_eq!(combos.len(), MitigationSet::COMBINATIONS);
        assert_eq!(combos[0], MitigationSet::empty());
        assert_eq!(combos[15], MitigationSet::all());
        for (index, combo) in combos.iter().enumerate() {
            assert_eq!(combo.bits() as usize, index);
        }
        // Every singleton appears.
        for m in Mitigation::ALL {
            assert!(combos.contains(&MitigationSet::single(m)));
        }
    }

    #[test]
    fn the_environment_keeps_only_the_web_mitigations() {
        let web = MitigationSet::single(Mitigation::SynchronizedDns).with(Mitigation::CertificateCoalescing);
        assert_eq!(MitigationSet::all().environment(), web);
        assert_eq!(MitigationSet::single(Mitigation::OriginFrames).environment(), MitigationSet::empty());
        assert_eq!(
            MitigationSet::single(Mitigation::CredentialPooling).environment(),
            MitigationSet::empty()
        );
        let environments: std::collections::BTreeSet<_> =
            MitigationSet::all_combinations().into_iter().map(MitigationSet::environment).collect();
        assert_eq!(environments.len(), 4);
        for set in MitigationSet::all_combinations() {
            assert_eq!(set.environment().environment(), set.environment());
        }
    }

    #[test]
    fn bits_are_distinct_and_canonical() {
        let mut seen = std::collections::BTreeSet::new();
        for m in Mitigation::ALL {
            assert!(seen.insert(m.bit()));
            assert!(!m.label().is_empty());
            assert!(!m.description().is_empty());
        }
        assert_eq!(MitigationSet::all().bits(), 0b1111);
    }
}
