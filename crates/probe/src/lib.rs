//! # connreuse-probe
//!
//! The DNS load-balancing probe of Appendix A.4.
//!
//! The paper checks the temporal and spatial dependency of DNS resolution for
//! its 20 most frequent `IP`-cause domains: every six minutes, over several
//! days, each of 14 public resolvers (Table 11) resolves both domains of a
//! pair (e.g. `www.google-analytics.com` and its reusable previous origin
//! `www.googletagmanager.com`), and the probe counts for how many resolvers
//! the two answers overlap — i.e. for how many vantage points Connection
//! Reuse would have been possible at that moment. Figure 3 plots that count
//! over time.
//!
//! * [`resolvers`] — the 14-resolver panel (Table 11) and its resolver ids,
//! * [`pairs`] — the probed domain pairs (the Table 12 top pairs, restricted
//!   to the domains the simulated population actually serves),
//! * [`experiment`] — the probe loop and the resulting overlap matrix.

pub mod experiment;
pub mod pairs;
pub mod resolvers;

pub use experiment::{OverlapMatrix, ProbeConfig, ProbeExperiment};
pub use pairs::{default_pairs, DomainPair};
pub use resolvers::{resolver_panel, ResolverDescription};
