//! # netsim-dns
//!
//! A DNS substrate for the `connreuse` simulation.
//!
//! The paper identifies **unsynchronized DNS-based load balancing** as the
//! leading cause (`IP`) of redundant HTTP/2 connections: two domains served by
//! the same provider (e.g. `www.googletagmanager.com` and
//! `www.google-analytics.com`) are covered by the same certificate, yet
//! resolve to *slightly different* addresses in the same /24 — so RFC 7540
//! Connection Reuse never fires. Appendix A.4 then probes 14 public resolvers
//! every six minutes for days to show that whether two domains' answers
//! overlap depends on time and vantage point.
//!
//! This crate models exactly the moving parts behind that phenomenon:
//!
//! * [`record`] — resource records (A, CNAME) and answer sets,
//! * [`zone`] — authoritative zone data binding a domain to either static
//!   records or a [`loadbalance::LoadBalancePolicy`],
//! * [`loadbalance`] — answer-selection policies: static, rotating pools,
//!   per-resolver (unsynchronized) pools, vantage-dependent and synchronized
//!   anycast-style policies,
//! * [`authority`] — the authoritative side: an owner-name index queried by
//!   resolvers,
//! * [`resolver`] — recursive resolvers with TTL caches, CNAME chasing and an
//!   optional EDNS Client Subnet flag,
//! * [`query`] — the query context (who asks, from where, when).

// The zero-allocation visit fast path made these hot paths clone-free;
// keep them that way.
#![deny(clippy::redundant_clone)]
#![deny(clippy::clone_on_copy)]

pub mod authority;
pub mod loadbalance;
pub mod query;
pub mod record;
pub mod resolver;
pub mod zone;

pub use authority::Authority;
pub use loadbalance::LoadBalancePolicy;
pub use query::{QueryContext, ResolverId, Vantage};
pub use record::{Answer, RecordData, ResourceRecord};
pub use resolver::{RecursiveResolver, ResolutionError, ResolverConfig};
pub use zone::ZoneEntry;
