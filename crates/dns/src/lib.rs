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
//! overlap depends on time and resolver.
//!
//! This crate models exactly the moving parts behind that phenomenon:
//!
//! * [`loadbalance`] — answer-selection policies: static, per-resolver
//!   (unsynchronized) pools and synchronized anycast-style pools,
//! * [`authority`] — the authoritative side: an owner-name → policy index
//!   queried by resolvers,
//! * [`resolver`] — recursive resolvers caching address answers for one
//!   fixed TTL,
//! * [`query`] — the query context (which resolver asks, and when).

// The zero-allocation visit fast path made these hot paths clone-free;
// keep them that way.
#![deny(clippy::redundant_clone)]
#![deny(clippy::clone_on_copy)]

pub mod authority;
pub mod loadbalance;
pub mod query;
pub mod resolver;

pub use authority::Authority;
pub use loadbalance::{AddressRun, LoadBalancePolicy};
pub use query::{QueryContext, ResolverId};
pub use resolver::{Answer, RecursiveResolver, ResolutionError, ANSWER_TTL};
