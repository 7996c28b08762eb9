//! # netsim-types
//!
//! Shared vocabulary for the `connreuse` workspace: domain names, HTTPS
//! origins, IPv4 addresses and prefixes, a
//! simulated clock, stable identifiers and a deterministic, fork-able RNG.
//!
//! Every other crate in the workspace builds on these types so that the
//! simulation substrates (DNS, TLS, HTTP/2, browser) and the analysis core
//! agree on what a "domain", an "IP" and a "point in time" are.
//!
//! All types are plain data: cloneable, comparable and hashable, so they can
//! flow through visit records, shard records and report tables without
//! conversion layers.
//!
//! The [`mod@counters`] module declares the additive tallies every report is
//! built from once each ([`counters!`]), with their merge and word layout.
//!
//! The [`json`] module is the workspace's one JSON writer: the store
//! manifest, the bench and profile files and the HAR model print through it.
//!
//! The [`profile`] module is the one observability exception: wall-clock
//! stage attribution for the visit fast path, compiled into every build and
//! switched on at run time ([`profile::set_enabled`]); while off, a guard
//! costs one branch.

pub mod counters;
pub mod domain;
pub mod fingerprint;
pub mod hash;
pub mod id;
pub mod intern;
pub mod ip;
pub mod json;
pub mod mitigation;
pub mod origin;
pub mod profile;
pub mod rng;
pub mod time;

pub use counters::Counters;
pub use domain::{DomainError, DomainName, SiteNames};
pub use fingerprint::{Fingerprint, FingerprintBuilder};
pub use hash::{fnv1a, fnv1a_continue, fnv1a_continue_lockstep, FnvBuildHasher, FnvHashMap, FnvHasher};
pub use id::{ConnectionId, IdAllocator, PageId, RequestId, SiteId};
pub use intern::{intern_calls, interned_domain_count, interned_domain_octets, NameTable};
pub use ip::{IpAddr, Prefix};
pub use json::Json;
pub use mitigation::{Mitigation, MitigationSet};
pub use origin::{Origin, Scheme};
pub use profile::{Stage, StageStats, StageTable};
pub use rng::SimRng;
pub use time::{Duration, Instant, SimClock};
