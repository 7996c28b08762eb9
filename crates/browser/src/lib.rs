//! # netsim-browser
//!
//! A Chromium-like browser model: the client whose behaviour the paper
//! measures.
//!
//! The paper's methodology (§4.2) drives Chromium 87 with Browsertime over
//! the Alexa Top 100k and parses the HTTP Archive's Chrome crawls; what it
//! observes is the interaction of three client-side mechanisms:
//!
//! 1. the HTTP/2 session pool, keyed by scheme/host/port *and* privacy mode
//!    (the Fetch credentials partition),
//! 2. RFC 7540 §9.1.1 connection coalescing for SAN-covered hosts resolving
//!    to an already-connected IP, and
//! 3. the DNS answers the configured recursive resolver happens to return.
//!
//! [`Browser::load_page`] reproduces that interaction for one generated site:
//! it walks the site's fetch plan in dependency order, resolves hosts through
//! a [`netsim_dns::RecursiveResolver`], consults its session pool (direct
//! same-origin match first, then the coalescing predicate of
//! [`netsim_h2::reuse`]), opens new [`netsim_h2::Connection`]s when no
//! session qualifies, and records the visit once: the connections and
//! requests of a structured [`visit::PageVisit`] (the connection lifecycles
//! the paper rebuilds from NetLog events, §4.2.2).
//!
//! [`crawler::Crawler`] is the Browsertime stand-in: it visits every site of
//! a population (optionally in parallel), producing the dataset the analysis
//! core ingests.

// The zero-allocation visit fast path made these hot paths clone-free;
// keep them that way.
#![deny(clippy::redundant_clone)]
#![deny(clippy::clone_on_copy)]

pub mod config;
pub mod connpool;
pub mod crawler;
pub mod fault;
pub mod loader;
pub mod pool;
pub mod scratch;
pub mod session;
pub mod visit;

pub use config::{BrowserConfig, ConnectionDurationModel};
pub use connpool::{ConnectionPool, PoolConfig, PoolLifecycleStats};
pub use crawler::{CrawlReport, Crawler};
pub use fault::{FaultProfile, RetryPolicy, VisitOutcome};
pub use loader::Browser;
pub use pool::{PooledScratch, ScratchPool};
pub use scratch::{ScratchRequest, VisitScratch, VisitTimes};
pub use session::{ResumptionCache, UserSession};
pub use visit::{PageVisit, RequestLogEntry};
