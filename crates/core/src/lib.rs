//! # connreuse-core
//!
//! The paper's primary contribution: a method to detect **redundant HTTP/2
//! connections** in browser traces and attribute each one to the root cause
//! that defeated RFC 7540 Connection Reuse.
//!
//! Given an observed page load — the set of HTTP/2 sessions with their
//! destination IPs, certificates and request logs — the classifier
//! ([`classify`]) walks the sessions in establishment order and, for every
//! session, checks each earlier session that was still open:
//!
//! * same IP, certificate covers the new session's domain → the connection
//!   *could* have been reused; the browser refused for Fetch-credentials
//!   reasons → cause **CRED**,
//! * same IP, certificate does **not** cover the domain → domain sharding
//!   with disjunct certificates → cause **CERT**,
//! * different IP, certificate covers the domain → DNS gave a different
//!   address for a co-hosted domain → cause **IP**,
//! * different IP, certificate does not cover → an unavoidable third-party
//!   connection (not counted),
//! * same initial domain on different IPs → the corner case of §4.1, counted
//!   as **CRED** (it only happens when the credentials partition forbids
//!   reuse and DNS announces several addresses),
//! * a session for a domain the server excluded via HTTP 421 gets no cause
//!   (it still counts as an earlier session for the ones after it).
//!
//! A session can carry several causes at once (the paper's worked example in
//! §4.1), so per-cause counts may exceed the number of redundant sessions.
//!
//! The surrounding modules turn classifications into the paper's published
//! artifacts: [`aggregate`] produces the Table 1 cause counts, [`report`] the
//! Figure 2 distribution, [`attribution`] Tables 2–6 and 8–12, [`lifetime`]
//! the §5.1 connection-lifetime statistics, and [`fold`] streams one site at
//! a time through all of them. [`ingest`] adapts both data sources
//! (NetLog-style browser visits and HTTP-Archive HAR documents) into the
//! common [`observation`] model.

// The interned-id migration made `DomainName`/`Origin` copyable; keep the
// hot ingest/attribution/classify paths free of the clone storm for good.
#![deny(clippy::redundant_clone)]
#![deny(clippy::clone_on_copy)]

pub mod aggregate;
pub mod attribution;
pub mod classify;
pub mod fastpath;
pub mod fold;
pub mod ingest;
pub mod lifetime;
pub mod observation;
pub mod report;

pub use aggregate::{Accumulator, AccumulatorState, CauseCounts, DatasetSummary, SiteCounts};
pub use classify::{classify_site, Cause, ClassifiedConnection, ConnectionRecord, SiteClassification};
pub use fastpath::FastVisitClassifier;
pub use fold::TableFold;
pub use ingest::{site_from_har_document, site_from_visit};
pub use observation::{DurationModel, ObservedConnection, ObservedRequest, SiteObservation};
pub use report::CdfSeries;
