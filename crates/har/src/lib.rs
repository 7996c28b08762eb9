//! # netsim-har
//!
//! An HTTP-Archive substrate: the HAR-file side of the paper's methodology.
//!
//! The HTTP Archive loads every landing page three times with Chrome, keeps
//! the HAR file of the median load time, and publishes it. HAR files only
//! carry *request-level* information — a socket ("connection") id, the server
//! IP, the TLS certificate details and timings — so the paper reconstructs
//! HTTP/2 session lifecycles by grouping requests per socket id and has to
//! bracket unknown connection end times between an "endless" and an
//! "immediate" assumption (§4.2.1). Real HAR corpora are also messy: §4.3
//! lists hundreds of thousands of entries with socket id 0, missing IPs,
//! invalid methods or missing certificates that the analysis must filter.
//!
//! This crate reproduces all of that:
//!
//! * [`model`] — a HAR document model (the subset of fields the analysis
//!   needs) that prints as JSON with the HAR field names,
//! * [`capture`] — converting a browser [`netsim_browser::PageVisit`] into a
//!   HAR document, exactly as the crawler's logging would,
//! * [`inconsistency`] — injecting the §4.3 logging defects at configurable
//!   rates,
//! * [`pipeline`] — the median-of-three crawl procedure plus the filter step
//!   that removes (and counts) inconsistent entries before analysis.

pub mod capture;
pub mod inconsistency;
pub mod model;
pub mod pipeline;

pub use capture::capture_visit;
pub use inconsistency::{InconsistencyConfig, InconsistencyKind};
pub use model::{HarDocument, HarEntry, HarPage, SecurityDetails};
pub use pipeline::{ArchivePipeline, FilterStatistics, HarDataset};
