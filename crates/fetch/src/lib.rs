//! # netsim-fetch
//!
//! A model of the parts of the WHATWG Fetch Standard that govern connection
//! reuse in Chromium.
//!
//! The paper's `CRED` cause is entirely a product of this standard: even when
//! RFC 7540 would allow a request to ride an existing connection (same IP,
//! SAN-covered domain), Fetch §2.5 / §4.6 / §4.7 require the browser to keep
//! **credentialed and credential-less requests on separate connections** so
//! that an anonymous request cannot be linked to a cookie-bearing one. The
//! classic trigger is a cross-origin font or `crossorigin=anonymous` script:
//! its credentials mode resolves to "omit credentials", which lands it in a
//! different connection-pool partition (Chromium's `privacy_mode`) than the
//! page's own credentialed requests — and a second connection to the same
//! server is opened.
//!
//! * [`request`] — request destinations and the credentials mode HTML
//!   assigns to each resource kind,
//! * [`credentials`] — the credentials-inclusion decision and the resulting
//!   pool partition key.

// The zero-allocation visit fast path made these hot paths clone-free;
// keep them that way.
#![deny(clippy::redundant_clone)]
#![deny(clippy::clone_on_copy)]

pub mod credentials;
pub mod request;

pub use credentials::{partition_for_planned, CredentialsPartition};
pub use request::{CredentialsMode, RequestDestination};
