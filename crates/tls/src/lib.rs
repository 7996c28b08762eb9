//! # netsim-tls
//!
//! A TLS / Web-PKI substrate for the `connreuse` simulation.
//!
//! HTTP/2 Connection Reuse (RFC 7540 §9.1.1) allows a request for domain `D`
//! to ride an existing connection only if that connection's certificate is
//! *valid for* `D` — in practice, if `D` matches one of the certificate's
//! Subject Alternative Names. The paper's `CERT` cause is precisely the case
//! where operators shard a site across subdomains but issue **disjunct**
//! certificates, defeating reuse even when the subdomains share an IP.
//!
//! This crate models the parts of the PKI that matter for that analysis:
//!
//! * [`Certificate`] — subject, SAN list (exact + wildcard names), issuer
//!   organisation, validity window and a coverage predicate,
//! * [`Issuer`] — the certificate-authority organisations named in the paper
//!   (Let's Encrypt, Google Trust Services, DigiCert, …) plus a market-share
//!   model used by the population generator,
//! * [`IssuancePolicy`] — how an operator groups its domains into
//!   certificates (one shared SAN cert, per-subdomain certificates à la
//!   default certbot, wildcards, …),
//! * [`CertificateStore`] — the simulated CA: issues certificates, hands the
//!   right one to a server given an SNI name,
//! * [`handshake`] — a small TLS handshake cost model so the browser can
//!   charge realistic connection-establishment latency.

// The zero-allocation visit fast path made these hot paths clone-free;
// keep them that way.
#![deny(clippy::redundant_clone)]
#![deny(clippy::clone_on_copy)]

pub mod certificate;
pub mod handshake;
pub mod issuer;
pub mod policy;
pub mod store;

pub use certificate::{Certificate, CertificateId, SanEntry};
pub use handshake::{HandshakeConfig, TlsVersion};
pub use issuer::{Issuer, IssuerCatalog};
pub use policy::IssuancePolicy;
pub use store::CertificateStore;
