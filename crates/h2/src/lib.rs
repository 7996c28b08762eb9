//! # netsim-h2
//!
//! An HTTP/2 substrate for the `connreuse` simulation.
//!
//! The paper studies when browsers open *more than one* HTTP/2 connection
//! even though RFC 7540 was designed around a single multiplexed connection
//! per server. To reason about that, the simulation needs a faithful model of
//! the protocol pieces that govern connection reuse:
//!
//! * [`cwnd`] — the cold congestion-window model: the slow-start round trips
//!   a fresh connection pays that a reused one would not (the transfer-side
//!   cost of redundancy, priced by `netsim-cost`),
//! * [`connection`] — an HTTP/2 session as the reuse predicate reads it:
//!   destination, the TLS certificate presented at establishment, the
//!   credentials partition, the ORIGIN set, 421 exclusions, GOAWAY handling
//!   and request/byte counts,
//! * [`reuse`] — the §9.1.1 Connection Reuse predicate that decides whether a
//!   request for another domain may ride an existing connection, and a
//!   diagnosis of *why not* when it may not (the paper's CERT / IP causes).
//!
//! No wire format is modelled: the paper's §4.1 method reads only which
//! §9.1.1 check refused reuse, never the bytes of a frame.

// The zero-allocation visit fast path made these hot paths clone-free;
// keep them that way.
#![deny(clippy::redundant_clone)]
#![deny(clippy::clone_on_copy)]

pub mod connection;
pub mod cwnd;
pub mod reuse;

pub use connection::{CloseReason, Connection, ConnectionError, ConnectionState};
pub use cwnd::{slow_start_rounds, INITIAL_CWND_OCTETS};
pub use reuse::{RefusalSet, ReuseRefusal};
