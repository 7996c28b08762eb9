//! Per-worker visit scratch: the reusable buffers behind the
//! zero-allocation page-load fast path.
//!
//! A crawl worker processes thousands of page visits back to back, and the
//! original loader paid an allocation storm for each one: fresh
//! `Vec<Connection>` / request-log vectors, a fresh DNS resolver with a fresh
//! cache and a cloned certificate per connection. [`VisitScratch`] owns all
//! of those buffers once per worker and recycles them between visits:
//!
//! * the connection list keeps its capacity; a connection itself owns no
//!   heap memory ([`netsim_h2::Connection::establish`] allocates nothing),
//! * the request log is a vector of copyable [`ScratchRequest`] records (the
//!   resource path stays in the site's plan and is only materialised when a
//!   full [`PageVisit`] is needed),
//! * the recursive resolver is flushed — not dropped — between visits, so
//!   its cache lines recycle their answer buffers,
//! * the per-visit cost timeline ([`netsim_cost::VisitTimeline`]) is a
//!   fixed-size `Copy` block of integer counters reset — never reallocated —
//!   between visits, so latency/byte accounting rides the fast path for
//!   free.
//!
//! In the steady state (after buffers have grown to the hot set's high-water
//! mark) a page visit through [`crate::Browser::load_page_into`] performs
//! **zero heap allocations** — asserted by a counting-allocator test in
//! `crates/browser/tests/zero_alloc.rs`.

use crate::fault::VisitOutcome;
use crate::visit::{PageVisit, RequestLogEntry};
use netsim_cost::VisitTimeline;
use netsim_dns::{RecursiveResolver, ResolverId};
use netsim_fetch::RequestDestination;
use netsim_h2::Connection;
use netsim_types::{ConnectionId, DomainName, Instant, RequestId};
use netsim_web::Website;

/// One request as the fast path logs it: everything
/// [`crate::visit::RequestLogEntry`] carries except the path, which stays in
/// the site plan (`plan_index`) so the record is `Copy` and the hot loop
/// never clones a string.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScratchRequest {
    /// Request id (unique within the crawl).
    pub id: RequestId,
    /// The HTTP/2 session that carried the request.
    pub connection: ConnectionId,
    /// Target host.
    pub domain: DomainName,
    /// Index of the planned request in the site's plan (for the path).
    pub plan_index: u32,
    /// Resource kind.
    pub destination: RequestDestination,
    /// Whether credentials were included.
    pub credentialed: bool,
    /// HTTP status of the response.
    pub status: u16,
    /// Response body size in octets.
    pub body_size: u64,
    /// When the request was sent.
    pub started_at: Instant,
}

/// When the visit started and finished (the only per-visit scalars the fast
/// path returns; everything else lives in the scratch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VisitTimes {
    /// When the visit started.
    pub started_at: Instant,
    /// When the last response completed.
    pub finished_at: Instant,
}

/// The per-worker scratch arena. See the module docs.
#[derive(Debug, Default)]
pub struct VisitScratch {
    /// Sessions opened by the current visit, in establishment order.
    pub(crate) connections: Vec<Connection>,
    /// Connections a session's pool closed since the page started (its
    /// out-parameter); cleared at the next page start.
    closed: Vec<Connection>,
    /// Requests sent by the current visit, in send order.
    pub(crate) requests: Vec<ScratchRequest>,
    /// The reusable resolver; rebuilt only when the resolver id changes.
    resolver: Option<RecursiveResolver>,
    /// `true` if any response of the current visit had a non-200 status;
    /// the streaming classifier assumes none did.
    pub(crate) any_non_ok: bool,
    /// The current visit's cost timeline. A block of `Copy` integer
    /// counters — accounting never allocates. The loader also reads it back:
    /// `loss_retransmit_micros` is the running sum it charges the clock
    /// from, and `failed_resources` decides the visit's [`VisitOutcome`].
    pub(crate) timeline: VisitTimeline,
}

impl VisitScratch {
    /// An empty scratch; its buffers grow on the first visits.
    pub fn new() -> Self {
        VisitScratch::default()
    }

    /// Same as [`VisitScratch::new`]. The `simbench` workspace is its only
    /// caller.
    pub fn without_netlog() -> Self {
        VisitScratch::new()
    }

    /// The cost timeline of the current visit.
    pub fn timeline(&self) -> &VisitTimeline {
        &self.timeline
    }

    /// Drop the current visit's connections and requests, keeping their
    /// capacity. This releases the certificate handles the connections hold,
    /// so an environment rebuilt in place can rewrite those certificates
    /// instead of allocating new ones.
    pub fn clear(&mut self) {
        self.connections.clear();
        self.closed.clear();
        self.requests.clear();
        self.any_non_ok = false;
        self.timeline.reset();
    }

    /// Reset the per-page state and return the resolver, rebuilt only when
    /// the resolver id changes.
    fn begin_page(&mut self, resolver: ResolverId) -> &mut RecursiveResolver {
        self.clear();
        if self.resolver.as_ref().is_none_or(|existing| existing.id() != resolver) {
            self.resolver = Some(RecursiveResolver::new(resolver));
        }
        self.resolver.as_mut().expect("resolver just ensured")
    }

    /// Prepare for the next visit: drop the previous visit's connections,
    /// clear the request log and flush (not drop) the resolver cache.
    pub(crate) fn begin_visit(&mut self, resolver: ResolverId) {
        self.begin_page(resolver).flush_cache();
    }

    /// Prepare for the next page of a *multi-page session* visit. Unlike
    /// [`VisitScratch::begin_visit`] (the measurement methodology: caches
    /// reset between visits) the session keeps its DNS cache warm across
    /// pages: the resolver is flushed only on the session's first page and
    /// merely sweeps TTL-expired lines (`expire_stale`) afterwards. Within a
    /// session the connection list is already empty here (the session's
    /// [`crate::ConnectionPool`] absorbed it at the previous page's end).
    pub(crate) fn begin_session_page(&mut self, resolver: ResolverId, first_page: bool, now: Instant) {
        let resolver = self.begin_page(resolver);
        if first_page {
            resolver.flush_cache();
        } else {
            resolver.expire_stale(now);
        }
    }

    /// The reusable resolver (valid after [`VisitScratch::begin_visit`]).
    pub(crate) fn resolver_mut(&mut self) -> &mut RecursiveResolver {
        self.resolver.as_mut().expect("begin_visit initialises the resolver")
    }

    /// Split borrows of the live-connection list and the closed list (the
    /// session's connection pool moves entries between both at page
    /// boundaries).
    pub(crate) fn connections_and_closed_mut(&mut self) -> (&mut Vec<Connection>, &mut Vec<Connection>) {
        (&mut self.connections, &mut self.closed)
    }

    /// The closed list (session teardown drains pooled connections into it).
    pub(crate) fn closed_mut(&mut self) -> &mut Vec<Connection> {
        &mut self.closed
    }

    /// Sessions opened by the current visit, in establishment order.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Requests sent by the current visit, in send order.
    pub fn requests(&self) -> &[ScratchRequest] {
        &self.requests
    }

    /// `true` if every response of the current visit had status 200.
    pub fn all_ok(&self) -> bool {
        !self.any_non_ok
    }

    /// How the current visit ended: [`VisitOutcome::Complete`] when every
    /// resource was fetched (possibly after retries),
    /// [`VisitOutcome::Degraded`] with the abandoned-resource count when the
    /// retry budget ran out somewhere.
    pub fn outcome(&self) -> VisitOutcome {
        VisitOutcome::from_failures(self.timeline.failed_resources)
    }

    /// Materialise the current scratch state into an owned [`PageVisit`] —
    /// byte-identical to what the pre-scratch loader produced. `site` must be
    /// the site the visit loaded (its plan supplies the request paths).
    pub fn to_page_visit(&self, site: &Website, times: VisitTimes) -> PageVisit {
        PageVisit {
            site: site.id,
            landing_domain: site.domain,
            started_at: times.started_at,
            finished_at: times.finished_at,
            connections: self.connections.clone(),
            requests: self
                .requests
                .iter()
                .map(|request| RequestLogEntry {
                    id: request.id,
                    connection: request.connection,
                    domain: request.domain,
                    path: site.plan[request.plan_index as usize].path.to_string(),
                    destination: request.destination,
                    credentialed: request.credentialed,
                    status: request.status,
                    body_size: request.body_size,
                    started_at: request.started_at,
                })
                .collect(),
        }
    }
}
