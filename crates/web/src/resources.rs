//! Per-site fetch plans.
//!
//! A [`PlannedRequest`] is one resource the browser will fetch when loading a
//! site: which host serves it, what kind of resource it is (which fixes its
//! Fetch mode and credentials), which earlier request triggered it, and how
//! large the response body is. The browser substrate walks the plan in
//! dependency order, so chains like "document → tag-manager script →
//! analytics script → collect beacon" unfold exactly like the paper's
//! `googletagmanager.com` example.

use netsim_fetch::RequestDestination;
use netsim_types::DomainName;

/// One resource fetch in a site's load plan.
///
/// `Copy`: the path is `'static` text from a finite per-process vocabulary
/// (catalog literals and the generated own-resource paths), so recycling a
/// plan copies requests without touching a shared refcount.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannedRequest {
    /// Host serving the resource.
    pub domain: DomainName,
    /// Path of the resource.
    pub path: &'static str,
    /// Resource kind, which determines Fetch mode / credentials defaults.
    pub destination: RequestDestination,
    /// `true` if the embedding element carries `crossorigin="anonymous"` (or
    /// the request is otherwise made without credentials).
    pub anonymous: bool,
    /// Index (within the plan) of the request that must complete before this
    /// one starts; `None` for the root document.
    pub depends_on: Option<usize>,
    /// Response body size in octets.
    pub body_size: u64,
}

impl PlannedRequest {
    /// The root document request for a landing page.
    pub fn document(domain: DomainName) -> Self {
        PlannedRequest {
            domain,
            path: "/",
            destination: RequestDestination::Document,
            anonymous: false,
            depends_on: None,
            body_size: 40_000,
        }
    }

    /// A sub-resource triggered by the request at index `parent`.
    pub fn subresource(
        domain: DomainName,
        path: &'static str,
        destination: RequestDestination,
        parent: usize,
        body_size: u64,
    ) -> Self {
        PlannedRequest { domain, path, destination, anonymous: false, depends_on: Some(parent), body_size }
    }

    /// Mark the request as credential-less (`crossorigin="anonymous"`,
    /// anonymous XHR, font fetch, …).
    pub fn anonymous(mut self) -> Self {
        self.anonymous = true;
        self
    }
}

/// Validate that a plan's dependencies are acyclic and reference earlier
/// entries only (the generator always emits parents before children; the
/// browser relies on it).
pub fn plan_is_well_formed(plan: &[PlannedRequest]) -> bool {
    if plan.is_empty() {
        return false;
    }
    if plan[0].depends_on.is_some() {
        return false;
    }
    plan.iter().enumerate().all(|(index, request)| match request.depends_on {
        None => index == 0,
        Some(parent) => parent < index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn sample_plan() -> Vec<PlannedRequest> {
        vec![
            PlannedRequest::document(d("example.com")),
            PlannedRequest::subresource(d("example.com"), "/style.css", RequestDestination::Style, 0, 8_000),
            PlannedRequest::subresource(
                d("www.googletagmanager.com"),
                "/gtag/js",
                RequestDestination::Script,
                0,
                90_000,
            ),
            PlannedRequest::subresource(
                d("www.google-analytics.com"),
                "/analytics.js",
                RequestDestination::Script,
                2,
                49_000,
            ),
            PlannedRequest::subresource(
                d("www.google-analytics.com"),
                "/collect",
                RequestDestination::Beacon,
                3,
                35,
            )
            .anonymous(),
        ]
    }

    #[test]
    fn plan_validation() {
        let plan = sample_plan();
        assert!(plan_is_well_formed(&plan));
        assert!(!plan_is_well_formed(&[]));
        // A child referencing a later index is rejected.
        let mut bad = sample_plan();
        bad[1].depends_on = Some(4);
        assert!(!plan_is_well_formed(&bad));
        // A non-root document is rejected.
        let mut bad_root = sample_plan();
        bad_root[0].depends_on = Some(1);
        assert!(!plan_is_well_formed(&bad_root));
    }

    #[test]
    fn anonymity_marker() {
        let plan = sample_plan();
        assert!(!plan[2].anonymous);
        assert!(plan[4].anonymous);
        assert_eq!(plan[4].destination, RequestDestination::Beacon);
    }

    #[test]
    fn document_constructor() {
        let doc = PlannedRequest::document(d("shop.example.org"));
        assert_eq!(doc.depends_on, None);
        assert_eq!(doc.destination, RequestDestination::Document);
        assert_eq!(doc.path, "/");
    }
}
