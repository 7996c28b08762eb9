//! The credentials-inclusion decision and connection-pool partitioning.
//!
//! Fetch §4.6/§4.7 sends credentials (cookies, client certificates, HTTP
//! auth) with a request when its credentials mode is `include`, or when it is
//! `same-origin` and the request is same-origin with its initiator. Chromium
//! then keys its HTTP/2 session pool on the *privacy mode* derived from that
//! decision: sessions that carried credentials are never shared with
//! credential-less requests and vice versa, "otherwise the existing
//! connection would be tainted with identifying information" (paper §3,
//! cause `CRED`).

use crate::request::{CredentialsMode, RequestDestination};
use netsim_types::Origin;

/// The two connection-pool partitions Chromium derives from the credentials
/// decision (`privacy_mode` in `//net`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CredentialsPartition {
    /// Requests that include credentials.
    Credentialed,
    /// Requests that must not be linked to credentials ("privacy mode
    /// enabled" in Chromium's terms).
    Anonymous,
}

impl CredentialsPartition {
    /// `true` for the credentialed partition.
    pub fn is_credentialed(self) -> bool {
        self == CredentialsPartition::Credentialed
    }
}

/// The pool partition of a planned fetch of `destination` from `url_origin`,
/// initiated by a document on `initiator`; `anonymous` is the author's
/// `crossorigin="anonymous"` — the key the browser loader uses for its
/// HTTP/2 session pool.
///
/// The [`Mitigation::CredentialPooling`] deployment does *not* change this
/// key: requests still land in their Fetch-§4.6 partition (credentials are
/// still sent or withheld accordingly), and the collapse happens inside the
/// RFC 7540 reuse check instead (`ReusePolicy::follow_fetch_credentials`,
/// set by `ReusePolicy::with_mitigations`) — exactly like the paper's
/// patched Chromium, which ignores privacy mode when matching sessions
/// rather than mislabelling them.
///
/// [`Mitigation::CredentialPooling`]: netsim_types::Mitigation::CredentialPooling
pub fn partition_for_planned(
    url_origin: &Origin,
    initiator: &Origin,
    destination: RequestDestination,
    anonymous: bool,
) -> CredentialsPartition {
    // `crossorigin="anonymous"` switches any destination to CORS with
    // "same-origin" credentials.
    let credentials = if anonymous { CredentialsMode::SameOrigin } else { destination.default_credentials() };
    let included = match credentials {
        CredentialsMode::Include => true,
        CredentialsMode::SameOrigin => url_origin == initiator,
    };
    if included {
        CredentialsPartition::Credentialed
    } else {
        CredentialsPartition::Anonymous
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_types::DomainName;

    fn o(host: &str) -> Origin {
        Origin::https(DomainName::literal(host))
    }

    #[test]
    fn navigation_is_credentialed() {
        let page = o("example.com");
        let partition = partition_for_planned(&page, &page, RequestDestination::Document, false);
        assert_eq!(partition, CredentialsPartition::Credentialed);
        assert!(partition.is_credentialed());
    }

    #[test]
    fn cross_origin_font_is_anonymous() {
        // The canonical CRED trigger: fonts.gstatic.com font fetched from a
        // page on another origin — CORS + same-origin credentials, which
        // cross-origin means "omit".
        let partition = partition_for_planned(
            &o("fonts.gstatic.com"),
            &o("example.com"),
            RequestDestination::Font,
            false,
        );
        assert_eq!(partition, CredentialsPartition::Anonymous);
        assert!(!partition.is_credentialed());
    }

    #[test]
    fn same_origin_font_keeps_credentials() {
        let page = o("example.com");
        let partition = partition_for_planned(&page, &page, RequestDestination::Font, false);
        assert_eq!(partition, CredentialsPartition::Credentialed);
    }

    #[test]
    fn cross_origin_nocors_image_keeps_credentials() {
        // Plain <img> to a third party: no-cors + include, so cookies go
        // along — this request shares the credentialed pool.
        let partition = partition_for_planned(
            &o("www.facebook.com"),
            &o("example.com"),
            RequestDestination::Image,
            false,
        );
        assert_eq!(partition, CredentialsPartition::Credentialed);
    }

    #[test]
    fn anonymous_script_is_partitioned_away() {
        let script = (o("cdn.example.com"), RequestDestination::Script);
        let page = o("example.com");
        assert_eq!(
            partition_for_planned(&script.0, &page, script.1, false),
            CredentialsPartition::Credentialed
        );
        assert_eq!(partition_for_planned(&script.0, &page, script.1, true), CredentialsPartition::Anonymous);
    }
}
