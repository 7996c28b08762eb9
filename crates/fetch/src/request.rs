//! Request destinations and their credentials modes.
//!
//! The Fetch Standard assigns each kind of resource a *destination*, and
//! HTML fills in a *credentials mode* depending on the element that
//! triggered the load (e.g. `@font-face` fonts must use CORS with
//! "same-origin" credentials, a plain `<img>` uses `no-cors` with
//! "include"). That mode decides whether a request carries credentials
//! cross-origin, which in turn decides its connection-pool partition.

use serde::{Deserialize, Serialize};

/// What kind of resource the request is for (Fetch "destination").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum RequestDestination {
    /// The top-level HTML document (navigation).
    Document,
    /// A classic or module script.
    Script,
    /// A stylesheet.
    Style,
    /// An image (including tracking pixels).
    Image,
    /// A web font loaded via `@font-face`.
    Font,
    /// A media resource (audio/video).
    Media,
    /// An `XMLHttpRequest` / `fetch()` call.
    Xhr,
    /// A nested browsing context (`<iframe>`).
    Iframe,
    /// A beacon / ping (analytics submission).
    Beacon,
    /// Anything else.
    Other,
}

/// The Fetch credentials mode. No destination defaults to "omit", so the
/// model has no `Omit` mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CredentialsMode {
    /// Send credentials only for same-origin requests.
    SameOrigin,
    /// Always send credentials.
    Include,
}

impl RequestDestination {
    /// The credentials mode HTML assigns to this destination when the author
    /// did not opt into CORS (`crossorigin` absent).
    pub fn default_credentials(self) -> CredentialsMode {
        match self {
            // Navigations always include credentials.
            RequestDestination::Document | RequestDestination::Iframe => CredentialsMode::Include,
            // Fonts must be requested with CORS and "same-origin" credentials
            // (CSS Fonts §4.9 via Fetch) — the canonical CRED trigger.
            RequestDestination::Font => CredentialsMode::SameOrigin,
            // Beacons / analytics submissions ride fetch(keepalive) or
            // sendBeacon, which default to CORS + same-origin.
            RequestDestination::Beacon | RequestDestination::Xhr => CredentialsMode::SameOrigin,
            // Classic sub-resources without `crossorigin` are no-cors and
            // include credentials.
            RequestDestination::Script
            | RequestDestination::Style
            | RequestDestination::Image
            | RequestDestination::Media
            | RequestDestination::Other => CredentialsMode::Include,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_per_destination() {
        assert_eq!(RequestDestination::Image.default_credentials(), CredentialsMode::Include);
        assert_eq!(RequestDestination::Font.default_credentials(), CredentialsMode::SameOrigin);
        assert_eq!(RequestDestination::Document.default_credentials(), CredentialsMode::Include);
        assert_eq!(RequestDestination::Xhr.default_credentials(), CredentialsMode::SameOrigin);
    }
}
