//! The HAR document model (the subset the analysis needs).
//!
//! Field names follow the HAR 1.2 specification plus the Chrome-specific
//! `_securityDetails` / `_protocol` extensions the HTTP Archive exposes, so
//! exported JSON looks like (a trimmed-down version of) the real corpus.

use netsim_types::{DomainName, Instant, Json};

/// TLS details attached to an entry (Chrome's `_securityDetails`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SecurityDetails {
    /// Certificate subject common name.
    pub subject_name: String,
    /// Subject Alternative Names (exact and wildcard entries, textual form).
    pub san_list: Vec<String>,
    /// Issuer organisation.
    pub issuer: String,
}

/// One page in the HAR log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarPage {
    /// Page identifier referenced by entries.
    pub id: String,
    /// Page URL.
    pub title: String,
    /// Start time (simulation milliseconds since the epoch).
    pub started_date_time: u64,
}

/// One request/response pair in the HAR log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarEntry {
    /// The page this entry belongs to.
    pub pageref: String,
    /// Request start time (simulation milliseconds since the epoch).
    pub started_date_time: u64,
    /// HTTP request method.
    pub method: String,
    /// Full request URL.
    pub url: String,
    /// Response status code.
    pub status: u16,
    /// Response body size in octets.
    pub body_size: i64,
    /// Negotiated protocol (`h2`, `h3`, `http/1.1`).
    pub protocol: String,
    /// Destination address as dotted quad ("" when the logger lost it).
    pub server_ip_address: String,
    /// Socket / connection identifier ("0" when unknown, as for QUIC).
    pub connection: String,
    /// TLS details, absent for the entries §4.3 reports as lacking them.
    pub security_details: Option<SecurityDetails>,
}

impl HarEntry {
    /// The host part of the entry URL, if it parses.
    pub fn host(&self) -> Option<DomainName> {
        let rest = self.url.strip_prefix("https://").or_else(|| self.url.strip_prefix("http://"))?;
        let host = rest.split('/').next().unwrap_or(rest);
        let host = host.split(':').next().unwrap_or(host);
        DomainName::parse(host).ok()
    }

    /// The request start as a simulation [`Instant`].
    pub fn started_at(&self) -> Instant {
        Instant::from_millis(self.started_date_time)
    }

    /// `true` if the entry claims HTTP/2.
    pub fn is_http2(&self) -> bool {
        self.protocol == "h2"
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("pageref", Json::str(&self.pageref)),
            ("startedDateTime", self.started_date_time.into()),
            ("method", Json::str(&self.method)),
            ("url", Json::str(&self.url)),
            ("status", self.status.into()),
            ("bodySize", self.body_size.into()),
            ("_protocol", Json::str(&self.protocol)),
            ("serverIPAddress", Json::str(&self.server_ip_address)),
            ("connection", Json::str(&self.connection)),
        ];
        if let Some(details) = &self.security_details {
            let details = Json::obj([
                ("subjectName", Json::str(&details.subject_name)),
                ("sanList", Json::arr(&details.san_list, |name| Json::str(name))),
                ("issuer", Json::str(&details.issuer)),
            ]);
            fields.push(("_securityDetails", details));
        }
        Json::Obj(fields)
    }
}

/// One HAR document: the log for one page visit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarDocument {
    /// Log creator, kept for fidelity with real HAR files.
    pub creator: String,
    /// Pages (the capture always has exactly one).
    pub pages: Vec<HarPage>,
    /// Entries, in request order.
    pub entries: Vec<HarEntry>,
}

impl HarDocument {
    /// The landing-page URL of the document, if present.
    pub fn landing_url(&self) -> Option<&str> {
        self.pages.first().map(|p| p.title.as_str())
    }

    /// The landing-page host, if it parses.
    pub fn landing_domain(&self) -> Option<DomainName> {
        let url = self.landing_url()?;
        let rest = url.strip_prefix("https://")?;
        DomainName::parse(rest.split('/').next().unwrap_or(rest)).ok()
    }

    /// Total wall-clock span from the page start to the last entry start —
    /// the "load time" used to pick the median of three loads.
    pub fn load_time_ms(&self) -> u64 {
        let start = self.pages.first().map(|p| p.started_date_time).unwrap_or(0);
        let last = self.entries.iter().map(|e| e.started_date_time).max().unwrap_or(start);
        last.saturating_sub(start)
    }

    /// Serialise to pretty JSON, with the HAR field names.
    pub fn to_json(&self) -> String {
        let page = |page: &HarPage| {
            Json::obj([
                ("id", Json::str(&page.id)),
                ("title", Json::str(&page.title)),
                ("startedDateTime", page.started_date_time.into()),
            ])
        };
        Json::obj([
            ("creator", Json::str(&self.creator)),
            ("pages", Json::arr(&self.pages, page)),
            ("entries", Json::arr(&self.entries, HarEntry::to_json)),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HarDocument {
        HarDocument {
            creator: "connreuse-sim".to_string(),
            pages: vec![HarPage {
                id: "page_1".to_string(),
                title: "https://example.com/".to_string(),
                started_date_time: 1_000,
            }],
            entries: vec![
                HarEntry {
                    pageref: "page_1".to_string(),
                    started_date_time: 1_010,
                    method: "GET".to_string(),
                    url: "https://example.com/".to_string(),
                    status: 200,
                    body_size: 40_000,
                    protocol: "h2".to_string(),
                    server_ip_address: "20.0.0.10".to_string(),
                    connection: "1".to_string(),
                    security_details: Some(SecurityDetails {
                        subject_name: "example.com".to_string(),
                        san_list: vec!["example.com".to_string(), "www.example.com".to_string()],
                        issuer: "Let's Encrypt".to_string(),
                    }),
                },
                HarEntry {
                    pageref: "page_1".to_string(),
                    started_date_time: 1_150,
                    method: "GET".to_string(),
                    url: "https://www.google-analytics.com/analytics.js".to_string(),
                    status: 200,
                    body_size: -1,
                    protocol: "h2".to_string(),
                    server_ip_address: "".to_string(),
                    connection: "0".to_string(),
                    security_details: None,
                },
            ],
        }
    }

    /// [`sample`]'s JSON, pinned byte for byte: HAR field names, and no
    /// `_securityDetails` where the entry has none.
    #[test]
    fn to_json_writes_the_pinned_text() {
        let expected = "{\n  \"creator\": \"connreuse-sim\",\n  \"pages\": [\n    {\n      \"id\": \"page_1\",\n      \
            \"title\": \"https://example.com/\",\n      \"startedDateTime\": 1000\n    }\n  ],\n  \"entries\": [\n    \
            {\n      \"pageref\": \"page_1\",\n      \"startedDateTime\": 1010,\n      \"method\": \"GET\",\n      \
            \"url\": \"https://example.com/\",\n      \"status\": 200,\n      \"bodySize\": 40000,\n      \
            \"_protocol\": \"h2\",\n      \"serverIPAddress\": \"20.0.0.10\",\n      \"connection\": \"1\",\n      \
            \"_securityDetails\": {\n        \"subjectName\": \"example.com\",\n        \"sanList\": [\n          \
            \"example.com\",\n          \"www.example.com\"\n        ],\n        \"issuer\": \"Let's Encrypt\"\n      \
            }\n    },\n    {\n      \"pageref\": \"page_1\",\n      \"startedDateTime\": 1150,\n      \
            \"method\": \"GET\",\n      \"url\": \"https://www.google-analytics.com/analytics.js\",\n      \
            \"status\": 200,\n      \"bodySize\": -1,\n      \"_protocol\": \"h2\",\n      \
            \"serverIPAddress\": \"\",\n      \"connection\": \"0\"\n    }\n  ]\n}";
        assert_eq!(sample().to_json(), expected);
    }

    #[test]
    fn entry_accessors() {
        let doc = sample();
        assert_eq!(doc.landing_domain().unwrap().to_string(), "example.com");
        assert_eq!(doc.load_time_ms(), 150);
        assert_eq!(doc.entries[1].host().unwrap().to_string(), "www.google-analytics.com");
        assert!(doc.entries[0].is_http2());
        assert_eq!(doc.entries[0].started_at(), Instant::from_millis(1_010));
    }

    #[test]
    fn malformed_urls_yield_no_host() {
        let mut entry = sample().entries[0].clone();
        entry.url = "not a url".to_string();
        assert!(entry.host().is_none());
        for url in ["https://a*b.example.com/x.js", "https://www.*.example.com:443/", "https://*/"] {
            entry.url = url.to_string();
            assert!(entry.host().is_none(), "{url}");
        }
    }
}
