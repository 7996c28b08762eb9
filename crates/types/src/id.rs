//! Stable identifiers.
//!
//! Connections, requests, pages and sites are referenced across crates (the
//! browser emits NetLog events keyed by connection id, the HAR pipeline keys
//! requests by socket id, the classifier joins them back together). Newtype
//! ids keep those joins type-safe and make accidental cross-keying a compile
//! error.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// The raw numeric value.
            pub const fn value(self) -> u64 {
                self.0
            }

            /// The next id in sequence (used by allocators).
            pub const fn next(self) -> Self {
                $name(self.0 + 1)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

define_id!(
    /// Identifies one website (one landing-page visit target) in a population.
    SiteId,
    "site-"
);
define_id!(
    /// Identifies one page load (a site may be loaded several times, e.g. the
    /// HTTP Archive's median-of-three procedure).
    PageId,
    "page-"
);
define_id!(
    /// Identifies one transport connection / HTTP/2 session. Mirrors the
    /// "socket id" of HAR files and the source id of NetLog events.
    ConnectionId,
    "conn-"
);
define_id!(
    /// Identifies one HTTP request within a page load.
    RequestId,
    "req-"
);

/// A monotonically increasing allocator for any of the id types.
#[derive(Debug, Clone, Default)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// An allocator starting at zero.
    pub fn new() -> Self {
        IdAllocator { next: 0 }
    }

    /// An allocator whose first issued value is `start`.
    pub fn starting_at(start: u64) -> Self {
        IdAllocator { next: start }
    }

    /// Issue the next raw value.
    pub fn issue(&mut self) -> u64 {
        let v = self.next;
        self.next += 1;
        v
    }

    /// Issue the next value converted into an id type.
    pub fn issue_as<T: From<u64>>(&mut self) -> T {
        T::from(self.issue())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(ConnectionId(7).to_string(), "conn-7");
        assert_eq!(SiteId(3).to_string(), "site-3");
        assert_eq!(PageId(1).to_string(), "page-1");
        assert_eq!(RequestId(0).to_string(), "req-0");
    }

    #[test]
    fn next_increments() {
        assert_eq!(ConnectionId(7).next(), ConnectionId(8));
        assert_eq!(RequestId(0).next().value(), 1);
    }

    #[test]
    fn allocator_is_sequential() {
        let mut alloc = IdAllocator::new();
        let a: ConnectionId = alloc.issue_as();
        let b: ConnectionId = alloc.issue_as();
        assert_eq!(a, ConnectionId(0));
        assert_eq!(b, ConnectionId(1));
        let mut later = IdAllocator::starting_at(100);
        let c: RequestId = later.issue_as();
        assert_eq!(c, RequestId(100));
    }
}
