//! HTTP/2 stream identifiers (RFC 7540 §5.1.1), as the frame codec carries
//! them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An HTTP/2 stream identifier (31 bits). Client-initiated streams are odd;
/// stream 0 addresses the connection itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct StreamId(u32);

impl StreamId {
    /// The connection-control stream (id 0).
    pub const CONNECTION: StreamId = StreamId(0);

    /// Create a stream id (masked to 31 bits).
    pub const fn new(value: u32) -> Self {
        StreamId(value & 0x7FFF_FFFF)
    }

    /// The numeric value.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream-{}", self.0)
    }
}

impl fmt::Debug for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_ids_are_masked_to_31_bits() {
        assert_eq!(StreamId::new(0x8000_0001).value(), 1, "high bit is masked");
        assert_eq!(StreamId::CONNECTION.value(), 0);
        assert_eq!(StreamId::new(5).to_string(), "stream-5");
    }
}
