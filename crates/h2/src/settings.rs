//! Connection settings (RFC 7540 §6.5.2).

use serde::{Deserialize, Serialize};

/// SETTINGS_HEADER_TABLE_SIZE.
pub const SETTINGS_HEADER_TABLE_SIZE: u16 = 0x1;
/// SETTINGS_ENABLE_PUSH.
pub const SETTINGS_ENABLE_PUSH: u16 = 0x2;
/// SETTINGS_MAX_CONCURRENT_STREAMS.
pub const SETTINGS_MAX_CONCURRENT_STREAMS: u16 = 0x3;
/// SETTINGS_INITIAL_WINDOW_SIZE.
pub const SETTINGS_INITIAL_WINDOW_SIZE: u16 = 0x4;
/// SETTINGS_MAX_FRAME_SIZE.
pub const SETTINGS_MAX_FRAME_SIZE: u16 = 0x5;
/// SETTINGS_MAX_HEADER_LIST_SIZE.
pub const SETTINGS_MAX_HEADER_LIST_SIZE: u16 = 0x6;

/// The settings one endpoint advertises for a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Settings {
    /// Maximum HPACK dynamic-table size the peer may use.
    pub header_table_size: u32,
    /// Whether server push is permitted.
    pub enable_push: bool,
    /// Maximum number of concurrently open streams the peer may create.
    pub max_concurrent_streams: u32,
    /// Initial per-stream flow-control window.
    pub initial_window_size: u32,
    /// Maximum frame payload size.
    pub max_frame_size: u32,
}

impl Default for Settings {
    fn default() -> Self {
        // RFC 7540 §11.3 initial values, except max_concurrent_streams which
        // servers commonly advertise as 100 (nginx / h2o defaults).
        Settings {
            header_table_size: 4096,
            enable_push: true,
            max_concurrent_streams: 100,
            initial_window_size: 65_535,
            max_frame_size: 16_384,
        }
    }
}

impl Settings {
    /// Serialise into SETTINGS frame (identifier, value) pairs.
    pub fn to_parameters(&self) -> Vec<(u16, u32)> {
        vec![
            (SETTINGS_HEADER_TABLE_SIZE, self.header_table_size),
            (SETTINGS_ENABLE_PUSH, u32::from(self.enable_push)),
            (SETTINGS_MAX_CONCURRENT_STREAMS, self.max_concurrent_streams),
            (SETTINGS_INITIAL_WINDOW_SIZE, self.initial_window_size),
            (SETTINGS_MAX_FRAME_SIZE, self.max_frame_size),
        ]
    }

    /// Apply (identifier, value) pairs received in a SETTINGS frame; unknown
    /// identifiers are ignored as the RFC requires.
    pub fn apply_parameters(&mut self, parameters: &[(u16, u32)]) {
        for (id, value) in parameters {
            match *id {
                SETTINGS_HEADER_TABLE_SIZE => self.header_table_size = *value,
                SETTINGS_ENABLE_PUSH => self.enable_push = *value != 0,
                SETTINGS_MAX_CONCURRENT_STREAMS => self.max_concurrent_streams = *value,
                SETTINGS_INITIAL_WINDOW_SIZE => self.initial_window_size = *value,
                SETTINGS_MAX_FRAME_SIZE => self.max_frame_size = *value,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_rfc_initial_values() {
        let s = Settings::default();
        assert_eq!(s.header_table_size, 4096);
        assert_eq!(s.initial_window_size, 65_535);
        assert_eq!(s.max_frame_size, 16_384);
        assert!(s.enable_push);
    }

    #[test]
    fn parameter_roundtrip() {
        let original =
            Settings { header_table_size: 65_536, max_concurrent_streams: 1000, ..Settings::default() };
        let mut rebuilt = Settings::default();
        rebuilt.apply_parameters(&original.to_parameters());
        assert_eq!(rebuilt, original);
    }

    #[test]
    fn unknown_parameters_are_ignored() {
        let mut s = Settings::default();
        s.apply_parameters(&[(0x99, 1234), (SETTINGS_MAX_CONCURRENT_STREAMS, 42)]);
        assert_eq!(s.max_concurrent_streams, 42);
        assert_eq!(s, Settings { max_concurrent_streams: 42, ..Settings::default() });
    }
}
