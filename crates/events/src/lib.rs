//! # ev-core — event-camera substrate for the Ev-Edge reproduction
//!
//! This crate provides everything upstream of the Ev-Edge runtime: the
//! Address Event Representation ([`event::Event`]), validated time-ordered
//! event batches ([`stream::EventSlice`]), a binary AER codec ([`aer`]), a
//! faithful DVS/DAVIS camera model driven by procedural scenes ([`camera`],
//! [`scene`]), a fast statistical stream synthesizer ([`generator`]), and
//! the stream statistics the paper plots ([`stats`]).
//!
//! The paper (Ev-Edge, DAC 2024) evaluates on DAVIS recordings from the
//! MVSEC dataset; this crate is the substitution substrate that produces
//! streams with matching spatio-temporal statistics (see `DESIGN.md` at the
//! repository root).
//!
//! ## Example
//!
//! ```
//! use ev_core::camera::{DavisCamera, DvsConfig};
//! use ev_core::event::SensorGeometry;
//! use ev_core::scene::TranslatingTexture;
//! use ev_core::time::{TimeDelta, TimeWindow, Timestamp};
//!
//! # fn main() -> Result<(), ev_core::EventError> {
//! let mut camera = DavisCamera::new(
//!     SensorGeometry::new(64, 48),
//!     DvsConfig::default(),
//!     TimeDelta::from_millis(20),
//! );
//! let scene = TranslatingTexture::new(120.0, 0.0);
//! let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(60));
//! let recording = camera.record(&scene, window)?;
//! assert!(!recording.events.is_empty());
//! assert!(recording.frames.len() >= 2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aer;
pub mod camera;
pub mod event;
pub mod generator;
pub mod scene;
pub mod stats;
pub mod stream;
pub mod time;
pub mod transforms;

pub use event::{Event, Polarity, SensorGeometry};
pub use stream::EventSlice;
pub use time::{TimeDelta, TimeWindow, Timestamp};

use core::fmt;

/// Errors produced by the event substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventError {
    /// Events were not sorted by non-decreasing timestamp.
    UnsortedTimestamps {
        /// The out-of-order (earlier) timestamp.
        earlier: Timestamp,
        /// The timestamp it should not precede.
        later: Timestamp,
    },
    /// An event address fell outside the sensor.
    OutOfBounds {
        /// Event column.
        x: u16,
        /// Event row.
        y: u16,
        /// The sensor geometry that was violated.
        geometry: SensorGeometry,
    },
    /// Two streams with different geometries were combined.
    GeometryMismatch {
        /// Geometry of the left operand.
        left: SensorGeometry,
        /// Geometry of the right operand.
        right: SensorGeometry,
    },
    /// A binary AER stream could not be decoded.
    MalformedAer {
        /// Human-readable description of the framing problem.
        reason: String,
    },
    /// Two consecutive events are too far apart for AER's 31-bit delta.
    AerDeltaOverflow {
        /// Index of the event whose gap to its predecessor overflows.
        index: usize,
        /// The gap, in microseconds.
        delta_us: u64,
    },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::UnsortedTimestamps { earlier, later } => {
                write!(f, "event timestamps not sorted: {earlier} follows {later}")
            }
            EventError::OutOfBounds { x, y, geometry } => {
                write!(f, "event at ({x}, {y}) outside {geometry} sensor")
            }
            EventError::GeometryMismatch { left, right } => {
                write!(f, "sensor geometry mismatch: {left} vs {right}")
            }
            EventError::MalformedAer { reason } => write!(f, "malformed AER stream: {reason}"),
            EventError::AerDeltaOverflow { index, delta_us } => write!(
                f,
                "AER delta overflow: event {index} is {delta_us} µs after its predecessor \
                 (max 2^31-1)"
            ),
        }
    }
}

impl std::error::Error for EventError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let err = EventError::OutOfBounds {
            x: 400,
            y: 2,
            geometry: SensorGeometry::DAVIS346,
        };
        let msg = err.to_string();
        assert!(msg.contains("400"));
        assert!(msg.contains("346x260"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EventError>();
    }
}
