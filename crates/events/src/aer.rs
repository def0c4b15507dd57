//! Binary Address Event Representation (AER) encoding.
//!
//! A compact 8-byte-per-event wire format for storing or replaying event
//! streams: `x:u16 | y:u16 | p:1 bit + t_delta:31 bits`. Timestamps are
//! delta-encoded against the previous event (first event against a 8-byte
//! stream header holding the base timestamp), which keeps deltas small for
//! realistic streams while supporting arbitrary absolute times.

use crate::event::{Event, Polarity, SensorGeometry};
use crate::stream::EventSlice;
use crate::time::{TimeDelta, Timestamp};
use crate::EventError;

/// Magic bytes identifying an AER stream ("EVAR" = EVent ARchive).
pub const AER_MAGIC: [u8; 4] = *b"EVAR";

const HEADER_LEN: usize = 4 + 4 + 4 + 8; // magic, width, height, base timestamp
const RECORD_LEN: usize = 8;
const DELTA_MASK: u32 = 0x7FFF_FFFF;

/// Encodes an [`EventSlice`] into the binary AER format.
///
/// # Errors
///
/// Returns [`EventError::AerDeltaOverflow`] when two consecutive events
/// are more than 2³¹−1 µs (~35.8 min) apart: the 31-bit delta field
/// cannot hold the gap, and the stream would decode to different times.
///
/// # Examples
///
/// ```
/// use ev_core::aer;
/// use ev_core::event::{Event, Polarity, SensorGeometry};
/// use ev_core::stream::EventSlice;
/// use ev_core::time::Timestamp;
///
/// # fn main() -> Result<(), ev_core::EventError> {
/// let g = SensorGeometry::new(8, 8);
/// let s = EventSlice::new(g, vec![Event::new(1, 2, Timestamp::from_micros(3), Polarity::On)])?;
/// let bytes = aer::encode(&s)?;
/// let back = aer::decode(&bytes)?;
/// assert_eq!(back, s);
/// # Ok(())
/// # }
/// ```
pub fn encode(slice: &EventSlice) -> Result<Vec<u8>, EventError> {
    let g = slice.geometry();
    let base = slice.first_timestamp().unwrap_or(Timestamp::ZERO);
    let mut out = Vec::with_capacity(HEADER_LEN + RECORD_LEN * slice.len());
    out.extend_from_slice(&AER_MAGIC);
    out.extend_from_slice(&g.width.to_le_bytes());
    out.extend_from_slice(&g.height.to_le_bytes());
    out.extend_from_slice(&base.as_micros().to_le_bytes());

    let mut prev = base;
    for (index, ev) in slice.iter().enumerate() {
        let delta_us = ev.t.saturating_since(prev).as_micros() as u64;
        if delta_us > u64::from(DELTA_MASK) {
            return Err(EventError::AerDeltaOverflow { index, delta_us });
        }
        let packed: u32 = ((ev.polarity.as_bit() as u32) << 31) | delta_us as u32;
        out.extend_from_slice(&ev.x.to_le_bytes());
        out.extend_from_slice(&ev.y.to_le_bytes());
        out.extend_from_slice(&packed.to_le_bytes());
        prev = ev.t;
    }
    Ok(out)
}

/// Decodes a binary AER stream produced by [`encode`].
///
/// # Errors
///
/// Returns [`EventError::MalformedAer`] when the header or record framing is
/// invalid, a timestamp overflows, or a record lies outside the header's
/// geometry.
pub fn decode(bytes: &[u8]) -> Result<EventSlice, EventError> {
    // Fixed-size array views type the framing: no byte range below can
    // be short, so no conversion needs a length check.
    let Some((header, body)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(EventError::MalformedAer {
            reason: "stream shorter than header".into(),
        });
    };
    let [m0, m1, m2, m3, w0, w1, w2, w3, h0, h1, h2, h3, base @ ..] = *header;
    if [m0, m1, m2, m3] != AER_MAGIC {
        return Err(EventError::MalformedAer {
            reason: "bad magic".into(),
        });
    }
    let width = u32::from_le_bytes([w0, w1, w2, w3]);
    let height = u32::from_le_bytes([h0, h1, h2, h3]);
    if width == 0 || height == 0 || width > 1 << 16 || height > 1 << 16 {
        return Err(EventError::MalformedAer {
            reason: format!("invalid geometry {width}x{height}"),
        });
    }
    let (records, tail) = body.as_chunks::<RECORD_LEN>();
    if !tail.is_empty() {
        return Err(EventError::MalformedAer {
            reason: "truncated record".into(),
        });
    }
    let geometry = SensorGeometry::new(width, height);
    let mut events = Vec::with_capacity(records.len());
    let mut t = Timestamp::from_micros(u64::from_le_bytes(base));
    for (index, &[x0, x1, y0, y1, p0, p1, p2, p3]) in records.iter().enumerate() {
        let packed = u32::from_le_bytes([p0, p1, p2, p3]);
        let polarity = Polarity::from_bit(packed >> 31 == 1);
        let delta = packed & DELTA_MASK;
        t = t
            .checked_add(TimeDelta::from_micros(delta as i64))
            .ok_or_else(|| EventError::MalformedAer {
                reason: format!("timestamp overflow at record {index}"),
            })?;
        events.push(Event::new(
            u16::from_le_bytes([x0, x1]),
            u16::from_le_bytes([y0, y1]),
            t,
            polarity,
        ));
    }
    // Deltas are unsigned, so the events are sorted; the only check left
    // is that every record lies inside the header's geometry.
    EventSlice::new(geometry, events).map_err(|e| EventError::MalformedAer {
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_slice() -> EventSlice {
        let g = SensorGeometry::new(32, 24);
        let events = vec![
            Event::new(0, 0, Timestamp::from_micros(100), Polarity::On),
            Event::new(31, 23, Timestamp::from_micros(100), Polarity::Off),
            Event::new(5, 7, Timestamp::from_micros(250), Polarity::On),
            Event::new(5, 7, Timestamp::from_micros(1_000_000), Polarity::Off),
        ];
        EventSlice::new(g, events).unwrap()
    }

    #[test]
    fn round_trip_preserves_events() {
        let s = sample_slice();
        let bytes = encode(&s).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn empty_round_trip() {
        let s = EventSlice::empty(SensorGeometry::new(4, 4));
        let back = decode(&encode(&s).unwrap()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.geometry(), s.geometry());
    }

    #[test]
    fn rejects_short_stream() {
        assert!(matches!(
            decode(&[1, 2, 3]),
            Err(EventError::MalformedAer { .. })
        ));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&sample_slice()).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            decode(&bytes),
            Err(EventError::MalformedAer { .. })
        ));
    }

    #[test]
    fn rejects_truncated_record() {
        let mut bytes = encode(&sample_slice()).unwrap();
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(
            decode(&bytes),
            Err(EventError::MalformedAer { .. })
        ));
    }

    #[test]
    fn record_size_is_eight_bytes() {
        let s = sample_slice();
        let bytes = encode(&s).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + 8 * s.len());
    }

    #[test]
    fn huge_gaps_are_rejected() {
        // Consecutive events 2 hours apart exceed the 31-bit delta; the
        // encoder names the offending event instead of writing a stream
        // that decodes to different times.
        let g = SensorGeometry::new(8, 8);
        let s = EventSlice::new(
            g,
            vec![
                Event::new(0, 0, Timestamp::from_secs(1), Polarity::On),
                Event::new(1, 1, Timestamp::from_secs(7_200), Polarity::Off),
                Event::new(2, 2, Timestamp::from_secs(7_201), Polarity::On),
            ],
        )
        .unwrap();
        assert_eq!(
            encode(&s),
            Err(EventError::AerDeltaOverflow {
                index: 1,
                delta_us: 7_199_000_000,
            })
        );
    }

    #[test]
    fn base_timestamp_survives_round_trip() {
        let g = SensorGeometry::new(4, 4);
        let s = EventSlice::new(
            g,
            vec![Event::new(
                1,
                1,
                Timestamp::from_micros(u32::MAX as u64 * 10),
                Polarity::On,
            )],
        )
        .unwrap();
        let back = decode(&encode(&s).unwrap()).unwrap();
        assert_eq!(back, s, "64-bit base timestamps are exact");
    }
}
