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
/// let bytes = aer::encode(&s);
/// let back = aer::decode(&bytes)?;
/// assert_eq!(back, s);
/// # Ok(())
/// # }
/// ```
pub fn encode(slice: &EventSlice) -> Vec<u8> {
    let g = slice.geometry();
    let base = slice.first_timestamp().unwrap_or(Timestamp::ZERO);
    let mut out = Vec::with_capacity(HEADER_LEN + RECORD_LEN * slice.len());
    out.extend_from_slice(&AER_MAGIC);
    out.extend_from_slice(&g.width.to_le_bytes());
    out.extend_from_slice(&g.height.to_le_bytes());
    out.extend_from_slice(&base.as_micros().to_le_bytes());

    let mut prev = base;
    for ev in slice.iter() {
        let mut delta = ev.t.saturating_since(prev).as_micros() as u64;
        // Deltas above 2^31-1 µs (~35.8 min) are split into filler records on
        // the same pixel with alternating zero-payload? No — instead we clamp;
        // realistic streams never exceed this between consecutive events.
        if delta > DELTA_MASK as u64 {
            delta = DELTA_MASK as u64;
        }
        let packed: u32 = ((ev.polarity.as_bit() as u32) << 31) | (delta as u32);
        out.extend_from_slice(&ev.x.to_le_bytes());
        out.extend_from_slice(&ev.y.to_le_bytes());
        out.extend_from_slice(&packed.to_le_bytes());
        prev = ev.t.min(prev + TimeDelta::from_micros(DELTA_MASK as i64));
    }
    out
}

/// Decodes a binary AER stream produced by [`encode`].
///
/// # Errors
///
/// Returns [`EventError::MalformedAer`] when the header or record framing is
/// invalid, and propagates [`EventSlice::new`] validation errors.
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
    for &[x0, x1, y0, y1, p0, p1, p2, p3] in records {
        let packed = u32::from_le_bytes([p0, p1, p2, p3]);
        let polarity = Polarity::from_bit(packed >> 31 == 1);
        let delta = packed & DELTA_MASK;
        t += TimeDelta::from_micros(delta as i64);
        events.push(Event::new(
            u16::from_le_bytes([x0, x1]),
            u16::from_le_bytes([y0, y1]),
            t,
            polarity,
        ));
    }
    EventSlice::new(geometry, events)
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
        let bytes = encode(&s);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn empty_round_trip() {
        let s = EventSlice::empty(SensorGeometry::new(4, 4));
        let back = decode(&encode(&s)).unwrap();
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
        let mut bytes = encode(&sample_slice());
        bytes[0] = b'X';
        assert!(matches!(
            decode(&bytes),
            Err(EventError::MalformedAer { .. })
        ));
    }

    #[test]
    fn rejects_truncated_record() {
        let mut bytes = encode(&sample_slice());
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(
            decode(&bytes),
            Err(EventError::MalformedAer { .. })
        ));
    }

    #[test]
    fn record_size_is_eight_bytes() {
        let s = sample_slice();
        let bytes = encode(&s);
        assert_eq!(bytes.len(), HEADER_LEN + 8 * s.len());
    }

    #[test]
    fn huge_gaps_clamp_consistently() {
        // Consecutive events 2 hours apart exceed the 31-bit delta; the
        // encoder clamps, and the decoder reconstructs the clamped stream
        // without violating time ordering.
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
        let back = decode(&encode(&s)).unwrap();
        assert_eq!(back.len(), 3);
        // First event exact; second clamped to base + 2^31-1 µs.
        assert_eq!(back.as_events()[0].t, Timestamp::from_secs(1));
        let clamped = Timestamp::from_secs(1) + TimeDelta::from_micros((DELTA_MASK) as i64);
        assert_eq!(back.as_events()[1].t, clamped);
        // The third event is still over 31 bits away from the clamped
        // second, so its delta clamps too: order is preserved even though
        // absolute times compressed.
        assert!(back.as_events()[2].t >= back.as_events()[1].t);
        assert_eq!(
            back.as_events()[2].t,
            clamped + TimeDelta::from_micros(DELTA_MASK as i64),
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
        let back = decode(&encode(&s)).unwrap();
        assert_eq!(back, s, "64-bit base timestamps are exact");
    }
}
