//! Property-based coverage for the AER wire format boundary: decoding
//! arbitrary bytes fails with a typed error instead of panicking, and
//! encoding is exact whenever the 31-bit deltas can hold the stream's
//! gaps, and refuses the stream when they cannot.

use ev_core::aer;
use ev_core::event::{Event, Polarity, SensorGeometry};
use ev_core::stream::EventSlice;
use ev_core::time::Timestamp;
use ev_core::EventError;
use proptest::prelude::*;

/// The largest gap one AER record can carry, in microseconds.
const MAX_GAP_US: u64 = (1 << 31) - 1;

/// Byte strings that reach every stage of the decoder: raw noise, noise
/// behind the magic, and full headers (any geometry, sometimes the whole
/// 2¹⁶ × 2¹⁶ sensor; a base timestamp that is sometimes within 2³² µs of
/// `u64::MAX`) over whole records, sometimes followed by a torn one.
fn arb_aer_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        (0u8..3, any::<bool>()),
        (0u32..70_000, 0u32..70_000, any::<bool>()),
        (0u64..u64::MAX, any::<bool>()),
        prop::collection::vec((0u16..=u16::MAX, 0u16..=u16::MAX, 0u32..=u32::MAX), 0..8),
        prop::collection::vec(0u8..=255, 0..24),
    )
        .prop_map(
            |((framing, torn), (width, height, whole_sensor), (base, near_max), records, noise)| {
                if framing == 0 {
                    return noise;
                }
                let mut bytes = aer::AER_MAGIC.to_vec();
                if framing == 1 {
                    bytes.extend_from_slice(&noise);
                    return bytes;
                }
                let (width, height) = if whole_sensor {
                    (1 << 16, 1 << 16)
                } else {
                    (width, height)
                };
                bytes.extend_from_slice(&width.to_le_bytes());
                bytes.extend_from_slice(&height.to_le_bytes());
                let base = if near_max {
                    u64::MAX - base % (1 << 32)
                } else {
                    base % (1 << 40)
                };
                bytes.extend_from_slice(&base.to_le_bytes());
                for (x, y, packed) in records {
                    bytes.extend_from_slice(&x.to_le_bytes());
                    bytes.extend_from_slice(&y.to_le_bytes());
                    bytes.extend_from_slice(&packed.to_le_bytes());
                }
                if torn {
                    bytes.extend_from_slice(&noise[..noise.len() % 8]);
                }
                bytes
            },
        )
}

/// A gap that fits one record, hitting `0` and the exact maximum often.
fn arb_fitting_gap() -> impl Strategy<Value = u64> {
    (0u8..4, 0..=MAX_GAP_US).prop_map(|(edge, gap)| match edge {
        0 => 0,
        1 => MAX_GAP_US,
        _ => gap,
    })
}

/// Builds a sorted, in-bounds slice from per-event gaps.
fn slice_from_gaps(
    (width, height): (u32, u32),
    base: u64,
    events: &[(u16, u16, u64, bool)],
) -> EventSlice {
    let mut t = base;
    let events = events
        .iter()
        .map(|&(x, y, gap, on)| {
            t += gap;
            Event::new(
                x % width as u16,
                y % height as u16,
                Timestamp::from_micros(t),
                Polarity::from_bit(on),
            )
        })
        .collect();
    EventSlice::new(SensorGeometry::new(width, height), events).expect("sorted and in bounds")
}

fn arb_events() -> impl Strategy<Value = Vec<(u16, u16, u64, bool)>> {
    prop::collection::vec(
        (
            0u16..=u16::MAX,
            0u16..=u16::MAX,
            arb_fitting_gap(),
            any::<bool>(),
        ),
        0..40,
    )
}

proptest! {
    /// Any byte string decodes to a slice or to `MalformedAer`; no other
    /// error and no panic (timestamp overflow, out-of-sensor records,
    /// bad geometry and torn records are all framing errors).
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in arb_aer_bytes()) {
        match aer::decode(&bytes) {
            Ok(_) | Err(EventError::MalformedAer { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected decode error: {}", e),
        }
    }

    /// Every valid slice whose consecutive gaps fit in 31 bits survives
    /// encode → decode exactly, 64-bit base timestamp included.
    #[test]
    fn round_trip_is_exact_when_gaps_fit(
        geometry in (1u32..=64, 1u32..=64),
        base in 0u64..(1 << 50),
        events in arb_events(),
    ) {
        let slice = slice_from_gaps(geometry, base, &events);
        let bytes = aer::encode(&slice).expect("every gap fits");
        prop_assert_eq!(aer::decode(&bytes).expect("own output decodes"), slice);
    }

    /// One gap past 31 bits makes `encode` fail, naming that event and
    /// its gap.
    #[test]
    fn encode_rejects_a_gap_past_31_bits(
        geometry in (1u32..=64, 1u32..=64),
        base in 0u64..(1 << 50),
        events in arb_events(),
        at in any::<prop::sample::Index>(),
        gap in (MAX_GAP_US + 1)..(1 << 40),
    ) {
        let mut events = events;
        events.push((0, 0, 0, true));
        // The first event's gap is measured from the stream's own base,
        // so only a later event can overflow.
        let index = 1 + at.index(events.len());
        events.insert(index, (0, 0, gap, false));
        let slice = slice_from_gaps(geometry, base, &events);
        prop_assert_eq!(
            aer::encode(&slice),
            Err(EventError::AerDeltaOverflow { index, delta_us: gap })
        );
    }
}
