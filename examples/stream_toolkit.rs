//! Stream toolkit: denoise, transform and persist an event stream with
//! the binary AER codec — the preprocessing a real event-camera pipeline
//! runs before Ev-Edge sees the data.
//!
//! ```bash
//! cargo run --release --example stream_toolkit
//! ```

use ev_core::aer;
use ev_core::event::{Event, Polarity, SensorGeometry};
use ev_core::generator::{RateProfile, SpatialModel, StatisticalGenerator};
use ev_core::stream::EventSlice;
use ev_core::time::{TimeDelta, TimeWindow, Timestamp};
use ev_core::transforms::{crop, downsample, hot_pixel_filter, refractory_filter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A realistic stream plus an injected stuck pixel.
    let mut generator = StatisticalGenerator::new(
        SensorGeometry::DAVIS346,
        RateProfile::Constant(250_000.0),
        SpatialModel::Blobs {
            count: 10,
            sigma: 12.0,
            drift: 70.0,
        },
        17,
    );
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(50));
    let clean = generator.generate(window)?;
    let mut events = clean.into_events();
    for k in 0..4_000u64 {
        // A stuck pixel firing at 80 kHz.
        events.push(Event::new(
            100,
            100,
            Timestamp::from_micros(k * 12),
            Polarity::On,
        ));
    }
    let noisy = EventSlice::from_unsorted(SensorGeometry::DAVIS346, events)?;
    println!("raw:        {} events ({})", noisy.len(), noisy.geometry());

    // 1. Hot-pixel removal.
    let (cleaned, removed) = hot_pixel_filter(&noisy, 20.0);
    println!(
        "hot-pixel:  {} events ({removed} pixel removed)",
        cleaned.len()
    );

    // 2. Per-pixel refractory period.
    let refr = refractory_filter(&cleaned, TimeDelta::from_micros(500));
    println!("refractory: {} events", refr.len());

    // 3. Crop the central region and downsample 2x.
    let cropped = crop(&refr, 45, 2, 256, 256)?;
    let small = downsample(&cropped, 2)?;
    println!("crop+down:  {} events ({})", small.len(), small.geometry());

    // 4. Persist as binary AER and read back.
    let bytes = aer::encode(&small)?;
    let path = std::env::temp_dir().join("evedge_stream.aer");
    std::fs::write(&path, &bytes)?;
    let restored = aer::decode(&std::fs::read(&path)?)?;
    assert_eq!(restored, small);
    println!(
        "aer codec:  {} bytes written to {} and verified ({}B/event)",
        bytes.len(),
        path.display(),
        bytes.len() / small.len().max(1)
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
