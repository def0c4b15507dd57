//! Dynamic Vision Sensor (DVS) and DAVIS camera models.
//!
//! Implements the sensing model from paper §2: a pixel fires an event when
//! the magnitude of the log-intensity change since its last event crosses a
//! contrast threshold θ, i.e. `|log I(t+1) − log I(t_ref)| ≥ θ`. The DAVIS
//! variant additionally emits synchronized grayscale frames at a fixed rate —
//! these frame timestamps are the `Tstart`/`Tend` pairs consumed by E2SF
//! (Equation 1).

use crate::event::{Event, Polarity, SensorGeometry};
use crate::scene::Scene;
use crate::stream::EventSlice;
use crate::time::{TimeDelta, TimeWindow, Timestamp};
use crate::EventError;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of the DVS pixel model.
///
/// # Examples
///
/// ```
/// use ev_core::camera::DvsConfig;
///
/// let cfg = DvsConfig::default().with_threshold(0.25);
/// assert_eq!(cfg.theta, 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsConfig {
    /// Contrast threshold θ on |Δ log I|.
    pub theta: f64,
    /// Per-pixel refractory period: minimum time between events.
    pub refractory: TimeDelta,
    /// Background-activity noise rate per pixel, events/second.
    pub noise_rate: f64,
    /// Simulation step used to sample the scene.
    pub sim_step: TimeDelta,
    /// PRNG seed (noise and sub-step timestamp jitter are deterministic).
    pub seed: u64,
}

impl Default for DvsConfig {
    fn default() -> Self {
        DvsConfig {
            theta: 0.2,
            refractory: TimeDelta::from_micros(100),
            noise_rate: 0.05,
            sim_step: TimeDelta::from_micros(500),
            seed: 0xE5ED6E,
        }
    }
}

impl DvsConfig {
    /// Sets the contrast threshold θ.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not strictly positive.
    pub fn with_threshold(mut self, theta: f64) -> Self {
        assert!(theta > 0.0, "contrast threshold must be positive");
        self.theta = theta;
        self
    }

    /// Sets the noise rate (events/second/pixel).
    pub fn with_noise_rate(mut self, rate: f64) -> Self {
        assert!(rate >= 0.0, "noise rate must be non-negative");
        self.noise_rate = rate;
        self
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-pixel sensor state.
#[derive(Debug, Clone, Copy)]
struct PixelState {
    /// Log intensity at the last emitted event (the reference level).
    log_ref: f64,
    /// Time of the last emitted event (for the refractory period).
    last_event: Timestamp,
}

/// An event camera simulating per-pixel log-intensity threshold crossing.
///
/// # Examples
///
/// ```
/// use ev_core::camera::{DvsCamera, DvsConfig};
/// use ev_core::event::SensorGeometry;
/// use ev_core::scene::MovingEdge;
/// use ev_core::time::{TimeWindow, Timestamp};
///
/// # fn main() -> Result<(), ev_core::EventError> {
/// let mut cam = DvsCamera::new(SensorGeometry::new(32, 24), DvsConfig::default());
/// let scene = MovingEdge::new(4.0, 200.0);
/// let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(50));
/// let events = cam.simulate(&scene, window)?;
/// assert!(!events.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DvsCamera {
    geometry: SensorGeometry,
    config: DvsConfig,
    pixels: Vec<PixelState>,
    rng: ChaCha8Rng,
    initialized: bool,
}

impl DvsCamera {
    /// Creates a camera. Pixel references initialize on the first simulated
    /// step (no spurious start-up burst).
    pub fn new(geometry: SensorGeometry, config: DvsConfig) -> Self {
        let pixels = vec![
            PixelState {
                log_ref: 0.0,
                last_event: Timestamp::ZERO,
            };
            geometry.pixel_count()
        ];
        DvsCamera {
            geometry,
            config,
            pixels,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            initialized: false,
        }
    }

    /// The sensor geometry.
    pub fn geometry(&self) -> SensorGeometry {
        self.geometry
    }

    /// The configuration.
    pub fn config(&self) -> &DvsConfig {
        &self.config
    }

    /// Simulates the camera observing `scene` over `window`, returning the
    /// emitted events in time order.
    ///
    /// Successive calls continue from the retained per-pixel state, so a long
    /// recording can be produced window by window.
    ///
    /// # Errors
    ///
    /// Returns an error if internal event assembly produces an invalid slice
    /// (this indicates a bug and should not occur).
    pub fn simulate<S: Scene + ?Sized>(
        &mut self,
        scene: &S,
        window: TimeWindow,
    ) -> Result<EventSlice, EventError> {
        if !self.initialized {
            self.reset_references(scene, window.start());
        }
        let mut events: Vec<Event> = Vec::new();
        let step = self.config.sim_step;
        let mut t = window.start();
        while t < window.end() {
            let t_next = (t + step).min(window.end());
            self.step(scene, t, t_next, &mut events);
            t = t_next;
        }
        events.sort_by_key(|e| e.t);
        EventSlice::new(self.geometry, events)
    }

    /// Re-references every pixel to the scene at `t` (as a real sensor does
    /// on power-up) without emitting events.
    pub fn reset_references<S: Scene + ?Sized>(&mut self, scene: &S, t: Timestamp) {
        for y in 0..self.geometry.height {
            for x in 0..self.geometry.width {
                let idx = (y * self.geometry.width + x) as usize;
                let intensity = scene.intensity(x as f64, y as f64, t);
                self.pixels[idx] = PixelState {
                    log_ref: intensity.max(crate::scene::MIN_INTENSITY).ln(),
                    last_event: t,
                };
            }
        }
        self.initialized = true;
    }

    /// One simulation step `[t0, t1)`: threshold crossings + noise.
    fn step<S: Scene + ?Sized>(
        &mut self,
        scene: &S,
        t0: Timestamp,
        t1: Timestamp,
        out: &mut Vec<Event>,
    ) {
        let theta = self.config.theta;
        let dt = (t1 - t0).as_micros();
        if dt <= 0 {
            return;
        }
        let noise_p = self.config.noise_rate * (t1 - t0).as_secs_f64();
        for y in 0..self.geometry.height {
            for x in 0..self.geometry.width {
                let idx = (y * self.geometry.width + x) as usize;
                let state = &mut self.pixels[idx];
                let intensity = scene.intensity(x as f64, y as f64, t1);
                let log_now = intensity.max(crate::scene::MIN_INTENSITY).ln();
                let delta = log_now - state.log_ref;
                let crossings = (delta.abs() / theta).floor() as u32;
                if crossings > 0 {
                    let polarity = if delta > 0.0 {
                        Polarity::On
                    } else {
                        Polarity::Off
                    };
                    // Emit up to `crossings` events spread across the step,
                    // honouring the refractory period.
                    let emitted = crossings.min(16); // sensor event-rate cap per step
                    for k in 0..emitted {
                        let frac = (k as f64 + self.rng.gen::<f64>()) / emitted as f64;
                        let t_ev = t0 + (t1 - t0).mul_f64(frac);
                        if t_ev.saturating_since(state.last_event) < self.config.refractory
                            && state.last_event > Timestamp::ZERO
                        {
                            continue;
                        }
                        out.push(Event::new(x as u16, y as u16, t_ev, polarity));
                        state.last_event = t_ev;
                    }
                    state.log_ref += theta * crossings as f64 * delta.signum();
                }
                // Background-activity noise: a Bernoulli approximation of a
                // Poisson process per step (valid for noise_p << 1).
                if noise_p > 0.0 && self.rng.gen::<f64>() < noise_p {
                    let frac = self.rng.gen::<f64>();
                    let t_ev = t0 + (t1 - t0).mul_f64(frac);
                    let polarity = if self.rng.gen::<bool>() {
                        Polarity::On
                    } else {
                        Polarity::Off
                    };
                    out.push(Event::new(x as u16, y as u16, t_ev, polarity));
                }
            }
        }
    }
}

/// A grayscale frame from the DAVIS active-pixel readout.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayFrame {
    /// Capture timestamp.
    pub timestamp: Timestamp,
    /// Sensor geometry.
    pub geometry: SensorGeometry,
    /// Row-major linear intensities in `[0, 1]`.
    pub pixels: Vec<f32>,
}

impl GrayFrame {
    /// Intensity at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    pub fn intensity(&self, x: u32, y: u32) -> f32 {
        assert!(
            x < self.geometry.width && y < self.geometry.height,
            "pixel out of bounds"
        );
        self.pixels[(y * self.geometry.width + x) as usize]
    }
}

/// Output of one DAVIS recording window: the event stream plus the
/// synchronized grayscale frames (whose consecutive timestamps delimit the
/// E2SF frame intervals).
#[derive(Debug, Clone, PartialEq)]
pub struct DavisRecording {
    /// All events in the window, time-ordered.
    pub events: EventSlice,
    /// Grayscale frames at the configured frame rate, time-ordered.
    pub frames: Vec<GrayFrame>,
}

impl DavisRecording {
    /// The `[Tstart, Tend)` windows between consecutive grayscale frames.
    pub fn frame_intervals(&self) -> Vec<TimeWindow> {
        self.frames
            .windows(2)
            .map(|pair| TimeWindow::new(pair[0].timestamp, pair[1].timestamp))
            .collect()
    }
}

/// A DAVIS camera: DVS events plus synchronized grayscale frames.
#[derive(Debug, Clone)]
pub struct DavisCamera {
    dvs: DvsCamera,
    frame_interval: TimeDelta,
}

impl DavisCamera {
    /// Creates a DAVIS camera producing frames every `frame_interval`
    /// (MVSEC grayscale frames arrive at roughly 50 Hz → 20 ms).
    ///
    /// # Panics
    ///
    /// Panics if `frame_interval` is not positive.
    pub fn new(geometry: SensorGeometry, config: DvsConfig, frame_interval: TimeDelta) -> Self {
        assert!(
            frame_interval.as_micros() > 0,
            "frame interval must be positive"
        );
        DavisCamera {
            dvs: DvsCamera::new(geometry, config),
            frame_interval,
        }
    }

    /// The underlying DVS model.
    pub fn dvs(&self) -> &DvsCamera {
        &self.dvs
    }

    /// Records `scene` over `window`, producing events and grayscale frames.
    ///
    /// Frames are captured at `window.start`, then every `frame_interval`,
    /// including one at `window.end` so every event falls inside a frame
    /// interval.
    ///
    /// # Errors
    ///
    /// Propagates event-assembly errors from the DVS model.
    pub fn record<S: Scene + ?Sized>(
        &mut self,
        scene: &S,
        window: TimeWindow,
    ) -> Result<DavisRecording, EventError> {
        let events = self.dvs.simulate(scene, window)?;
        let mut frames = Vec::new();
        let mut t = window.start();
        loop {
            frames.push(self.capture_frame(scene, t));
            if t >= window.end() {
                break;
            }
            let next = t + self.frame_interval;
            t = if next >= window.end() {
                window.end()
            } else {
                next
            };
        }
        Ok(DavisRecording { events, frames })
    }

    fn capture_frame<S: Scene + ?Sized>(&self, scene: &S, t: Timestamp) -> GrayFrame {
        let g = self.dvs.geometry();
        let mut pixels = Vec::with_capacity(g.pixel_count());
        for y in 0..g.height {
            for x in 0..g.width {
                pixels.push(scene.intensity(x as f64, y as f64, t) as f32);
            }
        }
        GrayFrame {
            timestamp: t,
            geometry: g,
            pixels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{MovingEdge, UniformScene};

    fn window_ms(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(Timestamp::from_millis(a), Timestamp::from_millis(b))
    }

    #[test]
    fn static_scene_produces_only_noise() {
        let cfg = DvsConfig::default().with_noise_rate(0.0);
        let mut cam = DvsCamera::new(SensorGeometry::new(16, 16), cfg);
        let events = cam
            .simulate(&UniformScene::new(0.5), window_ms(0, 20))
            .unwrap();
        assert!(
            events.is_empty(),
            "no contrast change, no noise → no events"
        );
    }

    #[test]
    fn noise_rate_produces_events_on_static_scene() {
        let cfg = DvsConfig::default().with_noise_rate(50.0); // very noisy
        let mut cam = DvsCamera::new(SensorGeometry::new(16, 16), cfg);
        let events = cam
            .simulate(&UniformScene::new(0.5), window_ms(0, 100))
            .unwrap();
        assert!(!events.is_empty());
    }

    #[test]
    fn moving_edge_fires_near_edge() {
        let cfg = DvsConfig::default().with_noise_rate(0.0);
        let mut cam = DvsCamera::new(SensorGeometry::new(64, 8), cfg);
        let scene = MovingEdge::new(8.0, 400.0); // sweeps 8→48 px in 100 ms
        let events = cam.simulate(&scene, window_ms(0, 100)).unwrap();
        assert!(!events.is_empty());
        // All events should be within the swept band (plus the soft edge).
        for ev in events.iter() {
            assert!(
                (6..=52).contains(&ev.x),
                "event at x={} outside swept band",
                ev.x
            );
        }
        // Swept pixels change dark→bright (they take the trailing left
        // intensity), so the sweep produces ON events.
        let (on, off) = events.polarity_counts();
        assert!(
            on > off,
            "expected mostly ON events, got {on} on / {off} off"
        );
    }

    #[test]
    fn simulation_is_deterministic_for_fixed_seed() {
        let cfg = DvsConfig::default().with_seed(7).with_noise_rate(5.0);
        let scene = MovingEdge::new(4.0, 300.0);
        let g = SensorGeometry::new(32, 16);
        let a = DvsCamera::new(g, cfg)
            .simulate(&scene, window_ms(0, 30))
            .unwrap();
        let b = DvsCamera::new(g, cfg)
            .simulate(&scene, window_ms(0, 30))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn consecutive_windows_continue_state() {
        let cfg = DvsConfig::default().with_noise_rate(0.0);
        let scene = MovingEdge::new(4.0, 100.0);
        let g = SensorGeometry::new(32, 8);
        let mut cam = DvsCamera::new(g, cfg);
        let a = cam.simulate(&scene, window_ms(0, 50)).unwrap();
        let b = cam.simulate(&scene, window_ms(50, 100)).unwrap();
        let mut whole_cam = DvsCamera::new(g, cfg);
        let whole = whole_cam.simulate(&scene, window_ms(0, 100)).unwrap();
        // Same total magnitude of activity (timestamps differ by jitter).
        let split_total = a.len() + b.len();
        let diff = (split_total as i64 - whole.len() as i64).abs();
        assert!(
            diff <= whole.len() as i64 / 5 + 4,
            "split {split_total} vs whole {}",
            whole.len()
        );
    }

    #[test]
    fn davis_frames_cover_window() {
        let cfg = DvsConfig::default().with_noise_rate(0.0);
        let mut cam =
            DavisCamera::new(SensorGeometry::new(16, 16), cfg, TimeDelta::from_millis(20));
        let rec = cam
            .record(&MovingEdge::new(2.0, 100.0), window_ms(0, 70))
            .unwrap();
        // Frames at 0, 20, 40, 60, 70 ms.
        assert_eq!(rec.frames.len(), 5);
        let intervals = rec.frame_intervals();
        assert_eq!(intervals.len(), 4);
        assert_eq!(intervals[0].duration(), TimeDelta::from_millis(20));
        assert_eq!(intervals[3].duration(), TimeDelta::from_millis(10));
        // Every event lies in some interval.
        for ev in rec.events.iter() {
            assert!(intervals.iter().any(|w| w.contains(ev.t)));
        }
    }

    #[test]
    fn gray_frame_indexing() {
        let cfg = DvsConfig::default();
        let cam = DavisCamera::new(SensorGeometry::new(8, 4), cfg, TimeDelta::from_millis(10));
        let frame = cam.capture_frame(&UniformScene::new(0.5), Timestamp::ZERO);
        assert_eq!(frame.pixels.len(), 32);
        assert!((frame.intensity(7, 3) - 0.5).abs() < 1e-6);
    }
}
