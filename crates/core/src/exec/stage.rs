//! Frontend stages: the DSFA aggregator between E2SF and the inference
//! queue.
//!
//! The paper's Figure 4 system is a pipeline: the Event2Sparse-Frame
//! converter bins raw events, the Dynamic Sparse Frame Aggregator merges
//! frames, and merged batches enter bounded inference queues (whose
//! backpressure — the §4.2 oldest-drop rule — lives in
//! [`crate::exec::engine::ExecEngine`]). A [`Stage`] consumes inputs,
//! may emit zero or more outputs per input, and can be flushed at a
//! simulated instant (DSFA's hardware-availability rule). The runtimes
//! call E2SF directly and drive a [`DsfaStage`] per task, interleaving
//! its flushes with the engine's idleness signal.
//!
//! # Examples
//!
//! ```
//! use ev_core::event::{Event, Polarity, SensorGeometry};
//! use ev_core::stream::EventSlice;
//! use ev_core::{TimeWindow, Timestamp};
//! use ev_edge::dsfa::DsfaConfig;
//! use ev_edge::e2sf::{E2sf, E2sfConfig};
//! use ev_edge::exec::stage::{DsfaStage, Stage};
//!
//! # fn main() -> Result<(), ev_edge::EvEdgeError> {
//! let events = EventSlice::new(
//!     SensorGeometry::DAVIS346,
//!     vec![Event::new(10, 20, Timestamp::from_millis(1), Polarity::On)],
//! )?;
//! let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(8));
//! let mut dsfa = DsfaStage::new(DsfaConfig::default())?;
//! let mut jobs = Vec::new();
//! for frame in E2sf::new(E2sfConfig::new(4)).convert(&events, window)? {
//!     jobs.extend(dsfa.push(frame)?);
//! }
//! // Whatever is still buffered leaves at the end of the window.
//! jobs.extend(dsfa.flush(window.end())?);
//! assert_eq!(jobs.iter().map(|j| j.events).sum::<usize>(), 1);
//! # Ok(())
//! # }
//! ```

use crate::dsfa::{Dsfa, DsfaConfig, MergedBatch};
use crate::exec::job::JobInput;
use crate::frame::SparseFrame;
use crate::EvEdgeError;
use ev_core::Timestamp;

/// One stage of a streaming frontend.
pub trait Stage {
    /// What the stage consumes.
    type In;
    /// What the stage emits.
    type Out;

    /// Feeds one input; returns everything the stage emits in response
    /// (possibly nothing — aggregating stages buffer).
    ///
    /// # Errors
    ///
    /// Propagates stage-specific failures.
    fn push(&mut self, input: Self::In) -> Result<Vec<Self::Out>, EvEdgeError>;

    /// Forces out buffered state at simulated time `at` (e.g. DSFA's
    /// early dispatch when the hardware is already idle).
    ///
    /// # Errors
    ///
    /// Propagates stage-specific failures.
    fn flush(&mut self, at: Timestamp) -> Result<Vec<Self::Out>, EvEdgeError>;
}

fn job_of_batch(batch: &MergedBatch) -> JobInput {
    JobInput {
        ready: batch.emitted_at,
        batch: batch.batch_size(),
        density: batch.mean_density(),
        events: batch.event_count(),
    }
}

/// The DSFA aggregator as a stage: sparse frames in, batched inference
/// inputs out (paper §4.2).
#[derive(Debug)]
pub struct DsfaStage {
    dsfa: Dsfa,
}

impl DsfaStage {
    /// A stage aggregating under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::InvalidDsfaConfig`] for inconsistent
    /// configurations.
    pub fn new(config: DsfaConfig) -> Result<Self, EvEdgeError> {
        Ok(DsfaStage {
            dsfa: Dsfa::new(config)?,
        })
    }

    /// How aggressively frames were merged so far, in `[0, 1]` (feeds
    /// the accuracy model's aggregation term).
    pub fn aggregation_aggressiveness(&self) -> f64 {
        self.dsfa.aggregation_aggressiveness()
    }
}

impl Stage for DsfaStage {
    type In = SparseFrame;
    type Out = JobInput;

    fn push(&mut self, frame: SparseFrame) -> Result<Vec<JobInput>, EvEdgeError> {
        Ok(self.dsfa.push(frame)?.iter().map(job_of_batch).collect())
    }

    fn flush(&mut self, at: Timestamp) -> Result<Vec<JobInput>, EvEdgeError> {
        Ok(self.dsfa.flush(at).iter().map(job_of_batch).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2sf::{E2sf, E2sfConfig};
    use ev_core::event::{Event, Polarity, SensorGeometry};
    use ev_core::stream::EventSlice;
    use ev_core::TimeWindow;

    fn test_events() -> EventSlice {
        let g = SensorGeometry::DAVIS346;
        let events = (0..200u64)
            .map(|k| {
                Event::new(
                    (k % 40) as u16,
                    (k % 30) as u16,
                    Timestamp::from_micros(k * 100),
                    if k % 2 == 0 {
                        Polarity::On
                    } else {
                        Polarity::Off
                    },
                )
            })
            .collect();
        EventSlice::new(g, events).unwrap()
    }

    #[test]
    fn dsfa_stage_matches_manual_dsfa() {
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(20));
        let frames = E2sf::new(E2sfConfig::new(4))
            .convert(&test_events(), window)
            .unwrap();

        let mut stage = DsfaStage::new(DsfaConfig::default()).unwrap();
        let mut stage_jobs = Vec::new();
        for frame in frames.clone() {
            stage_jobs.extend(stage.push(frame).unwrap());
        }
        stage_jobs.extend(stage.flush(window.end()).unwrap());

        let mut dsfa = Dsfa::new(DsfaConfig::default()).unwrap();
        let mut manual_jobs = Vec::new();
        for frame in frames {
            if let Some(batch) = dsfa.push(frame).unwrap() {
                manual_jobs.push(job_of_batch(&batch));
            }
        }
        if let Some(batch) = dsfa.flush(window.end()) {
            manual_jobs.push(job_of_batch(&batch));
        }
        assert_eq!(stage_jobs, manual_jobs);
        assert!(!stage_jobs.is_empty());
        assert_eq!(
            stage.aggregation_aggressiveness(),
            dsfa.aggregation_aggressiveness()
        );
    }
}
