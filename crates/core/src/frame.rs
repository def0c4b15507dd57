//! Sparse event frames: the unit flowing through the Ev-Edge runtime.

use core::fmt;
use ev_core::{TimeWindow, Timestamp};
use ev_sparse::coo::SparseTensor;

/// A two-channel (positive/negative polarity) sparse event frame covering a
/// time window — the output of E2SF and the input of DSFA (paper §4.1:
/// "each event bin is converted to a two-channel sparse frame").
#[derive(Debug, Clone, PartialEq)]
pub struct SparseFrame {
    tensor: SparseTensor,
    window: TimeWindow,
    event_count: usize,
    active_sites: usize,
}

impl SparseFrame {
    /// Wraps a sparse tensor with its time window and originating event
    /// count, counting its active spatial sites once.
    ///
    /// # Panics
    ///
    /// Panics if `tensor` does not have an even channel count (polarity
    /// pairs).
    pub fn new(tensor: SparseTensor, window: TimeWindow, event_count: usize) -> Self {
        let active_sites = tensor.count_active_sites();
        SparseFrame::with_active_sites(tensor, window, event_count, active_sites)
    }

    /// [`SparseFrame::new`] for a producer that already knows the
    /// tensor's active-site count (E2SF counts sites as events arrive,
    /// DSFA once per merge), so the frame never recounts it.
    pub(crate) fn with_active_sites(
        tensor: SparseTensor,
        window: TimeWindow,
        event_count: usize,
        active_sites: usize,
    ) -> Self {
        assert!(
            tensor.channels().is_multiple_of(2),
            "sparse frames carry polarity channel pairs"
        );
        debug_assert_eq!(active_sites, tensor.count_active_sites());
        SparseFrame {
            tensor,
            window,
            event_count,
            active_sites,
        }
    }

    /// The underlying `[2k, H, W]` sparse tensor.
    pub fn tensor(&self) -> &SparseTensor {
        &self.tensor
    }

    /// Consumes the frame, returning the tensor.
    pub fn into_tensor(self) -> SparseTensor {
        self.tensor
    }

    /// The time window the frame accumulates.
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// When the frame became available (its window end).
    pub fn ready_at(&self) -> Timestamp {
        self.window.end()
    }

    /// Number of raw events accumulated into the frame.
    pub fn event_count(&self) -> usize {
        self.event_count
    }

    /// Number of spatial sites `(row, col)` with at least one event.
    pub(crate) fn active_sites(&self) -> usize {
        self.active_sites
    }

    /// Fraction of spatial sites with at least one event; bit-identical
    /// to the tensor's [`SparseTensor::spatial_density`], without the
    /// recount.
    pub fn spatial_density(&self) -> f64 {
        self.active_sites as f64 / (self.tensor.height() * self.tensor.width()) as f64
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.tensor.nnz()
    }

    /// Whether the frame holds no events.
    pub fn is_empty(&self) -> bool {
        self.tensor.is_empty()
    }
}

impl fmt::Display for SparseFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SparseFrame {} ({} events, {:.2}% fill)",
            self.window,
            self.event_count,
            self.spatial_density() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::TimeDelta;
    use ev_sparse::coo::SparseEntry;

    #[test]
    fn frame_metadata() {
        let tensor = SparseTensor::from_entries(
            2,
            8,
            8,
            vec![
                SparseEntry::new(0, 1, 1, 2.0),
                SparseEntry::new(1, 1, 1, 1.0),
            ],
        )
        .unwrap();
        let window = TimeWindow::new(Timestamp::from_millis(4), Timestamp::from_millis(6));
        let frame = SparseFrame::new(tensor, window, 3);
        assert_eq!(frame.event_count(), 3);
        assert_eq!(frame.ready_at(), Timestamp::from_millis(6));
        assert_eq!(frame.nnz(), 2);
        // One active site of 64.
        assert_eq!(frame.active_sites(), 1);
        assert!((frame.spatial_density() - 1.0 / 64.0).abs() < 1e-12);
        assert_eq!(frame.window().duration(), TimeDelta::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "polarity")]
    fn odd_channel_count_rejected() {
        let tensor = SparseTensor::empty(3, 4, 4);
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(1));
        let _ = SparseFrame::new(tensor, window, 0);
    }
}
