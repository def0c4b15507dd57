//! Device availability timelines for the online runtime.
//!
//! While the list scheduler plans offline candidates, the runtime pipeline
//! (E2SF → DSFA → inference) needs to know *when hardware becomes free*:
//! DSFA dispatches merge buckets early "if the hardware platform becomes
//! available before the event buffer reaches full capacity" (paper §4.2).
//! A [`DeviceTimeline`] tracks per-queue reservations in simulated time.

use crate::PlatformError;
use ev_core::{TimeDelta, Timestamp};

/// Per-queue reservation tracker in simulated time.
///
/// # Examples
///
/// ```
/// use ev_platform::timeline::DeviceTimeline;
/// use ev_core::{TimeDelta, Timestamp};
///
/// # fn main() -> Result<(), ev_platform::PlatformError> {
/// let mut tl = DeviceTimeline::new(2);
/// let t0 = Timestamp::from_millis(10);
/// let start = tl.earliest_start(0, t0)?;
/// assert_eq!(start, t0);
/// tl.reserve(0, start, TimeDelta::from_millis(5))?;
/// assert_eq!(tl.earliest_start(0, t0)?, Timestamp::from_millis(15));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTimeline {
    free_at: Vec<Timestamp>,
    busy: Vec<TimeDelta>,
}

impl DeviceTimeline {
    /// A timeline with `queues` idle devices.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn new(queues: usize) -> Self {
        assert!(queues > 0, "timeline needs at least one queue");
        DeviceTimeline {
            free_at: vec![Timestamp::ZERO; queues],
            busy: vec![TimeDelta::ZERO; queues],
        }
    }

    /// Number of queues.
    pub fn queues(&self) -> usize {
        self.free_at.len()
    }

    /// Earliest time work ready at `ready` can start on `queue`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidQueue`] for out-of-range queues.
    pub fn earliest_start(
        &self,
        queue: usize,
        ready: Timestamp,
    ) -> Result<Timestamp, PlatformError> {
        let free = self.free_at.get(queue).ok_or(PlatformError::InvalidQueue {
            node: 0,
            queue,
            queues: self.free_at.len(),
        })?;
        Ok(ready.max(*free))
    }

    /// Reserves `queue` for `[start, start + duration)`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidQueue`] for out-of-range queues, or
    /// [`PlatformError::ReservationConflict`] when `start` precedes the
    /// queue's free time.
    pub fn reserve(
        &mut self,
        queue: usize,
        start: Timestamp,
        duration: TimeDelta,
    ) -> Result<Timestamp, PlatformError> {
        let queues = self.free_at.len();
        let free = self
            .free_at
            .get_mut(queue)
            .ok_or(PlatformError::InvalidQueue {
                node: 0,
                queue,
                queues,
            })?;
        if start < *free {
            return Err(PlatformError::ReservationConflict {
                queue,
                requested: start,
                free_at: *free,
            });
        }
        let end = start + duration;
        *free = end;
        self.busy[queue] += duration;
        Ok(end)
    }

    /// Reserves `queue` at the earliest feasible start for work ready at
    /// `ready`; returns `(start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidQueue`] for out-of-range queues.
    pub fn reserve_next(
        &mut self,
        queue: usize,
        ready: Timestamp,
        duration: TimeDelta,
    ) -> Result<(Timestamp, Timestamp), PlatformError> {
        let start = self.earliest_start(queue, ready)?;
        let end = self.reserve(queue, start, duration)?;
        Ok((start, end))
    }

    /// Reserves `durations.len()` back-to-back slots on `queue`: the
    /// first at the earliest feasible start for work ready at `ready`,
    /// each subsequent slot exactly when its predecessor ends. Returns
    /// every slot's `(start, end)`.
    ///
    /// This is the batching entry point for dependency *chains* that
    /// stay on one queue (e.g. consecutive network layers mapped to the
    /// same processing element): the result is identical to calling
    /// [`DeviceTimeline::reserve_next`] once per slot. Zero slots never
    /// touch the queue, so an empty run on an out-of-range queue is not
    /// an error.
    ///
    /// # Errors
    ///
    /// Propagates [`DeviceTimeline::reserve_next`] errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use ev_platform::timeline::DeviceTimeline;
    /// use ev_core::{TimeDelta, Timestamp};
    ///
    /// # fn main() -> Result<(), ev_platform::PlatformError> {
    /// let mut tl = DeviceTimeline::new(1);
    /// let slots = tl.reserve_run(
    ///     0,
    ///     Timestamp::from_millis(5),
    ///     &[TimeDelta::from_millis(10), TimeDelta::from_millis(3)],
    /// )?;
    /// assert_eq!(slots[0], (Timestamp::from_millis(5), Timestamp::from_millis(15)));
    /// assert_eq!(slots[1], (Timestamp::from_millis(15), Timestamp::from_millis(18)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn reserve_run(
        &mut self,
        queue: usize,
        ready: Timestamp,
        durations: &[TimeDelta],
    ) -> Result<Vec<(Timestamp, Timestamp)>, PlatformError> {
        let mut slots = Vec::with_capacity(durations.len());
        let mut next_ready = ready;
        for &duration in durations {
            let slot = self.reserve_next(queue, next_ready, duration)?;
            next_ready = slot.1;
            slots.push(slot);
        }
        Ok(slots)
    }

    /// Busy time accumulated on `queue`.
    pub fn busy_time(&self, queue: usize) -> TimeDelta {
        self.busy.get(queue).copied().unwrap_or(TimeDelta::ZERO)
    }

    /// Utilization of `queue` over `[0, horizon)`.
    pub fn utilization(&self, queue: usize, horizon: TimeDelta) -> f64 {
        if horizon.as_micros() <= 0 {
            return 0.0;
        }
        self.busy_time(queue).as_secs_f64() / horizon.as_secs_f64()
    }

    /// Per-queue utilizations over `[0, horizon)`.
    pub fn utilizations(&self, horizon: TimeDelta) -> Vec<f64> {
        (0..self.queues())
            .map(|q| self.utilization(q, horizon))
            .collect()
    }

    /// Busy time summed over every queue.
    pub fn total_busy(&self) -> TimeDelta {
        self.busy.iter().fold(TimeDelta::ZERO, |acc, &b| acc + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    #[test]
    fn reservations_serialize() {
        let mut tl = DeviceTimeline::new(1);
        tl.reserve(0, ms(0), TimeDelta::from_millis(10)).unwrap();
        assert_eq!(tl.earliest_start(0, ms(2)).unwrap(), ms(10));
        let end = tl.reserve(0, ms(10), TimeDelta::from_millis(5)).unwrap();
        assert_eq!(end, ms(15));
    }

    #[test]
    fn conflict_detected() {
        let mut tl = DeviceTimeline::new(1);
        tl.reserve(0, ms(0), TimeDelta::from_millis(10)).unwrap();
        assert!(matches!(
            tl.reserve(0, ms(5), TimeDelta::from_millis(1)),
            Err(PlatformError::ReservationConflict { .. })
        ));
    }

    #[test]
    fn utilization_accounting() {
        let mut tl = DeviceTimeline::new(1);
        tl.reserve(0, ms(0), TimeDelta::from_millis(25)).unwrap();
        let u = tl.utilization(0, TimeDelta::from_millis(100));
        assert!((u - 0.25).abs() < 1e-9);
        assert_eq!(tl.utilization(0, TimeDelta::ZERO), 0.0);

        let mut tl = DeviceTimeline::new(2);
        tl.reserve(0, ms(0), TimeDelta::from_millis(25)).unwrap();
        tl.reserve(1, ms(0), TimeDelta::from_millis(75)).unwrap();
        assert_eq!(tl.total_busy(), TimeDelta::from_millis(100));
        let u = tl.utilizations(TimeDelta::from_millis(100));
        assert_eq!(u.len(), 2);
        assert!((u[0] - 0.25).abs() < 1e-9 && (u[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn invalid_queue_errors() {
        let tl = DeviceTimeline::new(1);
        assert!(tl.earliest_start(3, ms(0)).is_err());
    }

    #[test]
    fn reserve_run_matches_per_slot_reservations() {
        let durations = [
            TimeDelta::from_millis(4),
            TimeDelta::from_millis(1),
            TimeDelta::from_millis(7),
        ];
        let mut run_tl = DeviceTimeline::new(1);
        // A prior reservation so the run starts behind existing work.
        run_tl
            .reserve(0, ms(0), TimeDelta::from_millis(10))
            .unwrap();
        let slots = run_tl.reserve_run(0, ms(2), &durations).unwrap();

        let mut step_tl = DeviceTimeline::new(1);
        step_tl
            .reserve(0, ms(0), TimeDelta::from_millis(10))
            .unwrap();
        let mut expected = Vec::new();
        let mut ready = ms(2);
        for &d in &durations {
            let slot = step_tl.reserve_next(0, ready, d).unwrap();
            ready = slot.1;
            expected.push(slot);
        }
        assert_eq!(slots, expected);
        assert_eq!(run_tl, step_tl);
        assert!(run_tl.reserve_run(0, ms(0), &[]).unwrap().is_empty());
    }
}
