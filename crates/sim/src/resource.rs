//! FIFO resources with bounded concurrency.
//!
//! A [`Resource`] models one piece of simulated hardware that serves
//! operations in submission order: a PCI-E copy engine (concurrency 1), the
//! GPU compute engine (concurrency 32 — the CUDA limit the paper cites for
//! concurrent kernels), an SSD channel, or a network link.
//!
//! Submission order *is* service order (non-preemptive FIFO): an operation
//! submitted with a `ready` time begins at the later of its ready time and
//! the time a server slot frees up, where slots are granted in submission
//! order. This matches how the CUDA driver dispatches queued work and keeps
//! the whole simulation deterministic.

use crate::time::{SimDuration, SimTime};

/// The scheduled placement of one operation on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled {
    /// When service began.
    pub start: SimTime,
    /// When service completed (`start + duration`).
    pub end: SimTime,
}

/// A FIFO server with `concurrency` identical slots.
#[derive(Debug, Clone)]
pub struct Resource {
    name: String,
    /// Free times of each server slot, kept unsorted; we always pick the
    /// earliest-free slot, which preserves FIFO service order because
    /// submissions arrive with monotonically processed ready times.
    slots: Vec<SimTime>,
    /// Earliest time the next submission may start, enforcing FIFO even when
    /// a later submission has an earlier ready time.
    fifo_front: SimTime,
    busy: SimDuration,
    served: u64,
}

impl Resource {
    /// Create a resource with the given number of parallel server slots.
    ///
    /// # Panics
    /// Panics if `concurrency` is zero — a resource that can never serve is
    /// a configuration bug, not a runtime condition.
    pub fn new(name: impl Into<String>, concurrency: usize) -> Self {
        assert!(concurrency > 0, "resource concurrency must be >= 1");
        Resource {
            name: name.into(),
            slots: vec![SimTime::ZERO; concurrency],
            fifo_front: SimTime::ZERO,
            busy: SimDuration::ZERO,
            served: 0,
        }
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parallel server slots.
    pub fn concurrency(&self) -> usize {
        self.slots.len()
    }

    /// Submit an operation that becomes ready at `ready` and needs `duration`
    /// of service. Returns its scheduled start/end.
    pub fn submit(&mut self, ready: SimTime, duration: SimDuration) -> Scheduled {
        // FIFO: we may not start before any previously submitted op started.
        let ready = ready.max(self.fifo_front);
        // Pick the slot that frees earliest.
        let slot = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("resource has at least one slot");
        let start = ready.max(self.slots[slot]);
        let end = start + duration;
        self.slots[slot] = end;
        self.fifo_front = start;
        self.busy += duration;
        self.served += 1;
        Scheduled { start, end }
    }

    /// The earliest time any server slot becomes free — before this
    /// instant every slot is busy, so a newly ready operation would queue.
    pub fn earliest_free(&self) -> SimTime {
        self.slots
            .iter()
            .copied()
            .fold(SimTime::from_nanos(u64::MAX), SimTime::min)
    }

    /// The time at which all currently scheduled work completes.
    pub fn drain_time(&self) -> SimTime {
        self.slots.iter().copied().fold(SimTime::ZERO, SimTime::max)
    }

    /// Total service time delivered so far (sums across slots).
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of operations served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Reset to an idle state at t = 0, keeping the configuration.
    pub fn reset(&mut self) {
        for s in &mut self.slots {
            *s = SimTime::ZERO;
        }
        self.fifo_front = SimTime::ZERO;
        self.busy = SimDuration::ZERO;
        self.served = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }
    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn single_slot_serialises() {
        let mut r = Resource::new("h2d", 1);
        let a = r.submit(t(0), d(100));
        let b = r.submit(t(0), d(50));
        assert_eq!(a.start, t(0));
        assert_eq!(a.end, t(100));
        assert_eq!(b.start, t(100), "second op waits for the first");
        assert_eq!(b.end, t(150));
    }

    #[test]
    fn idle_gap_respected() {
        let mut r = Resource::new("h2d", 1);
        r.submit(t(0), d(10));
        let late = r.submit(t(1_000), d(10));
        assert_eq!(late.start, t(1_000), "resource idles until ready time");
    }

    #[test]
    fn fifo_holds_even_with_earlier_ready_after_later() {
        let mut r = Resource::new("h2d", 1);
        let first = r.submit(t(500), d(10));
        // Submitted later but ready earlier: must not start before `first`.
        let second = r.submit(t(0), d(10));
        assert!(second.start >= first.start);
    }

    #[test]
    fn two_slots_overlap() {
        let mut r = Resource::new("compute", 2);
        let a = r.submit(t(0), d(100));
        let b = r.submit(t(0), d(100));
        let c = r.submit(t(0), d(100));
        assert_eq!(a.start, t(0));
        assert_eq!(b.start, t(0), "second kernel runs concurrently");
        assert_eq!(c.start, t(100), "third waits for a free slot");
    }

    #[test]
    fn stats_accumulate() {
        let mut r = Resource::new("x", 1);
        r.submit(t(0), d(40));
        r.submit(t(0), d(60));
        assert_eq!(r.busy_time(), d(100));
        assert_eq!(r.served(), 2);
        assert_eq!(r.drain_time(), t(100));
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("x", 3);
        r.submit(t(0), d(40));
        r.reset();
        assert_eq!(r.drain_time(), SimTime::ZERO);
        assert_eq!(r.served(), 0);
        assert_eq!(r.busy_time(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "concurrency")]
    fn zero_concurrency_panics() {
        let _ = Resource::new("bad", 0);
    }
}
