//! Deterministic discrete-event core.
//!
//! The simulator advances a single global clock measured in CPU cycles. The
//! only event kind is "wake processor P at cycle T": all memory-system state
//! changes happen synchronously while a processor executes, and contention
//! is modelled with per-resource occupancy windows ([`Resource`]). Events at
//! equal times are ordered by insertion sequence, making every simulation
//! bit-reproducible.

use crate::address::CpuId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in CPU cycles.
pub type Cycle = u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    time: Cycle,
    seq: u64,
    cpu: CpuId,
}

/// Min-heap of processor wake events.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `cpu` to wake at `time`.
    pub fn schedule(&mut self, time: Cycle, cpu: CpuId) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Ev { time, seq, cpu }));
    }

    /// Remove and return the earliest event as `(time, cpu)`.
    pub fn pop(&mut self) -> Option<(Cycle, CpuId)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.cpu))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Export the pending events as `(time, seq, cpu)` sorted by
    /// `(time, seq)` plus the next sequence stamp (the snapshot form).
    pub fn export(&self) -> (Vec<(Cycle, u64, CpuId)>, u64) {
        let mut evs: Vec<_> = self
            .heap
            .iter()
            .map(|Reverse(e)| (e.time, e.seq, e.cpu))
            .collect();
        evs.sort_unstable();
        (evs, self.seq)
    }

    /// Rebuild a queue from an exported event list. Sequence stamps are
    /// preserved, so pop order is exactly the exporter's.
    pub fn import(events: &[(Cycle, u64, CpuId)], next_seq: u64) -> Self {
        EventQueue {
            heap: events
                .iter()
                .map(|&(time, seq, cpu)| Reverse(Ev { time, seq, cpu }))
                .collect(),
            seq: next_seq,
        }
    }
}

/// A serially reusable hardware resource (bus, NI port, memory controller).
///
/// Transactions acquire the resource for an *occupancy* window; a
/// transaction arriving while the resource is busy queues until a gap is
/// free. Occupied windows are kept as an interval list rather than a single
/// `busy_until` watermark because the event loop allows a bounded amount of
/// time skew between processors (a processor may execute slightly past the
/// next pending event): a request issued at an *earlier* simulated time
/// must be able to slot into a gap before windows already reserved at later
/// times, or skew would masquerade as contention.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    /// Reserved service windows `(start, end)`, sorted by start.
    windows: std::collections::VecDeque<(Cycle, Cycle)>,
    /// Total cycles transactions spent waiting for this resource.
    pub contention_cycles: u64,
    /// Number of transactions served.
    pub transactions: u64,
}

/// Windows ending this far before the newest reservation can no longer
/// receive out-of-order requests (the engine's time skew is far smaller)
/// and are pruned.
const WINDOW_HORIZON: Cycle = 1 << 20;

impl Resource {
    /// A free resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupy the resource for `occupancy` cycles starting no earlier than
    /// `now`. Returns the cycle at which service *completes*.
    pub fn acquire(&mut self, now: Cycle, occupancy: Cycle) -> Cycle {
        self.transactions += 1;
        if occupancy == 0 {
            return now;
        }
        // Watermark fast path: a request landing at or after the newest
        // window's start can only be served at max(now, free_at) -- every
        // earlier window ends by the newest start, so no gap at or after
        // `now` precedes it. Back-to-back service extends the newest
        // window in place, so steady contention keeps the list at one
        // entry instead of one per transaction.
        let fast = match self.windows.back() {
            None => {
                self.windows.push_back((now, now + occupancy));
                return now + occupancy;
            }
            Some(&(s, e)) if now >= s => {
                let start = now.max(e);
                self.contention_cycles += start - now;
                if start == e {
                    self.windows.back_mut().expect("nonempty").1 = start + occupancy;
                } else {
                    self.windows.push_back((start, start + occupancy));
                }
                Some(start + occupancy)
            }
            _ => None,
        };
        if let Some(done) = fast {
            self.prune();
            return done;
        }
        // Gap-list slow path: a time-skewed request earlier than the
        // newest window scans for the earliest gap that fits.
        let mut start = now;
        let mut insert_at = 0;
        for (idx, &(s, e)) in self.windows.iter().enumerate() {
            if e <= start {
                insert_at = idx + 1;
                continue;
            }
            if s >= start + occupancy {
                insert_at = idx;
                break; // fits in the gap before this window
            }
            start = start.max(e);
            insert_at = idx + 1;
        }
        self.contention_cycles += start - now;
        self.windows.insert(insert_at, (start, start + occupancy));
        self.prune();
        start + occupancy
    }

    /// Drop windows too old to receive an out-of-order request (the
    /// engine's time skew is far below [`WINDOW_HORIZON`]).
    fn prune(&mut self) {
        if let Some(&(_, newest_end)) = self.windows.back() {
            while let Some(&(_, e)) = self.windows.front() {
                if e + WINDOW_HORIZON < newest_end {
                    self.windows.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// When the resource next becomes free (end of the last reserved
    /// window).
    pub fn free_at(&self) -> Cycle {
        self.windows.back().map_or(0, |&(_, e)| e)
    }

    /// Serialize the reserved windows and counters.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.deque(&self.windows, |w, &(s, e)| {
            w.u64(s);
            w.u64(e);
        });
        w.u64(self.contention_cycles);
        w.u64(self.transactions);
    }

    /// Restore a resource written by [`Resource::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(Resource {
            windows: r.deque(|r| Ok((r.u64()?, r.u64()?)))?,
            contention_cycles: r.u64()?,
            transactions: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, CpuId(2));
        q.schedule(10, CpuId(0));
        q.schedule(20, CpuId(1));
        assert_eq!(q.pop(), Some((10, CpuId(0))));
        assert_eq!(q.pop(), Some((20, CpuId(1))));
        assert_eq!(q.pop(), Some((30, CpuId(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, CpuId(9));
        q.schedule(5, CpuId(3));
        q.schedule(5, CpuId(7));
        assert_eq!(q.pop(), Some((5, CpuId(9))));
        assert_eq!(q.pop(), Some((5, CpuId(3))));
        assert_eq!(q.pop(), Some((5, CpuId(7))));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(42, CpuId(0));
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn resource_serializes_overlapping_transactions() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(100, 10), 110);
        // Second transaction arrives while busy: waits until 110.
        assert_eq!(r.acquire(105, 10), 120);
        assert_eq!(r.contention_cycles, 5);
        // Third arrives after the resource freed: no waiting.
        assert_eq!(r.acquire(300, 10), 310);
        assert_eq!(r.contention_cycles, 5);
        assert_eq!(r.transactions, 3);
    }

    #[test]
    fn resource_idle_gap_does_not_backdate() {
        let mut r = Resource::new();
        r.acquire(0, 50);
        assert_eq!(r.free_at(), 50);
        assert_eq!(r.acquire(200, 1), 201);
    }

    #[test]
    fn earlier_request_slots_into_past_gap() {
        let mut r = Resource::new();
        // A time-skewed processor reserves far in the future...
        assert_eq!(r.acquire(1000, 10), 1010);
        // ...an earlier-time request must not queue behind it.
        assert_eq!(r.acquire(100, 10), 110);
        assert_eq!(r.contention_cycles, 0);
        // A request overlapping the future window queues after it.
        assert_eq!(r.acquire(1005, 10), 1020);
        assert_eq!(r.contention_cycles, 5);
    }

    #[test]
    fn gap_between_windows_is_used() {
        let mut r = Resource::new();
        r.acquire(0, 10); // [0,10)
        r.acquire(100, 10); // [100,110)
                            // Fits exactly between the two.
        assert_eq!(r.acquire(20, 30), 50);
        // Does not fit before [100,110): 60..160 overlaps -> after.
        assert_eq!(r.acquire(60, 60), 170);
    }

    #[test]
    fn zero_occupancy_is_free() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(5, 0), 5);
        assert_eq!(r.free_at(), 0);
    }

    #[test]
    fn zero_occupancy_while_busy_does_not_queue() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(0, 100), 100);
        // A zero-cycle transaction completes immediately even while the
        // resource is mid-window, records no window, but is counted.
        assert_eq!(r.acquire(50, 0), 50);
        assert_eq!(r.transactions, 2);
        assert_eq!(r.contention_cycles, 0);
        assert_eq!(r.free_at(), 100);
    }

    #[test]
    fn out_of_order_requests_slot_into_gaps() {
        let mut r = Resource::new();
        r.acquire(100, 10); // [100,110)
        r.acquire(200, 10); // [200,210)
                            // A skewed request earlier than everything sits in front.
        assert_eq!(r.acquire(50, 10), 60);
        assert_eq!(r.contention_cycles, 0);
        // One that cannot fit in [60,100) takes the next gap that can
        // hold it: after [100,110).
        assert_eq!(r.acquire(55, 50), 160);
        assert_eq!(r.contention_cycles, 55);
        assert_eq!(r.free_at(), 210);
    }

    #[test]
    fn coalesced_contention_chain_matches_scan_semantics() {
        let mut r = Resource::new();
        // Overlapping arrivals serialize back-to-back exactly as the
        // original gap scan would have placed them.
        assert_eq!(r.acquire(0, 10), 10);
        assert_eq!(r.acquire(3, 10), 20);
        assert_eq!(r.acquire(7, 10), 30);
        assert_eq!(r.contention_cycles, 7 + 13);
        assert_eq!(r.free_at(), 30);
        // The chain occupies [0,30): an earlier-time request overlapping
        // it queues at the end, not inside.
        assert_eq!(r.acquire(1, 5), 35);
    }

    #[test]
    fn window_at_horizon_boundary_is_kept() {
        let mut r = Resource::new();
        r.acquire(0, 10); // [0,10)
                          // Newest end = WINDOW_HORIZON + 10: 10 + HORIZON < HORIZON + 10
                          // is false, so the old window survives exactly at the boundary.
        r.acquire(WINDOW_HORIZON + 9, 1);
        // A request at time 0 still sees [0,10) occupied: a 5-cycle job
        // must wait for the gap after it.
        assert_eq!(r.acquire(0, 5), 15);
    }

    #[test]
    fn window_past_horizon_boundary_is_pruned() {
        let mut r = Resource::new();
        r.acquire(0, 10); // [0,10)
                          // Newest end = WINDOW_HORIZON + 30 > 10 + HORIZON: pruned.
        r.acquire(WINDOW_HORIZON + 20, 10);
        // The ancient window is gone, so an ancient request starts
        // immediately where [0,10) used to be.
        assert_eq!(r.acquire(0, 5), 5);
    }
}
