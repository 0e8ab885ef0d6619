//! A deterministic future-event queue.
//!
//! Application-level simulations (netperf streams, Apache request storms,
//! memcached closed loops) need a calendar of future happenings: packet
//! arrivals from the client machine, timer expiries, deferred backend
//! work. [`EventQueue`] is a min-heap keyed by `(Cycles, seq)` where the
//! monotonic sequence number breaks ties, so two events scheduled for the
//! same instant pop in scheduling order and runs are bit-for-bit
//! reproducible.
//!
//! # Layout
//!
//! The heap is a *flat four-ary* array rather than `BinaryHeap`'s binary
//! layout: sift-down scans four adjacent children per level and the tree
//! is half as deep. Each entry packs its instant and sequence number into
//! one `u128` key, instant in the high word, so a single integer compare
//! orders two entries exactly as the tuple `(when, seq)` would, over the
//! whole `u64` range of both. A sift reads the moving entry's key once
//! and compares keys only; [`EventQueue::pop`] moves the last entry into
//! the root and sifts it down, so each level costs one swap.
//! [`EventQueue::clear`] retains the allocation so scenario resets in
//! the parallel runner are allocation-free.

use crate::Cycles;

const ARITY: usize = 4;

/// A heap slot: the packed `(when, seq)` key next to the payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    key: u128,
    payload: T,
}

/// `(when, seq)` as one integer that orders like the tuple.
#[inline]
fn pack(when: Cycles, seq: u64) -> u128 {
    (u128::from(when.as_u64()) << 64) | u128::from(seq)
}

/// The instant half of a packed key.
#[inline]
fn when_of(key: u128) -> Cycles {
    Cycles::new((key >> 64) as u64)
}

/// A future-event calendar ordered by instant, FIFO among equal instants.
///
/// # Examples
///
/// ```
/// use hvx_engine::{Cycles, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycles::new(200), "later");
/// q.schedule(Cycles::new(100), "sooner");
/// q.schedule(Cycles::new(100), "sooner-but-second");
///
/// assert_eq!(q.pop(), Some((Cycles::new(100), "sooner")));
/// assert_eq!(q.pop(), Some((Cycles::new(100), "sooner-but-second")));
/// assert_eq!(q.pop(), Some((Cycles::new(200), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    slots: Vec<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue that can hold `capacity` events without
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Reserves room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Empties the queue, **keeping** its allocation and resetting the
    /// FIFO sequence counter — the scenario-reset path of the parallel
    /// runner, which reuses one queue across scenarios allocation-free.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.next_seq = 0;
    }

    /// Schedules `payload` to occur at `when`.
    pub fn schedule(&mut self, when: Cycles, payload: T) {
        let key = pack(when, self.next_seq);
        self.next_seq += 1;
        self.slots.push(Entry { key, payload });
        self.sift_up(self.slots.len() - 1);
    }

    /// Schedules `payload` at `now + delta`, saturating at the cycle
    /// horizon, and returns the scheduled instant. Sugar for the common
    /// "this happens `delta` cycles from now" pattern.
    pub fn schedule_after(&mut self, now: Cycles, delta: Cycles, payload: T) -> Cycles {
        let when = Cycles::new(now.as_u64().saturating_add(delta.as_u64()));
        self.schedule(when, payload);
        when
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycles, T)> {
        let last = self.slots.pop()?;
        let entry = match self.slots.first_mut() {
            Some(root) => {
                let entry = std::mem::replace(root, last);
                self.sift_down(0);
                entry
            }
            None => last,
        };
        Some((when_of(entry.key), entry.payload))
    }

    /// The instant of the earliest event without removing it.
    #[inline]
    pub fn peek_when(&self) -> Option<Cycles> {
        self.slots.first().map(|e| when_of(e.key))
    }

    /// Removes the earliest event only if it occurs at or before `now`.
    pub fn pop_due(&mut self, now: Cycles) -> Option<(Cycles, T)> {
        match self.peek_when() {
            Some(w) if w <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    #[inline]
    fn sift_up(&mut self, mut idx: usize) {
        let key = self.slots[idx].key;
        while idx > 0 {
            let parent = (idx - 1) / ARITY;
            if key >= self.slots[parent].key {
                break;
            }
            self.slots.swap(idx, parent);
            idx = parent;
        }
    }

    #[inline]
    fn sift_down(&mut self, mut idx: usize) {
        let len = self.slots.len();
        let key = self.slots[idx].key;
        loop {
            let first_child = idx * ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + ARITY).min(len);
            // The four children are adjacent, so this scan is one cache
            // line in the common case.
            let (mut smallest, mut smallest_key) = (first_child, self.slots[first_child].key);
            for child in first_child + 1..last_child {
                let child_key = self.slots[child].key;
                if child_key < smallest_key {
                    (smallest, smallest_key) = (child, child_key);
                }
            }
            if smallest_key >= key {
                break;
            }
            self.slots.swap(idx, smallest);
            idx = smallest;
        }
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(30), 3);
        q.schedule(Cycles::new(10), 1);
        q.schedule(Cycles::new(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_instants_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles::new(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(100), "a");
        q.schedule(Cycles::new(200), "b");
        assert_eq!(q.pop_due(Cycles::new(50)), None);
        assert_eq!(q.pop_due(Cycles::new(100)), Some((Cycles::new(100), "a")));
        assert_eq!(q.pop_due(Cycles::new(150)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_when(), None);
        q.schedule(Cycles::new(7), ());
        assert_eq!(q.peek_when(), Some(Cycles::new(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn schedule_after_offsets_and_saturates() {
        let mut q = EventQueue::new();
        let when = q.schedule_after(Cycles::new(100), Cycles::new(40), "x");
        assert_eq!(when, Cycles::new(140));
        assert_eq!(q.pop(), Some((Cycles::new(140), "x")));
        let horizon = q.schedule_after(Cycles::MAX, Cycles::new(1), "clamped");
        assert_eq!(horizon, Cycles::MAX);
    }

    #[test]
    fn clear_keeps_allocation_and_resets_fifo() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        for i in 0..50 {
            q.schedule(Cycles::new(5), i);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), cap, "clear must keep the allocation");
        // Sequence counter restarts: FIFO order is per-lifetime again.
        q.schedule(Cycles::new(9), 100);
        q.schedule(Cycles::new(9), 200);
        assert_eq!(q.pop(), Some((Cycles::new(9), 100)));
        assert_eq!(q.pop(), Some((Cycles::new(9), 200)));
    }

    #[test]
    fn reserve_grows_capacity() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.reserve(128);
        assert!(q.capacity() >= 128);
    }

    #[test]
    fn random_interleaving_matches_sorted_order() {
        // Deterministic LCG; no external rand needed here.
        let mut state = 0x2545F491_4F6CDD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for i in 0..5_000 {
            let t = next() % 997;
            q.schedule(Cycles::new(t), i);
            expected.push((t, i));
        }
        expected.sort(); // (time, insertion index) == (when, seq) order
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(w, p)| (w.as_u64(), p))).collect();
        assert_eq!(got, expected);
    }
}
