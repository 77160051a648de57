//! The event loop's monotone queue: a radix heap over virtual time.
//!
//! Virtual time never runs backwards: every event is scheduled at
//! "now + delay", and "now" is the time of the event popped last. That
//! lets a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990) replace a
//! binary heap. An event waits in the bucket numbered by the highest bit
//! in which its time differs from "now". When nothing is due at "now",
//! the lowest non-empty bucket is emptied: "now" advances to its
//! smallest time and its events move to lower buckets. Each move lowers
//! an event's bucket, so it moves at most 64 times over its life.
//!
//! **Ordering contract.** Events pop in time order, and events of equal
//! time pop in the order they were scheduled. Two events of equal time
//! always share a bucket, and every move appends to a bucket emptied
//! before the move, so a bucket keeps equal times in scheduling order.
//! That is the `(time, seq)` order a binary heap with a sequence-number
//! tie-break gives, without the sequence number.
//!
//! Buckets keep their capacity when emptied: a bucket allocates only to
//! hold more items than it ever held before, so a warm queue schedules
//! and pops without allocating.

use std::collections::VecDeque;

/// A FIFO-stable monotone priority queue keyed on `u64` virtual time.
pub(crate) struct RadixQueue<T> {
    /// Time of the item popped last; nothing is ever scheduled before it.
    now: u64,
    /// Items due at exactly `now`, in scheduling order.
    due: VecDeque<T>,
    /// `buckets[b]` holds the items whose time differs from `now` first
    /// in bit `b`, each with its time.
    buckets: [Vec<(u64, T)>; 64],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
}

impl<T> RadixQueue<T> {
    /// An empty queue at time zero.
    pub(crate) fn new() -> Self {
        RadixQueue {
            now: 0,
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }

    /// Time of the item popped last (zero before the first pop).
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Schedule `item` at `now() + delay` (saturating at `u64::MAX`).
    pub(crate) fn schedule(&mut self, delay: u64, item: T) {
        self.place(self.now.saturating_add(delay), item);
    }

    /// Pop the earliest item with its time; among equal times, the one
    /// scheduled first.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        if self.due.is_empty() {
            self.advance();
        }
        self.due.pop_front().map(|item| (self.now, item))
    }

    /// File an item at `time >= now` into `due` or its bucket.
    fn place(&mut self, time: u64, item: T) {
        let diff = time ^ self.now;
        if diff == 0 {
            self.due.push_back(item);
            return;
        }
        let bit = 63 - diff.leading_zeros();
        match self.buckets.get_mut(bit as usize) {
            Some(bucket) => {
                bucket.push((time, item));
                self.occupied |= 1 << bit;
            }
            // A non-zero u64 has its highest set bit in 0..64.
            None => self.due.push_back(item),
        }
    }

    /// Advance `now` to the earliest pending time and refile the lowest
    /// non-empty bucket around it; its earliest items land in `due`.
    fn advance(&mut self) {
        if self.occupied == 0 {
            return;
        }
        let bit = self.occupied.trailing_zeros() as usize;
        let Some(bucket) = self.buckets.get_mut(bit) else { return };
        let mut moving = std::mem::take(bucket);
        self.occupied &= !(1 << bit);
        if let Some(min) = moving.iter().map(|&(time, _)| time).min() {
            self.now = min;
        }
        // Every time in the bucket now differs from `now` below `bit`,
        // so the drain refiles only into `due` and lower buckets.
        for (time, item) in moving.drain(..) {
            self.place(time, item);
        }
        // Hand the emptied buffer back so the bucket keeps its capacity.
        if let Some(bucket) = self.buckets.get_mut(bit) {
            *bucket = moving;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use tlsfoe_crypto::drbg::{Drbg, RngCore64};

    /// The order the radix queue must reproduce: a binary heap on
    /// `(time, seq)`, where `seq` numbers pushes.
    struct Reference {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        now: u64,
        seq: u64,
    }

    impl Reference {
        fn new() -> Self {
            Reference { heap: BinaryHeap::new(), now: 0, seq: 0 }
        }

        /// Schedule and return the item's id (its push number).
        fn schedule(&mut self, delay: u64) -> u64 {
            let id = self.seq;
            self.heap.push(Reverse((self.now + delay, id)));
            self.seq += 1;
            id
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let Reverse((time, id)) = self.heap.pop()?;
            self.now = time;
            Some((time, id))
        }
    }

    /// Schedule the same delay on both queues.
    fn schedule_both(queue: &mut RadixQueue<u64>, reference: &mut Reference, delay: u64) {
        let id = reference.schedule(delay);
        queue.schedule(delay, id);
    }

    /// A delay mix like the event loop's: zero delays (`Finalize`), equal
    /// link latencies, 1 µs hops, jittered backoff and timers far out.
    fn draw_delay(rng: &mut Drbg) -> u64 {
        match rng.next_u64() % 8 {
            0 => 0,
            1 => 1,
            2 => 20_000,
            3 => 40_000,
            4 => 15_000_000,
            5 => rng.next_u64() % 64,
            6 => rng.next_u64() % 1_000_000,
            _ => rng.next_u64() % (1 << 40),
        }
    }

    #[test]
    fn random_interleavings_match_the_reference_heap() {
        for seed in 0..64 {
            let mut rng = Drbg::new(seed);
            let mut queue = RadixQueue::new();
            let mut reference = Reference::new();
            for _ in 0..2_000 {
                if rng.next_u64() % 5 < 3 {
                    let delay = draw_delay(&mut rng);
                    schedule_both(&mut queue, &mut reference, delay);
                } else {
                    assert_eq!(queue.pop(), reference.pop(), "seed {seed}");
                    assert_eq!(queue.now(), reference.now);
                }
            }
            while let Some(expected) = reference.pop() {
                assert_eq!(queue.pop(), Some(expected), "seed {seed}");
            }
            assert_eq!(queue.pop(), None);
        }
    }

    #[test]
    fn equal_times_pop_in_scheduling_order() {
        let mut queue = RadixQueue::new();
        let mut reference = Reference::new();
        // Equal times reached along different paths: some scheduled
        // before the clock moved, some after, some with zero delay at
        // the new time.
        for _ in 0..4 {
            schedule_both(&mut queue, &mut reference, 100);
            schedule_both(&mut queue, &mut reference, 36);
        }
        assert_eq!(queue.pop(), reference.pop());
        for _ in 0..4 {
            schedule_both(&mut queue, &mut reference, 64);
            schedule_both(&mut queue, &mut reference, 0);
        }
        while let Some(expected) = reference.pop() {
            assert_eq!(queue.pop(), Some(expected));
        }
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn zero_delays_scheduled_while_draining_run_after_their_peers() {
        // `queue_close` schedules a `Finalize` with delay zero from inside
        // the loop: it must pop after every event already due now.
        let mut queue = RadixQueue::new();
        let mut reference = Reference::new();
        for _ in 0..3 {
            schedule_both(&mut queue, &mut reference, 20_000);
        }
        for _ in 0..3 {
            assert_eq!(queue.pop(), reference.pop());
            schedule_both(&mut queue, &mut reference, 0);
            schedule_both(&mut queue, &mut reference, 0);
        }
        while let Some(expected) = reference.pop() {
            assert_eq!(queue.pop(), Some(expected));
        }
    }

    #[test]
    fn far_timers_wait_behind_microsecond_hops() {
        // A 15 s deadline sits in a high bucket while 1 µs hops walk the
        // clock through thousands of low-bucket refills.
        let mut queue = RadixQueue::new();
        let mut reference = Reference::new();
        schedule_both(&mut queue, &mut reference, 15_000_000);
        schedule_both(&mut queue, &mut reference, 1);
        for _ in 0..5_000 {
            let popped = reference.pop();
            assert_eq!(queue.pop(), popped);
            if popped.is_some_and(|(time, _)| time < 15_000_000) {
                schedule_both(&mut queue, &mut reference, 1);
                schedule_both(&mut queue, &mut reference, 15_000_000);
            }
        }
        while let Some(expected) = reference.pop() {
            assert_eq!(queue.pop(), Some(expected));
        }
    }

    #[test]
    fn refilling_after_quiescence_continues_from_the_last_time() {
        // Several `run()` calls on one network: drain to empty, schedule
        // relative to the time the last drain stopped at, drain again.
        let mut rng = Drbg::new(0x5EED);
        let mut queue = RadixQueue::new();
        let mut reference = Reference::new();
        for _ in 0..50 {
            for _ in 0..(1 + rng.next_u64() % 40) {
                let delay = draw_delay(&mut rng);
                schedule_both(&mut queue, &mut reference, delay);
            }
            while let Some(expected) = reference.pop() {
                assert_eq!(queue.pop(), Some(expected));
                if rng.next_u64().is_multiple_of(3) {
                    let delay = draw_delay(&mut rng);
                    schedule_both(&mut queue, &mut reference, delay);
                }
            }
            assert_eq!(queue.pop(), None);
            assert_eq!(queue.now(), reference.now, "the clock survives an empty queue");
        }
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut queue = RadixQueue::new();
        queue.schedule(u64::MAX - 5, 'a');
        assert_eq!(queue.pop(), Some((u64::MAX - 5, 'a')));
        queue.schedule(10, 'b');
        queue.schedule(0, 'c');
        assert_eq!(queue.pop(), Some((u64::MAX - 5, 'c')));
        assert_eq!(queue.pop(), Some((u64::MAX, 'b')));
    }
}
