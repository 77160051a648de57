//! The event loop's allocation budget, counted by the global allocator.
//!
//! A warm connection exchanging frames must not allocate per message:
//! the event queue keeps its buckets' capacity and payload buffers come
//! from the network's pool. Faulted frames (corrupted or truncated on
//! the wire) draw on the same pool, so faults never grow it.
//!
//! "Warm" includes the queue: bucket `b` first fills, and allocates, when
//! the virtual clock first crosses a multiple of `2^b` µs. So each test
//! warms up until the clock passes `2^k` µs and measures while it stays
//! below `2^(k+1)`, a span that crosses no power of two it has not
//! crossed before.
//!
//! Counters are per thread, so tests running in parallel do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tlsfoe_netsim::{
    Conduit, FaultProfile, IoCtx, Ipv4, LinkProfile, Network, NetworkConfig, Shared,
};

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(allocs: u64, bytes: i64) {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// The system allocator, counting what each thread does.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn server_ip() -> Ipv4 {
    Ipv4([203, 0, 113, 1])
}

fn client_ip() -> Ipv4 {
    Ipv4([198, 51, 100, 7])
}

/// Echoes every frame back unchanged.
struct Echo;
impl Conduit for Echo {
    fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        io.send(data);
    }
}

/// The measured span of virtual time: `[WARM_US, 2 * WARM_US)`.
const WARM_US: u64 = 1 << 26;

/// Ping-pongs one frame over one connection until the clock reaches
/// `2 * WARM_US`, noting the allocation counter and the exchange count at
/// the first reply past `WARM_US` and at the last one.
struct Pinger {
    frame: [u8; 300],
    exchanges: u64,
    marks: Shared<Vec<(u64, u64)>>,
}

impl Conduit for Pinger {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        io.send(&self.frame);
    }
    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        assert_eq!(data, self.frame);
        self.exchanges += 1;
        // A reply arrives one round trip after the previous one.
        let last = io.now_us() + 2 * LinkProfile::default().latency_us >= 2 * WARM_US;
        let first = io.now_us() >= WARM_US && self.marks.lock().is_empty();
        if first || last {
            // Read the counter before the push, which may allocate.
            let mark = (allocs(), self.exchanges);
            self.marks.lock().push(mark);
        }
        if last {
            io.close();
        } else {
            io.send(&self.frame);
        }
    }
}

#[test]
fn warm_ping_pong_allocates_nothing_per_exchange() {
    let mut net = Network::new(NetworkConfig::default(), 1);
    net.listen(server_ip(), 80, Box::new(|_| Box::new(Echo)));
    let marks = Shared::new(Vec::with_capacity(2));
    let pinger = Pinger { frame: [0x5A; 300], exchanges: 0, marks: marks.clone() };
    net.dial_from(client_ip(), server_ip(), 80, Box::new(pinger)).unwrap();
    net.run().unwrap();
    let marks = marks.lock();
    let [(warm_allocs, warm_exchanges), (end_allocs, end_exchanges)] = marks[..] else {
        panic!("expected two marks, got {marks:?}");
    };
    assert!(end_exchanges - warm_exchanges > 1_000, "{marks:?}");
    assert_eq!(end_allocs - warm_allocs, 0, "warm exchanges must not allocate: {marks:?}");
}

/// Sends `frames` frames of 512 bytes, then closes.
struct Burst {
    frames: u32,
}

impl Conduit for Burst {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        for i in 0..self.frames {
            io.send(&[i as u8; 512]);
        }
        io.close();
    }
    fn on_data(&mut self, _data: &[u8], _io: &mut IoCtx<'_>) {}
}

/// Tallies frames that arrived damaged: a flipped byte or a cut-short
/// frame.
#[derive(Default)]
struct Damage {
    corrupted: u64,
    truncated: u64,
}

struct Inspector {
    damage: Shared<Damage>,
}

impl Conduit for Inspector {
    fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
    fn on_data(&mut self, data: &[u8], _io: &mut IoCtx<'_>) {
        let mut damage = self.damage.lock();
        if data.len() < 512 {
            damage.truncated += 1;
        } else if data.iter().any(|&b| b != data[0]) {
            damage.corrupted += 1;
        }
    }
}

#[test]
fn faulted_frames_do_not_grow_the_pool() {
    let mut net = Network::new(NetworkConfig::default(), 2);
    let damage = Shared::new(Damage::default());
    net.listen(server_ip(), 80, {
        let damage = damage.clone();
        Box::new(move |_| Box::new(Inspector { damage: damage.clone() }))
    });
    let faulty = LinkProfile {
        faults: FaultProfile { corrupt: 0.6, truncate: 0.6, ..FaultProfile::none() },
        ..LinkProfile::default()
    };
    // One round: 32 concurrent connections of 8 frames each, run to
    // quiescence (three one-way latencies), stalls reclaimed.
    let round = |net: &mut Network| {
        for _ in 0..32 {
            net.dial_from(client_ip(), server_ip(), 80, Box::new(Burst { frames: 8 })).unwrap();
        }
        net.run().unwrap();
        net.reap_stalled();
    };
    // Warm up fault-free: every frame of a round is in flight at once,
    // the most a round can ever have, so the pool and the queue's
    // buckets reach their working size.
    let warm_us: u64 = 1 << 23;
    while net.now_us() < warm_us {
        round(&mut net);
    }
    let tally = || {
        let damage = damage.lock();
        (damage.corrupted, damage.truncated)
    };
    net.set_link(client_ip(), faulty);
    let warm = live_bytes();
    let before = tally();
    let round_us = 4 * LinkProfile::default().latency_us;
    while net.now_us() + round_us < 2 * warm_us {
        round(&mut net);
    }
    let after = tally();
    assert!(after.0 - before.0 > 1_000, "corrupted frames arrived: {before:?} {after:?}");
    assert!(after.1 - before.1 > 1_000, "truncated frames arrived: {before:?} {after:?}");
    // A buffer kept per faulted frame would add 512 bytes per frame, some
    // megabytes here. What may still grow is the capacity of the queue's
    // `due` list and buckets, which fault-free rounds never filled the
    // way faulted ones do (a truncation puts a close beside its frame).
    let grown = live_bytes() - warm;
    assert!(grown < 64 * 512, "faulted frames must reuse pooled buffers: grew {grown} bytes");
}
