//! The stand-ins under `shims/` sit beneath every measured number, so
//! the semantics the product relies on are pinned here.
//!
//! Concurrent tests force their interleavings with channels and barriers
//! rather than sleeps; the only waits on the clock are the timeouts
//! being tested.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, RecvError, RecvTimeoutError, TryRecvError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

// --- crossbeam::channel -------------------------------------------------------

#[test]
fn channel_is_fifo() {
    let (tx, rx) = unbounded();
    for i in 0..1000 {
        tx.send(i).unwrap();
    }
    for i in 0..1000 {
        assert_eq!(rx.recv(), Ok(i));
    }
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
}

#[test]
fn channel_is_multi_producer_multi_consumer() {
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 2000;
    let (tx, rx) = unbounded::<u64>();
    let (sum_tx, sum_rx) = unbounded::<(u64, u64)>();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let rx = rx.clone();
            let sum_tx = sum_tx.clone();
            scope.spawn(move || {
                let (mut count, mut sum) = (0, 0);
                while let Ok(v) = rx.recv() {
                    count += 1;
                    sum += v;
                }
                sum_tx.send((count, sum)).unwrap();
            });
        }
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            scope.spawn(move || {
                for i in 0..PER_PRODUCER {
                    tx.send(p * PER_PRODUCER + i).unwrap();
                }
            });
        }
        // The consumers stop when the last sender is gone.
        drop(tx);
    });
    drop(sum_tx);
    let (mut count, mut sum) = (0, 0);
    while let Ok((c, s)) = sum_rx.try_recv() {
        count += c;
        sum += s;
    }
    let total = PRODUCERS * PER_PRODUCER;
    // Every message delivered exactly once: the count and the sum of
    // 0..total both match.
    assert_eq!(count, total);
    assert_eq!(sum, total * (total - 1) / 2);
}

#[test]
fn channel_disconnects_after_draining() {
    let (tx, rx) = unbounded();
    tx.send(1).unwrap();
    tx.clone().send(2).unwrap();
    drop(tx);
    // Queued messages outlive their senders.
    assert_eq!(rx.recv(), Ok(1));
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(2));
    assert_eq!(rx.recv(), Err(RecvError));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Err(RecvTimeoutError::Disconnected));

    let (tx, rx) = unbounded();
    drop(rx);
    assert_eq!(tx.send(7).unwrap_err().0, 7, "a refused message comes back");
}

#[test]
fn dropping_the_last_sender_wakes_a_blocked_receiver() {
    let (tx, rx) = unbounded::<u8>();
    let ready = Arc::new(Barrier::new(2));
    std::thread::scope(|scope| {
        let waiter = scope.spawn({
            let ready = Arc::clone(&ready);
            move || {
                ready.wait();
                rx.recv()
            }
        });
        ready.wait();
        drop(tx);
        assert_eq!(waiter.join().unwrap(), Err(RecvError));
    });
}

#[test]
fn recv_timeout_waits_its_time_and_no_longer_than_needed() {
    let (tx, rx) = unbounded::<u8>();
    let wait = Duration::from_millis(30);
    let t = Instant::now();
    assert_eq!(rx.recv_timeout(wait), Err(RecvTimeoutError::Timeout));
    assert!(t.elapsed() >= wait, "returned after {:?}", t.elapsed());

    // A message sent while the receiver waits ends the wait early.
    std::thread::scope(|scope| {
        scope.spawn(|| tx.send(9).unwrap());
        let t = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(9));
        assert!(t.elapsed() < Duration::from_secs(10));
    });
}

// --- crossbeam::select! ----------------------------------------------------------

/// Which arm fired, as reported by a selecting thread.
#[derive(Debug, PartialEq)]
enum Arm {
    First(Result<u8, RecvError>),
    Second(Result<&'static str, RecvError>),
}

#[test]
fn select_wakes_on_either_arm_and_on_sender_drop() {
    let (tx1, rx1) = unbounded::<u8>();
    let (tx2, rx2) = unbounded::<&'static str>();
    let (seen_tx, seen_rx) = unbounded::<Arm>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..3 {
                // The same shape the scheduler uses: a block arm, then
                // an expression arm.
                let arm = crossbeam::select! {
                    recv(rx1) -> msg => {
                        Arm::First(msg)
                    }
                    recv(&rx2) -> msg => Arm::Second(msg),
                };
                seen_tx.send(arm).unwrap();
            }
        });
        let long = Duration::from_secs(30);
        // Each send happens only after the previous wake-up was
        // reported, so the selector is (re-)blocking on both arms.
        tx2.send("second").unwrap();
        assert_eq!(seen_rx.recv_timeout(long), Ok(Arm::Second(Ok("second"))));
        tx1.send(1).unwrap();
        assert_eq!(seen_rx.recv_timeout(long), Ok(Arm::First(Ok(1))));
        drop(tx1);
        assert_eq!(seen_rx.recv_timeout(long), Ok(Arm::First(Err(RecvError))));
        drop(tx2);
    });
}

#[test]
fn select_returns_at_once_when_an_arm_is_ready() {
    let (tx1, rx1) = unbounded::<u8>();
    let (tx2, rx2) = unbounded::<u8>();
    tx2.send(5).unwrap();
    let got = crossbeam::select! {
        recv(rx1) -> msg => {
            msg.map(|v| v + 100)
        }
        recv(rx2) -> msg => msg,
    };
    assert_eq!(got, Ok(5));
    drop((tx1, tx2));
}

#[test]
fn scoped_threads_borrow_and_join() {
    let mut slots = [0u32; 4];
    crossbeam::thread::scope(|scope| {
        for (i, slot) in slots.iter_mut().enumerate() {
            scope.spawn(move |_| *slot = i as u32 * 10);
        }
    })
    .unwrap();
    assert_eq!(slots, [0, 10, 20, 30]);
}

// --- bytes ---------------------------------------------------------------------------

#[test]
fn bytes_slices_and_clones_alias_one_allocation() {
    let mut buf = BytesMut::with_capacity(16);
    buf.put_u32_le(0xDEAD_BEEF);
    buf.put_u8(7);
    buf.put_u64_le(42);
    buf.put_f32_le(1.5);
    buf[4] = 8; // in-place patching, as the codecs do for checksums
    let whole = buf.freeze();
    let tail = whole.slice(4..);
    let copy = whole.clone();
    assert_eq!(tail.len(), whole.len() - 4);
    assert_eq!(tail.as_ptr(), whole[4..].as_ptr(), "a slice is a view, not a copy");
    assert_eq!(copy.as_ptr(), whole.as_ptr(), "a clone is a view, not a copy");
    assert_eq!(whole.slice(1..3), Bytes::copy_from_slice(&whole[1..3]));
    assert!(Bytes::new().is_empty());

    let mut cursor: &[u8] = &whole;
    assert_eq!(cursor.get_u32_le(), 0xDEAD_BEEF);
    assert_eq!(cursor.get_u8(), 8);
    assert_eq!(cursor.get_u64_le(), 42);
    assert_eq!(cursor.remaining(), 4);
    assert_eq!(cursor.get_f32_le(), 1.5);
    assert_eq!(cursor.remaining(), 0);
}

#[test]
#[should_panic(expected = "out of range")]
fn bytes_slice_past_the_end_panics() {
    Bytes::from(vec![1, 2, 3]).slice(2..5);
}

// --- rand ------------------------------------------------------------------------------

#[test]
fn std_rng_streams_follow_their_seed() {
    let draw = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..8).map(|_| rng.gen::<u64>()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
    assert_ne!(draw(0)[0], 0, "seed 0 must not give the all-zero xoshiro state");
}

#[test]
fn gen_range_respects_its_bounds() {
    let mut rng = StdRng::seed_from_u64(1);
    let (mut low, mut high) = (false, false);
    for _ in 0..10_000 {
        let a = rng.gen_range(3..7usize);
        assert!((3..7).contains(&a));
        let b = rng.gen_range(0..=4u32);
        low |= b == 0;
        high |= b == 4;
        let c: f32 = rng.gen_range(-1.0..1.0);
        assert!((-1.0..1.0).contains(&c));
        let d = rng.gen_range(0..=u64::MAX);
        let _ = d; // the full span must not overflow
        let unit: f64 = rng.gen();
        assert!((0.0..1.0).contains(&unit));
    }
    assert!(low && high, "an inclusive range reaches both ends");
    assert_eq!(rng.gen_range(5..6u16), 5);
}

#[test]
fn gen_range_and_gen_bool_are_uniform() {
    let mut rng = StdRng::seed_from_u64(2);
    const DRAWS: usize = 200_000;
    let mut buckets = [0usize; 10];
    let mut heads = 0usize;
    for _ in 0..DRAWS {
        buckets[rng.gen_range(0..10usize)] += 1;
        heads += usize::from(rng.gen_bool(0.3));
    }
    // σ of a bucket is ≈ 134; 5 % of the mean is over 7 σ.
    for (i, &n) in buckets.iter().enumerate() {
        let share = n as f64 / (DRAWS as f64 / 10.0);
        assert!((0.95..1.05).contains(&share), "bucket {i}: {n}");
    }
    let rate = heads as f64 / DRAWS as f64;
    assert!((0.29..0.31).contains(&rate), "gen_bool(0.3) came up {rate}");
    assert!(rng.gen_bool(1.0));
    assert!(!rng.gen_bool(0.0));
}

#[test]
fn shuffle_is_an_unbiased_permutation() {
    let mut rng = StdRng::seed_from_u64(3);
    const N: usize = 6;
    const ROUNDS: usize = 60_000;
    let mut landed = [[0usize; N]; N];
    for _ in 0..ROUNDS {
        let mut v: Vec<usize> = (0..N).collect();
        v.shuffle(&mut rng);
        for (position, &element) in v.iter().enumerate() {
            landed[element][position] += 1;
        }
        v.sort_unstable();
        assert_eq!(v, (0..N).collect::<Vec<_>>(), "nothing lost, nothing duplicated");
    }
    for row in landed {
        for n in row {
            let share = n as f64 / (ROUNDS as f64 / N as f64);
            assert!((0.95..1.05).contains(&share), "an element favours a position: {n}");
        }
    }
}

// --- parking_lot ---------------------------------------------------------------------------

#[test]
fn mutex_survives_a_panicking_holder() {
    let shared = parking_lot::Mutex::new(1);
    let outcome = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut guard = shared.lock();
                *guard = 2;
                panic!("holder dies with the lock held");
            })
            .join()
    });
    assert!(outcome.is_err());
    assert_eq!(*shared.lock(), 2, "no poisoning: the lock is still usable");
    assert_eq!(shared.into_inner(), 2);
}

#[test]
fn condvar_hands_the_lock_back_after_waiting() {
    let state = parking_lot::Mutex::new(false);
    let changed = parking_lot::Condvar::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            *state.lock() = true;
            changed.notify_all();
        });
        let mut guard = state.lock();
        while !*guard {
            changed.wait(&mut guard);
        }
        assert!(*guard);
        // Nothing more will notify: a timed wait must time out and
        // still return holding the lock.
        assert!(changed.wait_for(&mut guard, Duration::from_millis(10)).timed_out());
        *guard = false;
    });
    assert!(!*state.lock());
}
