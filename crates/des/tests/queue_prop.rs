//! Property tests pinning the event queue's FIFO tie-breaking — the
//! ordering contract every golden report rests on.
//!
//! The queue breaks same-timestamp ties with a monotone `u64` sequence
//! counter. A narrower (`u32`) counter would wrap after ~4.3 billion
//! events and silently reorder ties, so these tests replay the same
//! schedules with the counter started at and beyond `u32::MAX` (via the
//! `start_seq_at` test hook) and demand order-identical behaviour.

use proptest::prelude::*;

use qic_des::queue::EventQueue;
use qic_des::time::SimTime;
use qic_physics::time::Duration;

/// Seed values for the sequence counter: fresh, straddling the `u32`
/// boundary, and far beyond it.
const SEQ_STARTS: [u64; 4] = [0, u32::MAX as u64 - 2, u32::MAX as u64 + 1, 1 << 40];

/// Reference model: a stable sort by timestamp. Stability is exactly
/// the FIFO-tie contract.
fn reference_order(times: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..times.len()).collect();
    idx.sort_by_key(|&i| times[i]);
    idx
}

proptest! {
    /// Bulk schedule, then drain: pops must match a stable sort by
    /// timestamp, for every sequence-counter start.
    #[test]
    fn fifo_ties_hold_at_and_beyond_u32_seq(
        times in proptest::collection::vec(0u64..50, 1..300),
    ) {
        let expected = reference_order(&times);
        for start in SEQ_STARTS {
            let mut q = EventQueue::new();
            q.start_seq_at(start);
            for (i, &t) in times.iter().enumerate() {
                q.schedule_at(SimTime::from_nanos(t), i);
            }
            let popped: Vec<usize> =
                std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            prop_assert_eq!(&popped, &expected, "seq start {}", start);
        }
    }

    /// Interleaved schedule/pop against an executable model: after each
    /// round of relative schedules, pop a few events. The model pops the
    /// pending event with the smallest `(timestamp, arrival index)` —
    /// the definition of FIFO tie-breaking — and the queue must agree
    /// event for event, regardless of where the counter started.
    #[test]
    fn interleaved_ops_match_model_across_u32_boundary(
        rounds in proptest::collection::vec(
            (proptest::collection::vec(0u64..40, 0..8), 0usize..4),
            1..40,
        ),
    ) {
        for start in SEQ_STARTS {
            let mut q = EventQueue::new();
            q.start_seq_at(start);
            // Model state: (absolute time, arrival index) per pending event.
            let mut pending: Vec<(u64, usize)> = Vec::new();
            let mut arrivals = 0usize;
            let mut now = 0u64;
            fn drain(
                q: &mut EventQueue<usize>,
                pending: &mut Vec<(u64, usize)>,
                now: &mut u64,
                count: usize,
            ) {
                for _ in 0..count {
                    let model = pending
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(at, arrival))| (at, arrival))
                        .map(|(slot, _)| slot);
                    match (model, q.pop()) {
                        (Some(slot), Some((t, id))) => {
                            let (at, arrival) = pending.remove(slot);
                            assert_eq!(t.as_nanos(), at);
                            assert_eq!(id, arrival);
                            *now = at;
                        }
                        (None, None) => break,
                        (model, real) => panic!("model {model:?} vs queue {real:?}"),
                    }
                }
            }
            for (delays, pops) in &rounds {
                for &dt in delays {
                    q.schedule_after(Duration::from_nanos(dt), arrivals);
                    pending.push((now + dt, arrivals));
                    arrivals += 1;
                }
                drain(&mut q, &mut pending, &mut now, *pops);
            }
            drain(&mut q, &mut pending, &mut now, usize::MAX);
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.events_processed(), arrivals as u64);
        }
    }

    /// Recurring delays against the same `(at, arrival)` model, with
    /// `len()` checked after every operation. The delays come from more
    /// distinct values than the queue has delay classes, so classes are
    /// claimed, collide and fall back to the heap, and they are small,
    /// so different delays often meet at one instant; `schedule_now`
    /// and `pop_batch` interleave with them.
    #[test]
    fn recurring_delays_match_model_with_exact_len(
        ops in proptest::collection::vec((0u8..10, 0usize..RECURRING.len()), 1..400),
    ) {
        for start in SEQ_STARTS {
            let mut q = EventQueue::new();
            q.start_seq_at(start);
            let mut pending: Vec<(u64, usize)> = Vec::new();
            let mut arrivals = 0usize;
            let mut batch = Vec::new();
            for &(kind, pick) in &ops {
                let now = q.now().as_nanos();
                match kind {
                    0..=5 => {
                        q.schedule_after(Duration::from_nanos(RECURRING[pick]), arrivals);
                        pending.push((now + RECURRING[pick], arrivals));
                        arrivals += 1;
                    }
                    6 | 7 => {
                        q.schedule_now(arrivals);
                        pending.push((now, arrivals));
                        arrivals += 1;
                    }
                    _ => {
                        let expected = pop_instant(&mut pending);
                        let at = q.pop_batch(&mut batch).map(|t| t.as_nanos());
                        prop_assert_eq!(at, expected.first().map(|&(at, _)| at), "seq start {}", start);
                        let ids: Vec<usize> = expected.iter().map(|&(_, id)| id).collect();
                        prop_assert_eq!(&batch, &ids, "seq start {}", start);
                    }
                }
                prop_assert_eq!(q.len(), pending.len(), "seq start {}", start);
            }
            while !pending.is_empty() {
                let expected = pop_instant(&mut pending);
                prop_assert!(q.pop_batch(&mut batch).is_some());
                let ids: Vec<usize> = expected.iter().map(|&(_, id)| id).collect();
                prop_assert_eq!(&batch, &ids, "seq start {}", start);
                prop_assert_eq!(q.len(), pending.len(), "seq start {}", start);
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.events_processed(), arrivals as u64);
        }
    }
}

/// 40 distinct positive delays: more than the queue's delay classes.
const RECURRING: [u64; 40] = {
    let mut delays = [0u64; 40];
    let mut i = 0;
    while i < 40 {
        delays[i] = 1 + 3 * i as u64;
        i += 1;
    }
    delays
};

/// Removes the model's events at its earliest instant, in arrival
/// order: what one `pop_batch` must return.
fn pop_instant(pending: &mut Vec<(u64, usize)>) -> Vec<(u64, usize)> {
    let Some(first) = pending.iter().map(|&(at, _)| at).min() else {
        return Vec::new();
    };
    let mut batch: Vec<(u64, usize)> = pending
        .iter()
        .copied()
        .filter(|&(at, _)| at == first)
        .collect();
    pending.retain(|&(at, _)| at != first);
    batch.sort_unstable();
    batch
}

/// The counter refuses to wrap: scheduling past `u64::MAX` sequence
/// numbers fails loudly instead of silently reordering ties.
#[test]
#[should_panic(expected = "event sequence counter wrapped")]
fn seq_exhaustion_panics_instead_of_wrapping() {
    let mut q = EventQueue::new();
    q.start_seq_at(u64::MAX);
    q.schedule_at(SimTime::from_nanos(1), 0); // takes seq u64::MAX
    q.schedule_at(SimTime::from_nanos(1), 1); // would wrap
}

/// `start_seq_at` is only a fresh-queue hook; used mid-run it could
/// break monotonicity, so it must refuse.
#[test]
#[should_panic(expected = "fresh queue")]
fn start_seq_at_rejects_used_queues() {
    let mut q = EventQueue::new();
    q.schedule_at(SimTime::from_nanos(1), 0);
    q.start_seq_at(7);
}
