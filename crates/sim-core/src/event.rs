//! Deterministic discrete-event queue.
//!
//! Events pop in time order, and events at equal times pop in the order they
//! were pushed, so a simulation replays identically from run to run.
//!
//! The queue is a *monotone radix queue*: the simulator only ever schedules
//! at or after the time of the event it is processing, so every pending time
//! is at least `last`, the time of the most recent pop. Pending events sit in
//! 65 buckets keyed on how far their time is from `last`:
//!
//! * bucket 0 holds the events at exactly `last`;
//! * bucket `b` in 1..=64 holds the events whose highest bit that differs
//!   from `last` is bit `b − 1`.
//!
//! Every time in bucket `b` is smaller than every time in a higher bucket, so
//! the earliest event lies in the lowest non-empty bucket, which a non-empty
//! bitmask finds in O(1). When bucket 0 runs empty, `pop` moves `last` up to
//! the minimum of that bucket, kept per bucket as entries are linked, and
//! re-links the bucket's entries relative to it; each lands in a strictly
//! lower bucket, so an event is re-linked at most 64 times over its life and
//! a pop costs amortized O(1) instead of a heap's O(log n). Buckets above
//! the re-linked one keep their meaning, because the new `last` agrees with
//! the old one at those bits.
//!
//! **Why no sequence number is needed.** An event's bucket is a function of
//! its time and `last` alone, so events at equal times always share one
//! bucket, and each bucket is a FIFO list. A push appends to the tail of its
//! bucket, behind every earlier push at the same time. A re-link walks the
//! bucket in list order and appends into lower buckets that are empty at that
//! moment (bucket 0 is empty, and everything below the re-linked bucket is
//! empty because it was the lowest non-empty one), so events at equal times
//! keep their relative order. Bucket 0 therefore pops in push order.
//!
//! **A push earlier than `last`** breaks the monotone assumption. The engine
//! schedules only at or after its current time, which is at least `last`, so
//! it makes none; the queue still accepts one by moving `last` down to the
//! new time and re-linking every pending entry relative to it, in O(n). The
//! old buckets are walked one list at a time, and equal times come from one
//! list, so FIFO order survives this too.
//!
//! **Memory.** Every event lives in one slab of `(time, next, payload)`
//! entries; the per-bucket lists and a free list are threaded through `next`.
//! Popped entries are reused before the slab grows, so its length is the
//! high-water mark of pending events (for the engine's 12-byte events, 24
//! bytes each), and empty buckets hold no memory of their own. Entries from
//! `fresh` on are free without being on the free list: the ones a push has
//! not yet needed, and after a hand-over every entry past the run.
//!
//! **Runs.** A barrier release wakes many events at once, all known when it
//! is made, and each would pay its own push and re-links.
//! [`EventQueue::hand_over`] takes such a batch as *trains*: train `k` is
//! `len` events at `base + ramp[i]`, one shared non-decreasing `ramp` for all
//! trains. Into an empty queue the batch becomes the *run*: every slab entry
//! is free then, so the run fills entries `0..n` in pop order, `pop` takes
//! the run's head unless the radix minimum is strictly earlier, and each
//! popped run entry goes to the free list for later pushes, so the run costs
//! no memory beyond the slab's high-water mark. No sequence number is
//! needed for the tie between the two: the queue was empty when the run
//! arrived, so every radix entry was pushed after it, and a run entry pops
//! first at equal times. A batch handed over while anything is pending is
//! pushed entry by entry, in train order.
//!
//! The run is ordered by (time, push order) without a comparison sort. The
//! trains give its span, from the earliest `base + ramp[0]` to the latest
//! train end, without visiting an event; a counting pass splits that span
//! into at least half as many equal power-of-two buckets as there are events
//! and places each event, in push order, at the next slot of its bucket; one
//! insertion pass then orders each bucket's few events by time, moving an
//! event only past strictly later ones. Both steps keep push order among
//! equal times. A batch whose fullest bucket holds more than
//! `RUN_BUCKET_MAX` events (times bunched at a few points far apart) is
//! ordered by a stable sort instead, so no shape costs quadratic time. The
//! slab and the bucket counts are kept and reused, so a hand-over allocates
//! nothing once they have grown to the largest batch.

use crate::time::Ps;

/// Buckets: 0 for the reference time itself, then one per bit of a `u64`.
const BUCKETS: usize = 65;

/// End of a list.
const NIL: u32 = u32::MAX;

/// Most events one bucket of a run's counting pass may hold before the run
/// is ordered by a stable sort instead of the insertion pass.
const RUN_BUCKET_MAX: u32 = 64;

/// One slab entry: a pending event linked into its bucket or in the run, or
/// a free entry.
#[derive(Debug)]
struct Slot<E> {
    at: Ps,
    next: u32,
    /// `None` only while the entry is free.
    ev: Option<E>,
}

/// A priority queue of timed events with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    slab: Vec<Slot<E>>,
    /// First and last entry of each bucket's FIFO list; `tail[b]` and
    /// `min[b]` are meaningful only while `head[b] != NIL`.
    head: [u32; BUCKETS],
    tail: [u32; BUCKETS],
    /// Smallest time in each bucket (bucket 0's is `last`).
    min: [Ps; BUCKETS],
    /// Bit `b − 1` is set iff bucket `b` (1..=64) is non-empty.
    nonempty: u64,
    /// Reference time, never later than a pending event: the time of the
    /// most recent pop, or of a push that went earlier.
    last: Ps,
    /// Head of the free list of slab entries.
    free: u32,
    /// First slab entry neither pending nor on the free list; every entry
    /// from it on is free.
    fresh: u32,
    /// The run's pending entries, `slab[run..run_end]`, in pop order.
    run: u32,
    run_end: u32,
    /// Bucket counts of the run's counting pass, kept for reuse.
    counts: Vec<u32>,
}

/// The bucket of an event at `at` relative to the reference time `last`:
/// 0 if equal, else one more than the index of the highest differing bit.
#[inline]
fn bucket(at: Ps, last: Ps) -> usize {
    (u64::BITS - (at.0 ^ last.0).leading_zeros()) as usize
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            head: [NIL; BUCKETS],
            tail: [NIL; BUCKETS],
            min: [Ps::ZERO; BUCKETS],
            nonempty: 0,
            last: Ps::ZERO,
            free: NIL,
            fresh: 0,
            run: 0,
            run_end: 0,
            counts: Vec::new(),
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: Ps, event: E) {
        if at < self.last {
            self.rebase(at);
        }
        let i = if self.free != NIL {
            let i = self.free;
            self.free = self.slab[i as usize].next;
            i
        } else {
            if self.fresh as usize == self.slab.len() {
                assert!(self.slab.len() < NIL as usize, "too many pending events");
                self.slab.push(Slot {
                    at,
                    next: NIL,
                    ev: None,
                });
            }
            self.fresh += 1;
            self.fresh - 1
        };
        let slot = &mut self.slab[i as usize];
        slot.at = at;
        slot.ev = Some(event);
        self.link(bucket(at, self.last), i);
    }

    /// Remove and return the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(Ps, E)> {
        if self.run < self.run_end {
            let i = self.run;
            let at = self.slab[i as usize].at;
            if self.radix_min().is_none_or(|min| at <= min) {
                self.run += 1;
                return Some((at, self.release(i)));
            }
        }
        if self.head[0] == NIL {
            if self.nonempty == 0 {
                return None;
            }
            self.relink_lowest();
        }
        let i = self.head[0];
        self.head[0] = self.slab[i as usize].next;
        Some((self.last, self.release(i)))
    }

    /// Take the event of pending slab entry `i` and put the entry on the
    /// free list.
    #[inline]
    fn release(&mut self, i: u32) -> E {
        let slot = &mut self.slab[i as usize];
        slot.next = self.free;
        self.free = i;
        slot.ev
            .take()
            .expect("a pending slab entry holds its event")
    }

    pub fn is_empty(&self) -> bool {
        self.head[0] == NIL && self.nonempty == 0 && self.run == self.run_end
    }

    /// Schedule a batch of trains: train `k`, `trains[k] = (base, len)`, is
    /// `len` events at `base + ramp[i]` for `i` in `0..len`, pushed train by
    /// train, and `evs` yields their payloads in that order. `ramp` must be
    /// non-decreasing and cover the longest train. Into an empty queue the
    /// batch becomes the run (see the module doc); otherwise each event is
    /// pushed.
    pub fn hand_over(
        &mut self,
        trains: &[(Ps, u32)],
        ramp: &[Ps],
        evs: impl IntoIterator<Item = E>,
    ) {
        debug_assert!(
            ramp.windows(2).all(|w| w[0] <= w[1]),
            "ramp must not decrease"
        );
        let times = || {
            trains
                .iter()
                .flat_map(|&(base, len)| ramp[..len as usize].iter().map(move |&r| base + r))
        };
        let mut evs = evs.into_iter();
        if !self.is_empty() {
            for at in times() {
                self.push(at, evs.next().expect("a payload for every event"));
            }
            assert!(evs.next().is_none(), "more payloads than events");
            return;
        }
        let (mut n, mut lo, mut hi) = (0, Ps(u64::MAX), Ps::ZERO);
        for &(base, len) in trains.iter().filter(|t| t.1 > 0) {
            n += len as usize;
            lo = lo.min(base + ramp[0]);
            hi = hi.max(base + ramp[len as usize - 1]);
        }
        // At least n / 2 buckets, each 2^shift ps wide, span the run.
        let buckets = (n / 2).next_power_of_two();
        let shift = u64::BITS - ((hi.0.saturating_sub(lo.0)) / buckets as u64).leading_zeros();
        let bucket = |at: Ps| (at - lo).0.checked_shr(shift).unwrap_or(0) as usize;
        self.counts.clear();
        self.counts.resize(buckets + 1, 0);
        for at in times() {
            self.counts[bucket(at) + 1] += 1;
        }
        let fullest = self.counts.iter().copied().max().unwrap_or(0);
        let mut start = 0;
        for c in &mut self.counts {
            start += *c;
            *c = start;
        }
        // The queue is empty, so every slab entry is free: the run takes
        // entries `0..n`, each written once below, and the rest are fresh.
        assert!(n < NIL as usize, "too many pending events");
        if self.slab.len() < n {
            self.slab.resize_with(n, || Slot {
                at: Ps::ZERO,
                next: NIL,
                ev: None,
            });
        }
        for at in times() {
            let ev = evs.next().expect("a payload for every event");
            let slot = &mut self.counts[bucket(at)];
            let entry = &mut self.slab[*slot as usize];
            entry.at = at;
            entry.ev = Some(ev);
            *slot += 1;
        }
        assert!(evs.next().is_none(), "more payloads than events");
        let run = &mut self.slab[..n];
        if fullest > RUN_BUCKET_MAX {
            run.sort_by_key(|e| e.at);
        } else {
            for k in 1..n {
                let mut j = k;
                while j > 0 && run[j - 1].at > run[j].at {
                    run.swap(j - 1, j);
                    j -= 1;
                }
            }
        }
        (self.free, self.fresh) = (NIL, n as u32);
        (self.run, self.run_end) = (0, n as u32);
    }

    /// The earliest time in the radix buckets, if any.
    #[inline]
    fn radix_min(&self) -> Option<Ps> {
        if self.head[0] != NIL {
            Some(self.last)
        } else if self.nonempty != 0 {
            Some(self.min[self.lowest()])
        } else {
            None
        }
    }

    /// The lowest non-empty bucket above 0; `nonempty` must be non-zero.
    #[inline]
    fn lowest(&self) -> usize {
        self.nonempty.trailing_zeros() as usize + 1
    }

    /// Append slab entry `i` to the tail of bucket `b`.
    #[inline]
    fn link(&mut self, b: usize, i: u32) {
        let at = self.slab[i as usize].at;
        self.slab[i as usize].next = NIL;
        if self.head[b] == NIL {
            self.head[b] = i;
            self.min[b] = at;
            if b > 0 {
                self.nonempty |= 1 << (b - 1);
            }
        } else {
            self.slab[self.tail[b] as usize].next = i;
            self.min[b] = self.min[b].min(at);
        }
        self.tail[b] = i;
    }

    /// Bucket 0 is empty: advance `last` to the earliest pending time and
    /// re-link the lowest non-empty bucket relative to it.
    fn relink_lowest(&mut self) {
        let b = self.lowest();
        self.nonempty &= !(1 << (b - 1));
        self.last = self.min[b];
        let list = std::mem::replace(&mut self.head[b], NIL);
        self.relink(list);
    }

    /// A push at `at < last`: move `last` down to `at` and re-link every
    /// pending entry relative to it, one old bucket list at a time.
    fn rebase(&mut self, at: Ps) {
        let heads = std::mem::replace(&mut self.head, [NIL; BUCKETS]);
        self.nonempty = 0;
        self.last = at;
        for list in heads {
            self.relink(list);
        }
    }

    /// Append the entries of the detached list starting at `i`, in list
    /// order, to their buckets relative to `last`.
    fn relink(&mut self, mut i: u32) {
        while i != NIL {
            let next = self.slab[i as usize].next;
            self.link(bucket(self.slab[i as usize].at, self.last), i);
            i = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Ps(30), "c");
        q.push(Ps(10), "a");
        q.push(Ps(20), "b");
        assert_eq!(q.pop(), Some((Ps(10), "a")));
        assert_eq!(q.pop(), Some((Ps(20), "b")));
        assert_eq!(q.pop(), Some((Ps(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Ps(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Ps(5), i)));
        }
    }

    #[test]
    fn is_empty_sees_the_buckets_and_the_run() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Ps(7), 'a');
        q.push(Ps(3), 'b');
        assert!(!q.is_empty());
        q.pop();
        q.pop();
        assert!(q.is_empty());
        q.hand_over(&[(Ps(9), 2)], &[Ps(0), Ps(4)], ['c', 'd']);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((Ps(9), 'c')));
        assert_eq!(q.pop(), Some((Ps(13), 'd')));
        assert!(q.is_empty());
    }

    #[test]
    fn a_run_pops_before_later_pushes_at_its_times() {
        let mut q = EventQueue::new();
        // Trains interleave and tie: 10, 12, 12 and 11, 13, 13 and 10.
        q.hand_over(
            &[(Ps(10), 3), (Ps(11), 3), (Ps(10), 1)],
            &[Ps(0), Ps(2), Ps(2)],
            ["a0", "a1", "a2", "b0", "b1", "b2", "c0"],
        );
        q.push(Ps(10), "p");
        // Pending besides the run: the batch is pushed entry by entry.
        q.hand_over(&[(Ps(11), 2)], &[Ps(0), Ps(1)], ["d0", "d1"]);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want = [
            (10, "a0"),
            (10, "c0"),
            (10, "p"),
            (11, "b0"),
            (11, "d0"),
            (12, "a1"),
            (12, "a2"),
            (12, "d1"),
            (13, "b1"),
            (13, "b2"),
        ];
        assert_eq!(order, want.map(|(t, e)| (Ps(t), e)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Ps(10), 1);
        q.push(Ps(5), 0);
        assert_eq!(q.pop(), Some((Ps(5), 0)));
        q.push(Ps(7), 2);
        q.push(Ps(12), 3);
        assert_eq!(q.pop(), Some((Ps(7), 2)));
        assert_eq!(q.pop(), Some((Ps(10), 1)));
        assert_eq!(q.pop(), Some((Ps(12), 3)));
    }

    /// Property test: seeded interleaved push/pop with *heavily duplicated*
    /// timestamps replays in exactly the order a stable sort by arrival
    /// would produce — the FIFO-at-equal-times contract the whole engine's
    /// determinism rests on.
    #[test]
    fn fifo_replay_matches_stable_model_under_duplicates() {
        // xorshift64* — deterministic, no external deps.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545F4914F6CDD1D);
            state
        };
        for round in 0..50u64 {
            let mut q = EventQueue::new();
            // Model: FIFO list of (time, id); a pop takes the earliest time,
            // first-inserted entry — i.e. min by (time, insertion index),
            // which a stable min-scan over arrival order gives for free.
            let mut model: Vec<(Ps, u64)> = Vec::new();
            let mut next_id = 0u64;
            for _ in 0..400 {
                if rng() % 3 != 0 || model.is_empty() {
                    // Only 4 distinct times: duplicates are the common case.
                    let t = Ps(round + rng() % 4);
                    q.push(t, next_id);
                    model.push((t, next_id));
                    next_id += 1;
                } else {
                    let min_t = model.iter().map(|e| e.0).min().unwrap();
                    let pos = model.iter().position(|e| e.0 == min_t).unwrap();
                    let expect = model.remove(pos);
                    assert_eq!(q.pop(), Some(expect), "round {round}");
                }
            }
            // Drain: remaining events come out in stable (time, arrival)
            // order.
            while let Some(got) = q.pop() {
                let min_t = model.iter().map(|e| e.0).min().unwrap();
                let pos = model.iter().position(|e| e.0 == min_t).unwrap();
                assert_eq!(got, model.remove(pos), "round {round} drain");
            }
            assert!(model.is_empty());
        }

        // Engine-shaped rounds on the same model: trains of wakes 2^20–2^27
        // ps past the time of the last pop, equal-time bursts at it, pushes
        // before it, and releases handed over at times 2^20–2^27 ps ahead,
        // with the entry count and the bucket layout checked after
        // every operation. The bases put the times in low and middle bits,
        // across 2^63 and near the top of the range.
        let bases = [0, 1 << 40, (1 << 63) - (1 << 30), u64::MAX - (1 << 48)];
        for (round, base) in bases.into_iter().cycle().take(16).enumerate() {
            let mut r = Replay::new(Ps(base));
            let (mut early, mut runs) = (0, 0);
            for op in 0..3000 {
                r.ctx = format!("round {round} op {op}");
                let now = r.now;
                let times: Vec<Ps> = match rng() % 16 {
                    0..=3 => {
                        let ahead = (1 << (20 + rng() % 8)) + rng() % (1 << 20);
                        let gap = rng() % 3;
                        (0..=rng() % 4).map(|k| now + Ps(ahead + k * gap)).collect()
                    }
                    4..=5 => vec![now; 1 + rng() as usize % 4],
                    6 if now > Ps::ZERO => {
                        early += 1;
                        vec![Ps(now.0 - 1 - rng() % now.0.min(1 << 24))]
                    }
                    _ => Vec::new(),
                };
                // Every 250th operation drains the queue first, so the batch
                // becomes the run; the others find events pending.
                let drain = op % 250 == 249;
                if drain || rng() % 64 == 0 {
                    if drain {
                        r.drain();
                    }
                    let ahead = (1 << (20 + rng() % 8)) + rng() % (1 << 20);
                    let (trains, ramp) = release(&mut rng, now + Ps(ahead), 1 << 16);
                    runs += r.model.is_empty() as u32;
                    r.hand_over(&trains, &ramp);
                } else if !times.is_empty() {
                    times.into_iter().for_each(|t| r.push(t));
                } else {
                    r.pop();
                }
            }
            r.drain();
            assert!(early > 0, "round {round} never pushed before the last pop");
            assert!(runs > 0, "round {round} never handed over a run");
        }

        // Hand-over rounds: batches of interleaving trains on a ramp with
        // equal steps, at bases that tie each other and the time of the last
        // pop, pushes at the same few times, pops between and a drain every
        // 300 operations. Batches that find the queue empty become the run;
        // the rest are pushed one by one. Every 8th batch bunches
        // its events at two times 2^40 ps apart, so its fullest bucket
        // overflows and the stable sort orders the run.
        for round in 0..24 {
            let mut r = Replay::new(Ps(rng() % (1 << 50)));
            let (mut runs, mut pushed, mut bunched) = (0, 0, 0);
            for op in 0..1500 {
                r.ctx = format!("hand-over round {round} op {op}");
                if op % 300 == 299 {
                    r.drain();
                }
                let now = r.now;
                match rng() % 8 {
                    0 if r.model.is_empty() || rng() % 3 == 0 => {
                        let (trains, ramp) = if (runs + pushed) % 8 == 7 {
                            bunched += 1;
                            bunch(&mut rng, now)
                        } else {
                            release(&mut rng, now, 8)
                        };
                        if r.model.is_empty() {
                            runs += 1;
                        } else {
                            pushed += 1;
                        }
                        r.hand_over(&trains, &ramp);
                    }
                    1..=3 => (0..=rng() % 3).for_each(|_| r.push(now + Ps(rng() % 24))),
                    _ => r.pop(),
                }
            }
            r.drain();
            assert!(runs > 0 && pushed > 0 && bunched > 0, "{}", r.ctx);
        }

        // Rounds whose pushes differ from the time of the last pop in one
        // 4-bit digit, raised to a higher value, with duplicates, pushes at
        // that time and pops between: every bucket of the rule, and
        // re-links from each one down.
        for round in 0..16 {
            let mut r = Replay::new(Ps::ZERO);
            r.ctx = format!("digit round {round}");
            r.push(Ps(rng()));
            r.pop();
            for op in 0..2000 {
                r.ctx = format!("digit round {round} op {op}");
                match rng() % 8 {
                    0..=3 => {
                        let shift = 4 * (rng() % 16);
                        let cur = (r.now.0 >> shift) & 15;
                        if cur < 15 {
                            let digit = cur + 1 + rng() % (15 - cur);
                            let t = Ps(r.now.0 & !(15 << shift) | digit << shift);
                            (0..=rng() % 3).for_each(|_| r.push(t));
                        }
                    }
                    4 => r.push(r.now),
                    _ => r.pop(),
                }
            }
            r.drain();
        }

        // Bursts that straddle a multiple of 16^k for every k in 1..=15, at
        // every multiple of 16^15 in the top digit: the last pop sits just
        // below the boundary, and pushes land on both sides of it, so a
        // carry across 4k bits re-links entries down through every lower
        // bucket.
        let mut boundaries: Vec<(u64, u64)> = (1..15)
            .map(|k| {
                let high = rng() >> (4 * k + 4) << (4 * k + 4);
                (k, high | (1 + rng() % 15) << (4 * k))
            })
            .collect();
        boundaries.extend((1..16).map(|m| (15, m << 60)));
        for (k, b) in boundaries {
            let mut r = Replay::new(Ps::ZERO);
            r.ctx = format!("boundary {b:#x}");
            r.push(Ps(b - 1 - rng() % 16));
            r.pop();
            r.push(Ps(b));
            r.push(Ps(b - 1));
            for op in 0..400 {
                r.ctx = format!("boundary {b:#x} op {op}");
                if rng() % 2 == 0 {
                    r.pop();
                    continue;
                }
                let x = rng() % (2 << (4 * (rng() % k)));
                let t = if rng() % 2 == 0 { b - 1 - x } else { b + x };
                let t = Ps(t.max(r.now.0));
                (0..=rng() % 2).for_each(|_| r.push(t));
            }
            r.drain();
        }
    }

    /// Up to 12 trains of up to 12 events from `base`: bases step by 0–3
    /// ps, or by up to `spread` ps, and the ramp steps by 0, 0, 1 or 5 ps, so
    /// the trains interleave and many events share a time.
    fn release(rng: &mut impl FnMut() -> u64, base: Ps, spread: u64) -> (Vec<(Ps, u32)>, Vec<Ps>) {
        let width = 1 + rng() % 12;
        let mut ramp = vec![Ps(rng() % 2)];
        for _ in 1..width {
            let step = [0, 0, 1, 5][rng() as usize % 4];
            ramp.push(*ramp.last().unwrap() + Ps(step));
        }
        let mut at = base;
        let trains = (0..=rng() % 12)
            .map(|_| {
                let step = if rng().is_multiple_of(2) { 4 } else { spread };
                at += Ps(rng() % step);
                (at, (rng() % (width + 1)) as u32)
            })
            .collect();
        (trains, ramp)
    }

    /// Up to 200 events at `now` and `now + 2^40` ps: more in one bucket
    /// than [`RUN_BUCKET_MAX`].
    fn bunch(rng: &mut impl FnMut() -> u64, now: Ps) -> (Vec<(Ps, u32)>, Vec<Ps>) {
        let trains = (0..4 + rng() % 6)
            .map(|_| (now + Ps((rng() % 2) << 40), 1 + (rng() % 20) as u32))
            .collect();
        (trains, vec![Ps::ZERO; 20])
    }

    /// The queue beside a model of its contract: a list of `(time, id)` in
    /// push order, whose pop takes the first entry of the earliest time; a
    /// hand-over appends its events in train order. Every operation checks
    /// the pending entry count and the bucket layout afterwards, and every
    /// pop its result.
    struct Replay {
        q: EventQueue<u64>,
        model: Vec<(Ps, u64)>,
        next_id: u64,
        /// Most entries pending at once so far.
        high: usize,
        /// Time of the last pop.
        now: Ps,
        /// Where a failed check happened.
        ctx: String,
    }

    impl Replay {
        fn new(now: Ps) -> Replay {
            Replay {
                q: EventQueue::new(),
                model: Vec::new(),
                next_id: 0,
                high: 0,
                now,
                ctx: String::new(),
            }
        }

        /// Position of the model's next pop.
        fn head(&self) -> Option<usize> {
            let min_t = self.model.iter().map(|e| e.0).min()?;
            self.model.iter().position(|e| e.0 == min_t)
        }

        fn push(&mut self, t: Ps) {
            self.q.push(t, self.next_id);
            self.model.push((t, self.next_id));
            self.next_id += 1;
            self.check();
        }

        fn pop(&mut self) {
            let head = self.head().map(|p| self.model.remove(p));
            assert_eq!(self.q.pop(), head, "{}", self.ctx);
            if let Some((t, _)) = head {
                self.now = t;
            }
            self.check();
        }

        fn hand_over(&mut self, trains: &[(Ps, u32)], ramp: &[Ps]) {
            let first = self.next_id;
            for &(base, len) in trains {
                for &r in &ramp[..len as usize] {
                    self.model.push((base + r, self.next_id));
                    self.next_id += 1;
                }
            }
            self.q.hand_over(trains, ramp, first..self.next_id);
            self.check();
        }

        fn drain(&mut self) {
            while !self.model.is_empty() {
                self.pop();
            }
            assert_eq!(self.q.pop(), None, "{}", self.ctx);
        }

        fn check(&mut self) {
            let linked = assert_buckets(&self.q, &self.ctx);
            let run = (self.q.run_end - self.q.run) as usize;
            assert_eq!(linked + run, self.model.len(), "{}", self.ctx);
            // The slab grows only when every entry is pending.
            self.high = self.high.max(self.model.len());
            assert!(
                self.q.slab.len() <= self.high,
                "{}: slab past its high-water mark",
                self.ctx
            );
        }
    }

    /// Every pending entry sits in the bucket the rule names for its time
    /// and `last`, and each bucket's mask bit and minimum match its list.
    /// Returns the number of linked entries.
    fn assert_buckets<E>(q: &EventQueue<E>, ctx: &str) -> usize {
        let last = q.last.0;
        let mut linked = 0;
        for b in 0..BUCKETS {
            let mut times = Vec::new();
            let mut i = q.head[b];
            while i != NIL {
                times.push(q.slab[i as usize].at.0);
                i = q.slab[i as usize].next;
            }
            linked += times.len();
            if b == 0 {
                assert!(times.iter().all(|&t| t == last), "{ctx}: bucket 0");
                continue;
            }
            for &t in &times {
                assert!(
                    t > last && (t ^ last) >> (b - 1) == 1,
                    "{ctx}: time {t:#x} in bucket {b} with last {last:#x}"
                );
            }
            let set = q.nonempty >> (b - 1) & 1 == 1;
            assert_eq!(set, !times.is_empty(), "{ctx}: mask bit of bucket {b}");
            if let Some(&min) = times.iter().min() {
                assert_eq!(q.min[b], Ps(min), "{ctx}: minimum of bucket {b}");
            }
        }
        linked
    }
}
