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
//! bytes each), and empty buckets hold no memory of their own.

use crate::time::Ps;

/// Buckets: 0 for the reference time itself, then one per bit of a `u64`.
const BUCKETS: usize = 65;

/// End of a list.
const NIL: u32 = u32::MAX;

/// One slab entry: a pending event linked into its bucket, or a free entry
/// linked into the free list.
#[derive(Debug)]
struct Slot<E> {
    at: Ps,
    next: u32,
    /// `None` only while the entry is on the free list.
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
    len: usize,
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
            len: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: Ps, event: E) {
        if at < self.last {
            self.rebase(at);
        }
        let i = if self.free != NIL {
            let i = self.free;
            let slot = &mut self.slab[i as usize];
            self.free = slot.next;
            slot.at = at;
            slot.ev = Some(event);
            i
        } else {
            assert!(self.slab.len() < NIL as usize, "too many pending events");
            let i = self.slab.len() as u32;
            self.slab.push(Slot {
                at,
                next: NIL,
                ev: Some(event),
            });
            i
        };
        self.link(bucket(at, self.last), i);
        self.len += 1;
    }

    /// Remove and return the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(Ps, E)> {
        if self.head[0] == NIL {
            if self.nonempty == 0 {
                return None;
            }
            self.relink_lowest();
        }
        let i = self.head[0];
        let slot = &mut self.slab[i as usize];
        self.head[0] = slot.next;
        let ev = slot.ev.take().expect("a linked slab entry holds its event");
        slot.next = self.free;
        self.free = i;
        self.len -= 1;
        Some((self.last, ev))
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn clear(&mut self) {
        self.slab.clear();
        self.head = [NIL; BUCKETS];
        self.nonempty = 0;
        self.last = Ps::ZERO;
        self.free = NIL;
        self.len = 0;
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
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Ps(7), 'a');
        q.push(Ps(3), 'b');
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
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
        // before it, and `clear()` with reuse halfway, with `len` and the
        // bucket layout checked after every operation. The bases put the
        // times in low and middle bits, across 2^63 and near the top of the
        // range.
        let bases = [0, 1 << 40, (1 << 63) - (1 << 30), u64::MAX - (1 << 48)];
        for (round, base) in bases.into_iter().cycle().take(16).enumerate() {
            let mut r = Replay::new(Ps(base));
            let mut early = 0;
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
                if op == 1500 {
                    r.clear();
                } else if !times.is_empty() {
                    times.into_iter().for_each(|t| r.push(t));
                } else {
                    r.pop();
                }
            }
            r.drain();
            assert!(early > 0, "round {round} never pushed before the last pop");
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

    /// The queue beside a model of its contract: a list of `(time, id)` in
    /// push order, whose pop takes the first entry of the earliest time.
    /// Every operation checks `len` and the bucket layout afterwards, and
    /// every pop its result.
    struct Replay {
        q: EventQueue<u64>,
        model: Vec<(Ps, u64)>,
        next_id: u64,
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

        fn clear(&mut self) {
            self.q.clear();
            self.model.clear();
            self.check();
        }

        fn drain(&mut self) {
            while !self.model.is_empty() {
                self.pop();
            }
            assert_eq!(self.q.pop(), None, "{}", self.ctx);
        }

        fn check(&self) {
            assert_eq!(self.q.len(), self.model.len(), "{}", self.ctx);
            assert_buckets(&self.q, &self.ctx);
        }
    }

    /// Every pending entry sits in the bucket the rule names for its time
    /// and `last`, each bucket's mask bit and minimum match its list, and
    /// the lists hold `len` entries.
    fn assert_buckets<E>(q: &EventQueue<E>, ctx: &str) {
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
        assert_eq!(linked, q.len, "{ctx}: linked entries");
    }
}
