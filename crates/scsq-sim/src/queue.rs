//! The event queue: a time-ordered priority queue with FIFO tie-breaking.
//!
//! Events scheduled for the same instant fire in insertion order, which
//! keeps the simulator deterministic even when model code schedules many
//! simultaneous events.
//!
//! Every push names a *lane*, a small dense index chosen by the caller
//! ([`EventQueue::push`] uses lane 0). A lane is a FIFO of entries in
//! surfacing order, and a small heap holds one token per non-empty lane,
//! a copy of its head. Callers pick lanes along which pushes arrive in
//! time order: the engine uses one lane per event kind and target, and
//! almost every push there lands at or after its lane's tail. Such a
//! push is a `push_back`, and a pop sifts through a handful of lane
//! heads rather than the whole pending population. A push that would
//! land before its lane's tail is not inserted into the lane: it goes
//! into the head heap as a *loose* entry, so an unlucky lane choice
//! costs what a plain binary heap costs and never a deque insert.
//!
//! Lanes do not change the order. Every entry keeps its global (time,
//! insertion sequence) key, and heads and loose entries are ordered by
//! that key, so the pop sequence is a stable sort by time whatever lanes
//! the pushes named, ties across lanes included.
//!
//! Above the lanes, the queue keeps the earliest entry in a dedicated
//! front slot and refills it lazily: a pop hands out the front without
//! touching the heap, and the next push claims the empty front when it
//! beats the heap's top. Discrete-event workloads overwhelmingly pop
//! one event and push its successor (a generator's production chain, a
//! channel's buffer cycles); as long as that successor stays ahead of
//! everything else pending, the pop-then-push cycle is a slot swap and
//! a single comparison, whatever else is pending.
//!
//! Payloads live in a slab indexed by the entries, not in the lanes or
//! the heap. Lanes and heap then move only small (time, seq, slot, lane)
//! records regardless of payload size, and a pop-then-push cycle reuses
//! the freed slot, so a steady-state simulation allocates nothing per
//! event: the slab grows once to the peak concurrent event population
//! and every later push lands in a recycled slot.

#![cfg_attr(
    not(test),
    deny(
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::unreachable,
        clippy::panic
    )
)]

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// A time-ordered queue of payloads of type `T`.
///
/// ```
/// use scsq_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "later");
/// q.push(SimTime::from_nanos(10), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "sooner")));
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Fast-path slot for the earliest entry. Invariant: when `front`
    /// is `Some`, it sorts before every other entry; when `None`, the
    /// heap's top (if any) is the minimum. The slot is refilled lazily
    /// by pushes, never by pops, so a steady pop-then-push chain leaves
    /// the lanes and the heap untouched.
    front: Option<Entry>,
    /// One FIFO per lane, each in surfacing order.
    lanes: Vec<VecDeque<Entry>>,
    /// Invariant: every non-empty lane has exactly one token here, a
    /// copy of its front entry; loose entries (lane [`LOOSE`]) live
    /// only here.
    heads: BinaryHeap<Entry>,
    seq: u64,
    /// Payload storage. Invariant: `slab[e.slot]` is `Some` for every
    /// queued entry `e`, and every `None` slot index is on `free`.
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    /// [`EventQueue::probe_entries`]' loose entries, kept between
    /// digests for its allocation.
    loose: Vec<Entry>,
}

/// The lane of a heap entry that is not its lane's head: a push that
/// would have landed before its lane's tail, or one that named this
/// lane. Such entries never rejoin a lane.
const LOOSE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
    lane: u32,
}

impl Entry {
    /// Whether this entry surfaces strictly before `other`.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

impl PartialEq for Entry {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with capacity for `capacity` concurrent
    /// entries, avoiding reallocation while the event population grows.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            front: None,
            lanes: Vec::new(),
            heads: BinaryHeap::new(),
            seq: 0,
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            loose: Vec::new(),
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heads.is_empty()
    }

    /// Stores `payload` in a free slab slot and returns its index.
    #[inline(always)]
    fn alloc(&mut self, payload: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(payload);
                slot
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "a slot per concurrently pending event: 2^32 of them would \
                              need hundreds of GiB of entries before this fires"
                )]
                let slot = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
                self.slab.push(Some(payload));
                slot
            }
        }
    }

    /// Enqueues `payload` in lane 0 to surface at time `at`.
    pub fn push(&mut self, at: SimTime, payload: T) {
        self.push_in(at, 0, payload);
    }

    /// Enqueues `payload` in `lane` to surface at time `at`. The lane
    /// never changes when the payload surfaces, only what the push
    /// costs: a push at or after the lane's latest is an append. Lanes
    /// are dense indices; the queue keeps one (empty when idle) FIFO
    /// for every index up to the largest it has seen, except
    /// `u32::MAX`, which queues straight into the heap.
    //
    // `push_in`, `pop` and their helpers are forced inline: they are the
    // queue half of the per-event path (`TypedSimulator::schedule_at`
    // and `step`), and left to the inliner they became calls in some
    // builds of the engine crate and not in others.
    #[inline(always)]
    pub fn push_in(&mut self, at: SimTime, lane: u32, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc(payload);
        let entry = Entry {
            at,
            seq,
            slot,
            lane,
        };
        match self.front {
            Some(min) if entry.before(&min) => {
                self.front = Some(entry);
                self.place(min);
            }
            Some(_) => self.place(entry),
            None => match self.heads.peek() {
                Some(top) if !entry.before(top) => self.place(entry),
                _ => self.front = Some(entry),
            },
        }
    }

    /// Files `e` below the front slot: appended to its lane when it
    /// surfaces after the lane's tail, a loose heap entry otherwise.
    ///
    /// Only the append, which almost every push takes, is inlined;
    /// starting a lane and going loose stay out of line.
    #[inline(always)]
    fn place(&mut self, e: Entry) {
        match self.lanes.get_mut(e.lane as usize) {
            Some(lane) if lane.back().is_some_and(|tail| !e.before(tail)) => lane.push_back(e),
            _ => self.place_head(e),
        }
    }

    /// [`EventQueue::place`] for an entry that starts its lane or
    /// would land before the lane's tail.
    #[inline(never)]
    fn place_head(&mut self, e: Entry) {
        let i = e.lane as usize;
        if i >= self.lanes.len() {
            if e.lane == LOOSE {
                return self.heads.push(e);
            }
            self.lanes.resize_with(i + 1, VecDeque::new);
        }
        let lane = &mut self.lanes[i];
        if lane.is_empty() {
            lane.push_back(e);
            self.heads.push(e);
        } else {
            self.heads.push(Entry { lane: LOOSE, ..e });
        }
    }

    /// Removes the earliest entry: the front slot, else the heap's top,
    /// advancing that top's lane (one sift of the heap, in place).
    #[inline(always)]
    fn pop_entry(&mut self) -> Option<Entry> {
        if let Some(e) = self.front.take() {
            return Some(e);
        }
        let mut top = self.heads.peek_mut()?;
        let head = *top;
        if head.lane != LOOSE {
            let lane = &mut self.lanes[head.lane as usize];
            lane.pop_front();
            if let Some(&next) = lane.front() {
                *top = next;
                return Some(head);
            }
        }
        PeekMut::pop(top);
        Some(head)
    }

    /// Removes and returns the earliest entry, if any.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let min = self.pop_entry()?;
        let payload = self.slab[min.slot as usize].take()?;
        self.free.push(min.slot);
        Some((min.at, payload))
    }

    /// The earliest queued entry: the front slot when occupied, the heap
    /// top otherwise.
    fn min_entry(&self) -> Option<&Entry> {
        self.front.as_ref().or_else(|| self.heads.peek())
    }

    /// The time of the earliest entry without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.min_entry().map(|e| e.at)
    }

    /// The payload of the earliest entry without removing it.
    pub fn peek_payload(&self) -> Option<&T> {
        self.min_entry()
            .and_then(|e| self.slab[e.slot as usize].as_ref())
    }

    /// Walks every queued entry in surfacing order through a
    /// [`crate::coalesce::StateProbe`]: each entry's time is probed as
    /// an extrapolatable number, the margin to the previous entry (and
    /// to `now` for the first) as a stay-positive guard, and the payload
    /// through `probe_payload`.
    ///
    /// The walk is a k-way merge, in place, of the front slot, the
    /// sorted lanes and the loose entries (sorted first; they are few).
    /// Every entry is renumbered with its rank, so relative order is
    /// preserved exactly and future pushes sort after every entry; the
    /// head heap is then rebuilt from its own tokens. A digest-mode walk
    /// is therefore observationally a no-op.
    pub fn probe_entries(
        &mut self,
        p: &mut crate::coalesce::StateProbe<'_>,
        now: SimTime,
        mut probe_payload: impl FnMut(&mut T, &mut crate::coalesce::StateProbe<'_>),
    ) {
        p.shape(self.len() as u64);
        let mut tokens = std::mem::take(&mut self.heads).into_vec();
        let mut loose = std::mem::take(&mut self.loose);
        loose.extend(tokens.iter().filter(|e| e.lane == LOOSE));
        loose.sort_unstable_by_key(|e| (e.at, e.seq));
        tokens.retain(|e| e.lane != LOOSE);
        // Merge cursors (time, seq, source, position): a lane index, or
        // `LOOSE` for the loose entries.
        let mut cursors: BinaryHeap<Reverse<(SimTime, u64, u32, usize)>> = tokens
            .iter()
            .map(|e| Reverse((e.at, e.seq, e.lane, 0)))
            .chain(loose.first().map(|e| Reverse((e.at, e.seq, LOOSE, 0))))
            .collect();
        let mut rank = 0;
        let mut prev_at = now;
        let mut walked_at = SimTime::ZERO;
        let slab = &mut self.slab;
        let mut visit = |e: &mut Entry| {
            // An advancing `now` must never overtake this entry, and
            // entries must not swap order: guard both margins (only the
            // implicit negative-delta rule applies).
            p.guard(e.at.as_nanos().saturating_sub(prev_at.as_nanos()), u64::MAX);
            prev_at = e.at;
            p.time(&mut e.at);
            debug_assert!(e.at >= walked_at, "a walk reordered the queue");
            walked_at = e.at;
            if let Some(payload) = slab[e.slot as usize].as_mut() {
                probe_payload(payload, p);
            }
            e.seq = rank;
            rank += 1;
        };
        if let Some(e) = self.front.as_mut() {
            visit(e);
        }
        while let Some(mut top) = cursors.peek_mut() {
            let Reverse((_, _, src, pos)) = *top;
            let next = if src == LOOSE {
                visit(&mut loose[pos]);
                loose.get(pos + 1)
            } else {
                let lane = &mut self.lanes[src as usize];
                visit(&mut lane[pos]);
                lane.get(pos + 1)
            };
            match next {
                Some(e) => *top = Reverse((e.at, e.seq, src, pos + 1)),
                None => drop(PeekMut::pop(top)),
            }
        }
        self.seq = rank;
        for token in &mut tokens {
            if let Some(&front) = self.lanes[token.lane as usize].front() {
                *token = front;
            }
        }
        tokens.append(&mut loose);
        self.heads = BinaryHeap::from(tokens);
        self.loose = loose;
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
        q.push(SimTime::from_nanos(3), 'c');
        q.push(SimTime::from_nanos(1), 'a');
        q.push(SimTime::from_nanos(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(9), ());
        q.push(SimTime::from_nanos(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(4)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_then_push_chain_stays_ordered() {
        // The front-slot fast path: alternating pop / push-at-later-time
        // with at most one pending entry.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), 0u64);
        for i in 1..1000u64 {
            let (at, v) = q.pop().expect("chained entry");
            assert_eq!(v, i - 1);
            q.push(at + crate::SimDur::from_nanos(1), i);
        }
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn earlier_push_displaces_the_front() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(50), 'b');
        q.push(SimTime::from_nanos(10), 'a');
        q.push(SimTime::from_nanos(90), 'c');
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ['a', 'b', 'c']);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        q.push(SimTime::from_nanos(2), 2);
        q.push(SimTime::from_nanos(1), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slab_slots_are_recycled() {
        // A steady pop-then-push cycle must reuse the freed slot rather
        // than growing payload storage without bound.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), String::from("a"));
        q.push(SimTime::from_nanos(2), String::from("b"));
        for i in 3..100u64 {
            let (at, v) = q.pop().expect("entry");
            assert!(!v.is_empty());
            q.push(at + crate::SimDur::from_nanos(i), format!("v{i}"));
        }
        assert_eq!(q.slab.len(), 2);
        assert_eq!(q.len(), 2);
    }

    /// Loose entries in the head heap.
    fn loose(q: &EventQueue<u64>) -> usize {
        q.heads.iter().filter(|e| e.lane == LOOSE).count()
    }

    #[test]
    fn in_order_pushes_append_to_their_lanes() {
        // Two interleaved lanes, each pushed in time order: every entry
        // but the front is a lane append, and the heap holds one token
        // per lane.
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push_in(SimTime::from_nanos(10 + i), (i % 2) as u32, i);
        }
        assert_eq!(loose(&q), 0);
        assert_eq!(q.heads.len(), 2);
        assert_eq!(q.lanes[0].len() + q.lanes[1].len(), 99);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
        assert!(q.heads.is_empty());
    }

    #[test]
    fn decreasing_pushes_into_one_lane_go_loose() {
        // The adversarial pattern: 10^5 strictly decreasing times into
        // one lane, a pop after every third push, one digest walk
        // halfway. Every push that would land before the lane's tail
        // becomes a loose heap entry: outside the digest's re-laning,
        // a push never grows the lane's deque.
        const N: u64 = 100_000;
        let mut q = EventQueue::new();
        let mut model = std::collections::BinaryHeap::new();
        let mut went_loose = 0;
        for i in 0..N {
            let at = SimTime::from_nanos(2 * N - i);
            let lane_len = |q: &EventQueue<u64>| q.lanes.get(3).map_or(0, VecDeque::len);
            let (lane_before, heads_before) = (lane_len(&q), q.heads.len());
            q.push_in(at, 3, i);
            model.push(std::cmp::Reverse((at, i)));
            assert!(lane_len(&q) <= lane_before.max(1), "push {i} grew the lane");
            went_loose += q.heads.len().saturating_sub(heads_before);
            if i % 3 == 2 {
                let std::cmp::Reverse((mt, mi)) = model.pop().expect("model holds entries");
                assert_eq!(q.pop(), Some((mt, mi)));
            }
            if i == N / 2 {
                let mut p = crate::coalesce::StateProbe::digest();
                let mut walked = Vec::new();
                q.probe_entries(&mut p, SimTime::ZERO, |v, _| walked.push(*v));
                let mut expected: Vec<_> = model.iter().map(|r| r.0).collect();
                expected.sort();
                assert_eq!(walked, expected.iter().map(|&(_, i)| i).collect::<Vec<_>>());
            }
            assert_eq!(q.len(), model.len());
        }
        assert!(
            went_loose > N as usize / 2,
            "only {went_loose} loose pushes"
        );
        while let Some(std::cmp::Reverse((mt, mi))) = model.pop() {
            assert_eq!(q.pop(), Some((mt, mi)));
        }
        assert_eq!(q.pop(), None);
    }
}
