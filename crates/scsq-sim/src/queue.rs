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

use crate::coalesce::StateProbe;
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
    /// [`EventQueue::probe_entries`]' scratch, kept between walks for
    /// its allocations.
    walk: Walk,
}

/// The scratch of a walk: the sorted loose entries (a deque, to merge
/// like a lane), the merge cursors and the surfacing order.
#[derive(Debug, Default)]
struct Walk {
    loose: VecDeque<Entry>,
    cursors: Vec<Cursor>,
    order: Vec<Step>,
}

/// A merge cursor: position `pos` of lane `src`, or of the walk's
/// sorted loose entries when `src` is [`LOOSE`], and the key and slot
/// of the entry there.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    key: Key,
    pos: usize,
    slot: u32,
    src: u32,
}

/// One entry of a walk's surfacing order: its time in nanoseconds, its
/// payload slot, and where it is queued: position `pos` of lane `src`,
/// or of the walk's sorted loose entries when `src` is [`LOOSE`].
#[derive(Debug, Clone, Copy)]
struct Step {
    at: u64,
    pos: usize,
    slot: u32,
    src: u32,
}

impl Step {
    #[inline]
    fn of(e: &Entry, src: u32, pos: usize) -> Step {
        Step {
            at: e.at.as_nanos(),
            pos,
            slot: e.slot,
            src,
        }
    }
}

/// The most distinct lanes one cycle of a periodic block interleaves.
const MAX_CYCLE: usize = 4;
/// The fewest entries a periodic block spans (and at least two per
/// lane); shorter stretches are walked entry by entry, which then costs
/// no more.
const MIN_BLOCK: usize = 4;
/// Shape marker opening a periodic block.
const BLOCK: u64 = 0xb10c;

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

/// An entry's place in surfacing order: (time, insertion sequence).
type Key = (SimTime, u64);

impl Entry {
    #[inline]
    fn key(&self) -> Key {
        (self.at, self.seq)
    }

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
            walk: Walk::default(),
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
    /// [`crate::coalesce::StateProbe`], payloads through `probe_payload`.
    ///
    /// The walk first lists the entries in surfacing order: the front
    /// slot, then a merge of the lanes and the loose entries (copied and
    /// sorted; they are few). It then cuts that order into *periodic
    /// blocks* and single entries. A block is a stretch of at least four
    /// entries, two per lane, where a cycle of up to four distinct lanes
    /// repeats and each lane's times form an arithmetic progression with
    /// one common step: a channel's chain of buffer cycles, or two
    /// channels' chains interleaved. A block is probed as a few
    /// coordinates whatever its length (see `probe_block`); a single
    /// entry as its time plus the
    /// margin to the previous entry (to `now` for the first) as a
    /// stay-positive guard. The front slot and loose entries are always
    /// single, and so is every entry of a walk under service jitter,
    /// where no progression survives.
    ///
    /// A digest-mode walk reads the queue and changes nothing. An
    /// advance-mode walk rewrites every time it moved (a block's entries
    /// from their lane's advanced head and the advanced step) and
    /// rebuilds the head heap. Its guards keep every margin positive
    /// that was, so entries keep their relative order and their
    /// insertion sequence numbers still break exactly the ties they did.
    pub fn probe_entries(
        &mut self,
        p: &mut StateProbe<'_>,
        now: SimTime,
        mut probe_payload: impl FnMut(&mut T, &mut StateProbe<'_>),
    ) {
        p.shape(self.len() as u64);
        let mut walk = std::mem::take(&mut self.walk);
        self.merge_order(&mut walk);
        let slab = &mut self.slab;
        let mut payload = |slot: u32, p: &mut StateProbe<'_>| {
            if let Some(v) = slab[slot as usize].as_mut() {
                probe_payload(v, p);
            }
        };
        let mut prev_at = now.as_nanos();
        if let Some(e) = self.front.as_mut() {
            let mut at = e.at.as_nanos();
            probe_single(p, &mut at, &mut prev_at);
            e.at = SimTime::from_nanos(at);
            payload(e.slot, p);
        }
        let order = &mut walk.order;
        let mut moved = false;
        let mut i = 0;
        while i < order.len() {
            let n = match block_shape(&order[i..]) {
                Some((m, n)) => {
                    let block = &mut order[i..i + n];
                    moved |= probe_block(p, block, m, &mut prev_at);
                    for s in block.iter() {
                        payload(s.slot, p);
                    }
                    n
                }
                None => {
                    let s = &mut order[i];
                    let at = s.at;
                    probe_single(p, &mut s.at, &mut prev_at);
                    moved |= s.at != at;
                    payload(s.slot, p);
                    1
                }
            };
            i += n;
        }
        if moved {
            self.rewrite_times(&mut walk);
        }
        walk.order.clear();
        walk.loose.clear();
        self.walk = walk;
    }

    /// Lists every entry below the front slot into `walk.order` in
    /// surfacing order, copying the loose entries, sorted, into
    /// `walk.loose` to merge them as one more source.
    ///
    /// The merge lists whole stretches: while the two earliest sources
    /// stay ahead of the third's head, a tight two-way merge lists them
    /// (a lane of a hundred pending cycles in one pass, two lanes
    /// interleaved one entry apart at a comparison each); then both
    /// shift back into the few cursors, kept sorted.
    fn merge_order(&self, walk: &mut Walk) {
        let Walk {
            loose,
            cursors,
            order,
        } = walk;
        loose.extend(self.heads.iter().filter(|e| e.lane == LOOSE));
        loose.make_contiguous().sort_unstable_by_key(Entry::key);
        cursors.extend(
            self.heads
                .iter()
                .filter(|e| e.lane != LOOSE)
                .chain(loose.front())
                .map(|e| Cursor {
                    key: e.key(),
                    pos: 0,
                    slot: e.slot,
                    src: e.lane,
                }),
        );
        // Latest first: the earliest source is the last cursor.
        cursors.sort_unstable_by_key(|c| Reverse(c.key));
        let source = |src: u32| match src {
            LOOSE => &*loose,
            lane => &self.lanes[lane as usize],
        };
        while let Some(x) = cursors.pop() {
            let (Some(y), bound) = (cursors.pop(), cursors.last().map(|c| c.key)) else {
                let steps = source(x.src).range(x.pos..).zip(x.pos..);
                order.extend(steps.map(|(e, i)| Step::of(e, x.src, i)));
                break;
            };
            let bound = bound.unwrap_or((SimTime::from_nanos(u64::MAX), u64::MAX));
            let (xs, ys) = (source(x.src), source(y.src));
            let (mut x, mut y) = (Some(x), Some(y));
            while let (Some(a), Some(b)) = (&mut x, &mut y) {
                let take_x = a.key < b.key;
                let (c, cs) = if take_x { (a, &xs) } else { (b, &ys) };
                if c.key > bound {
                    break;
                }
                order.push(Step {
                    at: c.key.0.as_nanos(),
                    pos: c.pos,
                    slot: c.slot,
                    src: c.src,
                });
                c.pos += 1;
                match cs.get(c.pos) {
                    Some(e) => (c.key, c.slot) = (e.key(), e.slot),
                    None if take_x => x = None,
                    None => y = None,
                }
            }
            for c in [x, y].into_iter().flatten() {
                // Shift it back to its place: cursors stay sorted
                // latest first.
                cursors.push(c);
                let mut j = cursors.len() - 1;
                while j > 0 && cursors[j - 1].key < c.key {
                    cursors[j] = cursors[j - 1];
                    j -= 1;
                }
                cursors[j] = c;
            }
        }
    }

    /// After an advance walk moved `walk.order`'s times: writes them
    /// back into the lanes and the loose entries, and rebuilds the head
    /// heap from the lanes' new heads and the moved loose entries.
    fn rewrite_times(&mut self, walk: &mut Walk) {
        let order = &walk.order;
        debug_assert!(
            order.windows(2).all(|w| w[0].at <= w[1].at),
            "a walk reordered the queue"
        );
        for s in order {
            let e = match s.src {
                LOOSE => &mut walk.loose[s.pos],
                lane => &mut self.lanes[lane as usize][s.pos],
            };
            e.at = SimTime::from_nanos(s.at);
        }
        let mut tokens = std::mem::take(&mut self.heads).into_vec();
        tokens.retain(|e| e.lane != LOOSE);
        for token in &mut tokens {
            if let Some(&front) = self.lanes[token.lane as usize].front() {
                *token = front;
            }
        }
        tokens.extend(&walk.loose);
        self.heads = BinaryHeap::from(tokens);
    }

    /// The walk [`EventQueue::probe_entries`] replaced, kept as its
    /// reference: every entry probed as its time and its margin to the
    /// previous entry, blocks or not.
    #[cfg(test)]
    pub(crate) fn probe_entries_per_entry(
        &mut self,
        p: &mut StateProbe<'_>,
        now: SimTime,
        mut probe_payload: impl FnMut(&mut T, &mut StateProbe<'_>),
    ) {
        p.shape(self.len() as u64);
        let mut tokens = std::mem::take(&mut self.heads).into_vec();
        let mut loose: Vec<Entry> = tokens.iter().filter(|e| e.lane == LOOSE).copied().collect();
        loose.sort_unstable_by_key(|e| (e.at, e.seq));
        tokens.retain(|e| e.lane != LOOSE);
        let mut cursors: BinaryHeap<Reverse<(SimTime, u64, u32, usize)>> = tokens
            .iter()
            .map(|e| Reverse((e.at, e.seq, e.lane, 0)))
            .chain(loose.first().map(|e| Reverse((e.at, e.seq, LOOSE, 0))))
            .collect();
        let mut rank = 0;
        let mut prev_at = now;
        let slab = &mut self.slab;
        let mut visit = |e: &mut Entry| {
            p.guard(e.at.as_nanos().saturating_sub(prev_at.as_nanos()), u64::MAX);
            prev_at = e.at;
            p.time(&mut e.at);
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
    }
}

/// Probes an entry's time outside a block: the margin to the previous
/// entry as a guard (an advancing `now` must never overtake the entry,
/// and entries must not swap order; only the implicit negative-delta
/// rule applies), the time as a coordinate.
#[inline]
fn probe_single(p: &mut StateProbe<'_>, at: &mut u64, prev_at: &mut u64) {
    p.guard(at.saturating_sub(*prev_at), u64::MAX);
    *prev_at = *at;
    p.num(at);
}

/// The periodic block `order` opens with, as (lanes per cycle, entries),
/// if any. The cycle is the stretch up to the first lane's next entry;
/// its lanes must be distinct and none loose. The block then runs as
/// long as every entry repeats the lane `m` places back, one common
/// step later, and counts only with at least two entries per lane.
fn block_shape(order: &[Step]) -> Option<(usize, usize)> {
    let first = order.first()?;
    if first.src == LOOSE {
        return None;
    }
    let m = (1..=MAX_CYCLE).find(|&m| order.get(m).is_some_and(|s| s.src == first.src))?;
    let cycle = &order[1..m];
    let distinct = cycle
        .iter()
        .enumerate()
        .all(|(j, s)| s.src != LOOSE && cycle[..j].iter().all(|t| t.src != s.src));
    if !distinct {
        return None;
    }
    let step = order[m].at - first.at;
    let n = m + order[m..]
        .iter()
        .zip(order)
        .take_while(|(s, t)| s.src == t.src && s.at - t.at == step)
        .count();
    (n >= MIN_BLOCK.max(2 * m)).then_some((m, n))
}

/// Probes a periodic block of `m` lanes per cycle (see `block_shape`).
/// Its shape is a marker, `m`, the entry count and the cycle's lanes;
/// its coordinates each lane's head time and the common step. Its
/// guards are the margin from the previous entry, the offsets between
/// consecutive lanes within a cycle, and the closing gap from the
/// cycle's last lane to the first lane's next entry: every margin
/// between two consecutive block entries is one of those, so the block
/// sets every cap the per-entry walk would, with the same value (the
/// margin to the entry after the block is that entry's own guard).
/// Returns whether the probe moved the block, and then rewrites every
/// entry's time from the advanced heads and step.
fn probe_block(p: &mut StateProbe<'_>, block: &mut [Step], m: usize, prev_at: &mut u64) -> bool {
    p.shape(BLOCK);
    p.shape(m as u64);
    p.shape(block.len() as u64);
    let mut heads = [0; MAX_CYCLE];
    for (h, s) in heads.iter_mut().zip(&block[..m]) {
        p.shape(u64::from(s.src));
        *h = s.at;
    }
    let heads = &mut heads[..m];
    let step = block[m].at - heads[0];
    p.guard(heads[0].saturating_sub(*prev_at), u64::MAX);
    for w in heads.windows(2) {
        p.guard(w[1] - w[0], u64::MAX);
    }
    p.guard(step - (heads[m - 1] - heads[0]), u64::MAX);
    *prev_at = block[block.len() - 1].at;
    let mut new_step = step;
    for h in heads.iter_mut() {
        p.num(h);
    }
    p.num(&mut new_step);
    let moved = new_step != step || heads.iter().zip(block.iter()).any(|(h, s)| *h != s.at);
    if moved {
        for (k, cycle) in (0..).zip(block.chunks_mut(m)) {
            for (s, &h) in cycle.iter_mut().zip(heads.iter()) {
                s.at = h + k * new_step;
            }
        }
    }
    moved
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

    /// A queue of `m` lanes interleaved at one step, starting `lead` ns
    /// in, for the block walk's tests, as it stands `period` periods in:
    /// every entry moves `shift` ns earlier per period, block lane `j`
    /// another `drift[j]`. Irregular entries share lane 9, are pushed
    /// first and may land before its tail, and each `loose` time is
    /// pushed into lane 8 after a later one, so it goes loose. `nudge`
    /// moves one block entry (not a lane head) 1 ns later. A payload is
    /// its push index, with its lane in the high half, which the walks
    /// mix into the shape like an event's key.
    #[derive(Debug, Clone)]
    struct Layout {
        offsets: Vec<u64>,
        drift: Vec<u64>,
        per_lane: u64,
        step: u64,
        lead: u64,
        irregular: Vec<u64>,
        loose: Vec<u64>,
        shift: u64,
    }

    const BASE: u64 = 1 << 24;

    impl Layout {
        fn pushes(&self, period: u64, nudge: Option<usize>) -> Vec<(u64, u32)> {
            let at = |t: u64| BASE + t - period * self.shift;
            let mut pushes: Vec<_> = self.irregular.iter().map(|&t| (at(t), 9)).collect();
            let first = pushes.len() + self.offsets.len();
            for i in 0..self.per_lane {
                for (j, (&off, &drift)) in self.offsets.iter().zip(&self.drift).enumerate() {
                    let t = at(self.lead + off + i * self.step) - period * drift;
                    pushes.push((t, j as u32));
                }
            }
            if let Some(n) = nudge {
                let len = pushes.len();
                pushes[first + n % (len - first)].0 += 1;
            }
            for &t in &self.loose {
                pushes.push((at(t) + 1, 8));
                pushes.push((at(t), 8));
            }
            pushes
        }

        fn queue(&self, period: u64, nudge: Option<usize>) -> EventQueue<u64> {
            let mut q = EventQueue::new();
            for (i, (at, lane)) in (0..).zip(self.pushes(period, nudge)) {
                q.push_in(SimTime::from_nanos(at), lane, u64::from(lane) << 32 | i);
            }
            q
        }
    }

    use proptest::prelude::*;

    type Walker = fn(&mut EventQueue<u64>, &mut crate::coalesce::StateProbe<'_>);

    fn block_walk(q: &mut EventQueue<u64>, p: &mut crate::coalesce::StateProbe<'_>) {
        q.probe_entries(p, SimTime::ZERO, |v, p| p.shape(*v >> 32));
    }

    fn entry_walk(q: &mut EventQueue<u64>, p: &mut crate::coalesce::StateProbe<'_>) {
        q.probe_entries_per_entry(p, SimTime::ZERO, |v, p| p.shape(*v >> 32));
    }

    /// Digests the layout at periods 0..4 (the last one nudged, if
    /// asked) the way the engine's `run_coalesced` does, and applies the
    /// plan the fourth digest yields to that queue. Returns the plan's
    /// periods, the coordinates digested, and the queue's pops.
    fn digest_and_jump(
        layout: &Layout,
        walk: Walker,
        nudge: Option<usize>,
    ) -> (Option<u64>, u64, Vec<(SimTime, u64)>) {
        let mut co = crate::coalesce::Coalescer::new();
        let mut plan = None;
        let mut q = EventQueue::new();
        for period in 0..4 {
            q = layout.queue(period, nudge.filter(|_| period == 3));
            let mut p = crate::coalesce::StateProbe::digest();
            walk(&mut q, &mut p);
            plan = co.observe(p.finish());
        }
        if let Some(plan) = &plan {
            walk(
                &mut q,
                &mut crate::coalesce::StateProbe::advance(&plan.deltas, plan.periods),
            );
        }
        let pops = std::iter::from_fn(|| q.pop()).collect();
        (plan.map(|p| p.periods), co.stats().coords, pops)
    }

    fn layout() -> impl Strategy<Value = Layout> {
        use proptest::collection::vec;
        (
            (1usize..=4, vec(0u64..3, 4), 2u64..10),
            (1u64..400, vec(0u64..400, 4), vec(0u64..4_000, 0..5)),
            (vec(0u64..4_000, 0..3), 1u64..40, any::<bool>(), 0u64..2_000),
        )
            .prop_map(
                |(
                    (m, drift, per_lane),
                    (step, mut offsets, irregular),
                    (loose, shift, uniform, lead),
                )| {
                    offsets.truncate(m);
                    for o in &mut offsets {
                        *o %= step;
                    }
                    offsets.sort_unstable();
                    let drift = if uniform {
                        vec![0; m]
                    } else {
                        drift[..m].to_vec()
                    };
                    Layout {
                        offsets,
                        drift,
                        per_lane,
                        step,
                        lead,
                        irregular,
                        loose,
                        shift,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The block walk against the per-entry walk it replaced, on
        /// arithmetic runs of 1 to 4 interleaved lanes with irregular
        /// and loose entries and ties. Digests one period apart must
        /// confirm a jump on exactly the same queues, capped at the same
        /// periods, and the jump must leave the queue the per-entry
        /// jump leaves: the layout as it stands that many periods on.
        /// Moving one block entry by 1 ns must refuse the jump.
        #[test]
        fn block_walk_matches_the_per_entry_walk(
            layout in layout(),
            nudge in 0usize..1_000,
        ) {
            let (periods, coords, pops) = digest_and_jump(&layout, block_walk, None);
            let (ref_periods, ref_coords, ref_pops) = digest_and_jump(&layout, entry_walk, None);
            prop_assert_eq!(periods, ref_periods, "{:?}", layout);
            prop_assert_eq!(&pops, &ref_pops, "{:?}", layout);
            let uniform = layout.drift.iter().all(|&d| d == 0);
            if uniform {
                prop_assert!(periods.is_some(), "a uniform shift must jump: {:?}", layout);
            }
            if let Some(p) = periods {
                let mut expected = layout.queue(3 + p, None);
                let expected: Vec<_> = std::iter::from_fn(|| expected.pop()).collect();
                prop_assert_eq!(&pops, &expected);
            }
            // Below the front slot (lane 0's head), the lanes form one
            // block when it has four entries and two per lane.
            let m = layout.offsets.len() as u64;
            let n = m * layout.per_lane - 1;
            if uniform && layout.irregular.is_empty() && layout.loose.is_empty() && n >= 4.max(2 * m) {
                prop_assert!(coords < ref_coords, "no block formed: {} coordinates", coords);
            }
            if periods.is_some() {
                let (nudged, _, _) = digest_and_jump(&layout, block_walk, Some(nudge));
                prop_assert_eq!(nudged, None, "a 1 ns move went unseen");
            }
        }
    }

    #[test]
    fn a_shrinking_closing_gap_caps_the_block_jump() {
        // Two lanes 370 ns apart in a 400 ns step, after an irregular
        // front entry; the first lane gains 2 ns a period on the
        // second, so the gap that closes the cycle narrows from 30 ns.
        // At the fourth digest it is 24 ns: 12 periods, less the
        // reserve. Without that guard the block capped the jump by its
        // lead margin only.
        let layout = Layout {
            offsets: vec![10, 380],
            drift: vec![2, 0],
            per_lane: 4,
            step: 400,
            lead: 1_000,
            irregular: vec![0],
            loose: Vec::new(),
            shift: 5,
        };
        let (periods, coords, pops) = digest_and_jump(&layout, block_walk, None);
        let (ref_periods, ref_coords, ref_pops) = digest_and_jump(&layout, entry_walk, None);
        assert_eq!((periods, ref_periods), (Some(10), Some(10)));
        assert_eq!(pops, ref_pops);
        assert!(
            coords < ref_coords,
            "{coords} coordinates, per entry {ref_coords}"
        );
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
