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

/// The scratch of a walk, kept between walks for its allocations and
/// its run summaries: the sorted loose entries (a deque, to merge like
/// a lane), one merge cursor per source with entries left to list,
/// the entries listed in surfacing order, of which the walk has cut
/// the first `cut`, and each lane's [`Runs`].
#[derive(Debug, Default)]
struct Walk {
    loose: VecDeque<Entry>,
    cursors: Vec<Place>,
    listed: Vec<Place>,
    cut: usize,
    runs: Vec<Runs>,
}

/// Where a walk finds an entry: position `pos` of lane `src`, or of
/// the walk's sorted loose entries when `src` is [`LOOSE`], with the
/// entry's key and slot.
#[derive(Debug, Clone, Copy)]
struct Place {
    key: Key,
    pos: usize,
    slot: u32,
    src: u32,
}

impl Place {
    #[inline]
    fn of(e: &Entry, src: u32, pos: usize) -> Place {
        Place {
            key: e.key(),
            pos,
            slot: e.slot,
            src,
        }
    }

    /// The entry's time in nanoseconds.
    #[inline]
    fn at(&self) -> u64 {
        self.key.0.as_nanos()
    }
}

/// A lane's arithmetic runs, as the differences between its
/// consecutive entries' times, run-length encoded: `(difference,
/// count)`. The last walk left the lane `len` entries long, ending at
/// insertion sequence `tail_seq`. `seg` and `seg_end` are a walk's
/// place in `diffs`: segment `seg` ends before difference `seg_end`.
#[derive(Debug, Default)]
struct Runs {
    len: usize,
    tail_seq: u64,
    diffs: VecDeque<(u64, usize)>,
    seg: usize,
    seg_end: usize,
}

impl Runs {
    /// Brings the summary up to `lane` and rewinds the walk's place.
    /// Sequence numbers increase along a lane, and a lane only loses
    /// entries at its front and gains them at its back, so the entries
    /// past `tail_seq` are the appended ones, the only ones read. While
    /// the old tail is queued the lane was never emptied, and pops
    /// since drop that many differences from the front; otherwise
    /// (emptied, or refilled by an older entry that left the front
    /// slot) the lane is summarized anew.
    fn sync(&mut self, lane: &VecDeque<Entry>) {
        let appended = lane
            .iter()
            .rev()
            .take_while(|e| e.seq > self.tail_seq)
            .count();
        let kept = lane.len() - appended;
        let from = if self.len > 0 && kept > 0 && lane[kept - 1].seq == self.tail_seq {
            let mut popped = self.len - kept;
            while popped > 0 {
                let Some(front) = self.diffs.front_mut() else {
                    break;
                };
                if front.1 > popped {
                    front.1 -= popped;
                    break;
                }
                popped -= front.1;
                self.diffs.pop_front();
            }
            kept - 1
        } else {
            self.diffs.clear();
            0
        };
        let mut times = lane.range(from..).map(|e| e.at.as_nanos());
        if let Some(first) = times.next() {
            let diffs = &mut self.diffs;
            times.fold(first, |prev, at| {
                let d = at - prev;
                match diffs.back_mut() {
                    Some(last) if last.0 == d => last.1 += 1,
                    _ => diffs.push_back((d, 1)),
                }
                at
            });
        }
        self.len = lane.len();
        self.tail_seq = lane.back().map_or(0, |e| e.seq);
        self.seg = 0;
        self.seg_end = self.diffs.front().map_or(0, |d| d.1);
    }

    /// How many entries from lane position `pos` on are spaced `step`
    /// apart (at least the one at `pos`). Within a walk, `pos` never
    /// decreases.
    fn run_from(&mut self, pos: usize, step: u64) -> usize {
        while self.seg_end <= pos {
            self.seg += 1;
            match self.diffs.get(self.seg) {
                Some(d) => self.seg_end += d.1,
                None => return 1,
            }
        }
        match self.diffs.get(self.seg) {
            Some(&(d, _)) if d == step => 1 + self.seg_end - pos,
            _ => 1,
        }
    }
}

/// A periodic block (see `EventQueue::probe_entries`): `n` entries of
/// the `m` lanes `src` interleaved in that order, lane `src[j]` from
/// its position `pos[j]` on, its first entry at `heads[j]` (slot
/// `slots[j]`) and every next one `step` later.
#[derive(Debug, Clone, Copy)]
struct Block {
    m: usize,
    n: usize,
    step: u64,
    src: [u32; MAX_CYCLE],
    pos: [usize; MAX_CYCLE],
    heads: [u64; MAX_CYCLE],
    slots: [u32; MAX_CYCLE],
}

impl Block {
    /// The `n`-entry block of `m` lanes a step apart that `order` opens.
    fn open(order: &[Place], m: usize, step: u64, n: usize) -> Block {
        let mut b = Block {
            m,
            n,
            step,
            src: [0; MAX_CYCLE],
            pos: [0; MAX_CYCLE],
            heads: [0; MAX_CYCLE],
            slots: [0; MAX_CYCLE],
        };
        for (j, h) in order[..m].iter().enumerate() {
            (b.src[j], b.pos[j], b.heads[j], b.slots[j]) = (h.src, h.pos, h.at(), h.slot);
        }
        b
    }

    /// The block's entries in lane `src[j]`.
    #[inline]
    fn count(&self, j: usize) -> usize {
        (self.n - j).div_ceil(self.m)
    }

    /// The lane and position of the block's `k`th entry.
    #[inline]
    fn entry(&self, k: usize) -> (usize, usize) {
        let j = k % self.m;
        (self.src[j] as usize, self.pos[j] + k / self.m)
    }

    /// Probes the block as a few coordinates, whatever its length. Its
    /// shape is a marker, `m`, the entry count and the cycle's lanes;
    /// its coordinates each lane's head time and the common step. Its
    /// guards are the margin from the previous entry, the offsets
    /// between consecutive lanes within a cycle, and the closing gap
    /// from the cycle's last lane to the first lane's next entry:
    /// every margin between two consecutive block entries is one of
    /// those, so the block sets every cap the per-entry walk would,
    /// with the same value (the margin to the entry after the block is
    /// that entry's own guard). Returns whether the probe moved the
    /// block, and then rewrites every entry's time in `lanes` from the
    /// advanced heads and step.
    fn probe(
        &self,
        p: &mut StateProbe<'_>,
        prev_at: &mut u64,
        lanes: &mut [VecDeque<Entry>],
    ) -> bool {
        let (m, n, step) = (self.m, self.n, self.step);
        p.shape(BLOCK);
        p.shape(m as u64);
        p.shape(n as u64);
        for &src in &self.src[..m] {
            p.shape(u64::from(src));
        }
        let mut heads = self.heads;
        let heads = &mut heads[..m];
        p.guard(heads[0].saturating_sub(*prev_at), u64::MAX);
        for w in heads.windows(2) {
            p.guard(w[1] - w[0], u64::MAX);
        }
        p.guard(step - (heads[m - 1] - heads[0]), u64::MAX);
        *prev_at = heads[(n - 1) % m] + ((n - 1) / m) as u64 * step;
        let mut new_step = step;
        for h in heads.iter_mut() {
            p.num(h);
        }
        p.num(&mut new_step);
        let moved = new_step != step || heads[..] != self.heads[..m];
        if moved {
            for (j, &h) in heads.iter().enumerate() {
                let lane = &mut lanes[self.src[j] as usize];
                for (c, e) in (0..).zip(lane.range_mut(self.pos[j]..).take(self.count(j))) {
                    e.at = SimTime::from_nanos(h + c * new_step);
                }
            }
        }
        moved
    }
}

/// Files a cursor in its place among `cursors`, sorted latest first.
fn insert(cursors: &mut Vec<Place>, c: Place) {
    cursors.push(c);
    let mut j = cursors.len() - 1;
    while j > 0 && cursors[j - 1].key < c.key {
        cursors[j] = cursors[j - 1];
        j -= 1;
    }
    cursors[j] = c;
}

/// The lane at `src`, or the walk's sorted loose entries.
#[inline]
fn source<'a>(
    lanes: &'a [VecDeque<Entry>],
    loose: &'a VecDeque<Entry>,
    src: u32,
) -> &'a VecDeque<Entry> {
    match src {
        LOOSE => loose,
        lane => &lanes[lane as usize],
    }
}

impl Walk {
    /// Sets up a walk of the entries below the front slot: copies the
    /// loose entries, sorted, brings every non-empty lane's runs up to
    /// date, and opens one cursor per source at its first entry.
    fn start(&mut self, heads: &BinaryHeap<Entry>, lanes: &[VecDeque<Entry>]) {
        self.loose.extend(heads.iter().filter(|e| e.lane == LOOSE));
        self.loose
            .make_contiguous()
            .sort_unstable_by_key(Entry::key);
        if self.runs.len() < lanes.len() {
            self.runs.resize_with(lanes.len(), Runs::default);
        }
        for e in heads.iter().filter(|e| e.lane != LOOSE) {
            self.runs[e.lane as usize].sync(&lanes[e.lane as usize]);
            self.cursors.push(Place::of(e, e.lane, 0));
        }
        if let Some(e) = self.loose.front() {
            self.cursors.push(Place::of(e, LOOSE, 0));
        }
        // Latest first: the earliest source is the last cursor.
        self.cursors.sort_unstable_by_key(|c| Reverse(c.key));
    }

    /// Lists the next `want` entries in surfacing order, or all that
    /// are left. The last source lists a stretch at once; two or more
    /// list through a tight two-way merge of the earliest two while
    /// they stay ahead of the third's head, after which both go back
    /// among the cursors.
    #[inline(never)]
    fn list(&mut self, lanes: &[VecDeque<Entry>], want: usize) {
        let Walk {
            loose,
            cursors,
            listed,
            ..
        } = self;
        let goal = listed.len() + want;
        while listed.len() < goal {
            let Some(x) = cursors.pop() else {
                return;
            };
            let Some(y) = cursors.pop() else {
                let entries = source(lanes, loose, x.src);
                let end = entries.len().min(x.pos + goal - listed.len());
                let stretch = entries.range(x.pos..end).zip(x.pos..);
                listed.extend(stretch.map(|(e, i)| Place::of(e, x.src, i)));
                if let Some(next) = entries.get(end).map(|e| Place::of(e, x.src, end)) {
                    cursors.push(next);
                }
                return;
            };
            let bound = cursors
                .last()
                .map_or((SimTime::from_nanos(u64::MAX), u64::MAX), |c| c.key);
            let (xs, ys) = (source(lanes, loose, x.src), source(lanes, loose, y.src));
            let (mut a, mut b) = (x, y);
            let mut left = goal - listed.len();
            // Lists `c`'s entry and moves it on: false when its source
            // ran out.
            let step = |c: &mut Place, entries: &VecDeque<Entry>, listed: &mut Vec<Place>| {
                listed.push(*c);
                c.pos += 1;
                entries
                    .get(c.pos)
                    .map(|e| (c.key, c.slot) = (e.key(), e.slot))
                    .is_some()
            };
            let rest = loop {
                if left == 0 {
                    break [Some(a), Some(b)];
                }
                left -= 1;
                if a.key < b.key {
                    if a.key > bound {
                        break [Some(a), Some(b)];
                    }
                    if !step(&mut a, xs, listed) {
                        break [None, Some(b)];
                    }
                } else {
                    if b.key > bound {
                        break [Some(a), Some(b)];
                    }
                    if !step(&mut b, ys, listed) {
                        break [Some(a), None];
                    }
                }
            };
            for c in rest.into_iter().flatten() {
                insert(cursors, c);
            }
        }
    }

    /// Lists enough to see a whole cycle and the entry after it. A
    /// stretch of `single` entries lists more at a time than a block
    /// start, whose entries the walk skips.
    #[inline(never)]
    fn refill(&mut self, lanes: &[VecDeque<Entry>], single: bool) {
        if self.cut >= 64 {
            self.listed.drain(..self.cut);
            self.cut = 0;
        }
        self.list(lanes, if single { 32 } else { 2 * MAX_CYCLE });
    }

    /// Cuts the block of `m` lanes a `step` apart that the listed
    /// entries open, if it is long enough, given that its first `seen`
    /// entries follow the pattern and, when that is all that is listed,
    /// maybe more.
    #[inline(never)]
    fn cut_block(
        &mut self,
        lanes: &[VecDeque<Entry>],
        m: usize,
        step: u64,
        seen: usize,
    ) -> Option<Block> {
        let n = if seen < self.listed.len() - self.cut {
            seen
        } else {
            self.block_len(lanes, m, step)
        };
        (n >= MIN_BLOCK.max(2 * m)).then(|| self.take_block(lanes, m, step, n))
    }

    /// The length of the block that opens the listed entries with a
    /// cycle of `m` lanes, up to the first lane's next entry `step`
    /// later, from each member lane's run of `step` and the first entry
    /// off the block. That is the earliest of the other sources' next
    /// entries and of each member lane's first entry off its run. Block
    /// entries surface in cycle order, so they are exactly the entries
    /// of those runs that surface before it, as long as the lanes that
    /// tie in time within a cycle keep their order from cycle to cycle;
    /// the block ends where their insertion sequences swap.
    #[inline(never)]
    fn block_len(&mut self, lanes: &[VecDeque<Entry>], m: usize, step: u64) -> usize {
        let heads = &self.listed[self.cut..self.cut + m];
        let member = |src: u32| heads.iter().any(|h| h.src == src);
        let mut bound = self.listed[self.cut + m + 1..]
            .iter()
            .chain(self.cursors.iter().rev())
            .find(|c| !member(c.src))
            .map(|c| c.key);
        let mut runs = [0; MAX_CYCLE];
        for (r, h) in runs.iter_mut().zip(heads) {
            *r = self.runs[h.src as usize].run_from(h.pos, step);
            if let Some(e) = lanes[h.src as usize].get(h.pos + *r) {
                bound = Some(bound.map_or(e.key(), |b| b.min(e.key())));
            }
        }
        // Lane `j`'s entries in the block: those of its run before the
        // bound, by time and, at the bound's time, by sequence.
        let cycles = |j: usize| {
            let (h, r) = (&heads[j], runs[j]);
            let Some((t, seq)) = bound else {
                return r;
            };
            let before = match t.as_nanos().checked_sub(h.at()) {
                Some(0) | None => 0,
                Some(_) if step == 0 => r,
                Some(dt) => (dt.div_ceil(step) as usize).min(r),
            };
            let run = lanes[h.src as usize].range(h.pos + before..h.pos + r);
            before + run.take_while(|e| e.at == t && e.seq < seq).count()
        };
        let mut n = (0..m).map(|j| cycles(j) * m + j).min().unwrap_or(0);
        // Entries `k` and `k + 1` of a cycle tie when their lanes' heads
        // do, and the closing pair when the last head is a step after
        // the first: the first swapped pair ends the block at `k`.
        for j in (0..m).filter(|_| m > 1) {
            let (a, b) = (&heads[j], &heads[(j + 1) % m]);
            let closing = j + 1 == m;
            if a.at() != b.at() + if closing { step } else { 0 } {
                continue;
            }
            // Cycle `c` pairs entry `c * m + j` with the next one.
            let pairs = lanes[a.src as usize]
                .range(a.pos..)
                .zip(lanes[b.src as usize].range(b.pos + usize::from(closing)..));
            let cycles = n.saturating_sub(j + 1).div_ceil(m);
            if let Some(c) = pairs.take(cycles).position(|(x, y)| x.seq > y.seq) {
                n = c * m + j;
            }
        }
        n
    }

    /// Cuts the `n`-entry block the listed entries open: moves the walk
    /// past its listed entries, and every member lane's cursor to the
    /// lane's first entry past the block.
    #[inline(never)]
    fn take_block(&mut self, lanes: &[VecDeque<Entry>], m: usize, step: u64, n: usize) -> Block {
        let b = Block::open(&self.listed[self.cut..], m, step, n);
        if self.cut + n < self.listed.len() {
            // The block ends among the listed entries, which the
            // cursors are past.
            self.cut += n;
        } else {
            self.listed.clear();
            self.cut = 0;
            let members = &b.src[..m];
            self.cursors.retain(|c| !members.contains(&c.src));
            for j in 0..m {
                let pos = b.pos[j] + b.count(j);
                if let Some(e) = lanes[b.src[j] as usize].get(pos) {
                    insert(&mut self.cursors, Place::of(e, b.src[j], pos));
                }
            }
        }
        b
    }
}

/// The pattern of a periodic block `order` may open with, as (lanes
/// per cycle, step, entries that follow it), if any. The cycle is the
/// stretch up to the first lane's next entry, whose lanes must be
/// distinct and none loose, and the step the time from the first
/// lane's entry to its next one. The pattern holds as long as every
/// entry repeats the lane `m` places back, one step later.
#[inline]
fn pattern(order: &[Place]) -> Option<(usize, u64, usize)> {
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
    let step = order[m].at() - first.at();
    let seen = m + order[m..]
        .iter()
        .zip(order)
        .take_while(|(s, t)| s.src == t.src && s.at() - t.at() == step)
        .count();
    Some((m, step, seen))
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
    /// The walk cuts the surfacing order into *periodic blocks* and
    /// single entries. A block is a stretch of at least four entries,
    /// two per lane, where a cycle of up to four distinct lanes repeats
    /// and each lane's times form an arithmetic progression with one
    /// common step: a channel's chain of buffer cycles, or two channels'
    /// chains interleaved. A block is probed as a few coordinates
    /// whatever its length (see `Block::probe`); a single entry as its
    /// time plus the margin to the previous entry (to `now` for the
    /// first) as a stay-positive guard. The front slot and loose entries
    /// are always single, and so is every entry of a walk under service
    /// jitter, where no progression survives.
    ///
    /// The walk lists entries one by one only outside blocks. It merges
    /// the lanes and the loose entries (copied and sorted; they are few)
    /// a few entries ahead of its position, enough to see the cycle a
    /// block would open with. A block's length then follows from its
    /// lanes' arithmetic runs, kept per lane between walks and brought
    /// up to date from the entries appended since the last walk, and
    /// from the first entry of any other source. Lanes that tie in time
    /// within a cycle cost one sequence comparison per cycle.
    ///
    /// `lane_probe` says whether an entry's payload probe is the same
    /// for every entry of its lane. When it holds for each lane of a
    /// block, the block probes one payload per lane, which with the
    /// block's lanes and length says what probing each payload would;
    /// otherwise it probes each payload in surfacing order.
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
        lane_probe: impl Fn(&T) -> bool,
    ) {
        p.shape(self.len() as u64);
        let mut walk = std::mem::take(&mut self.walk);
        walk.start(&self.heads, &self.lanes);
        let mut payload = |slab: &mut [Option<T>], slot: u32, p: &mut StateProbe<'_>| {
            if let Some(v) = slab[slot as usize].as_mut() {
                probe_payload(v, p);
            }
        };
        let mut prev_at = now.as_nanos();
        if let Some(e) = self.front.as_mut() {
            let mut at = e.at.as_nanos();
            probe_single(p, &mut at, &mut prev_at);
            e.at = SimTime::from_nanos(at);
            payload(&mut self.slab, e.slot, p);
        }
        let mut moved = false;
        let mut single = false;
        loop {
            if walk.listed.len() - walk.cut <= MAX_CYCLE {
                walk.refill(&self.lanes, single);
            }
            let order = &walk.listed[walk.cut..];
            let Some(&s) = order.first() else {
                break;
            };
            if let Some((m, step, seen)) = pattern(order) {
                // Past the listed entries, the block's length is open.
                let open = seen == order.len();
                let block = (open || seen >= MIN_BLOCK.max(2 * m))
                    .then(|| walk.cut_block(&self.lanes, m, step, seen))
                    .flatten();
                if let Some(b) = block {
                    single = false;
                    moved |= b.probe(p, &mut prev_at, &mut self.lanes);
                    let heads = &b.slots[..b.m];
                    let per_lane = heads
                        .iter()
                        .all(|&slot| self.slab[slot as usize].as_ref().is_some_and(&lane_probe));
                    if per_lane {
                        for &slot in heads {
                            payload(&mut self.slab, slot, p);
                        }
                    } else {
                        for k in 0..b.n {
                            let (lane, pos) = b.entry(k);
                            payload(&mut self.slab, self.lanes[lane][pos].slot, p);
                        }
                    }
                    continue;
                }
            }
            walk.cut += 1;
            single = true;
            let mut at = s.at();
            probe_single(p, &mut at, &mut prev_at);
            if at != s.at() {
                moved = true;
                let e = match s.src {
                    LOOSE => &mut walk.loose[s.pos],
                    lane => &mut self.lanes[lane as usize][s.pos],
                };
                e.at = SimTime::from_nanos(at);
            }
            payload(&mut self.slab, s.slot, p);
        }
        if moved {
            self.rebuild_heads(&walk.loose);
            // Moved times moved differences: summarize anew next walk.
            for runs in &mut walk.runs {
                runs.len = 0;
            }
        }
        walk.loose.clear();
        walk.cursors.clear();
        walk.listed.clear();
        walk.cut = 0;
        self.walk = walk;
    }

    /// After an advance walk moved times in the lanes and in `loose`
    /// (the walk's sorted copy of the loose entries): rebuilds the head
    /// heap from the lanes' new heads and the moved loose entries.
    fn rebuild_heads(&mut self, loose: &VecDeque<Entry>) {
        debug_assert!(
            self.lanes
                .iter()
                .all(|l| l.iter().zip(l.iter().skip(1)).all(|(a, b)| a.at <= b.at)),
            "a walk reordered a lane"
        );
        let mut tokens = std::mem::take(&mut self.heads).into_vec();
        tokens.retain(|e| e.lane != LOOSE);
        for token in &mut tokens {
            if let Some(&front) = self.lanes[token.lane as usize].front() {
                *token = front;
            }
        }
        tokens.extend(loose);
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

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The walks the tests compare `probe_entries` against.
#[cfg(test)]
impl<T> EventQueue<T> {
    /// The reference for [`EventQueue::probe_entries`]' cut, digest
    /// mode only: every entry below the front slot listed in surfacing
    /// order by a sort, then cut entry by entry into the blocks each
    /// position opens, every payload probed in surfacing order.
    pub(crate) fn probe_entries_sorted(
        &mut self,
        p: &mut StateProbe<'_>,
        now: SimTime,
        mut probe_payload: impl FnMut(&mut T, &mut StateProbe<'_>),
    ) {
        p.shape(self.len() as u64);
        let loose = self.heads.iter().filter(|e| e.lane == LOOSE);
        let lanes = self.lanes.iter().zip(0..).flat_map(|(lane, src)| {
            lane.iter()
                .enumerate()
                .map(move |(pos, e)| Place::of(e, src, pos))
        });
        let mut order: Vec<Place> = loose.map(|e| Place::of(e, LOOSE, 0)).chain(lanes).collect();
        order.sort_unstable_by_key(|s| s.key);
        let mut payload = |slot: u32, p: &mut StateProbe<'_>| {
            if let Some(v) = self.slab[slot as usize].as_mut() {
                probe_payload(v, p);
            }
        };
        let mut prev_at = now.as_nanos();
        if let Some(e) = self.front {
            probe_single(p, &mut e.at.as_nanos(), &mut prev_at);
            payload(e.slot, p);
        }
        let mut i = 0;
        while i < order.len() {
            let rest = &order[i..];
            let block = pattern(rest).and_then(|(m, step, n)| {
                (n >= MIN_BLOCK.max(2 * m)).then(|| Block::open(rest, m, step, n))
            });
            let n = match block {
                Some(b) => {
                    b.probe(p, &mut prev_at, &mut []);
                    b.n
                }
                None => {
                    probe_single(p, &mut rest[0].at(), &mut prev_at);
                    1
                }
            };
            for s in &rest[..n] {
                payload(s.slot, p);
            }
            i += n;
        }
    }

    /// The walk [`EventQueue::probe_entries`] replaced, kept as its
    /// reference: every entry probed as its time and its margin to the
    /// previous entry, blocks or not.
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
        // Renumbered sequences void every lane's run summary.
        self.walk = Walk::default();
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
    /// pushed into lane 8 after a later one, so it goes loose. Block
    /// lane 0 opens with the `prefix` entries, irregular, before its
    /// run; block lane `short.0` stops `short.1` entries short, mid-cycle;
    /// from cycle `gap.0` on, every block entry is `gap.1` ns later.
    /// `nudge` moves one block entry (not a lane head) 1 ns later. A
    /// payload is its push index, with its lane in the high half, which
    /// the walks mix into the shape like an event's key.
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
        prefix: Vec<u64>,
        short: (usize, u64),
        gap: (u64, u64),
    }

    const BASE: u64 = 1 << 24;

    impl Layout {
        /// The time of block lane `j`'s `i`th run entry.
        fn time(&self, period: u64, j: usize, i: u64) -> u64 {
            let gap = if i >= self.gap.0 { self.gap.1 } else { 0 };
            BASE + self.lead + self.offsets[j] + i * self.step + gap
                - period * (self.shift + self.drift[j])
        }

        fn pushes(&self, period: u64, nudge: Option<usize>) -> Vec<(u64, u32)> {
            let at = |t: u64| BASE + t - period * self.shift;
            let mut pushes: Vec<_> = self.irregular.iter().map(|&t| (at(t), 9)).collect();
            let lane0 = |t: u64| at(t) - period * self.drift[0];
            pushes.extend(self.prefix.iter().map(|&t| (lane0(t), 0)));
            let first = pushes.len() + self.offsets.len();
            for i in 0..self.per_lane {
                for j in 0..self.offsets.len() {
                    if j != self.short.0 || i + self.short.1 < self.per_lane {
                        pushes.push((self.time(period, j, i), j as u32));
                    }
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

        /// What running on leaves of a queue `period` periods in: its
        /// first `pops` entries popped, and one more run entry pushed
        /// into every block lane.
        fn run_on(&self, q: &mut EventQueue<u64>, period: u64, pops: usize) {
            for _ in 0..pops {
                q.pop();
            }
            for j in 0..self.offsets.len() {
                let at = self.time(period, j, self.per_lane);
                q.push_in(SimTime::from_nanos(at), j as u32, (j as u64) << 32 | 999);
            }
        }
    }

    use crate::coalesce::{Snapshot, StateProbe};
    use proptest::prelude::*;

    type Walker = fn(&mut EventQueue<u64>, &mut StateProbe<'_>);

    /// The lane walk, every payload probe per lane (as the engine's
    /// events other than deliveries).
    fn lane_walk(q: &mut EventQueue<u64>, p: &mut StateProbe<'_>) {
        q.probe_entries(p, SimTime::ZERO, |v, p| p.shape(*v >> 32), |_| true);
    }

    /// The lane walk, every payload probed.
    fn each_walk(q: &mut EventQueue<u64>, p: &mut StateProbe<'_>) {
        q.probe_entries(p, SimTime::ZERO, |v, p| p.shape(*v >> 32), |_| false);
    }

    fn sorted_walk(q: &mut EventQueue<u64>, p: &mut StateProbe<'_>) {
        q.probe_entries_sorted(p, SimTime::ZERO, |v, p| p.shape(*v >> 32));
    }

    fn entry_walk(q: &mut EventQueue<u64>, p: &mut StateProbe<'_>) {
        q.probe_entries_per_entry(p, SimTime::ZERO, |v, p| p.shape(*v >> 32));
    }

    fn digest(q: &mut EventQueue<u64>, walk: Walker) -> Snapshot {
        let mut p = StateProbe::digest();
        walk(q, &mut p);
        p.finish()
    }

    /// Digests `q` with the lane walk both ways and with the sorted
    /// reference, and asserts that they cut the same blocks: equal
    /// coordinates and caps, and with every payload probed, equal
    /// shapes too. Returns the per-lane digest and the reference's.
    fn digest_checked(q: &mut EventQueue<u64>) -> (Snapshot, Snapshot) {
        let (lane, each, sorted) = (
            digest(q, lane_walk),
            digest(q, each_walk),
            digest(q, sorted_walk),
        );
        assert_eq!(each, sorted, "the walks cut differently");
        assert_eq!(lane.nums(), sorted.nums());
        assert_eq!(lane.caps(), sorted.caps());
        (lane, sorted)
    }

    /// Whether each pair of digests compares, in order.
    fn comparisons(digests: &[Snapshot]) -> Vec<bool> {
        let pairs = digests
            .iter()
            .enumerate()
            .flat_map(|(i, a)| digests[i + 1..].iter().map(move |b| (a, b)));
        pairs.map(|(a, b)| a.comparable(b)).collect()
    }

    /// Digests the layout at periods 0..4 (the last one nudged, if
    /// asked) the way the engine's `run_coalesced` does, and applies the
    /// plan the fourth digest yields to that queue. Returns the plan's
    /// periods, the coordinates digested, and the queue's pops.
    ///
    /// With the lane walk, it checks every digest against the sorted
    /// reference as it goes, including the comparisons between them,
    /// and after a jump digests the advanced queue against a fresh one
    /// at the same period, before and after running both on.
    fn digest_and_jump(
        layout: &Layout,
        walk: Walker,
        nudge: Option<usize>,
    ) -> (Option<u64>, u64, Vec<(SimTime, u64)>) {
        let checked = std::ptr::fn_addr_eq(walk, lane_walk as Walker);
        let mut co = crate::coalesce::Coalescer::new();
        let mut plan = None;
        let mut q = EventQueue::new();
        let (mut lanes, mut sorted) = (Vec::new(), Vec::new());
        for period in 0..4 {
            q = layout.queue(period, nudge.filter(|_| period == 3));
            if checked {
                let (lane, reference) = digest_checked(&mut q);
                lanes.push(lane);
                sorted.push(reference);
            }
            plan = co.observe(digest(&mut q, walk));
        }
        assert_eq!(comparisons(&lanes), comparisons(&sorted));
        if let Some(plan) = &plan {
            if checked && nudge.is_none() {
                digest_after_jump(layout, plan);
            }
            walk(&mut q, &mut StateProbe::advance(&plan.deltas, plan.periods));
        }
        let pops = std::iter::from_fn(|| q.pop()).collect();
        (plan.map(|p| p.periods), co.stats().coords, pops)
    }

    /// Digest, advance, digest: jumps the layout's queue at period 3 by
    /// `plan` and digests it against a fresh queue at the period it
    /// lands on, then again after running both on (pops and appends),
    /// each digest checked against the sorted reference.
    fn digest_after_jump(layout: &Layout, plan: &crate::coalesce::JumpPlan) {
        let mut q = layout.queue(3, None);
        digest_checked(&mut q);
        lane_walk(&mut q, &mut StateProbe::advance(&plan.deltas, plan.periods));
        let period = 3 + plan.periods;
        let mut fresh = layout.queue(period, None);
        assert_eq!(digest_checked(&mut q).0, digest_checked(&mut fresh).0);
        layout.run_on(&mut q, period, 3);
        layout.run_on(&mut fresh, period, 3);
        assert_eq!(digest_checked(&mut q).0, digest_checked(&mut fresh).0);
    }

    fn layout() -> impl Strategy<Value = Layout> {
        use proptest::collection::vec;
        (
            (1usize..=4, vec(0u64..3, 4), 2u64..10),
            (1u64..400, vec(0u64..400, 4), vec(0u64..4_000, 0..5)),
            (vec(0u64..4_000, 0..3), 1u64..40, any::<bool>(), 0u64..2_000),
            (
                vec(0u64..2_000, 0..3),
                (0usize..4, 0u64..10),
                (0u64..12, 0u64..3_000),
            ),
        )
            .prop_map(
                |(
                    (m, drift, per_lane),
                    (step, mut offsets, irregular),
                    (loose, shift, uniform, lead),
                    (mut prefix, (short_lane, short), (gap_at, gap)),
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
                    for t in &mut prefix {
                        *t %= lead.max(1);
                    }
                    prefix.sort_unstable();
                    Layout {
                        offsets,
                        drift,
                        per_lane,
                        step,
                        lead,
                        irregular,
                        loose,
                        shift,
                        prefix,
                        short: (short_lane % m, short % (per_lane - 1)),
                        gap: (gap_at, gap),
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The block walk against the per-entry walk it replaced, and
        /// the lane walk against the sorted reference, on arithmetic
        /// runs of 1 to 4 interleaved lanes with ties across lanes, an
        /// irregular prefix, a run that ends mid-cycle, runs split by a
        /// gap, and irregular and intruding loose entries. Digests one
        /// period apart must confirm a jump on exactly the same queues,
        /// capped at the same periods, and the jump must leave the queue
        /// the per-entry jump leaves: the layout as it stands that many
        /// periods on. Moving one block entry by 1 ns must refuse the
        /// jump.
        #[test]
        fn block_walk_matches_the_per_entry_walk(
            layout in layout(),
            nudge in 0usize..1_000,
        ) {
            let (periods, coords, pops) = digest_and_jump(&layout, lane_walk, None);
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
            let plain = layout.irregular.is_empty()
                && layout.loose.is_empty()
                && layout.prefix.is_empty()
                && layout.short.1 == 0
                && layout.gap.1 == 0;
            if uniform && plain && n >= 4.max(2 * m) {
                prop_assert!(coords < ref_coords, "no block formed: {} coordinates", coords);
            }
            if periods.is_some() {
                let (nudged, _, _) = digest_and_jump(&layout, lane_walk, Some(nudge));
                prop_assert_eq!(nudged, None, "a 1 ns move went unseen");
            }
        }

        /// The lane walk against the sorted reference on one queue that
        /// keeps changing between digests, so that the lanes' run
        /// summaries are brought up to date rather than built: pushes
        /// at a common step into four lanes (blocks, ties across lanes),
        /// pushes off the step (runs split), pushes that go loose, and
        /// pops.
        #[test]
        fn lane_walk_keeps_up_with_a_changing_queue(
            step in 0u64..50,
            ops in proptest::collection::vec((0u8..10, 0usize..4, 0u64..100), 0..300),
        ) {
            let mut q = EventQueue::new();
            let mut tails = [BASE, BASE + 1, BASE + step, BASE + step / 2];
            for (i, (op, lane, x)) in (0..).zip(ops) {
                let payload = (lane as u64) << 32 | i;
                match op {
                    0..=4 => tails[lane] += step,
                    5 => tails[lane] += step + 1 + x % 7,
                    6 => {
                        q.push_in(SimTime::from_nanos(BASE + x), lane as u32, payload);
                        continue;
                    }
                    7 | 8 => {
                        q.pop();
                        continue;
                    }
                    _ => {
                        digest_checked(&mut q);
                        continue;
                    }
                }
                q.push_in(SimTime::from_nanos(tails[lane]), lane as u32, payload);
            }
            digest_checked(&mut q);
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
            prefix: Vec::new(),
            short: (0, 0),
            gap: (0, 0),
        };
        let (periods, coords, pops) = digest_and_jump(&layout, lane_walk, None);
        let (ref_periods, ref_coords, ref_pops) = digest_and_jump(&layout, entry_walk, None);
        assert_eq!((periods, ref_periods), (Some(10), Some(10)));
        assert_eq!(pops, ref_pops);
        assert!(
            coords < ref_coords,
            "{coords} coordinates, per entry {ref_coords}"
        );
    }

    #[test]
    fn tied_lanes_form_a_block_until_their_order_swaps() {
        // Two lanes at the same times, pushed alternately: the first
        // lane's entry is older in every cycle, so all 23 entries below
        // the front form one block of two lanes, longer than the walk
        // lists ahead. Pushing the tenth cycle the other way round swaps
        // the tie there, and the block ends before it.
        let times = |order: [u32; 2], k: u64| order.map(|lane| (BASE + 100 * k, lane));
        for swap_at in [None, Some(9)] {
            let mut q = EventQueue::new();
            for k in 0..12 {
                let order = if Some(k) == swap_at { [1, 0] } else { [0, 1] };
                for (i, (at, lane)) in (0..).zip(times(order, k)) {
                    q.push_in(
                        SimTime::from_nanos(at),
                        lane,
                        u64::from(lane) << 32 | (2 * k + i),
                    );
                }
            }
            let (lane, sorted) = digest_checked(&mut q);
            assert_eq!(lane.nums(), sorted.nums());
            // The front's guard and time, then a block of two lanes
            // (three guards, two heads and the step), and more after a
            // swap.
            let one_block = lane.nums().len() == 2 + 6;
            assert_eq!(
                one_block,
                swap_at.is_none(),
                "{} coordinates",
                lane.nums().len()
            );
        }
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
                q.probe_entries(&mut p, SimTime::ZERO, |v, _| walked.push(*v), |_| false);
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
