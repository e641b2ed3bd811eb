//! Affine train coalescing: detect periodic phases of a simulation and
//! fast-forward whole periods analytically.
//!
//! The figure workloads push long trains of identical messages through
//! the cluster models. Once such a train is in steady state, the entire
//! simulator state evolves *affinely*: between two occurrences of the
//! same event kind ("cuts"), every counter and every clock advances by a
//! constant per-period delta. This module detects that regime from the
//! outside — without any model-specific knowledge — and jumps the whole
//! state forward by `N` periods in one step, producing bit-identical
//! results to executing the events one by one.
//!
//! The three pieces:
//!
//! * [`StateProbe`] — a visitor the model's state walks itself through,
//!   once per digest. Each call classifies one piece of state as an
//!   extrapolatable number ([`StateProbe::num`]), a number with an upper
//!   bound it must not cross ([`StateProbe::bounded`]), a read-only
//!   safety margin ([`StateProbe::guard`]), or opaque structure that
//!   must stay exactly equal for a jump to be sound
//!   ([`StateProbe::shape`]).
//! * [`Snapshot`] — the digest a probe walk produces.
//! * [`Coalescer`] — the detector: confirms three consecutive equal
//!   delta vectors before every jump, and lets the event schedule say
//!   when that is worth trying (see [`Coalescer`]).
//!
//! ## Soundness
//!
//! A jump of `P` periods replays the confirmed per-period delta `P`
//! times. That is exactly what per-event execution would produce as
//! long as no *comparison* inside the model changes its outcome during
//! the jumped span. Three mechanisms enforce this:
//!
//! * any coordinate with a **negative** delta caps `P` so it stays
//!   strictly positive (a depleting counter reaching zero is a behavior
//!   change);
//! * [`StateProbe::bounded`]/[`StateProbe::guard`] coordinates cap `P`
//!   so they stay strictly below their bound (a filling buffer wrapping
//!   or a backlog crossing a drop threshold is a behavior change);
//! * everything else (lengths, discriminants, payload bytes, float
//!   accumulators) is hashed into the shape, and any shape change
//!   blocks the jump entirely.
//!
//! A reserve of two periods is always withheld, and a jump with no
//! finite cap at all is refused: unbounded extrapolation would mean no
//! coordinate ever forces the phase to end, which real workloads never
//! exhibit (they terminate).

use crate::time::{SimDur, SimTime};

/// Periods withheld from every jump so the state never lands exactly on
/// a behavior boundary.
const RESERVE_PERIODS: u64 = 2;
/// Consecutive equal delta vectors required before the first jump of a
/// phase.
const CONFIRM_MATCHES: u32 = 3;
/// Periods the first missed confirm window stays away; each further
/// one quadruples it, without bound. Digesting is an order of magnitude
/// more expensive than dispatching the events of a period, so barren
/// stretches must stop digesting quickly.
const FIRST_SKIP: u64 = 4;
/// Events a jump must skip per digest spent finding it to count as
/// repaid. A digest of a Figure 6 or 8 paper point costs what
/// dispatching some 12 to 32 events does, about 80 on Figure 15's
/// blockless queues; the constant keeps the margin it was set with
/// when digests cost 40 to 60.
const DIGEST_EVENTS: u64 = 64;
/// Events a post-jump sleep may cost: what the four back-off windows
/// (two digests each) that would otherwise probe the stretch cost, so a
/// jumpable phase hiding in it loses no more than looking for it would.
const SLEEP_EVENTS: u64 = 8 * DIGEST_EVENTS;
/// Events without seeing the anchor key again before re-anchoring on
/// the current event.
const REANCHOR_AFTER: u64 = 4096;
/// Hard clamp on a single jump so delta arithmetic stays far from
/// overflow.
const MAX_JUMP: u64 = 1 << 32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One multiply-xor round over a full word. The constant is the FNV
/// prime, but the mix is word-at-a-time: the hash is only ever compared
/// against hashes computed the same way within one run, so all that
/// matters is determinism and diffusion, and the byte-at-a-time loop
/// was the single hottest instruction sequence of a state digest.
#[inline]
fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME).rotate_left(23)
}

/// An upper-bound constraint on one probed coordinate: the coordinate
/// must stay strictly below `bound` for the confirmed deltas to remain
/// valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cap {
    coord: usize,
    bound: u64,
}

enum Mode<'a> {
    Digest,
    Advance { deltas: &'a [i64], periods: u64 },
}

/// A visitor that either digests simulation state into a [`Snapshot`]
/// or replays a confirmed per-period delta onto it.
///
/// The same probe walk must visit the same state in the same order in
/// both modes; the walk order is the coordinate identity.
pub struct StateProbe<'a> {
    mode: Mode<'a>,
    idx: usize,
    nums: Vec<u64>,
    caps: Vec<Cap>,
    shape: u64,
    /// Words mixed into `shape` (digest mode only).
    shape_words: u64,
}

impl<'a> StateProbe<'a> {
    /// Creates a probe that records state into a snapshot.
    pub fn digest() -> Self {
        StateProbe {
            mode: Mode::Digest,
            idx: 0,
            nums: Vec::with_capacity(1024),
            caps: Vec::with_capacity(16),
            shape: FNV_OFFSET,
            shape_words: 0,
        }
    }

    /// A digest-mode probe recording into `buf`'s vectors, cleared: the
    /// detector hands a retired snapshot's buffers to the next digest.
    fn digest_into(buf: Snapshot) -> Self {
        let Snapshot {
            mut nums, mut caps, ..
        } = buf;
        nums.clear();
        caps.clear();
        StateProbe {
            mode: Mode::Digest,
            idx: 0,
            nums,
            caps,
            shape: FNV_OFFSET,
            shape_words: 0,
        }
    }

    /// Creates a probe that advances state by `deltas * periods`.
    pub fn advance(deltas: &'a [i64], periods: u64) -> Self {
        StateProbe {
            mode: Mode::Advance { deltas, periods },
            idx: 0,
            nums: Vec::new(),
            caps: Vec::new(),
            shape: FNV_OFFSET,
            shape_words: 0,
        }
    }

    #[inline]
    fn apply(x: u64, delta: i64, periods: u64) -> u64 {
        // Two's-complement wrapping arithmetic: deltas are computed with
        // wrapping subtraction, so replaying them wraps consistently.
        x.wrapping_add((delta as u64).wrapping_mul(periods))
    }

    /// Probes an extrapolatable counter.
    #[inline]
    pub fn num(&mut self, x: &mut u64) {
        match &self.mode {
            Mode::Digest => self.nums.push(*x),
            Mode::Advance { deltas, periods } => *x = Self::apply(*x, deltas[self.idx], *periods),
        }
        self.idx += 1;
    }

    /// Probes a signed counter (stored as its two's-complement bits).
    #[inline]
    pub fn num_i64(&mut self, x: &mut i64) {
        let mut bits = *x as u64;
        self.num(&mut bits);
        *x = bits as i64;
    }

    /// Probes a `usize` counter.
    #[inline]
    pub fn num_usize(&mut self, x: &mut usize) {
        let mut bits = *x as u64;
        self.num(&mut bits);
        *x = bits as usize;
    }

    /// Probes a simulation instant.
    #[inline]
    pub fn time(&mut self, t: &mut SimTime) {
        let mut ns = t.as_nanos();
        self.num(&mut ns);
        *t = SimTime::from_nanos(ns);
    }

    /// Probes a simulation duration.
    #[inline]
    pub fn dur(&mut self, d: &mut SimDur) {
        let mut ns = d.as_nanos();
        self.num(&mut ns);
        *d = SimDur::from_nanos(ns);
    }

    /// Probes a counter that must stay strictly below `bound` (e.g. a
    /// buffer fill level, or executed events under an event budget).
    #[inline]
    pub fn bounded(&mut self, x: &mut u64, bound: u64) {
        if matches!(self.mode, Mode::Digest) {
            self.caps.push(Cap {
                coord: self.idx,
                bound,
            });
        }
        self.num(x);
    }

    /// Probes a derived, read-only safety margin that must stay strictly
    /// below `bound`. Use [`u64::MAX`] as the bound when only the
    /// implicit stay-positive rule for negative deltas should apply.
    #[inline]
    pub fn guard(&mut self, x: u64, bound: u64) {
        match &self.mode {
            Mode::Digest => {
                self.caps.push(Cap {
                    coord: self.idx,
                    bound,
                });
                self.nums.push(x);
            }
            Mode::Advance { .. } => {} // derived: nothing to write back
        }
        self.idx += 1;
    }

    /// Mixes an opaque structural fact (a length, a discriminant, float
    /// bits) into the shape hash. Any change blocks jumps.
    #[inline]
    pub fn shape(&mut self, v: u64) {
        if matches!(self.mode, Mode::Digest) {
            self.shape = fnv_mix(self.shape, v);
            self.shape_words += 1;
        }
    }

    /// Mixes a byte string into the shape hash.
    #[inline]
    pub fn shape_bytes(&mut self, bytes: &[u8]) {
        if matches!(self.mode, Mode::Digest) {
            let mut h = fnv_mix(self.shape, bytes.len() as u64);
            let mut chunks = bytes.chunks_exact(8);
            for c in &mut chunks {
                h = fnv_mix(h, u64::from_le_bytes(c.try_into().expect("chunk of 8")));
            }
            let mut tail = 0u64;
            for &b in chunks.remainder() {
                tail = (tail << 8) | b as u64;
            }
            h = fnv_mix(h, tail);
            self.shape = h;
            self.shape_words += bytes.len() as u64 / 8 + 2;
        }
    }

    /// Digests `walk` on a probe of its own and folds the result, its
    /// shape, every coordinate and every cap, into one word for
    /// [`StateProbe::shape`]: for state the model knows is unchanged
    /// since the word was taken, so it can cache the word instead of
    /// walking the state again. Two walks give the same word only when
    /// they would give comparable snapshots with all-zero deltas
    /// between them (barring a hash collision), so shaping the word is
    /// stricter than walking the state: it refuses any jump across a
    /// change of it.
    pub fn fingerprint(walk: impl FnOnce(&mut StateProbe<'_>)) -> u64 {
        let mut p = StateProbe {
            mode: Mode::Digest,
            idx: 0,
            nums: Vec::new(),
            caps: Vec::new(),
            shape: FNV_OFFSET,
            shape_words: 0,
        };
        walk(&mut p);
        let mut h = fnv_mix(p.shape, p.nums.len() as u64);
        for &x in &p.nums {
            h = fnv_mix(h, x);
        }
        for c in &p.caps {
            h = fnv_mix(fnv_mix(h, c.coord as u64), c.bound);
        }
        h
    }

    /// Consumes a digest-mode probe, yielding the snapshot.
    ///
    /// # Panics
    ///
    /// Panics on an advance-mode probe.
    pub fn finish(self) -> Snapshot {
        assert!(
            matches!(self.mode, Mode::Digest),
            "finish() is only meaningful after a digest walk"
        );
        Snapshot {
            nums: self.nums,
            caps: self.caps,
            shape: self.shape,
            shape_words: self.shape_words,
        }
    }
}

/// The digest of one probe walk over the full simulation state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    nums: Vec<u64>,
    caps: Vec<Cap>,
    shape: u64,
    shape_words: u64,
}

impl Snapshot {
    /// The recorded coordinates, in walk order.
    pub fn nums(&self) -> &[u64] {
        &self.nums
    }

    /// Whether the detector compares `self` and `other` coordinate by
    /// coordinate: equal shapes, widths and caps.
    pub fn comparable(&self, other: &Snapshot) -> bool {
        Coalescer::comparable(self, other)
    }
}

/// Counters describing what the coalescer did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// State digests taken.
    pub digests: u64,
    /// Jumps performed.
    pub jumps: u64,
    /// Periods skipped analytically across all jumps.
    pub periods_skipped: u64,
    /// Events those skipped periods would have dispatched.
    pub events_skipped: u64,
    /// Coordinates recorded, summed over all digests: the width of the
    /// state probe, which `comparable` and the delta checks walk.
    pub coords: u64,
    /// Words mixed into the shape hash, summed over all digests: the
    /// rest of a digest's width, which only the digest walk pays.
    pub shape_words: u64,
}

/// The plan for one jump: replay `deltas` onto the state `periods`
/// times (via [`StateProbe::advance`]).
#[derive(Debug, Clone)]
pub struct JumpPlan {
    /// Per-coordinate per-period deltas, in probe walk order.
    pub deltas: Vec<i64>,
    /// Number of whole periods to skip.
    pub periods: u64,
}

/// Detects periodic phases from a stream of event keys and state
/// snapshots, and plans affine jumps across them.
///
/// *Whether* a jump is allowed is decided by the snapshots alone:
/// `CONFIRM_MATCHES` equal delta vectors over consecutive cuts (a
/// *confirm window*), then `Coalescer::plan_periods`. *When* to open
/// a window is the schedule's call, because a digest costs what
/// dispatching tens of events does:
///
/// * a window that ends without a jump — a changed shape, a changed
///   delta, no room, or an irregular period cutting it short — is a
///   miss, and each miss stays away four times as long as the last;
/// * a jump runs into whatever capped it, so a transient follows. The
///   detector sleeps through it: until the first disturbance of the
///   schedule (an irregular period — a foreign event fired, which is
///   how a transient that slides an event through the queue ends), or
///   for as long as that disturbance took to come last time, never
///   longer than probing the stretch would have cost (`SLEEP_EVENTS`);
/// * a jump that did not repay the digests spent finding it postpones
///   the next look, four times as long after each further one.
#[derive(Debug, Default)]
pub struct Coalescer {
    anchor: Option<u64>,
    events_since_cut: u64,
    last_period_len: u64,
    /// The confirm window: previous cut's snapshot, the delta it
    /// established, and how many consecutive deltas equalled it.
    prev: Option<Snapshot>,
    delta: Vec<i64>,
    matches: u32,
    /// Stable cuts to let pass before the next confirm window opens.
    skip: u64,
    /// The skip the last miss imposed (0: none since the last reset).
    backoff: u64,
    /// Cuts since the last jump, whether a disturbance has woken the
    /// detector since, and how many cuts that took the last time it
    /// happened (0 once a window missed with no disturbance to wait
    /// for).
    since_jump: u64,
    woken: bool,
    transient: u64,
    /// Cuts after a jump during which disturbances do not wake.
    penalty: u64,
    /// Digests taken up to the last jump.
    paid_digests: u64,
    stats: CoalesceStats,
    /// Retired snapshots (at most two: a miss retires both of a
    /// window's), whose buffers the next digests record into.
    spare: Vec<Snapshot>,
}

impl Coalescer {
    /// Creates an idle detector.
    pub fn new() -> Self {
        Coalescer::default()
    }

    /// Counters describing the coalescer's activity so far.
    pub fn stats(&self) -> CoalesceStats {
        self.stats
    }

    /// A digest-mode probe for the next cut, recording into a retired
    /// snapshot's buffers when there is one: a detector past its first
    /// window allocates nothing per digest.
    pub fn digest_probe(&mut self) -> StateProbe<'static> {
        match self.spare.pop() {
            Some(buf) => StateProbe::digest_into(buf),
            None => StateProbe::digest(),
        }
    }

    fn retire(&mut self, snap: Snapshot) {
        if self.spare.len() < 2 {
            self.spare.push(snap);
        }
    }

    fn close_window(&mut self) {
        if let Some(snap) = self.prev.take() {
            self.retire(snap);
        }
        self.matches = 0;
    }

    /// A confirm window ended without a jump: stay away for a while,
    /// four times as long after each further miss.
    fn miss(&mut self) {
        self.close_window();
        self.backoff = self.backoff.saturating_mul(4).max(FIRST_SKIP);
        self.skip = self.backoff;
        if !self.woken {
            self.transient = 0;
        }
    }

    /// Reports the key of the event about to fire. Returns `true` when
    /// this instant is a cut worth digesting (the driver should then
    /// digest the state and call [`Coalescer::observe`]).
    pub fn note_event(&mut self, key: u64) -> bool {
        self.events_since_cut += 1;
        match self.anchor {
            None => {
                self.anchor = Some(key);
                self.events_since_cut = 0;
                false
            }
            Some(a) if a == key => {
                let len = self.events_since_cut;
                self.events_since_cut = 0;
                self.since_jump += 1;
                let stable = len == self.last_period_len && len > 0;
                self.last_period_len = len;
                if !stable {
                    // A foreign event fired: deltas across this cut mean
                    // nothing, and the transient being slept through
                    // may just have ended.
                    if self.prev.is_some() {
                        self.miss();
                    }
                    if !self.woken && self.since_jump > self.penalty {
                        self.woken = true;
                        self.skip = 0;
                        self.backoff = 0;
                        self.transient = self.since_jump;
                    }
                    return false;
                }
                if self.skip > 0 {
                    self.skip -= 1;
                    return false;
                }
                true
            }
            Some(_) => {
                if self.events_since_cut > REANCHOR_AFTER {
                    self.anchor = Some(key);
                    self.events_since_cut = 0;
                    self.last_period_len = 0;
                    self.close_window();
                    self.skip = 0;
                    self.backoff = 0;
                }
                false
            }
        }
    }

    fn comparable(a: &Snapshot, b: &Snapshot) -> bool {
        a.shape == b.shape && a.nums.len() == b.nums.len() && a.caps == b.caps
    }

    fn deltas_into(prev: &Snapshot, snap: &Snapshot, out: &mut Vec<i64>) {
        out.clear();
        out.extend(
            prev.nums
                .iter()
                .zip(&snap.nums)
                .map(|(&a, &b)| b.wrapping_sub(a) as i64),
        );
    }

    /// Whether the per-coordinate deltas between two comparable
    /// snapshots equal `expected`, without materializing them.
    fn deltas_match(prev: &Snapshot, snap: &Snapshot, expected: &[i64]) -> bool {
        prev.nums
            .iter()
            .zip(&snap.nums)
            .zip(expected)
            .all(|((&a, &b), &e)| b.wrapping_sub(a) as i64 == e)
    }

    /// Maximum sound jump from `snap` under `deltas`, or `None` when no
    /// finite cap exists or the caps leave no room.
    fn plan_periods(snap: &Snapshot, deltas: &[i64]) -> Option<u64> {
        let mut cap: Option<u64> = None;
        let mut tighten = |c: u64| {
            cap = Some(cap.map_or(c, |old: u64| old.min(c)));
        };
        for (i, &d) in deltas.iter().enumerate() {
            if d < 0 {
                // Stay strictly positive: x - P*|d| >= 1 would withhold
                // valid terminal states; x / |d| then the global reserve
                // keeps us two periods clear of zero anyway.
                tighten(snap.nums[i] / d.unsigned_abs());
            }
        }
        for c in &snap.caps {
            if c.bound == u64::MAX {
                continue;
            }
            let d = deltas[c.coord];
            let x = snap.nums[c.coord];
            if d > 0 {
                if x >= c.bound {
                    return None;
                }
                tighten((c.bound - 1 - x) / d as u64);
            }
        }
        let p = cap?.saturating_sub(RESERVE_PERIODS).min(MAX_JUMP);
        (p >= 1).then_some(p)
    }

    /// Feeds the snapshot digested at a cut. Returns a [`JumpPlan`] when
    /// the phase is confirmed periodic and has room to jump; the driver
    /// must then apply the plan and call [`Coalescer::after_jump`].
    pub fn observe(&mut self, snap: Snapshot) -> Option<JumpPlan> {
        self.stats.digests += 1;
        self.stats.coords += snap.nums.len() as u64;
        self.stats.shape_words += snap.shape_words;
        let prev = self.prev.replace(snap)?;
        let plan = self.confirm(&prev);
        self.retire(prev);
        plan
    }

    /// [`Coalescer::observe`] with a previous cut: the snapshot just
    /// stored against `prev`.
    fn confirm(&mut self, prev: &Snapshot) -> Option<JumpPlan> {
        let snap = self.prev.as_ref().expect("just stored");
        if Self::comparable(prev, snap) {
            if self.matches == 0 {
                Self::deltas_into(prev, snap, &mut self.delta);
                self.matches = 1;
                return None;
            }
            if Self::deltas_match(prev, snap, &self.delta) {
                self.matches += 1;
                if self.matches < CONFIRM_MATCHES {
                    return None;
                }
                if let Some(periods) = Self::plan_periods(snap, &self.delta) {
                    return Some(JumpPlan {
                        deltas: self.delta.clone(),
                        periods,
                    });
                }
            }
        }
        // A changed shape, a changed delta or a locked phase with no
        // room: no later cut of this window can do better.
        self.miss();
        None
    }

    /// Records a performed jump of `plan.periods` periods.
    pub fn after_jump(&mut self, plan: &JumpPlan) {
        self.close_window();
        let events = plan.periods * self.last_period_len;
        self.stats.jumps += 1;
        self.stats.periods_skipped += plan.periods;
        self.stats.events_skipped += events;
        // A jump that did not repay the digests spent finding it
        // postpones the next look: phases too short to pay for
        // themselves are looked at ever more rarely.
        let spent = self.stats.digests - self.paid_digests;
        self.paid_digests = self.stats.digests;
        self.penalty = if events < DIGEST_EVENTS * spent {
            self.penalty.saturating_mul(4).max(FIRST_SKIP)
        } else {
            0
        };
        // The jump stops RESERVE_PERIODS short of the tightest cap, so
        // the next cuts provably have no room, and what capped it then
        // disturbs the phase: sleep until the schedule shows that is
        // over, or for as long as that took last time.
        let affordable = SLEEP_EVENTS / self.last_period_len.max(1);
        self.skip = self.penalty + self.transient.min(affordable).max(RESERVE_PERIODS);
        self.backoff = 0;
        self.since_jump = 0;
        self.woken = false;
    }
}

#[cfg(test)]
impl Snapshot {
    /// The recorded caps, as (coordinate, bound).
    pub(crate) fn caps(&self) -> Vec<(usize, u64)> {
        self.caps.iter().map(|c| (c.coord, c.bound)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_pair(xs: &[(u64, Option<u64>)], shape: u64) -> Snapshot {
        let mut p = StateProbe::digest();
        for &(v, bound) in xs {
            let mut v = v;
            match bound {
                Some(b) => p.bounded(&mut v, b),
                None => p.num(&mut v),
            }
        }
        p.shape(shape);
        p.finish()
    }

    #[test]
    fn probe_roundtrips_numbers_and_times() {
        let mut a = 10u64;
        let mut t = SimTime::from_micros(3);
        let mut d = SimDur::from_nanos(7);
        let mut n = -5i64;
        let mut p = StateProbe::digest();
        p.num(&mut a);
        p.time(&mut t);
        p.dur(&mut d);
        p.num_i64(&mut n);
        let snap = p.finish();

        let deltas = vec![2i64, 1000, -1, -1];
        let mut adv = StateProbe::advance(&deltas, 4);
        adv.num(&mut a);
        adv.time(&mut t);
        adv.dur(&mut d);
        adv.num_i64(&mut n);
        assert_eq!(a, 18);
        assert_eq!(t, SimTime::from_micros(7));
        assert_eq!(d, SimDur::from_nanos(3));
        assert_eq!(n, -9);
        drop(snap);
    }

    #[test]
    fn shape_changes_block_comparison() {
        let a = digest_pair(&[(5, None)], 1);
        let b = digest_pair(&[(6, None)], 2);
        assert!(!Coalescer::comparable(&a, &b));
    }

    #[test]
    fn negative_delta_caps_the_jump() {
        let snap = digest_pair(&[(100, None), (7, None)], 0);
        let p = Coalescer::plan_periods(&snap, &[-10, 1]).expect("capped jump");
        // 100 / 10 = 10 periods, minus the reserve of 2.
        assert_eq!(p, 8);
    }

    #[test]
    fn bounded_coordinate_caps_the_jump() {
        let snap = digest_pair(&[(990, Some(1000)), (5, None)], 0);
        let p = Coalescer::plan_periods(&snap, &[3, -1]).expect("capped jump");
        // fill: (999 - 990) / 3 = 3; depletion: 5 / 1 = 5; min 3 - 2 = 1.
        assert_eq!(p, 1);
    }

    #[test]
    fn unbounded_jump_is_refused() {
        let snap = digest_pair(&[(5, None)], 0);
        assert_eq!(Coalescer::plan_periods(&snap, &[1]), None);
        assert_eq!(Coalescer::plan_periods(&snap, &[0]), None);
    }

    /// A one-event-per-period toy schedule: a counter that depletes by
    /// one per period (the jump cap), a clock, and a shape the tests
    /// perturb to play a transient.
    struct Toy {
        co: Coalescer,
        x: u64,
        t: u64,
        shape: u64,
    }

    #[derive(Debug, PartialEq)]
    enum Cut {
        Skipped,
        Digested,
        Jumped(u64),
    }

    impl Toy {
        fn new(x: u64) -> Self {
            let mut co = Coalescer::new();
            assert!(!co.note_event(1), "the first event only anchors");
            Toy {
                co,
                x,
                t: 0,
                shape: 42,
            }
        }

        /// One stable period, driven the way `run_coalesced` drives it.
        fn period(&mut self) -> Cut {
            let mut cut = Cut::Skipped;
            if self.co.note_event(1) {
                cut = Cut::Digested;
                let snap = digest_pair(&[(self.x, None), (self.t, None)], self.shape);
                if let Some(plan) = self.co.observe(snap) {
                    assert_eq!(plan.deltas, vec![-1, 50]);
                    self.x -= plan.periods;
                    self.t += 50 * plan.periods;
                    self.co.after_jump(&plan);
                    cut = Cut::Jumped(plan.periods);
                }
            }
            self.x = self.x.saturating_sub(1);
            self.t += 50;
            cut
        }

        /// `n` periods whose shape differs from cut to cut.
        fn transient(&mut self, n: u64) -> Vec<Cut> {
            (0..n)
                .map(|_| {
                    self.shape += 1;
                    self.period()
                })
                .collect()
        }

        /// A foreign event fires: one period of length 2, and the
        /// length-1 period after it is irregular too.
        fn disturbance(&mut self) {
            assert!(!self.co.note_event(9));
            assert!(!self.co.note_event(1), "irregular cuts never digest");
            assert!(!self.co.note_event(1), "irregular cuts never digest");
        }

        /// Periods until the next jump; returns how many it took.
        fn run_to_jump(&mut self) -> u64 {
            (1..10_000)
                .find(|_| matches!(self.period(), Cut::Jumped(_)))
                .expect("a periodic phase must lock")
        }
    }

    #[test]
    fn detector_confirms_then_jumps() {
        let mut toy = Toy::new(1_000_000);
        // Snapshots at four consecutive cuts give three equal deltas.
        assert_eq!(toy.period(), Cut::Skipped, "first period sets the length");
        assert_eq!(toy.period(), Cut::Digested);
        assert_eq!(toy.period(), Cut::Digested);
        assert_eq!(toy.period(), Cut::Digested);
        let Cut::Jumped(periods) = toy.period() else {
            panic!("periodic phase must lock on the fourth digest");
        };
        assert!(periods > 900_000, "jump should clear most of the phase");
        // The jump leaves only the reserve, and the reserve cuts
        // provably have no room: they are not digested.
        assert!(toy.x <= RESERVE_PERIODS + 1, "landed inside the reserve");
        for _ in 0..RESERVE_PERIODS {
            assert_eq!(toy.period(), Cut::Skipped, "reserve cut must not digest");
        }
        let stats = toy.co.stats();
        assert_eq!((stats.digests, stats.jumps), (4, 1));
        assert_eq!(stats.events_skipped, periods);
    }

    #[test]
    fn a_miss_closes_the_window_and_backs_off_at_once() {
        // An incomparable neighbouring pair...
        let mut toy = Toy::new(1_000_000);
        toy.period();
        assert_eq!(toy.period(), Cut::Digested);
        toy.shape += 1;
        assert_eq!(toy.period(), Cut::Digested);
        for _ in 0..FIRST_SKIP {
            assert_eq!(toy.period(), Cut::Skipped, "a changed shape backs off");
        }
        // ...and a changed delta both end the window on the spot, and
        // each further miss stays away four times as long.
        assert_eq!(toy.period(), Cut::Digested);
        assert_eq!(toy.period(), Cut::Digested);
        toy.t += 7;
        assert_eq!(toy.period(), Cut::Digested);
        for _ in 0..4 * FIRST_SKIP {
            assert_eq!(toy.period(), Cut::Skipped, "a changed delta backs off");
        }
        assert_eq!(toy.run_to_jump(), 4, "a fresh window locks in four digests");
    }

    #[test]
    fn a_disturbance_wakes_the_detector_after_a_jump() {
        let mut toy = Toy::new(1_000);
        toy.period();
        toy.run_to_jump();
        // The jump ran into its cap; a 60-period transient follows. The
        // detector probes it with back-off windows...
        toy.x = 1_000;
        let probes = toy.co.stats().digests;
        let cuts = toy.transient(60);
        assert_eq!(cuts[..2], [Cut::Skipped, Cut::Skipped], "the reserve");
        let probes = toy.co.stats().digests - probes;
        assert!((4..=8).contains(&probes), "{probes} digests: {cuts:?}");
        // ...and would now stay away for a long while, but the foreign
        // event that ends the transient wakes it on the spot.
        toy.disturbance();
        assert_eq!(toy.run_to_jump(), 4, "woken, the detector locks at once");

        // The next transient takes as long: the detector sleeps through
        // it without a single digest, and locks right after it again.
        toy.x = 1_000;
        let before = toy.co.stats().digests;
        assert!(toy.transient(60).iter().all(|c| *c == Cut::Skipped));
        toy.disturbance();
        assert_eq!(toy.run_to_jump(), 4);
        assert_eq!(toy.co.stats().digests - before, 4, "one window per jump");

        // A disturbance wakes once per jump: a second one in the same
        // phase does not cancel a back-off.
        toy.x = 1_000;
        toy.transient(60);
        toy.disturbance();
        toy.shape += 1;
        assert_eq!(toy.period(), Cut::Digested);
        toy.shape += 1;
        assert_eq!(toy.period(), Cut::Digested, "the woken window misses");
        toy.disturbance();
        for _ in 0..FIRST_SKIP {
            assert_eq!(toy.period(), Cut::Skipped, "no second wake-up");
        }
    }

    #[test]
    fn without_a_disturbance_the_back_off_still_retries_and_locks() {
        let mut toy = Toy::new(1_000);
        toy.period();
        toy.run_to_jump();
        // A quiet transient: shapes settle after 50 periods, and no
        // irregular period ever says so.
        toy.x = 10_000;
        let before = toy.co.stats().digests;
        toy.transient(50);
        let took = toy.run_to_jump();
        assert!(took <= 4 * 50, "back-off overshoot is bounded: {took}");
        let digests = toy.co.stats().digests - before;
        assert!(digests <= 12, "{digests} digests for a quiet transient");
    }

    #[test]
    fn a_phase_that_never_locks_is_probed_ever_more_rarely() {
        let mut toy = Toy::new(u64::MAX);
        for i in 0..1_000_000 {
            // Comparable snapshots whose deltas never repeat.
            toy.t += i;
            assert!(!matches!(toy.period(), Cut::Jumped(_)));
        }
        let digests = toy.co.stats().digests;
        assert!(digests <= 36, "{digests} digests over 1e6 barren cuts");
    }

    #[test]
    fn jumps_that_do_not_repay_their_digests_postpone_the_next_look() {
        // The cap refills every ten periods, so a jump can never skip
        // more than a handful of one-event periods: four digests to
        // find it are a loss every time.
        let mut toy = Toy::new(10);
        let mut jumps = 0;
        for _ in 0..100_000 {
            if toy.x <= RESERVE_PERIODS {
                toy.x = 10;
            }
            if let Cut::Jumped(periods) = toy.period() {
                assert!(periods < 10);
                jumps += 1;
            }
        }
        let digests = toy.co.stats().digests;
        assert!(jumps >= 2, "the phases do lock");
        assert!(digests <= 200, "{digests} digests, {jumps} jumps");
    }

    #[test]
    fn irregular_periods_do_not_digest() {
        let mut co = Coalescer::new();
        co.note_event(5); // anchor
        co.note_event(9);
        assert!(!co.note_event(5), "period length 2, previous was 0");
        assert!(!co.note_event(5), "period length 1 != 2");
        assert!(co.note_event(5), "two consecutive length-1 periods");
    }

    #[test]
    fn reanchors_when_the_anchor_disappears() {
        let mut co = Coalescer::new();
        co.note_event(1);
        for _ in 0..=REANCHOR_AFTER {
            assert!(!co.note_event(2));
        }
        // The next occurrence of key 2 is now a cut candidate.
        assert!(!co.note_event(2), "first period after re-anchor");
        assert!(co.note_event(2), "stable period after re-anchor");
    }
}
