//! The simulator: a virtual clock, an event queue and the world the
//! events mutate.
//!
//! [`TypedSimulator`] stores a caller-defined event *enum* inline in the
//! queue — no per-event box, no indirect call, branch-predictable
//! dispatch — because a model executes hundreds of millions of events.
//! Events fire in deterministic (time, insertion-order) order.
//!
//! ## Example
//!
//! ```
//! use scsq_sim::typed::{Event, TypedSimulator};
//! use scsq_sim::SimDur;
//!
//! enum Tick {
//!     Add(u64),
//! }
//!
//! impl Event<u64> for Tick {
//!     fn fire(self, world: &mut u64, sim: &mut TypedSimulator<u64, Tick>) {
//!         match self {
//!             Tick::Add(n) => {
//!                 *world += n;
//!                 if n < 3 {
//!                     sim.schedule_after(SimDur::from_nanos(1), Tick::Add(n + 1));
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = TypedSimulator::new(0u64);
//! sim.schedule_after(SimDur::from_nanos(1), Tick::Add(1));
//! sim.run_to_completion();
//! assert_eq!(*sim.world(), 6);
//! ```

use crate::coalesce::StateProbe;
use crate::queue::EventQueue;
use crate::time::{SimDur, SimTime};

/// A dispatchable event for [`TypedSimulator`].
pub trait Event<W>: Sized {
    /// Consumes the event, mutating the world and scheduling follow-ups.
    fn fire(self, world: &mut W, sim: &mut TypedSimulator<W, Self>);

    /// The [`EventQueue`] lane this event is queued in: a small dense
    /// index. Lanes never change the firing order, only what scheduling
    /// costs: an event scheduled at or after the latest one pending in
    /// its lane is an append, and a pop sifts through one head per lane
    /// rather than every pending event. So give each chain of events
    /// that is scheduled in time order (one target's repeating event,
    /// say) its own lane. The default puts every event in lane 0.
    fn lane(&self) -> u32 {
        0
    }
}

/// A discrete-event simulator whose events are a concrete type rather
/// than boxed closures: events fire in (time, insertion-order); the
/// world is moved out during dispatch (events use the `&mut W` they are
/// handed); an optional event budget stops dispatch without draining
/// the queue. Time never moves backwards: scheduling an event in the
/// past panics.
pub struct TypedSimulator<W, E> {
    now: SimTime,
    queue: EventQueue<E>,
    /// Boxed so the per-event take/put around dispatch moves one
    /// pointer, not the (potentially kilobyte-sized) world itself.
    world: Option<Box<W>>,
    executed: u64,
    limit: Option<u64>,
    limit_exceeded: bool,
    /// High-water mark of the pending-event population. A monotone max
    /// over the queue length, which the coalescing probe walks as shape
    /// (and which a period jump leaves unchanged), so this needs no
    /// probe entry of its own.
    pending_hwm: usize,
}

impl<W, E> TypedSimulator<W, E> {
    /// Creates a simulator at time zero owning `world`.
    pub fn new(world: W) -> Self {
        TypedSimulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            world: Some(Box::new(world)),
            executed: 0,
            limit: None,
            limit_exceeded: false,
            pending_hwm: 0,
        }
    }

    /// Like [`TypedSimulator::new`], pre-reserving queue capacity for
    /// `capacity` concurrently pending events.
    pub fn with_capacity(world: W, capacity: usize) -> Self {
        TypedSimulator {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(capacity),
            world: Some(Box::new(world)),
            executed: 0,
            limit: None,
            limit_exceeded: false,
            pending_hwm: 0,
        }
    }

    /// Sets a safety limit on the number of executed events; when it is
    /// reached, dispatch stops with pending events still queued and
    /// [`TypedSimulator::limit_exceeded`] reports it.
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Whether the event budget was exhausted before the queue drained.
    pub fn limit_exceeded(&self) -> bool {
        self.limit_exceeded
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world.
    ///
    /// # Panics
    ///
    /// Panics when called from inside an event (use the `&mut W`
    /// argument `fire` receives instead).
    pub fn world(&self) -> &W {
        self.world
            .as_deref()
            .expect("world is moved out during event dispatch; use fire's &mut W argument")
    }

    /// Exclusive access to the world between events.
    ///
    /// # Panics
    ///
    /// Panics when called from inside an event.
    pub fn world_mut(&mut self) -> &mut W {
        self.world
            .as_deref_mut()
            .expect("world is moved out during event dispatch; use fire's &mut W argument")
    }

    /// Consumes the simulator, returning the world.
    ///
    /// # Panics
    ///
    /// Panics when called from inside an event.
    pub fn into_world(self) -> W {
        *self
            .world
            .expect("world is moved out during event dispatch")
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// The largest pending-event population observed so far — the peak
    /// concurrent event load the queue had to absorb. Coalescing jumps
    /// do not perturb it: the queue length is probed as shape, so it is
    /// constant across a jumped period.
    pub fn events_pending_high_water(&self) -> usize {
        self.pending_hwm
    }

    /// Maps the next event to fire through `f` without removing it
    /// (e.g. to derive a coalescing cut key). `None` when the queue is
    /// empty.
    pub fn peek_key(&self, f: impl FnOnce(&E) -> u64) -> Option<u64> {
        self.queue.peek_payload().map(f)
    }

    /// Walks the simulator's entire state — clock, executed-event
    /// counter, queued events, and the world — through a coalescing
    /// [`StateProbe`]. With a digest-mode probe this is observationally
    /// a no-op that fingerprints the state; with an advance-mode probe
    /// it fast-forwards the state by whole periods.
    ///
    /// `probe_event` and `probe_world` must walk their arguments
    /// identically in both modes; the walk order defines coordinate
    /// identity. Both receive the pre-advance clock as `now`.
    ///
    /// # Panics
    ///
    /// Panics when called from inside an event.
    pub fn probe_state(
        &mut self,
        p: &mut StateProbe<'_>,
        probe_event: impl FnMut(&mut E, &mut StateProbe<'_>),
        probe_world: impl FnOnce(&mut W, &mut StateProbe<'_>, SimTime),
    ) {
        let now = self.now;
        p.time(&mut self.now);
        match self.limit {
            // Never extrapolate past the event budget: the budget
            // exhausts mid-period in real execution.
            Some(limit) => p.bounded(&mut self.executed, limit),
            None => p.num(&mut self.executed),
        }
        self.queue.probe_entries(p, now, probe_event);
        let world = self
            .world
            .as_mut()
            .expect("probe_state called during event dispatch");
        probe_world(world, p, now);
    }
}

impl<W, E: Event<W>> TypedSimulator<W, E> {
    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    //
    // Out of line on purpose, one copy per event type: the queue's push
    // is inlined here, and copied into the channel cycle's scheduling
    // it reshaped that hot function's code.
    #[inline(never)]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: now={:?} at={:?}",
            self.now,
            at
        );
        self.queue.push_in(at, event.lane(), event);
        let pending = self.queue.len();
        if pending > self.pending_hwm {
            self.pending_hwm = pending;
        }
    }

    /// Schedules `event` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDur, event: E) {
        self.schedule_at(self.now + after, event);
    }

    /// Runs a single event if one is pending. Returns `false` when the
    /// queue is empty or the event budget is exhausted.
    pub fn step(&mut self) -> bool {
        if self.limit_exceeded {
            return false;
        }
        if let Some(limit) = self.limit {
            if self.executed >= limit {
                self.limit_exceeded = true;
                return false;
            }
        }
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue returned an event in the past");
        self.now = at;
        self.executed += 1;
        let mut world = self
            .world
            .take()
            .expect("step re-entered during event dispatch");
        event.fire(&mut world, self);
        self.world = Some(world);
        true
    }

    /// Runs events until the queue is empty (or the budget is exhausted)
    /// and returns the final time.
    pub fn run_to_completion(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    enum Ev {
        Push(u32),
        Chain { left: u32 },
    }

    impl Event<Vec<u32>> for Ev {
        fn fire(self, world: &mut Vec<u32>, sim: &mut TypedSimulator<Vec<u32>, Ev>) {
            match self {
                Ev::Push(v) => world.push(v),
                Ev::Chain { left } => {
                    world.push(left);
                    if left > 0 {
                        sim.schedule_after(SimDur::from_nanos(2), Ev::Chain { left: left - 1 });
                    }
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = TypedSimulator::new(Vec::new());
        sim.schedule_at(SimTime::from_nanos(30), Ev::Push(3));
        sim.schedule_at(SimTime::from_nanos(10), Ev::Push(1));
        sim.schedule_at(SimTime::from_nanos(20), Ev::Push(2));
        sim.run_to_completion();
        assert_eq!(sim.world(), &[1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut sim = TypedSimulator::new(Vec::new());
        for i in 0..10 {
            sim.schedule_at(SimTime::from_nanos(5), Ev::Push(i));
        }
        sim.run_to_completion();
        assert_eq!(sim.world(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chained_events_advance_the_clock() {
        let mut sim = TypedSimulator::with_capacity(Vec::new(), 16);
        sim.schedule_at(SimTime::from_nanos(1), Ev::Chain { left: 4 });
        let end = sim.run_to_completion();
        assert_eq!(end, SimTime::from_nanos(9));
        assert_eq!(sim.world(), &[4, 3, 2, 1, 0]);
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn event_limit_stops_dispatch() {
        let mut sim = TypedSimulator::new(Vec::new()).with_event_limit(3);
        sim.schedule_at(SimTime::from_nanos(1), Ev::Chain { left: 10 });
        sim.run_to_completion();
        assert!(sim.limit_exceeded());
        assert_eq!(sim.events_executed(), 3);
        assert_eq!(sim.events_pending(), 1, "the chained event stays queued");
    }

    #[test]
    fn pending_high_water_tracks_the_peak_population() {
        let mut sim = TypedSimulator::new(Vec::new());
        assert_eq!(sim.events_pending_high_water(), 0);
        for i in 0..5 {
            sim.schedule_at(SimTime::from_nanos(10 + i), Ev::Push(i as u32));
        }
        assert_eq!(sim.events_pending_high_water(), 5);
        sim.run_to_completion();
        // Draining the queue never lowers the mark.
        assert_eq!(sim.events_pending(), 0);
        assert_eq!(sim.events_pending_high_water(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: TypedSimulator<Vec<u32>, Ev> = TypedSimulator::new(Vec::new());
        sim.schedule_at(SimTime::from_nanos(5), Ev::Push(0));
        sim.step();
        // now == 5; the past is off-limits.
        sim.schedule_at(SimTime::from_nanos(1), Ev::Push(1));
    }
}
