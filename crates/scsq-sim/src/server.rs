//! Queueing primitives: FIFO servers with analytic busy-time accounting.
//!
//! A [`FifoServer`] models a serially-shared resource (a network link, a
//! NIC, a communication co-processor). Instead of simulating a token per
//! byte, the server keeps a `busy_until` horizon: a job arriving at time
//! `t` with service demand `d` starts at `max(t, busy_until)` and
//! completes `d` later. Tandem chains of such servers reproduce pipeline
//! throughput (the slowest stage dominates) and sharing (interleaved flows
//! split capacity) without per-packet events.
//!
//! [`SwitchingServer`] extends the FIFO server with a per-source switch
//! penalty; it models the BlueGene communication co-processor, which the
//! paper observes pays a cost each time it alternates between receiving
//! from different source nodes (§3.1: merge needs much larger buffers than
//! point-to-point).
//!
//! A [`ServerBank`] holds one kind of server for every node, link or
//! NIC of a model and remembers which of them have ever served, so a
//! coalescing digest walks the handful a query uses, not the machine.

use crate::coalesce::StateProbe;
use crate::time::{SimDur, SimTime};
use std::ops::Index;

/// A work-conserving FIFO resource.
///
/// ```
/// use scsq_sim::{FifoServer, SimDur, SimTime};
/// let mut link = FifoServer::new();
/// // Two jobs arrive back-to-back at t=0; the second queues.
/// let first = link.serve(SimTime::ZERO, SimDur::from_micros(10));
/// let second = link.serve(SimTime::ZERO, SimDur::from_micros(10));
/// assert_eq!(first.finish, SimTime::from_micros(10));
/// assert_eq!(second.start, SimTime::from_micros(10));
/// assert_eq!(second.finish, SimTime::from_micros(20));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FifoServer {
    busy_until: SimTime,
    busy_total: SimDur,
    jobs: u64,
}

/// When a job held a server: `start..finish`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (arrival or later if the server was busy).
    pub start: SimTime,
    /// When service completed.
    pub finish: SimTime,
}

impl FifoServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        FifoServer::default()
    }

    /// Admits a job arriving at `arrival` needing `service` time.
    /// Returns when the job started and finished.
    #[inline]
    pub fn serve(&mut self, arrival: SimTime, service: SimDur) -> Grant {
        let start = arrival.max(self.busy_until);
        let finish = start + service;
        self.busy_until = finish;
        self.busy_total += service;
        self.jobs += 1;
        Grant { start, finish }
    }

    /// The earliest instant a new arrival could begin service.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time accumulated (for utilization reporting).
    pub fn busy_total(&self) -> SimDur {
        self.busy_total
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Resets the server to idle, clearing statistics.
    pub fn reset(&mut self) {
        *self = FifoServer::default();
    }

    /// Walks the server's state through a coalescing probe: the busy
    /// horizon and all counters advance affinely during steady trains.
    /// Only a [`ServerBank`]'s served servers are walked.
    pub fn probe(&mut self, p: &mut StateProbe<'_>) {
        p.time(&mut self.busy_until);
        p.dur(&mut self.busy_total);
        p.num(&mut self.jobs);
    }
}

/// A FIFO server that charges a retargeting penalty proportional to how
/// many distinct sources are concurrently streaming through it.
///
/// This models the single-threaded BlueGene communication co-processor:
/// the paper explains the poor small-buffer merge bandwidth by the
/// co-processor "switching between receiving messages from a and b",
/// where "less frequent switching improves communication" (§3.1). With
/// `k` sources active, consecutive messages in arrival order alternate
/// with probability `(k-1)/k`, so each job is charged that expected
/// fraction of the switch cost. The charge is *order-independent*: it
/// depends on which flows are concurrently active (seen within
/// [`SwitchingServer::ACTIVITY_WINDOW`]), not on the incidental
/// interleaving of bookkeeping calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwitchingServer {
    inner: FifoServer,
    switch_cost: SimDur,
    /// Last time each source was seen, sorted by source id. A server
    /// only ever sees the handful of flows that a query routes through
    /// it, so a sorted vec beats a hash map on every per-event call (no
    /// hashing, no bucket scan on expiry) and hands the probe its
    /// deterministic visit order for free.
    activity: Vec<(u64, SimTime)>,
    penalty_total: SimDur,
}

impl SwitchingServer {
    /// How long a source counts as "concurrently active" after its last
    /// job. Long enough to span the inter-arrival gap of even 1 MB
    /// stream buffers.
    pub const ACTIVITY_WINDOW: SimDur = SimDur::from_millis(50);

    /// Creates an idle server with the given per-switch penalty.
    pub fn new(switch_cost: SimDur) -> Self {
        SwitchingServer {
            inner: FifoServer::new(),
            switch_cost,
            activity: Vec::new(),
            penalty_total: SimDur::ZERO,
        }
    }

    /// Admits a job from `source`, charging the expected switch penalty
    /// for the current number of concurrently active sources.
    pub fn serve_from(&mut self, source: u64, arrival: SimTime, service: SimDur) -> Grant {
        let cost = self.switch_cost;
        self.serve_from_with_cost(source, arrival, service, cost)
    }

    /// Like [`SwitchingServer::serve_from`], but with a per-job switch
    /// cost (used when jobs of different kinds share one server and pay
    /// different retargeting penalties, e.g. TCP socket switches vs MPI
    /// flow switches on a compute node's CPU).
    pub fn serve_from_with_cost(
        &mut self,
        source: u64,
        arrival: SimTime,
        service: SimDur,
        switch_cost: SimDur,
    ) -> Grant {
        // Fast path: a steady single-source stream — the overwhelmingly
        // common case (every buffer period of a point-to-point transfer
        // lands here). One active source means a zero penalty term, and
        // expiry plus the out-of-order rule reduce to keeping the newer
        // timestamp, so the bookkeeping is a compare and a store.
        if let [(s, last)] = self.activity.as_mut_slice() {
            if *s == source {
                if arrival > *last {
                    *last = arrival;
                }
                return self.inner.serve(arrival, service);
            }
        }
        // Expire sources not seen within the window.
        self.activity
            .retain(|&(_, last)| last + Self::ACTIVITY_WINDOW >= arrival);
        match self.activity.binary_search_by_key(&source, |&(s, _)| s) {
            // Keep the latest timestamp (out-of-order bookkeeping calls).
            Ok(i) => {
                if arrival > self.activity[i].1 {
                    self.activity[i].1 = arrival;
                }
            }
            Err(i) => self.activity.insert(i, (source, arrival)),
        }
        let active = self.activity.len().max(1);
        let penalty = switch_cost * ((active - 1) as f64 / active as f64);
        self.penalty_total += penalty;
        self.inner.serve(arrival, service + penalty)
    }

    /// Total switching penalty charged so far.
    pub fn penalty_total(&self) -> SimDur {
        self.penalty_total
    }

    /// Number of sources currently counted as active.
    pub fn active_sources(&self) -> usize {
        self.activity.len()
    }

    /// The earliest instant a new arrival could begin service.
    pub fn busy_until(&self) -> SimTime {
        self.inner.busy_until()
    }

    /// Total busy time accumulated.
    pub fn busy_total(&self) -> SimDur {
        self.inner.busy_total()
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.inner.jobs()
    }

    /// Resets the server to idle, clearing statistics and source memory.
    pub fn reset(&mut self) {
        let cost = self.switch_cost;
        *self = SwitchingServer::new(cost);
    }

    /// Walks the server's state through a coalescing probe. Only a
    /// [`ServerBank`]'s served servers are walked, and a served one has
    /// at least one source in its activity list.
    ///
    /// The activity list is visited in sorted key order (its storage
    /// order). Each entry's age is guarded: an idle source expiring out
    /// of the window changes the switch penalty, so no jump may cross
    /// that expiry. Expiry is decided against the next job's arrival,
    /// which runs ahead of `now` by the path latency, so age is taken
    /// from the later of `now` and the newest arrival seen. Entries
    /// already past the window can only be retained out (age never
    /// shrinks while a source is idle), so they carry no upper bound.
    pub fn probe(&mut self, p: &mut StateProbe<'_>, now: SimTime) {
        self.inner.probe(p);
        p.dur(&mut self.penalty_total);
        p.shape(self.activity.len() as u64);
        let window = Self::ACTIVITY_WINDOW.as_nanos();
        let anchor = self.activity.iter().fold(now, |t, &(_, last)| t.max(last));
        let anchor = anchor.as_nanos();
        for (k, last) in &mut self.activity {
            p.shape(*k);
            let age = anchor.saturating_sub(last.as_nanos());
            p.guard(age, if age < window { window } else { u64::MAX });
            p.time(last);
        }
    }
}

/// A server a [`ServerBank`] can hold: one that counts the jobs it
/// served, which is how the bank tells a first serve.
pub trait Server {
    /// Number of jobs served.
    fn jobs(&self) -> u64;
}

impl Server for FifoServer {
    #[inline(always)]
    fn jobs(&self) -> u64 {
        self.jobs
    }
}

impl Server for SwitchingServer {
    #[inline(always)]
    fn jobs(&self) -> u64 {
        self.inner.jobs
    }
}

/// A dense array of servers (one per node, link or NIC) that records
/// the index of each one the first time it serves.
///
/// A query uses a few dozen of the hundreds of servers a partition
/// has, and a coalescing digest only needs to walk those:
/// [`ServerBank::probe_each`] visits the served ones and nothing else.
/// The served list only grows within a run, by appending, so its
/// length alone tells two digests of one run whether it changed, and
/// equal lengths walk the servers in the same order.
///
/// Reads go through [`Index`]; a serve goes through
/// [`ServerBank::serving`], which must be followed by a serve.
#[derive(Debug, Clone)]
pub struct ServerBank<S> {
    servers: Vec<S>,
    /// Indices of the servers that have served, in first-serve order,
    /// in the first `served` slots: one slot per server, so recording
    /// one never allocates.
    order: Box<[u32]>,
    served: usize,
}

impl<S: Server> ServerBank<S> {
    /// A bank of `len` servers built by `make`, none served yet.
    pub fn new(len: usize, make: impl FnMut() -> S) -> Self {
        assert!(u32::try_from(len).is_ok(), "{len} servers in one bank");
        ServerBank {
            servers: std::iter::repeat_with(make).take(len).collect(),
            order: vec![0; len].into_boxed_slice(),
            served: 0,
        }
    }

    /// Number of servers in the bank.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the bank holds no server.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Server `i`, about to serve a job: the caller must serve on it.
    /// Its first serve records `i` among the served.
    #[inline(always)]
    pub fn serving(&mut self, i: usize) -> &mut S {
        if self.servers[i].jobs() == 0 {
            return self.record(i);
        }
        &mut self.servers[i]
    }

    /// Records server `i`'s first serve and returns it. Out of line and
    /// cold, so the serve path is a compare and a not-taken branch.
    #[cold]
    #[inline(never)]
    fn record(&mut self, i: usize) -> &mut S {
        debug_assert!(
            !self.order[..self.served].contains(&(i as u32)),
            "server {i} recorded twice: a serving() call without a serve"
        );
        self.order[self.served] = i as u32;
        self.served += 1;
        &mut self.servers[i]
    }

    /// Walks the served servers through a coalescing probe, in
    /// first-serve order, with `probe` for each. The number of served
    /// servers is shape: the list only grows, so an equal count is an
    /// equal list.
    pub fn probe_each(
        &mut self,
        p: &mut StateProbe<'_>,
        mut probe: impl FnMut(&mut S, &mut StateProbe<'_>),
    ) {
        p.shape(self.served as u64);
        for &i in &self.order[..self.served] {
            let server = &mut self.servers[i as usize];
            debug_assert!(server.jobs() > 0, "server {i} recorded but never served");
            probe(server, p);
        }
    }
}

impl<S> Index<usize> for ServerBank<S> {
    type Output = S;

    #[inline]
    fn index(&self, i: usize) -> &S {
        &self.servers[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FifoServer::new();
        let g = s.serve(SimTime::from_micros(5), SimDur::from_micros(3));
        assert_eq!(g.start, SimTime::from_micros(5));
        assert_eq!(g.finish, SimTime::from_micros(8));
    }

    #[test]
    fn busy_server_queues_jobs() {
        let mut s = FifoServer::new();
        s.serve(SimTime::ZERO, SimDur::from_micros(10));
        let g = s.serve(SimTime::from_micros(2), SimDur::from_micros(1));
        assert_eq!(g.start, SimTime::from_micros(10));
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut s = FifoServer::new();
        s.serve(SimTime::ZERO, SimDur::from_micros(1));
        let g = s.serve(SimTime::from_micros(100), SimDur::from_micros(1));
        assert_eq!(g.start, SimTime::from_micros(100));
        assert_eq!(s.busy_total(), SimDur::from_micros(2));
        assert_eq!(s.jobs(), 2);
    }

    #[test]
    fn interleaved_flows_share_capacity() {
        // Two flows pushing alternate jobs through one server each get
        // half the throughput.
        let mut s = FifoServer::new();
        let mut finishes = Vec::new();
        for i in 0..10 {
            let arrival = SimTime::ZERO;
            let g = s.serve(arrival, SimDur::from_micros(10));
            finishes.push((i % 2, g.finish));
        }
        // Flow 0's last job completes at 90us, flow 1's at 100us: each
        // flow got 5 jobs through in ~100us instead of 50us.
        assert_eq!(finishes[8].1, SimTime::from_micros(90));
        assert_eq!(finishes[9].1, SimTime::from_micros(100));
    }

    #[test]
    fn switching_server_penalizes_concurrent_sources() {
        let mut s = SwitchingServer::new(SimDur::from_micros(20));
        // Two concurrent sources: each job (after the first) pays the
        // expected alternation fraction (k-1)/k = 1/2.
        for i in 0..4u64 {
            s.serve_from(i % 2, SimTime::ZERO, SimDur::from_micros(1));
        }
        assert_eq!(s.active_sources(), 2);
        // Job 1: 1 active source, no penalty. Jobs 2-4: 2 active, 10us
        // each. Total busy = 4us service + 30us penalty.
        assert_eq!(s.busy_until(), SimTime::from_micros(34));
        assert_eq!(s.penalty_total(), SimDur::from_micros(30));

        // A single source never pays, regardless of job count.
        let mut s2 = SwitchingServer::new(SimDur::from_micros(20));
        for _ in 0..4u64 {
            s2.serve_from(7, SimTime::ZERO, SimDur::from_micros(1));
        }
        assert_eq!(s2.penalty_total(), SimDur::ZERO);
        assert_eq!(s2.busy_until(), SimTime::from_micros(4));
    }

    #[test]
    fn switching_penalty_is_call_order_independent() {
        // Batched call order charges the same total penalty as strict
        // alternation — the penalty depends on concurrency, not on the
        // incidental interleaving of bookkeeping calls.
        let mut alternating = SwitchingServer::new(SimDur::from_micros(20));
        for i in 0..8u64 {
            alternating.serve_from(i % 2, SimTime::ZERO, SimDur::from_micros(1));
        }
        let mut batched = SwitchingServer::new(SimDur::from_micros(20));
        // Source 0 appears once, then source 1 floods, then 0 again.
        let order = [0u64, 1, 1, 1, 0, 0, 0, 1];
        for &src in &order {
            batched.serve_from(src, SimTime::ZERO, SimDur::from_micros(1));
        }
        assert_eq!(alternating.penalty_total(), batched.penalty_total());
    }

    #[test]
    fn idle_sources_expire_from_the_activity_window() {
        let mut s = SwitchingServer::new(SimDur::from_micros(20));
        s.serve_from(1, SimTime::ZERO, SimDur::from_micros(1));
        s.serve_from(2, SimTime::ZERO, SimDur::from_micros(1));
        assert_eq!(s.active_sources(), 2);
        // Much later, only the new arrival is active: no penalty.
        let later = SimTime::ZERO + SwitchingServer::ACTIVITY_WINDOW * 3;
        let before = s.penalty_total();
        s.serve_from(3, later, SimDur::from_micros(1));
        assert_eq!(s.active_sources(), 1);
        assert_eq!(s.penalty_total(), before);
    }

    #[test]
    fn a_bank_walks_only_its_served_servers_in_first_serve_order() {
        let mut bank = ServerBank::new(8, FifoServer::new);
        for i in [5, 2, 5, 7, 2] {
            bank.serving(i)
                .serve(SimTime::ZERO, SimDur::from_micros(i as u64));
        }
        assert_eq!(bank.order[..bank.served], [5, 2, 7]);
        assert_eq!(bank[5].jobs(), 2);
        assert_eq!(bank[0].jobs(), 0);
        let mut walked = Vec::new();
        let mut p = StateProbe::digest();
        bank.probe_each(&mut p, |s, p| {
            walked.push(s.busy_total());
            s.probe(p);
        });
        let micros = |us| SimDur::from_micros(us);
        assert_eq!(walked, [micros(10), micros(4), micros(7)]);
        assert_eq!(
            p.finish().nums().len(),
            9,
            "three coordinates per served server"
        );
    }

    #[test]
    fn reset_returns_to_idle() {
        let mut s = FifoServer::new();
        s.serve(SimTime::ZERO, SimDur::from_secs(1));
        s.reset();
        assert_eq!(s.busy_until(), SimTime::ZERO);
        assert_eq!(s.jobs(), 0);
    }
}
