//! The discrete-event simulation driver.
//!
//! Events (message deliveries and deadline wakes) are processed in
//! `(virtual time, sequence)` order from a binary heap, so runs are
//! fully deterministic given the seed. Node CPU is modeled: an actor
//! whose handler consumed CPU is busy until `cpu_free`, and deliveries
//! that arrive earlier are deferred — this is what lets the harness
//! observe throughput collapse when a node (e.g. the cloud performing
//! synchronous certification for Edge-baseline) becomes the bottleneck.

use crate::actor::{Actor, ActorId, ActorMeta, BgOp, Context};
use crate::net::{NetworkModel, Region};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

enum EventKind<M> {
    Deliver {
        from: ActorId,
        to: ActorId,
        msg: M,
    },
    /// A send leaving its node at this instant: the network link is
    /// reserved *now* (event time), so reservations always happen in
    /// nondecreasing time order and a future background transfer can
    /// never block an earlier foreground one.
    Dispatch {
        from: ActorId,
        to: ActorId,
        msg: M,
        bytes: u64,
    },
    /// Wakes `actor` for its deadline, unless a later arming made
    /// this wake stale (see [`ActorMeta`]'s `armed`).
    Wake {
        actor: ActorId,
    },
}

struct QueuedEvent<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic discrete-event simulation over message type `M`.
pub struct Simulation<M> {
    now: SimTime,
    queue: BinaryHeap<Reverse<QueuedEvent<M>>>,
    seq: u64,
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    meta: Vec<ActorMeta>,
    net: NetworkModel,
    rng: SimRng,
    started: bool,
}

impl<M: 'static> Simulation<M> {
    /// Creates a simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        // The actors' stream starts one draw in: every committed figure
        // was generated at that position (`actor_rng_stream_is_pinned`).
        rng.next_u64();
        Simulation {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            actors: Vec::new(),
            meta: Vec::new(),
            net: NetworkModel::new(),
            rng,
            started: false,
        }
    }

    /// Registers an actor placed in `region`. Returns its id.
    pub fn add_actor(&mut self, region: Region, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(Some(actor));
        self.meta.push(ActorMeta {
            region,
            cpu_free: SimTime::ZERO,
            bg_free: SimTime::ZERO,
            armed: None,
        });
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to an actor's concrete state.
    ///
    /// # Panics
    /// Panics if the id is invalid or the type does not match.
    pub fn actor<T: 'static>(&self, id: ActorId) -> &T {
        let actor: &dyn Any = self.actors[id.0].as_deref().expect("actor is currently executing");
        actor.downcast_ref::<T>().expect("actor type mismatch")
    }

    /// Mutable access to an actor's concrete state (for test setup).
    pub fn actor_mut<T: 'static>(&mut self, id: ActorId) -> &mut T {
        downcast_mut(&mut self.actors[id.0])
    }

    /// Mutable access to two distinct actors at once (setup that moves
    /// state between them, such as an in-process preload).
    ///
    /// # Panics
    /// Panics if the ids are equal or invalid, or a type does not match.
    pub fn actor_pair_mut<A: 'static, B: 'static>(
        &mut self,
        a: ActorId,
        b: ActorId,
    ) -> (&mut A, &mut B) {
        let [x, y] = self.actors.get_disjoint_mut([a.0, b.0]).expect("two distinct actors");
        (downcast_mut(x), downcast_mut(y))
    }

    /// Injects a message from "outside" the simulation (e.g. the
    /// harness acting as an upstream source), delivered at `at`.
    fn inject_at(&mut self, at: SimTime, from: ActorId, to: ActorId, msg: M) {
        assert!(at >= self.now, "cannot inject into the past");
        self.schedule(at, EventKind::Deliver { from, to, msg });
    }

    /// Injects a message for immediate delivery at the current time.
    pub fn inject(&mut self, from: ActorId, to: ActorId, msg: M) {
        self.inject_at(self.now, from, to, msg);
    }

    /// Queues `kind` at `at` under the next sequence number, which it
    /// returns.
    fn schedule(&mut self, at: SimTime, kind: EventKind<M>) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent { at, seq, kind }));
        seq
    }

    /// Arms every actor's deadline, in index order (idempotent; called
    /// automatically by the run methods).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            self.rearm(ActorId(i), self.now, SimDuration::ZERO);
        }
    }

    /// Processes events until the queue is empty or `max_events` is hit.
    /// Returns the number of events processed in this call.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        self.start();
        let mut n = 0;
        while n < max_events {
            if !self.step() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Processes events with `at <= deadline`. Advances `now` to
    /// `deadline` if the queue drains first.
    pub fn run_until(&mut self, deadline: SimTime, max_events: u64) -> u64 {
        self.start();
        let mut n = 0;
        while n < max_events {
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.at <= deadline => {
                    self.step();
                    n += 1;
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }

    /// Processes a single event. Returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start();
        loop {
            let Some(Reverse(ev)) = self.queue.pop() else {
                return false;
            };
            debug_assert!(ev.at >= self.now, "time went backwards");
            match ev.kind {
                EventKind::Wake { actor } => {
                    let meta = &mut self.meta[actor.0];
                    if meta.armed.map(|(_, seq)| seq) != Some(ev.seq) {
                        // Stale: consumed an event (no handler ran);
                        // return so deadline-bounded loops re-check.
                        return true;
                    }
                    meta.armed = None;
                    self.now = ev.at;
                    let now_ns = ev.at.as_nanos();
                    self.run_handler(actor, ev.at, |a, ctx| {
                        // A deadline moved outside any handler may not
                        // be due yet; the handler's end re-arms it.
                        if a.next_deadline_ns().is_some_and(|d| d <= now_ns) {
                            a.on_deadline(ctx);
                        }
                    });
                    return true;
                }
                EventKind::Dispatch { from, to, msg, bytes } => {
                    self.now = ev.at;
                    let from_region = self.meta[from.0].region;
                    let to_region = self.meta[to.0].region;
                    let arrive = self.net.delivery_at(ev.at, from_region, to_region, bytes);
                    self.schedule(arrive, EventKind::Deliver { from, to, msg });
                    return true; // internal bookkeeping; no handler ran
                }
                EventKind::Deliver { from, to, msg } => {
                    // Defer if the destination CPU is busy.
                    let cpu_free = self.meta[to.0].cpu_free;
                    if cpu_free > ev.at {
                        self.schedule(cpu_free, EventKind::Deliver { from, to, msg });
                        continue;
                    }
                    self.now = ev.at;
                    self.run_handler(to, ev.at, |a, ctx| a.on_message(ctx, from, msg));
                    return true;
                }
            }
        }
    }

    fn run_handler<F>(&mut self, id: ActorId, at: SimTime, f: F)
    where
        F: FnOnce(&mut dyn Actor<M>, &mut Context<'_, M>),
    {
        let mut actor = self.actors[id.0].take().expect("reentrant actor execution");
        let mut ctx = Context {
            now: at,
            self_id: id,
            elapsed: SimDuration::ZERO,
            outbox: Vec::new(),
            bg_ops: Vec::new(),
            rng: &mut self.rng,
        };
        f(actor.as_mut(), &mut ctx);
        let Context { elapsed, outbox, bg_ops, .. } = ctx;
        self.actors[id.0] = Some(actor);

        // The node was busy for `elapsed` of CPU.
        if elapsed > SimDuration::ZERO {
            self.meta[id.0].cpu_free = at + elapsed;
        }
        self.rearm(id, at, elapsed);
        for out in outbox {
            let kind = EventKind::Dispatch { from: id, to: out.to, msg: out.msg, bytes: out.bytes };
            self.schedule(at + out.at_offset, kind);
        }
        // Background lane: serial FIFO, starts no earlier than when the
        // handler observed its work (end of foreground processing).
        if !bg_ops.is_empty() {
            let mut cursor = self.meta[id.0].bg_free.max(at + elapsed);
            for op in bg_ops {
                match op {
                    BgOp::Work(d) => cursor += d,
                    BgOp::Send { to, msg, bytes, cost } => {
                        cursor += cost;
                        self.schedule(cursor, EventKind::Dispatch { from: id, to, msg, bytes });
                    }
                }
            }
            self.meta[id.0].bg_free = cursor;
        }
    }

    /// Re-reads `id`'s deadline after a handler that started at `at`
    /// and used `elapsed` of CPU. Only a changed deadline queues a
    /// wake, at `max(deadline, at) + elapsed`; the wake it replaces
    /// goes stale.
    fn rearm(&mut self, id: ActorId, at: SimTime, elapsed: SimDuration) {
        let actor = self.actors[id.0].as_deref().expect("actor is not executing");
        let deadline = actor.next_deadline_ns();
        if self.meta[id.0].armed.map(|(d, _)| d) == deadline {
            return;
        }
        self.meta[id.0].armed = deadline.map(|d| {
            let wake_at = SimTime::from_nanos(d).max(at) + elapsed;
            (d, self.schedule(wake_at, EventKind::Wake { actor: id }))
        });
    }
}

/// An actor slot's concrete state.
fn downcast_mut<M: 'static, T: 'static>(slot: &mut Option<Box<dyn Actor<M>>>) -> &mut T {
    let actor: &mut dyn Any = slot.as_deref_mut().expect("actor is currently executing");
    actor.downcast_mut::<T>().expect("actor type mismatch")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Go,
        Ping(u32),
        Pong(u32),
    }

    /// Replies Pong(n+1) to Ping(n), consuming 1 ms CPU per message.
    struct Ponger {
        received: Vec<u32>,
        cpu_ms: u64,
    }

    impl Actor<Msg> for Ponger {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ActorId, msg: Msg) {
            if let Msg::Ping(n) = msg {
                self.received.push(n);
                ctx.use_cpu(SimDuration::from_millis(self.cpu_ms));
                ctx.send(from, Msg::Pong(n + 1), 64);
            }
        }
    }

    /// Sends `count` pings on `Go` and records pong arrival times.
    struct Pinger {
        target: Option<ActorId>,
        count: u32,
        pongs: Vec<(u32, SimTime)>,
    }

    impl Actor<Msg> for Pinger {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: ActorId, msg: Msg) {
            match (msg, self.target) {
                (Msg::Go, Some(t)) => {
                    for i in 0..self.count {
                        ctx.send(t, Msg::Ping(i), 64);
                    }
                }
                (Msg::Pong(n), _) => self.pongs.push((n, ctx.now())),
                _ => {}
            }
        }
    }

    /// A pinger told to start at time zero.
    fn two_node_sim(cpu_ms: u64, pings: u32) -> (Simulation<Msg>, ActorId, ActorId) {
        let mut sim = Simulation::new(7);
        let ponger = sim.add_actor(Region::Virginia, Box::new(Ponger { received: vec![], cpu_ms }));
        let pinger = sim.add_actor(
            Region::California,
            Box::new(Pinger { target: Some(ponger), count: pings, pongs: vec![] }),
        );
        sim.inject(pinger, pinger, Msg::Go);
        (sim, pinger, ponger)
    }

    #[test]
    fn actor_pair_mut_borrows_two_actors_in_either_order() {
        let (mut sim, pinger, ponger) = two_node_sim(3, 1);
        let (p, q) = sim.actor_pair_mut::<Ponger, Pinger>(ponger, pinger);
        p.received.push(9);
        q.count = 5;
        let (q, p) = sim.actor_pair_mut::<Pinger, Ponger>(pinger, ponger);
        assert_eq!((q.count, p.received.as_slice(), p.cpu_ms), (5, [9].as_slice(), 3));
    }

    #[test]
    #[should_panic(expected = "two distinct actors")]
    fn actor_pair_mut_refuses_one_actor_twice() {
        let (mut sim, pinger, _) = two_node_sim(0, 1);
        sim.actor_pair_mut::<Pinger, Pinger>(pinger, pinger);
    }

    #[test]
    fn ping_pong_latency_matches_rtt() {
        let (mut sim, pinger, _) = two_node_sim(0, 1);
        sim.run_until_idle(1000);
        let p = sim.actor::<Pinger>(pinger);
        assert_eq!(p.pongs.len(), 1);
        // One-way C→V = 30.5 ms, round trip = 61 ms (+ negligible tx).
        let t = p.pongs[0].1.as_millis_f64();
        assert!((61.0..62.0).contains(&t), "round trip took {t} ms");
    }

    #[test]
    fn cpu_busy_serializes_handling() {
        // 5 pings, 10 ms CPU each: the ponger serializes them, so the
        // last pong returns ~40 ms after the first.
        let (mut sim, pinger, ponger) = two_node_sim(10, 5);
        sim.run_until_idle(1000);
        let p = sim.actor::<Pinger>(pinger);
        assert_eq!(p.pongs.len(), 5);
        let first = p.pongs.iter().map(|(_, t)| *t).min().unwrap();
        let last = p.pongs.iter().map(|(_, t)| *t).max().unwrap();
        let spread = last.since(first).as_millis_f64();
        assert!((39.0..43.0).contains(&spread), "spread was {spread} ms");
        assert_eq!(sim.actor::<Ponger>(ponger).received.len(), 5);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut sim, pinger, _) = two_node_sim(3, 10);
            sim.run_until_idle(10_000);
            sim.actor::<Pinger>(pinger).pongs.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, pinger, _) = two_node_sim(0, 1);
        // Deadline before the pong arrives: no pongs yet.
        sim.run_until(SimTime::from_nanos(40_000_000), 1000);
        assert!(sim.actor::<Pinger>(pinger).pongs.is_empty());
        assert_eq!(sim.now(), SimTime::from_nanos(40_000_000));
        sim.run_until_idle(1000);
        assert_eq!(sim.actor::<Pinger>(pinger).pongs.len(), 1);
    }

    const MS: u64 = 1_000_000;

    /// Wakes at each of `deadlines_ms` in turn, using `cpu_ms` of CPU
    /// per wake; `Ping(ms)` replaces the pending deadlines with `ms`.
    struct Sleeper {
        deadlines_ms: Vec<u64>,
        cpu_ms: u64,
        woke_ms: Vec<f64>,
    }

    impl Actor<Msg> for Sleeper {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ActorId, msg: Msg) {
            if let Msg::Ping(ms) = msg {
                self.deadlines_ms = vec![ms.into()];
            }
        }
        fn next_deadline_ns(&self) -> Option<u64> {
            self.deadlines_ms.first().map(|ms| ms * MS)
        }
        fn on_deadline(&mut self, ctx: &mut Context<'_, Msg>) {
            self.deadlines_ms.remove(0);
            self.woke_ms.push(ctx.now().as_millis_f64());
            ctx.use_cpu(SimDuration::from_millis(self.cpu_ms));
        }
    }

    fn sleeper_sim(deadlines_ms: &[u64], cpu_ms: u64) -> (Simulation<Msg>, ActorId) {
        let mut sim = Simulation::new(1);
        let sleeper = Sleeper { deadlines_ms: deadlines_ms.to_vec(), cpu_ms, woke_ms: vec![] };
        let id = sim.add_actor(Region::California, Box::new(sleeper));
        (sim, id)
    }

    #[test]
    fn deadlines_fire_in_order_once_each() {
        let (mut sim, a) = sleeper_sim(&[5, 10, 15], 0);
        // One event per deadline: each wake re-arms the next.
        assert_eq!(sim.run_until_idle(100), 3);
        assert_eq!(sim.actor::<Sleeper>(a).woke_ms, [5.0, 10.0, 15.0]);
    }

    #[test]
    fn handler_cpu_delays_the_next_wake() {
        // The 5 ms wake uses 2 ms of CPU, and the deadline read after
        // it wakes the actor that late: at 12 ms, not 10.
        let (mut sim, a) = sleeper_sim(&[5, 10], 2);
        sim.run_until_idle(100);
        assert_eq!(sim.actor::<Sleeper>(a).woke_ms, [5.0, 12.0]);
    }

    #[test]
    fn moved_deadline_supersedes_the_queued_wake() {
        let (mut sim, a) = sleeper_sim(&[10], 0);
        sim.run_until(SimTime::from_nanos(MS), 100);
        sim.inject(a, a, Msg::Ping(3));
        // The delivery, the wake at 3 ms and the stale 10 ms wake, which
        // runs nothing and leaves the clock where it was.
        assert_eq!(sim.run_until_idle(100), 3);
        assert_eq!(sim.actor::<Sleeper>(a).woke_ms, [3.0]);
        assert_eq!(sim.now(), SimTime::from_nanos(3 * MS));
    }

    /// Records the first draws of the simulation's RNG.
    struct RngProbe(Vec<u64>);

    impl Actor<Msg> for RngProbe {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ActorId, _: Msg) {
            self.0 = (0..4).map(|_| ctx.rng().next_u64()).collect();
        }
    }

    #[test]
    fn actor_rng_stream_is_pinned() {
        // Every figure was generated at this stream position: a dropped
        // or extra draw in `Simulation::new` moves them all.
        let mut sim: Simulation<Msg> = Simulation::new(42);
        let a = sim.add_actor(Region::California, Box::new(RngProbe(Vec::new())));
        sim.inject(a, a, Msg::Go);
        sim.run_until_idle(10);
        let first = [
            2_949_826_092_126_892_291,
            5_139_283_748_462_763_858,
            6_349_198_060_258_255_764,
            701_532_786_141_963_250,
        ];
        assert_eq!(sim.actor::<RngProbe>(a).0, first);
    }

    #[test]
    fn injection_delivers() {
        let mut sim = Simulation::new(1);
        let ponger =
            sim.add_actor(Region::Virginia, Box::new(Ponger { received: vec![], cpu_ms: 0 }));
        let pinger = sim.add_actor(
            Region::California,
            Box::new(Pinger { target: None, count: 0, pongs: vec![] }),
        );
        sim.start();
        sim.inject(pinger, ponger, Msg::Ping(99));
        sim.run_until_idle(100);
        assert_eq!(sim.actor::<Ponger>(ponger).received, vec![99]);
        assert_eq!(sim.actor::<Pinger>(pinger).pongs.len(), 1);
    }
}

#[cfg(test)]
mod bg_lane_tests {
    use super::*;
    use crate::actor::{Actor, ActorId, Context};

    #[derive(Debug, Clone, PartialEq)]
    enum M {
        Go(u32),
        Done(u32),
    }

    /// Replies on the foreground immediately and echoes on the
    /// background lane after 10 ms of background work per message.
    struct BgWorker;

    impl Actor<M> for BgWorker {
        fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ActorId, msg: M) {
            if let M::Go(n) = msg {
                ctx.send(from, M::Done(n), 16); // foreground: instant
                ctx.send_background(from, M::Done(n + 100), 16, SimDuration::from_millis(10));
            }
        }
    }

    struct Collector {
        events: Vec<(u32, SimTime)>,
    }

    impl Actor<M> for Collector {
        fn on_message(&mut self, ctx: &mut Context<'_, M>, _from: ActorId, msg: M) {
            if let M::Done(n) = msg {
                self.events.push((n, ctx.now()));
            }
        }
    }

    #[test]
    fn background_work_never_delays_foreground() {
        let mut sim: Simulation<M> = Simulation::new(1);
        let worker = sim.add_actor(Region::California, Box::new(BgWorker));
        let coll = sim.add_actor(Region::California, Box::new(Collector { events: vec![] }));
        sim.start();
        // Three back-to-back requests.
        for n in 0..3 {
            sim.inject(coll, worker, M::Go(n));
        }
        sim.run_until_idle(1000);
        let ev = &sim.actor::<Collector>(coll).events;
        // Foreground replies (n < 100) all arrive within one local hop,
        // unaffected by the 30 ms of queued background work.
        let fg: Vec<_> = ev.iter().filter(|(n, _)| *n < 100).collect();
        assert_eq!(fg.len(), 3);
        for (_, t) in &fg {
            assert!(t.as_millis_f64() < 6.0, "foreground delayed to {t}");
        }
        // Background replies drain serially: ~10/20/30 ms + hop.
        let bg: Vec<_> = ev.iter().filter(|(n, _)| *n >= 100).collect();
        assert_eq!(bg.len(), 3);
        let times: Vec<f64> = bg.iter().map(|(_, t)| t.as_millis_f64()).collect();
        assert!((14.0..17.0).contains(&times[0]), "first bg at {}", times[0]);
        assert!((24.0..27.0).contains(&times[1]), "second bg at {}", times[1]);
        assert!((34.0..37.0).contains(&times[2]), "third bg at {}", times[2]);
    }

    #[test]
    fn use_cpu_background_accumulates_into_lane() {
        struct Burner;
        impl Actor<M> for Burner {
            fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ActorId, msg: M) {
                if let M::Go(n) = msg {
                    ctx.use_cpu_background(SimDuration::from_millis(20));
                    ctx.send_background(from, M::Done(n), 16, SimDuration::ZERO);
                }
            }
        }
        let mut sim: Simulation<M> = Simulation::new(1);
        let burner = sim.add_actor(Region::California, Box::new(Burner));
        let coll = sim.add_actor(Region::California, Box::new(Collector { events: vec![] }));
        sim.start();
        sim.inject(coll, burner, M::Go(0));
        sim.inject(coll, burner, M::Go(1));
        sim.run_until_idle(1000);
        let ev = &sim.actor::<Collector>(coll).events;
        assert_eq!(ev.len(), 2);
        // Second reply waits for the first message's 20 ms of
        // background work plus its own: ~40 ms + hop.
        assert!(ev[1].1.as_millis_f64() > 40.0, "bg lane not serialized: {}", ev[1].1);
    }
}
