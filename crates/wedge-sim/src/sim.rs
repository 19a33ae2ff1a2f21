//! The discrete-event simulation driver.
//!
//! Events (message deliveries and timer firings) are processed in
//! `(virtual time, sequence)` order from a binary heap, so runs are
//! fully deterministic given the seed. Node CPU is modeled: an actor
//! whose handler consumed CPU is busy until `cpu_free`, and deliveries
//! that arrive earlier are deferred — this is what lets the harness
//! observe throughput collapse when a node (e.g. the cloud performing
//! synchronous certification for Edge-baseline) becomes the bottleneck.

use crate::actor::{Actor, ActorId, ActorMeta, BgOp, Context, TimerId};
use crate::net::{NetConfig, NetworkModel, Region};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent, TraceKind};

/// Renders a short label for a traced message.
type TraceLabeler<M> = fn(&M) -> String;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

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
    Timer {
        actor: ActorId,
        id: TimerId,
        tag: u64,
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
    next_timer: u64,
    canceled_timers: HashSet<u64>,
    started: bool,
    trace: Option<(Trace, TraceLabeler<M>)>,
}

impl<M: 'static> Simulation<M> {
    /// Creates a simulation with the given network configuration and
    /// RNG seed.
    pub fn new(net_cfg: NetConfig, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let net_seed = rng.next_u64();
        Simulation {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            actors: Vec::new(),
            meta: Vec::new(),
            net: NetworkModel::new(net_cfg, net_seed),
            rng,
            next_timer: 0,
            canceled_timers: HashSet::new(),
            started: false,
            trace: None,
        }
    }

    /// Enables event tracing with a bounded buffer; `labeler` renders
    /// a short label for each message (e.g. its variant name).
    pub fn enable_trace(&mut self, capacity: usize, labeler: TraceLabeler<M>) {
        self.trace = Some((Trace::new(capacity), labeler));
    }

    /// The captured trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref().map(|(t, _)| t)
    }

    /// Registers an actor placed in `region`. Returns its id.
    pub fn add_actor(
        &mut self,
        name: impl Into<String>,
        region: Region,
        actor: Box<dyn Actor<M>>,
    ) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(Some(actor));
        self.meta.push(ActorMeta {
            name: name.into(),
            region,
            cpu_free: SimTime::ZERO,
            bg_free: SimTime::ZERO,
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

    /// The network model (e.g. to query RTTs in assertions).
    pub fn network(&self) -> &NetworkModel {
        &self.net
    }

    /// Injects a message from "outside" the simulation (e.g. the
    /// harness acting as an upstream source), delivered at `at`.
    fn inject_at(&mut self, at: SimTime, from: ActorId, to: ActorId, msg: M) {
        assert!(at >= self.now, "cannot inject into the past");
        let seq = self.bump_seq();
        self.queue.push(Reverse(QueuedEvent {
            at,
            seq,
            kind: EventKind::Deliver { from, to, msg },
        }));
    }

    /// Injects a message for immediate delivery at the current time.
    pub fn inject(&mut self, from: ActorId, to: ActorId, msg: M) {
        self.inject_at(self.now, from, to, msg);
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Runs `on_start` for all actors (idempotent; called automatically
    /// by the run methods).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            self.run_handler(ActorId(i), self.now, |actor, ctx| actor.on_start(ctx));
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
                EventKind::Timer { actor, id, tag } => {
                    if self.canceled_timers.remove(&id.0) {
                        // Canceled: consumed an event (no handler ran);
                        // return so deadline-bounded loops re-check.
                        return true;
                    }
                    self.now = ev.at;
                    if let Some((trace, _)) = &mut self.trace {
                        trace.record(TraceEvent {
                            at: ev.at,
                            actor,
                            from: None,
                            kind: TraceKind::Timer,
                            label: format!("timer:{tag}"),
                        });
                    }
                    self.run_handler(actor, ev.at, |a, ctx| a.on_timer(ctx, id, tag));
                    return true;
                }
                EventKind::Dispatch { from, to, msg, bytes } => {
                    self.now = ev.at;
                    let from_region = self.meta[from.0].region;
                    let to_region = self.meta[to.0].region;
                    let arrive = self.net.delivery_at(ev.at, from_region, to_region, bytes);
                    let seq = self.bump_seq();
                    self.queue.push(Reverse(QueuedEvent {
                        at: arrive,
                        seq,
                        kind: EventKind::Deliver { from, to, msg },
                    }));
                    return true; // internal bookkeeping; no handler ran
                }
                EventKind::Deliver { from, to, msg } => {
                    // Defer if the destination CPU is busy.
                    let cpu_free = self.meta[to.0].cpu_free;
                    if cpu_free > ev.at {
                        let seq = self.bump_seq();
                        self.queue.push(Reverse(QueuedEvent {
                            at: cpu_free,
                            seq,
                            kind: EventKind::Deliver { from, to, msg },
                        }));
                        continue;
                    }
                    self.now = ev.at;
                    if let Some((trace, labeler)) = &mut self.trace {
                        trace.record(TraceEvent {
                            at: ev.at,
                            actor: to,
                            from: Some(from),
                            kind: TraceKind::Deliver,
                            label: labeler(&msg),
                        });
                    }
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
            timers: Vec::new(),
            canceled: Vec::new(),
            next_timer: &mut self.next_timer,
            rng: &mut self.rng,
        };
        f(actor.as_mut(), &mut ctx);
        let Context { elapsed, outbox, bg_ops, timers, canceled, .. } = ctx;
        self.actors[id.0] = Some(actor);

        // The node was busy for `elapsed` of CPU.
        if elapsed > SimDuration::ZERO {
            self.meta[id.0].cpu_free = at + elapsed;
        }
        for t in canceled {
            self.canceled_timers.insert(t.0);
        }
        for t in timers {
            let fire_at = at + elapsed + t.delay;
            let seq = self.bump_seq();
            self.queue.push(Reverse(QueuedEvent {
                at: fire_at,
                seq,
                kind: EventKind::Timer { actor: id, id: t.id, tag: t.tag },
            }));
        }
        for out in outbox {
            let send_time = at + out.at_offset;
            let seq = self.bump_seq();
            self.queue.push(Reverse(QueuedEvent {
                at: send_time,
                seq,
                kind: EventKind::Dispatch { from: id, to: out.to, msg: out.msg, bytes: out.bytes },
            }));
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
                        let seq = self.bump_seq();
                        self.queue.push(Reverse(QueuedEvent {
                            at: cursor,
                            seq,
                            kind: EventKind::Dispatch { from: id, to, msg, bytes },
                        }));
                    }
                }
            }
            self.meta[id.0].bg_free = cursor;
        }
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

    /// Sends `count` pings on start and records pong arrival times.
    struct Pinger {
        target: Option<ActorId>,
        count: u32,
        pongs: Vec<(u32, SimTime)>,
    }

    impl Actor<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if let Some(t) = self.target {
                for i in 0..self.count {
                    ctx.send(t, Msg::Ping(i), 64);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: ActorId, msg: Msg) {
            if let Msg::Pong(n) = msg {
                self.pongs.push((n, ctx.now()));
            }
        }
    }

    fn two_node_sim(cpu_ms: u64, pings: u32) -> (Simulation<Msg>, ActorId, ActorId) {
        let mut sim = Simulation::new(NetConfig::default(), 7);
        let ponger = sim.add_actor(
            "ponger",
            Region::Virginia,
            Box::new(Ponger { received: vec![], cpu_ms }),
        );
        let pinger = sim.add_actor(
            "pinger",
            Region::California,
            Box::new(Pinger { target: Some(ponger), count: pings, pongs: vec![] }),
        );
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

    struct TimerActor {
        fired: Vec<(u64, SimTime)>,
        cancel_second: bool,
    }

    impl Actor<Msg> for TimerActor {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(5), 1);
            let t2 = ctx.set_timer(SimDuration::from_millis(10), 2);
            ctx.set_timer(SimDuration::from_millis(15), 3);
            if self.cancel_second {
                ctx.cancel_timer(t2);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ActorId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _id: TimerId, tag: u64) {
            self.fired.push((tag, ctx.now()));
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim: Simulation<Msg> = Simulation::new(NetConfig::default(), 1);
        let a = sim.add_actor(
            "t",
            Region::California,
            Box::new(TimerActor { fired: vec![], cancel_second: false }),
        );
        sim.run_until_idle(100);
        let fired = &sim.actor::<TimerActor>(a).fired;
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(fired[0].1.as_millis_f64(), 5.0);
    }

    #[test]
    fn canceled_timer_does_not_fire() {
        let mut sim: Simulation<Msg> = Simulation::new(NetConfig::default(), 1);
        let a = sim.add_actor(
            "t",
            Region::California,
            Box::new(TimerActor { fired: vec![], cancel_second: true }),
        );
        sim.run_until_idle(100);
        let fired = &sim.actor::<TimerActor>(a).fired;
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn injection_delivers() {
        let mut sim = Simulation::new(NetConfig::default(), 1);
        let ponger =
            sim.add_actor("p", Region::Virginia, Box::new(Ponger { received: vec![], cpu_ms: 0 }));
        let pinger = sim.add_actor(
            "i",
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
        let mut sim: Simulation<M> = Simulation::new(NetConfig::default(), 1);
        let worker = sim.add_actor("worker", Region::California, Box::new(BgWorker));
        let coll =
            sim.add_actor("collector", Region::California, Box::new(Collector { events: vec![] }));
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
        let mut sim: Simulation<M> = Simulation::new(NetConfig::default(), 1);
        let burner = sim.add_actor("burner", Region::California, Box::new(Burner));
        let coll =
            sim.add_actor("collector", Region::California, Box::new(Collector { events: vec![] }));
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
