//! Actors and the context handed to their handlers.
//!
//! Protocol nodes (clients, edge nodes, the cloud node) are *actors*:
//! deterministic state machines that react to messages and to their own
//! deadline. The simulator delivers events in virtual-time order;
//! handlers interact with the world only through [`Context`], which is
//! what makes the same state machines drivable by both the simulator
//! and a real threaded runtime.

use crate::net::Region;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::any::Any;
use std::fmt;

/// Identifies an actor within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub(crate) usize);

impl ActorId {
    /// Raw index (stable for the lifetime of the simulation).
    pub fn index(&self) -> usize {
        self.0
    }

    /// Constructs an id from a raw index. Ids are handed out
    /// sequentially from 0 by `Simulation::add_actor`, so harnesses
    /// that add actors in a fixed order may pre-compute ids to break
    /// wiring cycles (cloud needs the edge's id and vice versa); the
    /// harness asserts the prediction when adding.
    pub fn from_index(index: usize) -> ActorId {
        ActorId(index)
    }
}

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A message en route, as queued by a handler.
pub(crate) struct Outbound<M> {
    pub to: ActorId,
    pub msg: M,
    pub bytes: u64,
    /// Offset of the send within the handler's execution (CPU time
    /// consumed before the send was issued).
    pub at_offset: SimDuration,
}

/// Work queued on the actor's *background* CPU lane (a second core
/// dedicated to asynchronous duties like lazy certification dispatch
/// and merge application — work the paper explicitly keeps off the
/// request path).
pub(crate) enum BgOp<M> {
    /// Consume background CPU.
    Work(SimDuration),
    /// Consume `cost` of background CPU, then transmit.
    Send { to: ActorId, msg: M, bytes: u64, cost: SimDuration },
}

/// Handler-side view of the simulation.
///
/// All effects — sending, consuming CPU — are buffered here and
/// applied by the driver when the handler returns, keeping handlers
/// pure with respect to the event queue.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ActorId,
    pub(crate) elapsed: SimDuration,
    pub(crate) outbox: Vec<Outbound<M>>,
    pub(crate) bg_ops: Vec<BgOp<M>>,
    pub(crate) rng: &'a mut SimRng,
}

impl<'a, M> Context<'a, M> {
    /// Virtual time at which the handler started executing.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Virtual time including CPU consumed so far in this handler.
    pub fn now_with_cpu(&self) -> SimTime {
        self.now + self.elapsed
    }

    /// The id of the actor being executed.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Sends `msg` (`bytes` long on the wire) to `to`. The message
    /// leaves this node after any CPU consumed so far.
    pub fn send(&mut self, to: ActorId, msg: M, bytes: u64) {
        self.outbox.push(Outbound { to, msg, bytes, at_offset: self.elapsed });
    }

    /// Models `duration` of CPU work on this node. Subsequent sends and
    /// the node's availability for the next message are pushed back.
    pub fn use_cpu(&mut self, duration: SimDuration) {
        self.elapsed += duration;
    }

    /// Models `duration` of work on the node's *background* core. It
    /// does not delay this handler, its sends, or subsequent message
    /// handling — but the background lane is serial, so queued
    /// background work drains FIFO (this is what makes Phase II lag
    /// behind Phase I at large batch sizes, Fig 6).
    pub fn use_cpu_background(&mut self, duration: SimDuration) {
        self.bg_ops.push(BgOp::Work(duration));
    }

    /// Queues `msg` for transmission from the background lane after
    /// `cost` of background CPU (e.g. digest bookkeeping before a
    /// block-certify message leaves).
    pub fn send_background(&mut self, to: ActorId, msg: M, bytes: u64, cost: SimDuration) {
        self.bg_ops.push(BgOp::Send { to, msg, bytes, cost });
    }

    /// Deterministic per-simulation randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// A deterministic protocol state machine.
///
/// Every actor is `Any`, so test and bench harnesses can inspect its
/// concrete state via [`crate::sim::Simulation::actor`].
pub trait Actor<M>: Any {
    /// Handles a message delivered from `from`.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ActorId, msg: M);

    /// The actor's earliest deadline (absolute ns), if any. Default:
    /// none.
    ///
    /// The simulator reads it when the simulation starts and after
    /// every handler, and wakes the actor through
    /// [`Actor::on_deadline`] once it has passed. A deadline read after
    /// a handler that started at `now` and used `cpu` of CPU wakes the
    /// actor at `max(deadline, now) + cpu`: a deadline wakes its arming
    /// handler's CPU late. The committed figures were generated with
    /// that schedule.
    fn next_deadline_ns(&self) -> Option<u64> {
        None
    }

    /// Runs once [`Actor::next_deadline_ns`] has passed. Default:
    /// ignore.
    fn on_deadline(&mut self, _ctx: &mut Context<'_, M>) {}
}

/// Per-actor metadata tracked by the simulator.
#[derive(Clone, Debug)]
pub struct ActorMeta {
    /// Datacenter placement; drives network delays.
    pub region: Region,
    /// When this node's CPU becomes free (queueing of processing).
    pub(crate) cpu_free: SimTime,
    /// When this node's background core becomes free.
    pub(crate) bg_free: SimTime,
    /// The deadline (absolute ns) the queued wake is for, and that
    /// wake's sequence number; any other wake is stale.
    pub(crate) armed: Option<(u64, u64)>,
}
