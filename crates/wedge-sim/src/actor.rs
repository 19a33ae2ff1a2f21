//! Actors and the context handed to their handlers.
//!
//! Protocol nodes (clients, edge nodes, the cloud node) are *actors*:
//! deterministic state machines that react to messages and timers. The
//! simulator delivers events in virtual-time order; handlers interact
//! with the world only through [`Context`], which is what makes the
//! same state machines drivable by both the simulator and a real
//! threaded runtime.

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

/// Identifies a pending timer (for cancellation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(pub(crate) u64);

/// A message en route, as queued by a handler.
pub(crate) struct Outbound<M> {
    pub to: ActorId,
    pub msg: M,
    pub bytes: u64,
    /// Offset of the send within the handler's execution (CPU time
    /// consumed before the send was issued).
    pub at_offset: SimDuration,
}

pub(crate) struct TimerRequest {
    pub id: TimerId,
    pub delay: SimDuration,
    pub tag: u64,
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
/// All effects — sending, timers, consuming CPU — are buffered here and
/// applied by the driver when the handler returns, keeping handlers
/// pure with respect to the event queue.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ActorId,
    pub(crate) elapsed: SimDuration,
    pub(crate) outbox: Vec<Outbound<M>>,
    pub(crate) bg_ops: Vec<BgOp<M>>,
    pub(crate) timers: Vec<TimerRequest>,
    pub(crate) canceled: Vec<TimerId>,
    pub(crate) next_timer: &'a mut u64,
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

    /// Schedules a timer to fire after `delay`, carrying `tag` back to
    /// [`Actor::on_timer`]. Returns an id usable with
    /// [`Context::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.timers.push(TimerRequest { id, delay, tag });
        id
    }

    /// Cancels a previously scheduled timer. Canceling an
    /// already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.canceled.push(id);
    }

    /// Deterministic per-simulation randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// Keeps exactly one simulator timer armed at an engine's earliest
/// deadline (`next_deadline_ns`).
///
/// Sans-IO engines own their time-driven behaviour as "earliest
/// deadline" state; a driver's whole job is to call the engine's
/// `Tick` command once `now` reaches that deadline. This helper is the
/// simulator side of that contract: after every engine interaction the
/// actor calls [`DeadlineTimer::resync`] with the engine's current
/// deadline, and in `on_timer` it calls [`DeadlineTimer::fired`] to
/// recognise its timer. The timer is re-armed only when the deadline
/// actually changed, so a steady cadence costs one timer per firing.
#[derive(Debug, Default)]
pub struct DeadlineTimer {
    armed: Option<(TimerId, u64)>,
}

impl DeadlineTimer {
    /// A timer with nothing armed.
    pub const fn new() -> Self {
        DeadlineTimer { armed: None }
    }

    /// Reconciles the armed simulator timer with the engine's earliest
    /// deadline (absolute ns). Cancels/re-arms only on change.
    pub fn resync<M>(&mut self, ctx: &mut Context<'_, M>, deadline_ns: Option<u64>) {
        if self.armed.map(|(_, d)| d) == deadline_ns {
            return;
        }
        if let Some((timer, _)) = self.armed.take() {
            ctx.cancel_timer(timer);
        }
        if let Some(d) = deadline_ns {
            let delay = SimDuration::from_nanos(d.saturating_sub(ctx.now().as_nanos()));
            let id = ctx.set_timer(delay, 0);
            self.armed = Some((id, d));
        }
    }

    /// Call from `on_timer`: returns `true` (and disarms) iff `id` is
    /// the deadline timer this helper armed.
    pub fn fired(&mut self, id: TimerId) -> bool {
        match self.armed {
            Some((t, _)) if t == id => {
                self.armed = None;
                true
            }
            _ => false,
        }
    }

    /// The whole driver-side `on_timer` protocol in one call: if `id`
    /// is this helper's timer and the engine's deadline has passed,
    /// returns `true` — the caller must issue its `Tick` command (and
    /// resync afterwards). Otherwise re-arms as needed and returns
    /// `false`.
    pub fn should_tick<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        id: TimerId,
        deadline_ns: Option<u64>,
    ) -> bool {
        if !self.fired(id) {
            return false;
        }
        if deadline_ns.is_some_and(|d| d <= ctx.now().as_nanos()) {
            return true;
        }
        // The deadline moved (or vanished) since this timer was armed.
        self.resync(ctx, deadline_ns);
        false
    }
}

/// A deterministic protocol state machine.
///
/// Every actor is `Any`, so test and bench harnesses can inspect its
/// concrete state via [`crate::sim::Simulation::actor`].
pub trait Actor<M>: Any {
    /// Handles a message delivered from `from`.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ActorId, msg: M);

    /// Handles a timer set by this actor. Default: ignore.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _timer: TimerId, _tag: u64) {}

    /// Called once when the simulation starts, before any messages.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}
}

/// Per-actor metadata tracked by the simulator.
#[derive(Clone, Debug)]
pub struct ActorMeta {
    /// Human-readable name for traces ("edge-0", "client-3", "cloud").
    pub name: String,
    /// Datacenter placement; drives network delays.
    pub region: Region,
    /// When this node's CPU becomes free (queueing of processing).
    pub(crate) cpu_free: SimTime,
    /// When this node's background core becomes free.
    pub(crate) bg_free: SimTime,
}
