//! The trusted cloud node actor — a thin simulator driver over the
//! sans-IO [`CloudEngine`].
//!
//! All protocol logic (certification ledger, merge verification,
//! dispute rulings, punishment, gossip content *and cadence*) lives in
//! [`crate::engine::cloud::CloudEngine`]; this actor only translates
//! messages/effects to and from the simulation [`Context`] and keeps
//! one simulator timer armed at the engine's
//! [`CloudEngine::next_deadline_ns`] — it never decides when gossip
//! happens.

use crate::engine::{CloudCommand, CloudEffect, CloudEngine};
use crate::messages::Msg;
use std::ops::{Deref, DerefMut};
use wedge_sim::{Actor, ActorId, Context, DeadlineTimer, TimerId};

pub use crate::engine::CloudStats;

/// The cloud node actor: the shared engine plus its simulator wiring.
pub struct CloudNode {
    /// The protocol state machine (shared with the threaded runtime).
    pub engine: CloudEngine<ActorId>,
    timer: DeadlineTimer,
}

impl CloudNode {
    /// Creates the cloud actor around an engine, which owns the gossip
    /// cadence.
    pub fn new(engine: CloudEngine<ActorId>) -> Self {
        CloudNode { engine, timer: DeadlineTimer::new() }
    }

    fn run(&mut self, ctx: &mut Context<'_, Msg>, cmd: CloudCommand<ActorId>) {
        for effect in self.engine.handle(cmd, ctx.now().as_nanos()) {
            match effect {
                CloudEffect::UseCpu(d) => ctx.use_cpu(d),
                CloudEffect::Send { to, msg, wire } => ctx.send(to, Msg::Wire(msg), wire),
            }
        }
        self.timer.resync(ctx, self.engine.next_deadline_ns());
    }
}

/// The actor is, protocol-wise, its engine: state access in harnesses,
/// tests and benches goes straight through.
impl Deref for CloudNode {
    type Target = CloudEngine<ActorId>;

    fn deref(&self) -> &Self::Target {
        &self.engine
    }
}

impl DerefMut for CloudNode {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.engine
    }
}

impl Actor<Msg> for CloudNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.timer.resync(ctx, self.engine.next_deadline_ns());
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: TimerId, _tag: u64) {
        if self.timer.should_tick(ctx, timer, self.engine.next_deadline_ns()) {
            self.run(ctx, CloudCommand::Tick);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ActorId, msg: Msg) {
        // The cloud speaks only the wire protocol.
        let Msg::Wire(wire) = msg else { return };
        let Some(cmd) = CloudCommand::from_wire(from, wire) else { return };
        self.run(ctx, cmd);
    }
}
