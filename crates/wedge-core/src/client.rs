//! The (authenticated) client actor — a thin simulator driver over the
//! sans-IO [`ClientEngine`].
//!
//! All protocol logic (workload pumping, receipt/proof verification,
//! watermark tracking, dispute filing *and its timing*) lives in
//! [`crate::engine::client::ClientEngine`]; this actor only translates
//! simulator messages into [`ClientCommand`]s, replays
//! [`ClientEffect`]s into the simulation [`Context`], and keeps one
//! simulator timer armed at the engine's
//! [`ClientEngine::next_deadline_ns`] — it never decides when a
//! dispute fires.

use crate::engine::{ClientCommand, ClientEffect, ClientEngine};
use crate::messages::Msg;
use std::ops::{Deref, DerefMut};
use wedge_sim::{Actor, ActorId, Context, DeadlineTimer, TimerId};

pub use crate::engine::client::{ClientPlan, GetOutcome, PlanProgress, PlanStep, PutOutcome};

/// The client actor: the shared engine plus its simulator wiring.
pub struct ClientNode {
    /// The protocol state machine (shared with the threaded runtime).
    pub engine: ClientEngine,
    edge: ActorId,
    cloud: ActorId,
    timer: DeadlineTimer,
}

impl ClientNode {
    /// Creates a client actor around an engine, bound to its
    /// partition's edge actor and the cloud actor.
    pub fn new(engine: ClientEngine, edge: ActorId, cloud: ActorId) -> Self {
        ClientNode { engine, edge, cloud, timer: DeadlineTimer::new() }
    }

    fn run(&mut self, ctx: &mut Context<'_, Msg>, cmd: ClientCommand) {
        for effect in self.engine.handle(cmd, ctx.now().as_nanos()) {
            match effect {
                ClientEffect::UseCpu(d) => ctx.use_cpu(d),
                ClientEffect::SendEdge { msg, wire } => ctx.send(self.edge, Msg::Wire(msg), wire),
                ClientEffect::SendCloud { msg, wire } => ctx.send(self.cloud, Msg::Wire(msg), wire),
                // Completion routing is a real-runtime concern; sim
                // harnesses read engine state directly.
                ClientEffect::Notify(_) => {}
            }
        }
        self.timer.resync(ctx, self.engine.next_deadline_ns());
    }
}

/// The actor is, protocol-wise, its engine: state access in harnesses,
/// tests and benches goes straight through.
impl Deref for ClientNode {
    type Target = ClientEngine;

    fn deref(&self) -> &Self::Target {
        &self.engine
    }
}

impl DerefMut for ClientNode {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.engine
    }
}

impl Actor<Msg> for ClientNode {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: ActorId, msg: Msg) {
        let Some(cmd) = ClientCommand::from_msg(msg) else { return };
        self.run(ctx, cmd);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: TimerId, _tag: u64) {
        if self.timer.should_tick(ctx, timer, self.engine.next_deadline_ns()) {
            self.run(ctx, ClientCommand::Tick);
        }
    }
}
