//! The (untrusted) edge node actor — a thin simulator driver over the
//! sans-IO [`EdgeEngine`].
//!
//! All protocol logic (sealing, receipts, lazy certification, merges,
//! read proofs, fault injection) lives in
//! [`crate::engine::edge::EdgeEngine`]; this actor only translates
//! simulator messages into [`EdgeCommand`]s and replays the resulting
//! [`EdgeEffect`]s into the simulation [`Context`] (CPU charging,
//! foreground sends, background sends).

use crate::engine::{EdgeCommand, EdgeEffect, EdgeEngine};
use crate::messages::Msg;
use std::ops::{Deref, DerefMut};
use wedge_sim::{Actor, ActorId, Context, DeadlineTimer, TimerId};

pub use crate::engine::EdgeStats;

/// The edge node actor: the shared engine plus its simulator wiring.
pub struct EdgeNode {
    /// The protocol state machine (shared with the threaded runtime).
    pub engine: EdgeEngine<ActorId>,
    cloud: ActorId,
    timer: DeadlineTimer,
}

impl EdgeNode {
    /// Creates an edge actor around an engine, bound to the cloud
    /// actor.
    pub fn new(engine: EdgeEngine<ActorId>, cloud: ActorId) -> Self {
        EdgeNode { engine, cloud, timer: DeadlineTimer::new() }
    }

    fn run(&mut self, ctx: &mut Context<'_, Msg>, cmd: EdgeCommand<ActorId>) {
        let cloud = self.cloud;
        for effect in self.engine.handle(cmd, ctx.now().as_nanos()) {
            match effect {
                EdgeEffect::UseCpu(d) => ctx.use_cpu(d),
                EdgeEffect::UseCpuBackground(d) => ctx.use_cpu_background(d),
                EdgeEffect::Send { to, msg, wire } => ctx.send(to, Msg::Wire(msg), wire),
                EdgeEffect::SendCloud { msg, wire, dispatch: Some(cost) } => {
                    ctx.send_background(cloud, Msg::Wire(msg), wire, cost)
                }
                EdgeEffect::SendCloud { msg, wire, dispatch: None } => {
                    ctx.send(cloud, Msg::Wire(msg), wire)
                }
            }
        }
        self.timer.resync(ctx, self.engine.next_deadline_ns());
    }
}

/// The actor is, protocol-wise, its engine: state access in harnesses,
/// tests and benches goes straight through.
impl Deref for EdgeNode {
    type Target = EdgeEngine<ActorId>;

    fn deref(&self) -> &Self::Target {
        &self.engine
    }
}

impl DerefMut for EdgeNode {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.engine
    }
}

impl Actor<Msg> for EdgeNode {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ActorId, msg: Msg) {
        // Edges speak only the wire protocol; control messages are a
        // client-driver concern.
        let Msg::Wire(wire) = msg else { return };
        let Some(cmd) = EdgeCommand::from_wire(from, wire) else { return };
        self.run(ctx, cmd);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: TimerId, _tag: u64) {
        if self.timer.should_tick(ctx, timer, self.engine.next_deadline_ns()) {
            self.run(ctx, EdgeCommand::Tick);
        }
    }
}
