//! The simulator's one engine actor.
//!
//! [`EngineNode`] runs any [`Engine`] inside `wedge-sim`: it hands the
//! engine each arriving message as a command, replays the effects into
//! the simulation [`Context`] (CPU charging, foreground and background
//! sends), and reports the engine's deadline, at which the simulator
//! wakes it with the engine's `Tick`. All protocol logic stays in
//! [`crate::engine`]; each role's [`SimRole`] impl below states only
//! which messages it takes and where its effects go.

use crate::engine::{
    ClientCommand, ClientEffect, ClientEngine, CloudCommand, CloudEffect, CloudEngine, EdgeCommand,
    EdgeEffect, EdgeEngine, Engine,
};
use crate::messages::Msg;
use std::ops::{Deref, DerefMut};
use wedge_sim::{Actor, ActorId, Context};

/// How one role's engine meets the simulator.
pub trait SimRole: Engine + 'static {
    /// The actors the role sends to besides an effect's own addressee.
    type Peers: 'static;

    /// The command a message from `from` becomes; `None` for messages
    /// the role does not handle.
    fn command(from: ActorId, msg: Msg) -> Option<Self::Cmd>;

    /// Replays one effect into the simulation.
    fn apply(effect: Self::Effect, peers: &Self::Peers, ctx: &mut Context<'_, Msg>);
}

/// A simulator actor around one engine and its peer wiring. Its
/// deadline is the engine's, and a wake runs the engine's `Tick`.
pub struct EngineNode<E: SimRole> {
    /// The protocol state machine (shared with the real-time runtimes).
    pub engine: E,
    peers: E::Peers,
}

/// The untrusted edge, bound to the cloud actor.
pub type EdgeNode = EngineNode<EdgeEngine<ActorId>>;
/// The trusted cloud; it sends only to each effect's addressee.
pub type CloudNode = EngineNode<CloudEngine<ActorId>>;
/// An authenticated client, bound to its partition's edge and the cloud
/// (in that order).
pub type ClientNode = EngineNode<ClientEngine>;

impl<E: SimRole> EngineNode<E> {
    /// Creates an actor around an engine, wired to its peers.
    pub fn new(engine: E, peers: E::Peers) -> Self {
        EngineNode { engine, peers }
    }

    fn run(&mut self, ctx: &mut Context<'_, Msg>, cmd: E::Cmd) {
        for effect in self.engine.handle(cmd, ctx.now().as_nanos()) {
            E::apply(effect, &self.peers, ctx);
        }
    }
}

/// The actor is, protocol-wise, its engine: state access in harnesses,
/// tests and benches goes straight through.
impl<E: SimRole> Deref for EngineNode<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.engine
    }
}

impl<E: SimRole> DerefMut for EngineNode<E> {
    fn deref_mut(&mut self) -> &mut E {
        &mut self.engine
    }
}

impl<E: SimRole> Actor<Msg> for EngineNode<E> {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ActorId, msg: Msg) {
        if let Some(cmd) = E::command(from, msg) {
            self.run(ctx, cmd);
        }
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        self.engine.next_deadline_ns()
    }

    fn on_deadline(&mut self, ctx: &mut Context<'_, Msg>) {
        self.run(ctx, E::tick());
    }
}

/// Edges speak only the wire protocol; control messages are a client
/// concern.
impl SimRole for EdgeEngine<ActorId> {
    type Peers = ActorId;

    fn command(from: ActorId, msg: Msg) -> Option<Self::Cmd> {
        let Msg::Wire(wire) = msg else { return None };
        EdgeCommand::from_wire(from, wire)
    }

    fn apply(effect: Self::Effect, &cloud: &ActorId, ctx: &mut Context<'_, Msg>) {
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
}

/// The cloud speaks only the wire protocol.
impl SimRole for CloudEngine<ActorId> {
    type Peers = ();

    fn command(from: ActorId, msg: Msg) -> Option<Self::Cmd> {
        let Msg::Wire(wire) = msg else { return None };
        CloudCommand::from_wire(from, wire)
    }

    fn apply(effect: Self::Effect, _: &(), ctx: &mut Context<'_, Msg>) {
        match effect {
            CloudEffect::UseCpu(d) => ctx.use_cpu(d),
            CloudEffect::Send { to, msg, wire } => ctx.send(to, Msg::Wire(msg), wire),
        }
    }
}

/// Clients also take the harness's control messages.
impl SimRole for ClientEngine {
    type Peers = (ActorId, ActorId);

    fn command(_from: ActorId, msg: Msg) -> Option<Self::Cmd> {
        ClientCommand::from_msg(msg)
    }

    fn apply(effect: Self::Effect, &(edge, cloud): &Self::Peers, ctx: &mut Context<'_, Msg>) {
        match effect {
            ClientEffect::UseCpu(d) => ctx.use_cpu(d),
            ClientEffect::SendEdge { msg, wire } => ctx.send(edge, Msg::Wire(msg), wire),
            ClientEffect::SendCloud { msg, wire } => ctx.send(cloud, Msg::Wire(msg), wire),
            // Completion routing is a real-runtime concern; sim
            // harnesses read engine state directly.
            ClientEffect::Notify(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_sim::{SimTime, Simulation};

    const MS: u64 = 1_000_000;

    /// A deadline and nothing else: `DoGet { key }` moves the deadline
    /// to `key` ns, and a tick clears it and is recorded.
    struct Alarm {
        deadline_ns: Option<u64>,
        ticks_at: Vec<u64>,
    }

    enum AlarmCmd {
        SetDeadline(u64),
        Tick,
    }

    impl Engine for Alarm {
        type Cmd = AlarmCmd;
        type Effect = ();

        fn handle(&mut self, cmd: AlarmCmd, now_ns: u64) -> Vec<()> {
            match cmd {
                AlarmCmd::SetDeadline(d) => self.deadline_ns = Some(d),
                AlarmCmd::Tick => {
                    self.deadline_ns = None;
                    self.ticks_at.push(now_ns);
                }
            }
            Vec::new()
        }

        fn next_deadline_ns(&self) -> Option<u64> {
            self.deadline_ns
        }

        fn tick() -> AlarmCmd {
            AlarmCmd::Tick
        }
    }

    impl SimRole for Alarm {
        type Peers = ();

        fn command(_from: ActorId, msg: Msg) -> Option<AlarmCmd> {
            let Msg::DoGet { key } = msg else { return None };
            Some(AlarmCmd::SetDeadline(key))
        }

        fn apply(_: (), _: &(), _: &mut Context<'_, Msg>) {}
    }

    fn alarm_sim(deadline_ns: Option<u64>) -> (Simulation<Msg>, ActorId) {
        let mut sim = Simulation::new(1);
        let alarm = Alarm { deadline_ns, ticks_at: Vec::new() };
        let node = Box::new(EngineNode::new(alarm, ()));
        let id = sim.add_actor(wedge_sim::Region::California, node);
        (sim, id)
    }

    #[test]
    fn deadline_set_at_construction_ticks_with_no_message() {
        let (mut sim, id) = alarm_sim(Some(5 * MS));
        sim.run_until(SimTime::from_nanos(20 * MS), 100);
        assert_eq!(sim.actor::<EngineNode<Alarm>>(id).ticks_at, vec![5 * MS]);
    }

    #[test]
    fn earlier_deadline_rearms_the_timer() {
        let (mut sim, id) = alarm_sim(Some(10 * MS));
        sim.run_until(SimTime::from_nanos(MS), 100);
        sim.inject(id, id, Msg::DoGet { key: 3 * MS });
        sim.run_until(SimTime::from_nanos(20 * MS), 100);
        // One tick, at the moved deadline; the stale 10 ms timer finds
        // nothing due.
        assert_eq!(sim.actor::<EngineNode<Alarm>>(id).ticks_at, vec![3 * MS]);
    }
}
