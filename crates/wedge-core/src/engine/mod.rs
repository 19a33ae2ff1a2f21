//! Sans-IO protocol engines.
//!
//! [`EdgeEngine`], [`CloudEngine`] and [`ClientEngine`] are the single
//! implementation of the WedgeChain protocol state machines: they own
//! the protocol state (`BlockBuffer` + `LogStore` + `LsMerkle` on the
//! edge, `CertLedger` + `CloudIndex` + `KeyRegistry` on the cloud,
//! receipts + watermarks + the proof-verification cache on the
//! client), consume typed commands, and emit typed effects. They never
//! touch channels, sockets, clocks, or the simulator — time arrives as
//! a `now_ns` argument and all I/O intent leaves as effect values.
//!
//! The engines also own the protocol's *clocks*. Every time-driven
//! behaviour — gossip cadence, certification retries, dispute timeouts,
//! Phase-I read audits — is "earliest deadline" state inside an engine,
//! exposed uniformly as `next_deadline_ns()` and driven uniformly by a
//! `Tick` command. A driver's whole job is: deliver messages, and call
//! `handle(Tick, now)` once `now >= next_deadline_ns()`. No runtime
//! re-implements retry or dispute scheduling.
//!
//! [`Engine`] states that shape once — `handle`, `next_deadline_ns`
//! and the `Tick` command — and every runtime drives it in one place:
//!
//! - the deterministic simulator runs each engine in one generic actor,
//!   [`crate::node::EngineNode`], which translates `wedge-sim` messages
//!   into commands, replays effects into the simulation `Context` (CPU
//!   charging included), and reports the engine's deadline through
//!   [`wedge_sim::Actor::next_deadline_ns`], at which the simulator
//!   wakes it with `Tick`;
//! - the real-time runtimes ([`crate::threaded`] on in-process
//!   channels, `wedge-net` on loopback TCP) run each engine in
//!   [`crate::driver`]'s one service body, which turns deadlines into
//!   `recv_timeout` bounds and effects into link sends.
//!
//! Each role states only how its inputs become commands and where its
//! effects go. Adding a tokio or sharded runtime means writing another
//! driver — not another copy of the seal/certify/merge/read-proof
//! logic, and not another timer wheel.

pub mod client;
pub mod cloud;
pub mod edge;

pub use client::{
    ClientCommand, ClientEffect, ClientEngine, ClientEvent, ClientPlan, GetOutcome, PutOutcome,
};
pub use cloud::{CloudCommand, CloudEffect, CloudEngine, CloudStats};
pub use edge::{EdgeCommand, EdgeEffect, EdgeEngine, EdgeStats};

use std::hash::Hash;

/// The shape every protocol engine shares: typed commands in, typed
/// effects out, and one earliest deadline the runtime honours by
/// handing back [`Engine::tick`]. Each engine implements it by
/// delegating to its inherent methods of the same names.
pub trait Engine {
    /// Every input the engine reacts to.
    type Cmd;
    /// Every output the runtime applies, in emission order.
    type Effect;

    /// Processes one command at time `now_ns`.
    fn handle(&mut self, cmd: Self::Cmd, now_ns: u64) -> Vec<Self::Effect>;

    /// Earliest absolute time (ns) at which the engine has time-driven
    /// work; the runtime handles [`Engine::tick`] once it passes.
    fn next_deadline_ns(&self) -> Option<u64>;

    /// The command that tells the engine time has passed.
    fn tick() -> Self::Cmd;
}

/// Implements [`Engine`] for an engine whose inherent `handle` and
/// `next_deadline_ns` already have the trait's shape, and whose command
/// enum has a `Tick` variant.
macro_rules! delegate_engine {
    (impl$(<$g:ident>)? for $engine:ty { $cmd:ident, $effect:ident }) => {
        impl$(<$g: Copy + Eq + Hash>)? Engine for $engine {
            type Cmd = $cmd$(<$g>)?;
            type Effect = $effect$(<$g>)?;

            fn handle(&mut self, cmd: Self::Cmd, now_ns: u64) -> Vec<Self::Effect> {
                <$engine>::handle(self, cmd, now_ns)
            }

            fn next_deadline_ns(&self) -> Option<u64> {
                <$engine>::next_deadline_ns(self)
            }

            fn tick() -> Self::Cmd {
                $cmd::Tick
            }
        }
    };
}

delegate_engine!(impl<C> for EdgeEngine<C> { EdgeCommand, EdgeEffect });
delegate_engine!(impl<P> for CloudEngine<P> { CloudCommand, CloudEffect });
delegate_engine!(impl for ClientEngine { ClientCommand, ClientEffect });
