//! Event tracing: capture what happened in a simulation, for
//! debugging protocol issues and asserting on event sequences in
//! tests.
//!
//! Tracing is opt-in
//! ([`Simulation::enable_trace`](crate::Simulation::enable_trace))
//! and records one [`TraceEvent`] per handler execution, cheap enough
//! to leave on in tests while staying out of benchmark runs.

use crate::actor::ActorId;
use crate::time::SimTime;
use std::fmt;

/// What kind of handler ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A message delivery.
    Deliver,
    /// A timer firing.
    Timer,
    /// An actor's `on_start`.
    Start,
}

/// One executed event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Virtual time of execution.
    pub at: SimTime,
    /// The actor that ran.
    pub actor: ActorId,
    /// Sender (deliveries only).
    pub from: Option<ActorId>,
    /// Handler kind.
    pub kind: TraceKind,
    /// Short label (message variant name, timer tag).
    pub label: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.from {
            Some(from) => {
                write!(f, "[{}] {} -> {} {:?} {}", self.at, from, self.actor, self.kind, self.label)
            }
            None => write!(f, "[{}] {} {:?} {}", self.at, self.actor, self.kind, self.label),
        }
    }
}

/// A bounded in-memory event log.
#[derive(Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates a trace holding at most `capacity` events (older events
    /// are dropped and counted).
    pub fn new(capacity: usize) -> Self {
        Trace { events: Vec::new(), capacity: capacity.max(1), dropped: 0 }
    }

    /// Records an event.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.remove(0);
            self.dropped += 1;
        }
        self.events.push(event);
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events dropped to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events involving `actor` (as executor or sender).
    pub fn for_actor(&self, actor: ActorId) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.actor == actor || e.from == Some(actor)).collect()
    }

    /// Events whose label contains `needle`.
    pub fn matching(&self, needle: &str) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.label.contains(needle)).collect()
    }

    /// True iff an event matching `needle` occurred at or before `t`.
    pub fn happened_by(&self, needle: &str, t: SimTime) -> bool {
        self.events.iter().any(|e| e.label.contains(needle) && e.at <= t)
    }

    /// Renders the trace as text (for failure dumps).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!("… {} earlier events dropped …\n", self.dropped));
        }
        for e in &self.events {
            out.push_str(&format!("{e}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ms: u64, actor: usize, label: &str) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(at_ms * 1_000_000),
            actor: ActorId::from_index(actor),
            from: None,
            kind: TraceKind::Deliver,
            label: label.into(),
        }
    }

    #[test]
    fn records_and_filters() {
        let mut t = Trace::new(10);
        t.record(ev(1, 0, "BatchAdd"));
        t.record(ev(2, 1, "BlockCertify"));
        t.record(ev(3, 0, "AddResponse"));
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.for_actor(ActorId::from_index(0)).len(), 2);
        assert_eq!(t.matching("Block").len(), 1);
        assert!(t.happened_by("BatchAdd", SimTime::from_nanos(1_000_000)));
        assert!(!t.happened_by("AddResponse", SimTime::from_nanos(1_000_000)));
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let mut t = Trace::new(2);
        t.record(ev(1, 0, "a"));
        t.record(ev(2, 0, "b"));
        t.record(ev(3, 0, "c"));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.events()[0].label, "b");
    }

    #[test]
    fn dump_is_readable() {
        let mut t = Trace::new(1);
        t.record(ev(1, 0, "a"));
        t.record(ev(2, 3, "b"));
        let d = t.dump();
        assert!(d.contains("dropped"));
        assert!(d.contains("#3"));
    }
}
