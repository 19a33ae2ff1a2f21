//! The wide-area network model.
//!
//! The paper evaluates WedgeChain across five AWS datacenters —
//! California (C), Oregon (O), Virginia (V), Ireland (I), Mumbai (M) —
//! with the RTTs of Table I. This module reproduces that matrix, adds a
//! bandwidth model (transmission delay plus FIFO link queueing, which is
//! what makes Edge-baseline degrade with batch size in Fig 4), and a
//! small intra-region latency for client↔edge hops. The model is
//! fixed: the RTT matrix and the four calibrated constants
//! ([`LOCAL_RTT_MS`], [`WAN_BANDWIDTH_BPS`], [`LAN_BANDWIDTH_BPS`],
//! [`PER_MESSAGE_OVERHEAD_BYTES`]) are what every run uses, and
//! delivery is deterministic.

use crate::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;

/// The five datacenter regions of the evaluation (§VI, Table I).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Region {
    /// California — the edge location in most experiments.
    California,
    /// Oregon.
    Oregon,
    /// Virginia — the cloud location in most experiments.
    Virginia,
    /// Ireland.
    Ireland,
    /// Mumbai — the farthest datacenter (238 ms RTT from California).
    Mumbai,
}

impl Region {
    /// All regions, in Table I column order.
    pub const ALL: [Region; 5] =
        [Region::California, Region::Oregon, Region::Virginia, Region::Ireland, Region::Mumbai];

    /// One-letter code used in the paper's tables.
    pub fn code(&self) -> char {
        match self {
            Region::California => 'C',
            Region::Oregon => 'O',
            Region::Virginia => 'V',
            Region::Ireland => 'I',
            Region::Mumbai => 'M',
        }
    }

    fn index(&self) -> usize {
        match self {
            Region::California => 0,
            Region::Oregon => 1,
            Region::Virginia => 2,
            Region::Ireland => 3,
            Region::Mumbai => 4,
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Round-trip times in milliseconds between regions.
///
/// The California row is Table I verbatim (0/19/61/141/238). The paper
/// only reports that row (its experiments keep clients in California);
/// the remaining pairs are filled with representative AWS inter-region
/// RTTs so that arbitrary placements remain meaningful.
pub const RTT_MS: [[u64; 5]; 5] = [
    //           C    O    V    I    M
    /* C */ [0, 19, 61, 141, 238],
    /* O */ [19, 0, 68, 130, 220],
    /* V */ [61, 68, 0, 78, 185],
    /* I */ [141, 130, 78, 0, 110],
    /* M */ [238, 220, 185, 110, 0],
];

/// RTT within a region (client ↔ edge in the same city), ms. Table I
/// lists 0 for C↔C; the measured ~15 ms WedgeChain commit latency
/// implies a local round trip plus processing, which this models.
pub const LOCAL_RTT_MS: f64 = 10.0;

/// Bandwidth of inter-region (WAN) paths, bytes/second. 40 MB/s is
/// calibrated so a 200 KB block (batch of 2000 100-byte ops) costs
/// ~5 ms per WAN crossing, matching the mild slope of Cloud-only and
/// the steep one of Edge-baseline (which crosses twice and queues) in
/// Fig 4.
pub const WAN_BANDWIDTH_BPS: f64 = 40.0e6;

/// Bandwidth of intra-region (LAN/metro) paths, bytes/second.
pub const LAN_BANDWIDTH_BPS: f64 = 1.0e9;

/// Fixed per-message overhead added to the payload (headers, TLS).
pub const PER_MESSAGE_OVERHEAD_BYTES: u64 = 256;

/// Per-directed-link FIFO queue state for the bandwidth model.
#[derive(Clone, Debug, Default)]
struct LinkState {
    /// Virtual time at which the link finishes its last queued transfer.
    free_at: SimTime,
}

/// The network model: computes message delivery delays.
///
/// Delivery time = queueing (FIFO per directed region pair)
///               + transmission (bytes / bandwidth)
///               + propagation (RTT/2).
#[derive(Clone, Debug, Default)]
pub struct NetworkModel {
    links: HashMap<(usize, usize), LinkState>,
}

impl NetworkModel {
    /// Creates a model with every link idle.
    pub fn new() -> Self {
        NetworkModel::default()
    }

    /// One-way propagation delay between two regions.
    pub fn propagation(&self, from: Region, to: Region) -> SimDuration {
        let rtt_ms =
            if from == to { LOCAL_RTT_MS } else { RTT_MS[from.index()][to.index()] as f64 };
        SimDuration::from_millis_f64(rtt_ms / 2.0)
    }

    /// Round-trip time between two regions (as Table I reports it).
    #[cfg(test)]
    fn rtt(&self, from: Region, to: Region) -> SimDuration {
        self.propagation(from, to) + self.propagation(to, from)
    }

    /// Transmission delay for a message of `bytes` on the path class.
    pub fn transmission(&self, from: Region, to: Region, bytes: u64) -> SimDuration {
        let total = bytes as f64 + PER_MESSAGE_OVERHEAD_BYTES as f64;
        let bw = if from == to { LAN_BANDWIDTH_BPS } else { WAN_BANDWIDTH_BPS };
        SimDuration::from_secs_f64(total / bw)
    }

    /// Computes when a message sent at `now` arrives, advancing the
    /// link's FIFO queue. This is the mutating entry point used by the
    /// simulator for every send.
    pub fn delivery_at(&mut self, now: SimTime, from: Region, to: Region, bytes: u64) -> SimTime {
        let key = (from.index(), to.index());
        let tx = self.transmission(from, to, bytes);
        let prop = self.propagation(from, to);
        let link = self.links.entry(key).or_default();
        let start = if link.free_at > now { link.free_at } else { now };
        link.free_at = start + tx;
        link.free_at + prop
    }

    /// Resets all link queues (between benchmark iterations).
    pub fn reset_queues(&mut self) {
        self.links.clear();
    }
}

/// Prints Table I: the RTT matrix row the paper reports, plus the full
/// matrix used by the model.
pub fn format_table1() -> String {
    let mut out = String::new();
    out.push_str("      C     O     V     I     M\n");
    for (i, r) in Region::ALL.iter().enumerate() {
        out.push_str(&format!("{}  ", r.code()));
        for cell in &RTT_MS[i] {
            out.push_str(&format!("{cell:5} "));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_matches_paper() {
        // Table I: C → {C, O, V, I, M} = 0, 19, 61, 141, 238 ms.
        assert_eq!(RTT_MS[0], [0, 19, 61, 141, 238]);
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        for (i, row) in RTT_MS.iter().enumerate() {
            assert_eq!(row[i], 0);
            for (j, cell) in row.iter().enumerate() {
                assert_eq!(*cell, RTT_MS[j][i]);
            }
        }
    }

    #[test]
    fn propagation_is_half_rtt() {
        let net = NetworkModel::new();
        let p = net.propagation(Region::California, Region::Virginia);
        assert_eq!(p.as_millis_f64(), 30.5);
        assert_eq!(net.rtt(Region::California, Region::Virginia).as_millis_f64(), 61.0);
    }

    #[test]
    fn local_rtt_applies_within_region() {
        let net = NetworkModel::new();
        let rtt = net.rtt(Region::California, Region::California);
        assert_eq!(rtt.as_millis_f64(), 10.0);
    }

    #[test]
    fn transmission_scales_with_bytes() {
        let net = NetworkModel::new();
        let small = net.transmission(Region::California, Region::Virginia, 1_000);
        let large = net.transmission(Region::California, Region::Virginia, 1_000_000);
        assert!(large > small);
        // 1 MB at 40 MB/s ≈ 25 ms.
        assert!((large.as_millis_f64() - 25.0).abs() < 1.0);
    }

    #[test]
    fn fifo_link_queueing_delays_back_to_back_sends() {
        let mut net = NetworkModel::new();
        let t0 = SimTime::ZERO;
        let a = net.delivery_at(t0, Region::California, Region::Virginia, 1_000_000);
        let b = net.delivery_at(t0, Region::California, Region::Virginia, 1_000_000);
        // Second transfer queues behind the first: arrives ~25 ms later.
        assert!(b > a);
        assert!((b.since(a).as_millis_f64() - 25.0).abs() < 1.0);
    }

    #[test]
    fn reverse_direction_has_independent_queue() {
        let mut net = NetworkModel::new();
        let t0 = SimTime::ZERO;
        let _ = net.delivery_at(t0, Region::California, Region::Virginia, 10_000_000);
        let back = net.delivery_at(t0, Region::Virginia, Region::California, 1_000);
        // The reverse link is idle; only propagation + small tx.
        assert!(back.as_millis_f64() < 31.0);
    }

    #[test]
    fn reset_clears_queues() {
        let mut net = NetworkModel::new();
        let t0 = SimTime::ZERO;
        let _ = net.delivery_at(t0, Region::California, Region::Virginia, 10_000_000);
        net.reset_queues();
        let a = net.delivery_at(t0, Region::California, Region::Virginia, 1_000);
        assert!(a.as_millis_f64() < 31.0);
    }

    #[test]
    fn table_formatting_contains_paper_row() {
        let t = format_table1();
        assert!(t.contains("0    19    61   141   238"));
    }
}
