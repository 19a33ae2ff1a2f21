//! # wedge-net
//!
//! The networked WedgeChain runtime: the shared runtime skeleton of
//! [`wedge_core::driver`] — the same sans-IO engines, service loops,
//! cloud→edge gate and run report as the threaded runtime — behind
//! **real TCP sockets**. One protocol, three transports.
//!
//! Topology ([`NetCluster`]): one cloud node, `num_edges` edge nodes,
//! and one client node per edge, each a service thread in this
//! process, talking **only** through `std::net` loopback TCP:
//!
//! ```text
//!   client p ──TCP──▶ edge p ──TCP──▶ cloud
//!       └─────────────TCP──────────────┘      (disputes, verdicts, gossip)
//! ```
//!
//! Every message on those connections is a [`WireMsg`] inside the
//! length-framed envelope of [`wedge_log::frame`] (magic, version,
//! type tag, guarded payload length) — the canonical byte format,
//! decoded with hostile-input checks on every hop. The harness control
//! surface (`put_on`, `get_on`, …) stays in-process by construction:
//! control commands have no wire encoding.
//!
//! This crate is only the transport, [`Tcp`]:
//!
//! - **Connections.** Each connection gets its own loopback listener.
//!   The dialer opens with a hello naming itself and the acceptor
//!   checks it names the expected peer. A connection or hello that
//!   fails is counted in `RunReport::failed_sends`, never fatal: both
//!   ends stay unconnected and every frame sent on them is counted as
//!   lost.
//! - **Readers.** One thread per socket end blocks on
//!   [`wedge_log::read_frame_into`], decodes, and hands the message to
//!   the receiving node's [`Inlet`]. A full inbox blocks the reader,
//!   so TCP flow control pushes back on the sender — except at an
//!   edge's cloud-facing end, whose inlet is the never-blocking gate.
//! - **Writes** ([`Conn`]). Every frame a service wakeup queues for
//!   one peer is packed `[header | payload]` into a scratch buffer and
//!   leaves in one `write_all` at the wakeup's flush (`TCP_NODELAY`
//!   set) — counted in `RunReport::coalesced_frames`.

#![forbid(unsafe_code)]

use std::io::Write;
use std::net::{Shutdown as SockShutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use wedge_core::driver::{
    Cluster, Inlet, Link, Node, RunReport, RuntimeConfig, Transport, WireCounters,
};
use wedge_core::messages::WireMsg;
use wedge_log::{read_frame, read_frame_into, write_frame, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};

pub use wedge_core::engine::CloudStats;

/// Configuration for the socket runtime (the shared runtime config).
pub type NetConfig = RuntimeConfig;

/// Final state of a networked run (the shared run report).
pub type NetReport = RunReport;

/// A running N-edge + cloud cluster where every protocol message
/// crosses a real TCP socket on loopback.
pub type NetCluster = Cluster<Tcp>;

/// Envelope kind of the one-shot connection hello (outside the
/// `WireMsg` tag space, which starts at 1 and stays below 0xF0).
const HELLO_KIND: u8 = 0xF0;

/// Connection roles announced in the hello.
const ROLE_EDGE: u8 = 0;
const ROLE_CLIENT: u8 = 1;
const ROLE_CLOUD: u8 = 2;

/// Per-connection send accounting. A send error must never be thrown
/// away silently: the service loop degrades to message loss (retries
/// and dispute deadlines keep the protocol live), but the drop is
/// *counted* per peer and logged once per connection so an operator —
/// and the run report — can see the partition was starved. Also
/// carries the coalescing counters: frames packed vs writes issued.
struct SendTracker {
    /// `sender→receiver` label for logs and the report.
    peer: String,
    failed: AtomicU64,
    logged: AtomicBool,
    /// Frames that reached the socket on this connection.
    frames: AtomicU64,
    /// `write_all` calls that carried them (≤ `frames`; the gap is
    /// frames that shared a write with a predecessor).
    writes: AtomicU64,
}

impl SendTracker {
    fn new(peer: String) -> Arc<Self> {
        Arc::new(SendTracker {
            peer,
            failed: AtomicU64::new(0),
            logged: AtomicBool::new(false),
            frames: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// Counts `frames` lost messages (one torn write can lose a whole
    /// coalesced batch), logging the first loss on this connection.
    // First-loss diagnostic on an otherwise silent counter: the one
    // place library code writes to stderr, and it fires at most once
    // per connection.
    #[allow(clippy::print_stderr)]
    fn record_failed(&self, err: &dyn std::fmt::Display, frames: u64) {
        if !self.logged.swap(true, Ordering::Relaxed) {
            eprintln!(
                "wedge-net: dropped frame on {}: {err} (further drops on this connection \
                 are counted silently)",
                self.peer
            );
        }
        self.failed.fetch_add(frames, Ordering::Relaxed);
    }

    fn count(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Coalescing bound: a queued batch never grows past one frame cap,
/// so a flush write is at most `FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD`
/// past it (the frame that tripped the bound).
const COALESCE_CAP: usize = MAX_FRAME_PAYLOAD as usize;

/// Scratch capacity retained across flushes/frames. One near-cap
/// merge frame must not pin 16 MiB per connection forever.
const SCRATCH_RETAIN: usize = 256 * 1024;

/// The sending end of one connection: the stream, its send accounting,
/// and the scratch buffer frames are packed into.
pub struct Conn {
    /// `None` when the connection never came up: every frame sent on
    /// it is counted as lost.
    stream: Option<TcpStream>,
    tracker: Arc<SendTracker>,
    /// Queued frames laid out back to back, each `[header | payload]`
    /// contiguous, written with a single `write_all` per flush.
    scratch: Vec<u8>,
    /// Frames currently packed in `scratch`.
    queued: u64,
}

impl Conn {
    fn new(stream: Option<TcpStream>, tracker: Arc<SendTracker>) -> Self {
        Conn { stream, tracker, scratch: Vec::new(), queued: 0 }
    }
}

impl Link for Conn {
    /// Packs one framed message into the scratch buffer. A frame that
    /// would grow the batch past `COALESCE_CAP` flushes the batch
    /// first. A refused oversized frame surfaces as counted message
    /// loss — a service loop must never panic mid-protocol.
    fn queue(&mut self, msg: WireMsg) {
        let need = FRAME_HEADER_LEN + msg.encoded_len();
        if !self.scratch.is_empty() && self.scratch.len() + need > COALESCE_CAP {
            self.flush();
        }
        match msg.append_frame_to(&mut self.scratch) {
            Ok(()) => self.queued += 1,
            Err(err) => self.tracker.record_failed(&err, 1),
        }
    }

    /// Writes every queued frame with one `write_all`. A failure (torn
    /// connection) loses the whole batch; each lost frame is counted.
    fn flush(&mut self) {
        if self.scratch.is_empty() {
            return;
        }
        let written = match &mut self.stream {
            Some(stream) => stream.write_all(&self.scratch),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        };
        match written {
            Ok(()) => {
                self.tracker.frames.fetch_add(self.queued, Ordering::Relaxed);
                self.tracker.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(err) => self.tracker.record_failed(&err, self.queued),
        }
        self.scratch.clear();
        self.scratch.shrink_to(SCRATCH_RETAIN);
        self.queued = 0;
    }
}

/// Why a connection failed to come up: the socket calls or the hello
/// that opens every connection.
#[derive(Debug)]
pub enum HandshakeError {
    /// A socket call failed (bind, connect, accept, clone, spawn, or
    /// the hello's own read/write).
    Io(std::io::Error),
    /// The peer closed cleanly before sending its hello.
    Closed,
    /// The first frame was not a well-formed hello from the expected
    /// peer.
    BadHello(&'static str),
}

impl From<std::io::Error> for HandshakeError {
    fn from(err: std::io::Error) -> Self {
        HandshakeError::Io(err)
    }
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Io(err) => write!(f, "connection io error: {err}"),
            HandshakeError::Closed => write!(f, "peer closed before hello"),
            HandshakeError::BadHello(what) => write!(f, "malformed hello: {what}"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// The role and index a node announces in its hello.
fn hello_of(node: Node) -> (u8, u64) {
    match node {
        Node::Cloud => (ROLE_CLOUD, 0),
        Node::Edge(p) => (ROLE_EDGE, p as u64),
        Node::Client(p) => (ROLE_CLIENT, p as u64),
    }
}

/// Sends the connection hello identifying this peer to the acceptor.
fn send_hello(stream: &mut TcpStream, role: u8, index: u64) -> Result<(), HandshakeError> {
    let mut payload = Vec::with_capacity(9);
    payload.push(role);
    payload.extend_from_slice(&index.to_be_bytes());
    Ok(write_frame(stream, HELLO_KIND, &payload)?)
}

/// Reads and parses the hello frame that opens every connection.
fn read_hello(stream: &mut TcpStream) -> Result<(u8, u64), HandshakeError> {
    let frame = read_frame(stream)?.ok_or(HandshakeError::Closed)?;
    if frame.kind != HELLO_KIND {
        return Err(HandshakeError::BadHello("first frame must be the hello"));
    }
    let bad_len = || HandshakeError::BadHello("hello payload is role + index");
    let (&role, index) = frame.payload.split_first().ok_or_else(bad_len)?;
    let index: [u8; 8] = index.try_into().map_err(|_| bad_len())?;
    Ok((role, u64::from_be_bytes(index)))
}

/// Spawns the per-socket reader: blocks on frames, decodes each
/// payload with the hostile-input-hardened codec, and hands the
/// message to `inlet` (which may block — that is how a bounded inbox
/// turns into TCP backpressure). Exits on EOF, error, an undecodable
/// frame (a peer speaking garbage is indistinguishable from a torn
/// connection), or once the receiving node has stopped.
fn spawn_reader(
    name: String,
    mut stream: TcpStream,
    inlet: Inlet,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(move || {
        // One payload buffer for the connection's life: every frame
        // lands in place instead of allocating a fresh Vec.
        let mut payload = Vec::new();
        while let Ok(Some(kind)) = read_frame_into(&mut stream, &mut payload) {
            let Ok(msg) = WireMsg::decode_payload(kind, &payload) else { break };
            if !inlet.deliver(msg) {
                break;
            }
            payload.shrink_to(SCRATCH_RETAIN);
        }
    })
}

/// Loopback TCP transport: each connection is a socket pair with a
/// reader thread at each end.
#[derive(Default)]
pub struct Tcp {
    /// One clone of every connected socket, shut down at close to
    /// wake its reader.
    sockets: Vec<TcpStream>,
    readers: Vec<JoinHandle<()>>,
    /// Send accounting for every link and failed connection.
    trackers: Vec<Arc<SendTracker>>,
}

impl Tcp {
    /// Dials `b` from `a` through a fresh loopback listener, exchanges
    /// the hello, and starts a reader at each end.
    fn open(
        &mut self,
        (a, a_inlet): (Node, Inlet),
        (b, b_inlet): (Node, Inlet),
    ) -> Result<(TcpStream, TcpStream), HandshakeError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut dialed = TcpStream::connect(listener.local_addr()?)?;
        let (role, index) = hello_of(a);
        send_hello(&mut dialed, role, index)?;
        let (mut accepted, _) = listener.accept()?;
        if read_hello(&mut accepted)? != (role, index) {
            return Err(HandshakeError::BadHello("hello names another peer"));
        }
        for (stream, inlet, at, from) in [(&dialed, a_inlet, a, b), (&accepted, b_inlet, b, a)] {
            stream.set_nodelay(true)?;
            self.sockets.push(stream.try_clone()?);
            let name = format!("wedge-net-{at}<{from}");
            self.readers.push(spawn_reader(name, stream.try_clone()?, inlet)?);
        }
        Ok((dialed, accepted))
    }

    fn tracker(&mut self, label: String) -> Arc<SendTracker> {
        let tracker = SendTracker::new(label);
        self.trackers.push(Arc::clone(&tracker));
        tracker
    }
}

impl Transport for Tcp {
    type Link = Conn;

    fn connect(&mut self, a: (Node, Inlet), b: (Node, Inlet)) -> (Conn, Conn) {
        let (a_node, b_node) = (a.0, b.0);
        let (a_end, b_end) = match self.open(a, b) {
            Ok((a_end, b_end)) => (Some(a_end), Some(b_end)),
            Err(err) => {
                self.tracker(format!("{a_node}→{b_node} (hello)")).record_failed(&err, 1);
                (None, None)
            }
        };
        let a_tracker = self.tracker(format!("{a_node}→{b_node}"));
        let b_tracker = self.tracker(format!("{b_node}→{a_node}"));
        (Conn::new(a_end, a_tracker), Conn::new(b_end, b_tracker))
    }

    fn close(&mut self) -> WireCounters {
        // Readers block in `read`; closing both directions wakes them.
        for socket in &self.sockets {
            // lint:allow(discarded-result): teardown — a socket that fails to shut down is already torn, and its reader joins below either way
            let _ = socket.shutdown(SockShutdown::Both);
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        WireCounters {
            failed_sends_by_peer: self
                .trackers
                .iter()
                .filter(|t| t.count() > 0)
                .map(|t| (t.peer.clone(), t.count()))
                .collect(),
            frames_sent: self.trackers.iter().map(|t| load(&t.frames)).sum(),
            frame_writes: self.trackers.iter().map(|t| load(&t.writes)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wedge_core::conformance;
    use wedge_core::fault::FaultPlan;
    use wedge_crypto::IdentityId;
    use wedge_log::BlockId;
    use wedge_lsmerkle::LsmConfig;

    /// A connected loopback socket pair.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn coalesced_writes_decode_to_same_sequence() {
        // N messages queued in one wakeup must cross the wire in one
        // write and decode to exactly the sequence one-frame-per-write
        // would have produced.
        let (writer, mut reader) = socket_pair();
        let msgs = vec![
            WireMsg::Get { req_id: 7, key: 42 },
            WireMsg::LogRead { bid: BlockId(3) },
            WireMsg::MergeReqResend { edge: IdentityId(9), source_level: 1, epoch: 5 },
            WireMsg::Get { req_id: 8, key: 43 },
        ];
        let mut conn = Conn::new(Some(writer), SendTracker::new("test→peer".into()));
        for msg in &msgs {
            conn.queue(msg.clone());
        }
        conn.flush();
        assert_eq!(conn.tracker.frames.load(Ordering::Relaxed), msgs.len() as u64);
        assert_eq!(conn.tracker.writes.load(Ordering::Relaxed), 1, "one syscall for the batch");
        assert_eq!(conn.tracker.count(), 0);
        // Half-close so the reader sees EOF after the batch.
        conn.stream.as_ref().expect("connected").shutdown(SockShutdown::Write).expect("half-close");
        let mut decoded = Vec::new();
        let mut payload = Vec::new();
        while let Some(kind) = read_frame_into(&mut reader, &mut payload).expect("read") {
            decoded.push(WireMsg::decode_payload(kind, &payload).expect("decode"));
        }
        assert_eq!(decoded, msgs, "coalesced frames decode to the same message sequence");
    }

    #[test]
    fn flush_on_torn_connection_counts_the_whole_batch() {
        let (writer, reader) = socket_pair();
        drop(reader);
        let _ = writer.shutdown(SockShutdown::Both);
        let mut conn = Conn::new(Some(writer), SendTracker::new("test→gone".into()));
        for key in 0..3u64 {
            conn.queue(WireMsg::Get { req_id: key, key });
        }
        conn.flush();
        assert_eq!(conn.tracker.count(), 3, "every frame in the lost batch is counted");
        assert_eq!(conn.tracker.frames.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn unconnected_link_counts_every_frame_as_lost() {
        // What a node holds for a peer whose connection never came up.
        let mut conn = Conn::new(None, SendTracker::new("test→nobody".into()));
        conn.queue(WireMsg::Get { req_id: 1, key: 1 });
        conn.queue(WireMsg::Get { req_id: 2, key: 2 });
        conn.flush();
        assert_eq!(conn.tracker.count(), 2);
        assert_eq!(conn.tracker.writes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn hello_on_torn_connection_is_a_typed_error_not_a_panic() {
        let (mut writer, reader) = socket_pair();
        drop(reader);
        let _ = writer.shutdown(SockShutdown::Both);
        match send_hello(&mut writer, ROLE_EDGE, 0) {
            Err(HandshakeError::Io(_)) => {}
            other => panic!("expected an io handshake error, got {other:?}"),
        }
    }

    #[test]
    fn hello_read_on_closed_peer_is_a_typed_error() {
        let (writer, mut reader) = socket_pair();
        drop(writer); // peer closes without sending a hello
        match read_hello(&mut reader) {
            Err(HandshakeError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn hello_with_wrong_first_frame_is_a_typed_error() {
        let (mut writer, mut reader) = socket_pair();
        write_frame(&mut writer, 1, b"not a hello").expect("write");
        match read_hello(&mut reader) {
            Err(HandshakeError::BadHello(_)) => {}
            other => panic!("expected BadHello, got {other:?}"),
        }
    }

    #[test]
    fn net_put_get_roundtrip_over_tcp() {
        conformance::put_get_roundtrip::<Tcp>();
    }

    #[test]
    fn net_merges_preserve_data_over_tcp() {
        conformance::merges_preserve_data::<Tcp>();
    }

    #[test]
    fn net_with_injected_latency() {
        conformance::phase1_skips_the_cloud_hop::<Tcp>();
    }

    #[test]
    fn net_cloud_hop_delays_but_does_not_serve() {
        conformance::cloud_hop_delays_but_does_not_serve::<Tcp>();
    }

    #[test]
    fn net_merge_replies_are_delta_encoded_over_tcp() {
        // Sequential keys: every L0→L1 merge extends the target level
        // on the right, so the pages to its left come back from the
        // cloud as references into the request the edge just sent —
        // and L1→L2 moves into an empty level reuse the source pages
        // outright. All of it crosses real sockets as `MergeResDelta`
        // frames and resolves against the edge's in-flight request.
        let cluster = NetCluster::start(NetConfig { batch_size: 1, ..NetConfig::default() });
        let mut last = None;
        for k in 0..40u64 {
            last = cluster.put(k, vec![k as u8; 64]);
        }
        if let Some(reply) = last {
            let _ = reply.certified.recv_timeout(Duration::from_secs(5));
        }
        for k in 0..40u64 {
            let read = cluster.get(k).unwrap();
            assert_eq!(read.value, Some(vec![k as u8; 64]), "key {k}");
        }
        let report = cluster.shutdown().expect("report");
        assert!(report.cloud_stats.merges_processed > 0, "merges ran");
        assert!(
            report.cloud_stats.merge_reply_pages_reused > 0,
            "replies shipped references for unchanged pages (full {}, reused {})",
            report.cloud_stats.merge_reply_pages_full,
            report.cloud_stats.merge_reply_pages_reused
        );
        assert!(report.cloud_stats.merge_reply_bytes_saved > 0, "delta shrank the replies");
        assert_eq!(report.edges[0].edge_stats.merge_deltas_unresolved, 0, "every delta resolved");
        assert_eq!(
            report.failed_sends, 0,
            "no frame may be dropped: {:?}",
            report.failed_sends_by_peer
        );
    }

    #[test]
    fn net_oversized_full_request_merges_as_small_delta_over_tcp() {
        // 70 sequential keys with 256 KiB values and one-record pages:
        // by the last L0→L1 merge the target level holds ~67 pages
        // (~17 MiB), so a *full* merge request re-shipping it would
        // blow the 16 MiB frame cap — `write_frame` would refuse the
        // frame, `failed_sends` would count it, and the merge would
        // wedge. Delta-encoded requests reference the retained run in
        // 5 bytes per page, so every merge crosses the socket small.
        let cluster = NetCluster::start(NetConfig {
            lsm: LsmConfig { level_thresholds: vec![2, 1000], page_capacity: 1 },
            batch_size: 1,
            ..NetConfig::default()
        });
        let mut last = None;
        for k in 0..70u64 {
            last = cluster.put(k, vec![k as u8; 256 * 1024]);
        }
        if let Some(reply) = last {
            let _ = reply.certified.recv_timeout(Duration::from_secs(30));
        }
        for k in (0..70u64).step_by(13) {
            let read = cluster.get(k).unwrap();
            assert_eq!(read.value, Some(vec![k as u8; 256 * 1024]), "key {k}");
        }
        let report = cluster.shutdown().expect("report");
        let stats = &report.cloud_stats;
        assert!(stats.merges_processed > 0, "merges ran over the wire");
        assert!(
            stats.merge_req_pages_reused > stats.merge_req_pages_full,
            "requests mostly reference retained pages (full {}, reused {})",
            stats.merge_req_pages_full,
            stats.merge_req_pages_reused
        );
        // The last merge alone re-ships a >16 MiB target as references:
        // its saving exceeds an entire frame cap.
        assert!(
            stats.merge_req_bytes_saved > MAX_FRAME_PAYLOAD as u64,
            "request dedup saved more than one whole frame cap (saved {})",
            stats.merge_req_bytes_saved
        );
        assert_eq!(stats.merge_req_nacks, 0, "warm retention: no resend nacks");
        assert_eq!(report.edges[0].edge_stats.merge_req_resends, 0);
        assert_eq!(report.edges[0].edge_stats.merge_deltas_unresolved, 0);
        assert_eq!(
            report.failed_sends, 0,
            "no frame was ever refused: {:?}",
            report.failed_sends_by_peer
        );
    }

    #[test]
    fn net_repeated_gets_hash_each_level_page_once() {
        // Every get decodes its level pages off the socket as fresh
        // pages with no digest memo. The shared proof cache remembers
        // each verified one, so once the tree holds still, repeated
        // gets of one key hash no level page again.
        let cluster = NetCluster::start(NetConfig { batch_size: 1, ..NetConfig::default() });
        let mut last = None;
        for k in 0..20u64 {
            last = cluster.put(k, vec![k as u8; 32]);
        }
        if let Some(reply) = last {
            let _ = reply.certified.recv_timeout(Duration::from_secs(5));
        }
        // A merge may land after the last certification and bring new
        // pages, so read until the count holds for `STILL` gets in a row.
        const STILL: usize = 20;
        let cache = cluster.proof_cache();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut hashes = cache.level_page_hashes();
        let mut still = 0;
        while still < STILL && std::time::Instant::now() < deadline {
            assert_eq!(cluster.get(0).unwrap().value, Some(vec![0; 32]));
            let now = cache.level_page_hashes();
            still = if now == hashes { still + 1 } else { 0 };
            hashes = now;
        }
        assert!(hashes > 0, "the get shipped no level witness");
        assert_eq!(still, STILL, "repeated gets kept hashing level pages ({hashes} so far)");
        assert!(cluster.shutdown().is_some());
    }

    #[test]
    fn net_n_edges_partition_data() {
        conformance::n_edges_partition_data::<Tcp>();
    }

    #[test]
    fn net_gossip_and_dispute_over_tcp() {
        // A withholding edge is convicted purely by the client
        // engine's dispute deadline, with the dispute and verdict
        // crossing real sockets.
        let cluster = NetCluster::start(NetConfig {
            batch_size: 1,
            faults: vec![FaultPlan::withhold_on(1)],
            gossip_period: Some(Duration::from_millis(20)),
            dispute_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        });
        let r0 = cluster.put(0, b"a".to_vec()).unwrap();
        let _ = r0.certified.recv_timeout(Duration::from_secs(5)).unwrap();
        let _withheld = cluster.put(1, b"b".to_vec()).unwrap();
        // Dispute deadline (200 ms) + verdict round trip.
        std::thread::sleep(Duration::from_millis(600));
        let report = cluster.shutdown().expect("report");
        assert_eq!(report.punished, vec![report.edges[0].edge], "withholder convicted over TCP");
        assert_eq!(report.edges[0].client_metrics.disputes_filed, 1);
        assert_eq!(report.edges[0].client_metrics.disputes_upheld, 1);
        assert!(report.cloud_stats.gossip_rounds >= 1, "gossip flowed over TCP");
    }

    #[test]
    fn net_pipelined_puts_complete() {
        // Four pipelined writers keep frames queued per peer, so the
        // writer must pack several into one write, and lose none.
        let report = conformance::pipelined_writers_lose_nothing::<Tcp>();
        assert!(report.coalesced_frames > 0, "no frames coalesced under pipelined load");
        assert_eq!(
            report.failed_sends, 0,
            "frames dropped under pipelined load: {:?}",
            report.failed_sends_by_peer
        );
    }

    #[test]
    fn net_backpressure_sheds_gossip_but_defers_proofs() {
        conformance::backpressure_sheds_gossip_but_defers_proofs::<Tcp>();
    }

    #[test]
    fn net_admission_sheds_puts_instead_of_blocking() {
        conformance::admission_sheds_puts_instead_of_blocking::<Tcp>();
    }

    #[test]
    fn net_audit_convicts_a_wrong_read_over_tcp() {
        conformance::audit_convicts_a_wrong_read::<Tcp>();
    }
}
