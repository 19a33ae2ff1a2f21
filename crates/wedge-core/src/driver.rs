//! The runtime skeleton every real-time transport shares.
//!
//! A WedgeChain runtime is the three sans-IO engines plus some way to
//! move [`WireMsg`]s between them. Everything except that last part
//! lives here, written once:
//!
//! - [`RuntimeConfig`], and how it configures the engines that
//!   [`crate::deployment`] builds for the simulator too (real crypto,
//!   deployment seed 0, one worker pool, the pipeline depth and one
//!   process-wide read-proof cache). No real-time run arms the edge's
//!   retry or compaction clocks or the client's freshness check, so
//!   the runtimes leave them off; a test arms a retry clock on the
//!   engine itself (`EdgeEngine::set_cert_retry_ns`,
//!   `EdgeEngine::set_merge_retry_ns`);
//! - [`Cluster`], generic over a [`Transport`]: the caller API
//!   (`put_on`, `try_put_on`, `flush_on`, `get_on`, `log_read_on`) and
//!   [`Cluster::shutdown`], which returns one [`RunReport`];
//! - one service body (`serve`) for every role, generic over the
//!   role's [`Engine`] and a [`Link`]. Each wakeup blocks until a
//!   message arrives or the engine's `next_deadline_ns()` passes,
//!   drains up to `DRAIN_BUDGET` more messages without blocking, hands
//!   each to the role's step, `Tick`s when the deadline is due and
//!   flushes every link once — so frames a wakeup queues for one peer
//!   can leave together. Each role (`EdgeService`, `CloudService`,
//!   `ClientService`) states only how its messages become commands and
//!   where its effects go;
//! - the cloud→edge gate (`CloudGate`), the one backpressure policy.
//!
//! **Backpressure.** Cloud and edge inboxes are bounded. Client→edge
//! and edge→cloud deliveries block on a full inbox, which pushes back
//! on the sender (on sockets, through TCP flow control). The cloud
//! never blocks toward an edge: its messages pass the edge's gate,
//! which *sheds* droppable traffic (gossip and freshness refreshes —
//! the next round re-issues them) and *defers* critical traffic
//! (proofs, merge results) to a per-edge flusher thread that delivers
//! it in order once the inbox has room. Both are counted in the
//! report. Client inboxes are unbounded on purpose: they break the
//! client→edge→cloud→client blocking cycle, and their volume is
//! bounded by each client's own pipeline.
//!
//! A transport supplies only [`Transport::connect`] — a two-way
//! connection whose arriving messages enter the receiving node's
//! [`Inlet`] — and [`Transport::close`]. The threaded runtime's
//! transport hands each sender the receiver's inlet itself; `wedge-net`
//! puts a loopback socket and a reader thread at each end.

use crate::config::CryptoMode;
use crate::cost::CostModel;
use crate::deployment::{EngineConfig, Engines, Identities};
use crate::engine::{
    ClientCommand, ClientEffect, ClientEngine, ClientEvent, ClientPlan, CloudCommand, CloudEffect,
    CloudEngine, CloudStats, EdgeCommand, EdgeEffect, EdgeEngine, EdgeStats, Engine, GetOutcome,
};
use crate::fault::FaultPlan;
use crate::messages::{AddReceipt, DisputeVerdict, WireMsg};
use crate::metrics::ClientMetrics;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wedge_crypto::{Digest, IdentityId, KeyRegistry};
use wedge_log::{BlockId, BlockProof};
use wedge_lsmerkle::{CompactionStats, LsmConfig, ProofError, ReadProofCache};

/// Configuration for a [`Cluster`], whatever its transport.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// LSMerkle shape.
    pub lsm: LsmConfig,
    /// Number of edge partitions (each with an edge node, a client
    /// node and a caller-side batcher).
    pub num_edges: usize,
    /// Operations per sealed block (caller-side batching).
    pub batch_size: usize,
    /// Injected latency per message the cloud receives, paid before
    /// the cloud handles it.
    pub cloud_hop_latency: Duration,
    /// Injected processing latency per cloud→edge message at the edge
    /// (slows the edge's drain rate; used to exercise backpressure).
    pub edge_apply_latency: Duration,
    /// Scripted `sealed_at_ns` per edge, in seal order. When present,
    /// edge `p`'s block `i` seals at `seal_times[p][i]` instead of the
    /// wall clock — this makes block digests reproducible and
    /// comparable across runtimes (the differential tests replay the
    /// simulator's seal times here). Falls back to the wall clock when
    /// exhausted.
    pub seal_times: Option<Vec<Vec<u64>>>,
    /// Scripted misbehaviour per edge (missing entries are honest).
    pub faults: Vec<FaultPlan>,
    /// Cloud gossip cadence; `None` disables gossip. Engine-owned: the
    /// cloud service only turns the deadline into a receive timeout.
    pub gossip_period: Option<Duration>,
    /// How long a client waits for Phase II before disputing.
    /// Engine-owned, like gossip.
    pub dispute_timeout: Duration,
    /// How many put batches each client keeps in flight (≥ 1).
    /// Receipts correlate by `req_id`, so deeper pipelines overlap
    /// Phase-I round trips.
    pub pipeline_depth: usize,
    /// Capacity of each edge service's inbox (bounds cloud→edge too).
    pub edge_inbox_cap: usize,
    /// Per-caller admission control for [`Cluster::try_put_on`]: how
    /// long a caller waits for Phase I before the put is *shed*
    /// (counted in [`RunReport::puts_shed`]) instead of blocking
    /// forever behind a full edge inbox. `None` keeps the blocking
    /// behaviour for `try_put_on` too.
    pub admission_timeout: Option<Duration>,
    /// Width of the cluster's one worker pool for the hash/sign/verify
    /// hot paths (cloud merge rebuilds, edge forest rebuilds, batched
    /// client signing and signature checks). Defaults to
    /// `WEDGE_POOL_THREADS`, else the host's available parallelism
    /// (1 = inline). Results are byte-identical for every width.
    pub pool_threads: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            lsm: LsmConfig::exposition(),
            num_edges: 1,
            batch_size: 4,
            cloud_hop_latency: Duration::ZERO,
            edge_apply_latency: Duration::ZERO,
            seal_times: None,
            faults: Vec::new(),
            gossip_period: None,
            dispute_timeout: Duration::from_secs(30),
            pipeline_depth: 1,
            edge_inbox_cap: 1024,
            admission_timeout: None,
            pool_threads: wedge_pool::threads_from_env(),
        }
    }
}

/// The edge engine's single client peer handle.
const CLIENT_PEER: u8 = 0;

/// Capacity of the cloud service's inbox.
const CLOUD_INBOX_CAP: usize = 1024;

/// How many extra inbox messages a service drains (non-blocking)
/// after each blocking receive, before ticking and flushing its links.
/// The greedy drain is what lets frames for the same peer coalesce;
/// the budget bounds how long queued responses wait for the wire.
const DRAIN_BUDGET: usize = 32;

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Nanoseconds since the runtime's epoch (its wall-clock zero).
fn elapsed_ns(epoch: Instant) -> u64 {
    nanos(epoch.elapsed())
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// A batch of caller-submitted KV puts, pre-signing (sequence numbers
/// are assigned by the client engine, on its service thread).
pub type PutOps = Vec<(u64, Vec<u8>)>;

/// Reply to a driver-level put: the Phase-I receipt plus a channel
/// that later yields the Phase-II proof.
pub struct PutReply {
    /// The edge's signed Phase-I promise.
    pub receipt: AddReceipt,
    /// Resolves once the cloud certifies the block (never, if the
    /// edge withholds certification — that is what disputes are for).
    pub certified: Receiver<BlockProof>,
}

/// Why [`Cluster::try_put_on`] shed a put instead of returning its
/// Phase-I reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutShed {
    /// Phase I did not commit within the configured admission timeout.
    /// The batch is *not* cancelled — it may still commit later; the
    /// shed is about never wedging the caller behind a full edge
    /// inbox.
    AdmissionTimeout,
    /// The client service dropped the batch (rejected by the edge, or
    /// the dispute deadline freed the slot, or shutdown).
    Rejected,
}

impl std::fmt::Display for PutShed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PutShed::AdmissionTimeout => write!(f, "put shed: admission timeout"),
            PutShed::Rejected => write!(f, "put shed: batch rejected"),
        }
    }
}

impl std::error::Error for PutShed {}

/// Final per-partition state of a run.
#[derive(Clone, Debug)]
pub struct EdgeRunReport {
    /// The partition's edge identity.
    pub edge: IdentityId,
    /// Per log block, in id order: the block's digest, the proof
    /// digest attached at the edge (if Phase II arrived), and the
    /// digest the cloud's ledger certified (if any).
    pub blocks: Vec<(BlockId, Digest, Option<Digest>, Option<Digest>)>,
    /// Edge-side counters.
    pub edge_stats: EdgeStats,
    /// The partition client's metrics (disputes filed/upheld included).
    pub client_metrics: ClientMetrics,
    /// Contiguously certified prefix length in the cloud's ledger —
    /// the content of the edge's gossip watermark.
    pub certified_len: u64,
    /// The freshest gossip watermark the client holds for this edge.
    pub watermark_len: Option<u64>,
    /// Every dispute verdict the client received, in arrival order.
    pub verdicts: Vec<DisputeVerdict>,
}

/// What a transport counts about its connections. All zero on
/// in-process channels, which never frame or fail a send.
#[derive(Clone, Debug, Default)]
pub struct WireCounters {
    /// Frames lost per connection (non-zero entries only), labelled
    /// `sender→receiver`.
    pub failed_sends_by_peer: Vec<(String, u64)>,
    /// Frames that reached a socket, summed over every connection.
    pub frames_sent: u64,
    /// Write calls that carried those frames.
    pub frame_writes: u64,
}

/// Final state of a run — the same shape from every runtime, which is
/// what the differential tests compare. [`RunReport::from_engines`]
/// reads the protocol outcome; each runtime adds only the counters it
/// alone keeps (the simulator keeps none of them, so they read zero).
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Per-partition state, indexed like `RuntimeConfig::faults`.
    pub edges: Vec<EdgeRunReport>,
    /// Cloud-side counters.
    pub cloud_stats: CloudStats,
    /// Punished edge identities, sorted.
    pub punished: Vec<IdentityId>,
    /// Droppable cloud→edge messages (gossip, freshness refreshes)
    /// shed because an edge inbox was full.
    pub shed_cloud_msgs: u64,
    /// Critical cloud→edge messages (proofs, merge results) deferred
    /// because an edge inbox was full (delivered later).
    pub deferred_cloud_msgs: u64,
    /// Frames the transport refused or failed to send, summed over
    /// every connection. A healthy run is zero — anything else means a
    /// peer silently missed protocol messages (torn connection,
    /// oversized frame).
    pub failed_sends: u64,
    /// Per-connection breakdown of `failed_sends`.
    pub failed_sends_by_peer: Vec<(String, u64)>,
    /// Frames that reached a socket (zero on threads).
    pub frames_sent: u64,
    /// Write calls that carried those frames. Coalescing makes this
    /// ≤ `frames_sent`; the gap is `coalesced_frames`.
    pub frame_writes: u64,
    /// Frames that shared a write with a predecessor queued for the
    /// same peer in the same service wakeup.
    pub coalesced_frames: u64,
    /// Caller puts shed by the admission path (`try_put_on` hit its
    /// admission timeout, or the batch was rejected outright).
    pub puts_shed: u64,
    /// Fold work across every merge the cloud processed (organic
    /// merges and background compaction requests alike).
    pub compaction: CompactionStats,
    /// Witness checks the process-shared read-proof cache answered
    /// without re-derivation, across all clients.
    pub proof_cache_hits: u64,
    /// Witness checks that paid the full re-derivation.
    pub proof_cache_misses: u64,
}

impl RunReport {
    /// Reads a run's protocol outcome from its engines: per partition,
    /// the edge's blocks with the proof it holds and the digest the
    /// cloud certified, the edge's stats, and what the partition's
    /// client measured, holds and was told. Partition `p` is
    /// `partitions[p]`: its edge and the client the report follows.
    /// Every runtime-only counter is zero.
    pub fn from_engines<'a, P, C>(
        cloud: &CloudEngine<P>,
        partitions: impl IntoIterator<Item = (&'a EdgeEngine<C>, &'a ClientEngine)>,
    ) -> RunReport
    where
        P: Copy + Eq + Hash,
        C: Copy + Eq + Hash + 'a,
    {
        let edges = partitions
            .into_iter()
            .map(|(edge, client)| {
                let id = edge.id();
                let blocks = edge.log.iter().map(|sb| {
                    let bid = sb.block.id;
                    let certified = cloud.ledger.lookup(id, bid).copied();
                    (bid, sb.block.digest(), sb.proof.as_ref().map(|pr| pr.digest), certified)
                });
                EdgeRunReport {
                    edge: id,
                    blocks: blocks.collect(),
                    edge_stats: edge.stats.clone(),
                    client_metrics: client.metrics.clone(),
                    certified_len: cloud.ledger.contiguous_len(id),
                    watermark_len: client.watermarks.latest(id).map(|wm| wm.log_len),
                    verdicts: client.verdicts.clone(),
                }
            })
            .collect();
        let mut punished: Vec<IdentityId> = cloud.punished.iter().copied().collect();
        punished.sort_by_key(|id| id.0);
        RunReport {
            edges,
            cloud_stats: cloud.stats.clone(),
            punished,
            compaction: cloud.index.compaction_stats(),
            ..RunReport::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Inboxes, inlets and the transport interface
// ---------------------------------------------------------------------------

// `WireMsg` dwarfs `Shutdown`; inbox values are moved once per hop.
#[allow(clippy::large_enum_variant)]
enum EdgeIn {
    FromClient(WireMsg),
    FromCloud(WireMsg),
    Shutdown,
}

#[allow(clippy::large_enum_variant)]
enum CloudIn {
    /// A protocol message from peer `peer` (edges `0..E`, partition
    /// clients `E..2E`).
    From {
        peer: usize,
        msg: WireMsg,
    },
    Shutdown,
}

#[allow(clippy::large_enum_variant)]
enum ClientIn {
    /// A caller-submitted batch of puts; the reply carries the Phase-I
    /// receipt plus a channel resolving at Phase II.
    PutBatch {
        ops: PutOps,
        reply: SyncSender<PutReply>,
    },
    /// A caller-submitted verified get.
    Get {
        key: u64,
        reply: SyncSender<GetOutcome>,
    },
    /// A caller-submitted log-read audit (fire and forget; verdicts
    /// surface in the report).
    LogRead(BlockId),
    /// A protocol message from the partition's edge or the cloud.
    Wire(WireMsg),
    Shutdown,
}

/// A node of the cluster, as a transport names its connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Node {
    /// The trusted cloud.
    Cloud,
    /// Partition `p`'s edge.
    Edge(usize),
    /// Partition `p`'s client.
    Client(usize),
}

impl std::fmt::Display for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Node::Cloud => write!(f, "cloud"),
            Node::Edge(p) => write!(f, "edge{p}"),
            Node::Client(p) => write!(f, "client{p}"),
        }
    }
}

/// Where a protocol message enters the node it arrives at: that node's
/// inbox, tagged with the sending side.
#[derive(Clone)]
pub struct Inlet(Route);

#[derive(Clone)]
enum Route {
    /// An edge's traffic from its client: blocks on a full inbox.
    Edge(SyncSender<EdgeIn>),
    /// An edge's traffic from the cloud: never blocks (see module docs).
    Gate(Arc<CloudGate>),
    /// The cloud's traffic from peer `peer`: blocks on a full inbox.
    Cloud { tx: SyncSender<CloudIn>, peer: usize },
    /// A client's traffic from its edge or the cloud.
    Client(Sender<ClientIn>),
}

impl Inlet {
    /// Hands one arriving message to its node. `false` once that node
    /// has stopped (its inbox is closed).
    pub fn deliver(&self, msg: WireMsg) -> bool {
        match &self.0 {
            Route::Edge(tx) => tx.send(EdgeIn::FromClient(msg)).is_ok(),
            Route::Gate(gate) => gate.deliver(EdgeIn::FromCloud(msg)),
            Route::Cloud { tx, peer } => tx.send(CloudIn::From { peer: *peer, msg }).is_ok(),
            Route::Client(tx) => tx.send(ClientIn::Wire(msg)).is_ok(),
        }
    }
}

/// The sending half of one directed link between two nodes: queue a
/// message, flush at the end of the service wakeup.
pub trait Link: Send + 'static {
    /// Queues one message for the peer.
    fn queue(&mut self, msg: WireMsg);
    /// Puts everything queued since the last flush on its way.
    fn flush(&mut self);
}

/// In-process link: the receiver's inlet itself. Delivery is
/// immediate, so there is nothing to flush. A closed inlet means the
/// receiving service has exited — shutdown is racing this send — and
/// whatever it would have done with the message is moot.
impl Link for Inlet {
    fn queue(&mut self, msg: WireMsg) {
        self.deliver(msg);
    }

    fn flush(&mut self) {}
}

/// How the nodes of a [`Cluster`] reach each other.
pub trait Transport: Default + Send + Sync + 'static {
    /// The sending half of one directed link.
    type Link: Link;

    /// Opens a two-way connection on which `a` dials `b`. Returns the
    /// link `a` sends to `b` on and the link `b` answers `a` on;
    /// messages arriving at either end enter that end's inlet.
    fn connect(&mut self, a: (Node, Inlet), b: (Node, Inlet)) -> (Self::Link, Self::Link);

    /// Closes every connection once the services have exited, and
    /// reports what crossed them.
    fn close(&mut self) -> WireCounters;
}

/// Spawns a named cluster thread. Every spawn happens in
/// [`Cluster::start`], on the caller's thread, before the run begins.
fn spawn<R: Send + 'static>(name: String, f: impl FnOnce() -> R + Send + 'static) -> JoinHandle<R> {
    // lint:allow(no-panic-path): construction-time spawn on the caller thread — a host that cannot start the cluster's threads cannot run it, so fail fast before the run begins
    std::thread::Builder::new().name(name).spawn(f).expect("spawn cluster thread")
}

// ---------------------------------------------------------------------------
// The cloud→edge gate
// ---------------------------------------------------------------------------

/// True for cloud→edge traffic that may be shed under backpressure:
/// the next gossip round re-issues it.
fn droppable(msg: &EdgeIn) -> bool {
    matches!(msg, EdgeIn::FromCloud(WireMsg::Gossip(_) | WireMsg::GlobalRefresh(_)))
}

/// The never-blocking cloud→edge delivery gate, one per edge: shared
/// by whoever delivers the cloud's messages (the cloud service on
/// threads, the edge's socket reader on TCP — either must keep moving
/// so the cloud never stalls on one edge) and a flusher thread that
/// retries deferred critical messages into the bounded inbox.
struct CloudGate {
    tx: SyncSender<EdgeIn>,
    /// Critical messages awaiting inbox room, FIFO. All delivery of
    /// cloud traffic happens with this lock held, so deferred messages
    /// can never be overtaken by later ones.
    deferred: Mutex<VecDeque<EdgeIn>>,
    wake: Condvar,
    /// Set at shutdown; tells the flusher to drain and stop.
    closed: AtomicBool,
    shed: AtomicU64,
    deferred_count: AtomicU64,
}

impl CloudGate {
    fn new(tx: SyncSender<EdgeIn>) -> Self {
        CloudGate {
            tx,
            deferred: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            closed: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            deferred_count: AtomicU64::new(0),
        }
    }

    /// Tries the inbox directly when nothing is deferred (order
    /// preservation), else sheds or queues. `false` once the edge has
    /// stopped.
    fn deliver(&self, msg: EdgeIn) -> bool {
        // Poison recovery: the gate holds plain data (a deferred
        // queue); a panic elsewhere must not wedge cloud→edge traffic.
        let mut q = self.deferred.lock().unwrap_or_else(PoisonError::into_inner);
        if q.is_empty() {
            match self.tx.try_send(msg) {
                Ok(()) => return true,
                Err(TrySendError::Full(msg)) => self.queue_or_shed(&mut q, msg),
                Err(TrySendError::Disconnected(_)) => return false,
            }
        } else {
            self.queue_or_shed(&mut q, msg);
        }
        drop(q);
        self.wake.notify_one();
        true
    }

    fn queue_or_shed(&self, q: &mut VecDeque<EdgeIn>, msg: EdgeIn) {
        if droppable(&msg) {
            self.shed.fetch_add(1, Ordering::Relaxed);
        } else {
            q.push_back(msg);
            self.deferred_count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The flusher thread: retries deferred messages into the bounded
    /// inbox until delivered, so proofs and merge results survive
    /// overload (delayed, never lost). Holds the lock across each
    /// `try_send` so no newer message can slip ahead of a deferred one.
    fn flush_deferred(&self) {
        const RETRY: Duration = Duration::from_millis(1);
        loop {
            // Poison recovery mirrors `deliver`.
            let mut q = self.deferred.lock().unwrap_or_else(PoisonError::into_inner);
            while q.is_empty() {
                if self.closed.load(Ordering::Acquire) {
                    return;
                }
                q = self
                    .wake
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            let Some(msg) = q.pop_front() else { continue };
            match self.tx.try_send(msg) {
                Ok(()) => {}
                Err(TrySendError::Full(msg)) => {
                    q.push_front(msg);
                    drop(q);
                    std::thread::sleep(RETRY);
                }
                Err(TrySendError::Disconnected(_)) => return,
            }
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.wake.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Service loops
// ---------------------------------------------------------------------------

/// Blocks until a message arrives or the engine's deadline passes,
/// then drains up to [`DRAIN_BUDGET`] more without blocking. `false`
/// once every sender is gone.
fn wake<M>(rx: &Receiver<M>, deadline_ns: Option<u64>, epoch: Instant, batch: &mut Vec<M>) -> bool {
    let first = match deadline_ns {
        Some(d) => match rx.recv_timeout(Duration::from_nanos(d.saturating_sub(elapsed_ns(epoch))))
        {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return false,
        },
        None => match rx.recv() {
            Ok(msg) => Some(msg),
            Err(_) => return false,
        },
    };
    batch.extend(first);
    batch.extend(rx.try_iter().take(DRAIN_BUDGET));
    true
}

/// `Some(now)` once the engine's deadline has passed: time to `Tick`.
fn due(deadline_ns: Option<u64>, epoch: Instant) -> Option<u64> {
    let now_ns = elapsed_ns(epoch);
    deadline_ns.is_some_and(|d| d <= now_ns).then_some(now_ns)
}

/// What one role's service does inside [`serve`]'s shared body: turn
/// an inbox message into engine commands, route the engine's effects,
/// and flush its links.
trait Service {
    /// The engine the service drives.
    type Engine: Engine;
    /// What arrives in the service's inbox.
    type In;

    /// Handles one inbox message, reading the clock itself. `false` on
    /// `Shutdown`.
    fn step(&mut self, engine: &mut Self::Engine, msg: Self::In, epoch: Instant) -> bool;

    /// Routes one effect onto a link (or back to a caller). CPU
    /// accounting has no real-time counterpart.
    fn apply(&mut self, effect: <Self::Engine as Engine>::Effect);

    /// Puts everything the wakeup queued on its way, once per link.
    fn flush(&mut self);

    /// Runs one command through the engine, applying its effects in
    /// order.
    fn run(&mut self, engine: &mut Self::Engine, cmd: <Self::Engine as Engine>::Cmd, now_ns: u64) {
        for effect in engine.handle(cmd, now_ns) {
            self.apply(effect);
        }
    }
}

/// The one service body: wake, step through the batch, `Tick` once the
/// deadline is due (never after `Shutdown`), and flush every link once
/// per wakeup. Returns the engine when the service stops.
fn serve<S: Service>(
    mut engine: S::Engine,
    rx: Receiver<S::In>,
    service: &mut S,
    epoch: Instant,
) -> S::Engine {
    let mut batch = Vec::with_capacity(DRAIN_BUDGET + 1);
    while wake(&rx, engine.next_deadline_ns(), epoch, &mut batch) {
        let running = batch.drain(..).all(|msg| service.step(&mut engine, msg, epoch));
        if let Some(now_ns) = due(engine.next_deadline_ns(), epoch).filter(|_| running) {
            service.run(&mut engine, S::Engine::tick(), now_ns);
        }
        service.flush();
        if !running {
            break;
        }
    }
    engine
}

/// The edge service: cloud-bound effects go to `cloud`, client-bound
/// ones to `client`. Its inbox is bounded.
struct EdgeService<L> {
    cloud: L,
    client: L,
    /// Scripted seal times, consumed one per `BatchAdd`.
    seal_times: VecDeque<u64>,
    /// Paid before each cloud→edge message.
    apply_latency: Duration,
}

impl<L: Link> Service for EdgeService<L> {
    type Engine = EdgeEngine<u8>;
    type In = EdgeIn;

    fn step(&mut self, engine: &mut EdgeEngine<u8>, msg: EdgeIn, epoch: Instant) -> bool {
        let (msg, now_ns) = match msg {
            // Scripted seal times make block digests reproducible.
            EdgeIn::FromClient(msg @ WireMsg::BatchAdd { .. }) => {
                (msg, self.seal_times.pop_front().unwrap_or_else(|| elapsed_ns(epoch)))
            }
            EdgeIn::FromClient(msg) => (msg, elapsed_ns(epoch)),
            EdgeIn::FromCloud(msg) => {
                if !self.apply_latency.is_zero() {
                    std::thread::sleep(self.apply_latency);
                }
                (msg, elapsed_ns(epoch))
            }
            EdgeIn::Shutdown => return false,
        };
        if let Some(cmd) = EdgeCommand::from_wire(CLIENT_PEER, msg) {
            self.run(engine, cmd, now_ns);
        }
        true
    }

    fn apply(&mut self, effect: EdgeEffect<u8>) {
        match effect {
            EdgeEffect::SendCloud { msg, .. } => self.cloud.queue(msg),
            EdgeEffect::Send { msg, .. } => self.client.queue(msg),
            EdgeEffect::UseCpu(_) | EdgeEffect::UseCpuBackground(_) => {}
        }
    }

    fn flush(&mut self) {
        self.cloud.flush();
        self.client.flush();
    }
}

/// The cloud service: `peers[p]` reaches peer `p` (edges `0..E`,
/// clients `E..2E`). Its one inbox is shared and bounded.
struct CloudService<L> {
    peers: Vec<L>,
    /// Injected latency, paid before handling each message.
    hop: Duration,
}

impl<L: Link> Service for CloudService<L> {
    type Engine = CloudEngine<usize>;
    type In = CloudIn;

    fn step(&mut self, engine: &mut CloudEngine<usize>, msg: CloudIn, epoch: Instant) -> bool {
        let CloudIn::From { peer, msg } = msg else { return false };
        if !self.hop.is_zero() {
            std::thread::sleep(self.hop);
        }
        if let Some(cmd) = CloudCommand::from_wire(peer, msg) {
            self.run(engine, cmd, elapsed_ns(epoch));
        }
        true
    }

    fn apply(&mut self, effect: CloudEffect<usize>) {
        match effect {
            CloudEffect::Send { to, msg, .. } => {
                if let Some(link) = self.peers.get_mut(to) {
                    link.queue(msg);
                }
            }
            CloudEffect::UseCpu(_) => {}
        }
    }

    fn flush(&mut self) {
        for link in &mut self.peers {
            link.flush();
        }
    }
}

/// The client service: routes caller requests in and completions back
/// out; wire sends go to `edge` and `cloud`. Dispute deadlines are
/// consumed via `Tick` — the service never decides when a dispute
/// fires.
struct ClientService<L> {
    edge: L,
    cloud: L,
    completions: ClientCompletions,
}

impl<L: Link> Service for ClientService<L> {
    type Engine = ClientEngine;
    type In = ClientIn;

    fn step(&mut self, engine: &mut ClientEngine, msg: ClientIn, epoch: Instant) -> bool {
        let cmd = match msg {
            ClientIn::PutBatch { ops, reply } => {
                self.completions.queued_puts.push_back((ops, reply));
                None
            }
            ClientIn::Get { key, reply } => {
                let token = self.completions.token();
                self.completions.get_waiters.insert(token, reply);
                Some(ClientCommand::Get { token, key })
            }
            ClientIn::LogRead(bid) => Some(ClientCommand::LogRead { bid }),
            ClientIn::Wire(msg) => ClientCommand::from_wire(msg),
            ClientIn::Shutdown => return false,
        };
        let now_ns = elapsed_ns(epoch);
        if let Some(cmd) = cmd {
            self.run(engine, cmd, now_ns);
        }
        // Per message, not per wakeup: a batch queued (or a slot freed)
        // ahead of proofs in the same wakeup must not wait for their
        // verification.
        self.pump_puts(engine, now_ns);
        true
    }

    fn apply(&mut self, effect: ClientEffect) {
        match effect {
            ClientEffect::SendEdge { msg, .. } => self.edge.queue(msg),
            ClientEffect::SendCloud { msg, .. } => self.cloud.queue(msg),
            ClientEffect::Notify(event) => self.completions.notify(event),
            ClientEffect::UseCpu(_) => {}
        }
    }

    fn flush(&mut self) {
        self.edge.flush();
        self.cloud.flush();
    }
}

impl<L: Link> ClientService<L> {
    /// Hands queued batches to the engine while pipeline slots remain
    /// (depth 1 degenerates to strict one-at-a-time submission).
    fn pump_puts(&mut self, engine: &mut ClientEngine, now_ns: u64) {
        while engine.can_accept_batch() {
            let Some((ops, reply)) = self.completions.queued_puts.pop_front() else { break };
            let token = self.completions.token();
            self.completions.put_waiters.insert(token, reply);
            self.run(engine, ClientCommand::PutBatch { token, ops }, now_ns);
        }
    }
}

/// Caller-completion routing around a [`ClientEngine`]: queued batches
/// waiting for pipeline slots, Phase-I/Phase-II/read completion
/// channels.
#[derive(Default)]
struct ClientCompletions {
    next_token: u64,
    /// Caller-submitted batches not yet handed to the engine; drains
    /// eagerly into every free pipeline slot.
    queued_puts: VecDeque<(PutOps, SyncSender<PutReply>)>,
    put_waiters: HashMap<u64, SyncSender<PutReply>>,
    get_waiters: HashMap<u64, SyncSender<GetOutcome>>,
    proof_waiters: HashMap<BlockId, SyncSender<BlockProof>>,
}

impl ClientCompletions {
    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token - 1
    }

    fn notify(&mut self, event: ClientEvent) {
        match event {
            ClientEvent::Phase1 { token, receipt } => {
                if let Some(reply) = self.put_waiters.remove(&token) {
                    // Single-shot: exactly one proof ever rides this
                    // channel, so the rendezvous send cannot block.
                    let (ptx, prx) = sync_channel(1);
                    self.proof_waiters.insert(receipt.bid, ptx);
                    // lint:allow(discarded-result): caller dropped its reply receiver (admission shed or abandoned put); a closed reply channel is the failure signal itself
                    let _ = reply.send(PutReply { receipt, certified: prx });
                }
            }
            ClientEvent::Phase2 { proof } => {
                if let Some(tx) = self.proof_waiters.remove(&proof.bid) {
                    // lint:allow(discarded-result): caller stopped waiting for certification; the proof still lives in the engine's log for audits
                    let _ = tx.send(proof);
                }
            }
            ClientEvent::ReadDone { token, outcome } => {
                if let Some(tx) = self.get_waiters.remove(&token) {
                    // lint:allow(discarded-result): caller abandoned the get; dropping the outcome changes no protocol state
                    let _ = tx.send(outcome);
                }
            }
            ClientEvent::BatchFailed { token } => {
                // Drop the reply sender: the caller observes a closed
                // channel instead of hanging behind a dead batch, and
                // the engine slot is free for the next queued batch.
                self.put_waiters.remove(&token);
            }
            // The engine keeps its verdicts for the report.
            ClientEvent::Verdict(_) | ClientEvent::Halted => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The cluster
// ---------------------------------------------------------------------------

/// A running N-edge + cloud cluster: one service thread per node, one
/// gate flusher per edge, wired by transport `T`.
pub struct Cluster<T: Transport> {
    client_txs: Vec<Sender<ClientIn>>,
    edge_txs: Vec<SyncSender<EdgeIn>>,
    cloud_tx: SyncSender<CloudIn>,
    client_handles: Vec<JoinHandle<ClientEngine>>,
    edge_handles: Vec<JoinHandle<EdgeEngine<u8>>>,
    cloud_handle: Option<JoinHandle<CloudEngine<usize>>>,
    gates: Vec<Arc<CloudGate>>,
    flushers: Vec<JoinHandle<()>>,
    transport: T,
    /// Public registry for caller-side verification.
    pub registry: KeyRegistry,
    /// The cloud's identity id.
    pub cloud_id: IdentityId,
    /// Caller-side batching per partition (ops, not entries: sequence
    /// numbers are assigned by the client engine, on its thread, so
    /// ordering is automatic).
    batcher: PutBatcher,
    admission_timeout: Option<Duration>,
    /// Puts shed by the admission path.
    puts_shed: AtomicU64,
    proof_cache: Arc<ReadProofCache>,
}

impl<T: Transport> Cluster<T> {
    /// Builds the engines, connects the topology through `T` (client p
    /// ↔ edge p ↔ cloud, plus client p ↔ cloud) and spawns every
    /// service and flusher thread.
    pub fn start(cfg: RuntimeConfig) -> Arc<Self> {
        assert!(cfg.num_edges > 0, "need at least one edge");
        assert!(cfg.edge_inbox_cap > 0, "edge inboxes need capacity");
        let n = cfg.num_edges;
        // One client per partition, so the cloud's peers are edges
        // `0..n` then clients `n..2n`, and each edge's one client peer
        // is `CLIENT_PEER`.
        let ids = Identities::derive(n, 1);
        let edge_peers: Vec<usize> = (0..n).collect();
        let engine_cfg = EngineConfig {
            lsm: cfg.lsm.clone(),
            cost: CostModel::default(),
            crypto_mode: CryptoMode::Real,
            faults: cfg.faults.clone(),
            plan: ClientPlan::idle(),
            seed: 0,
            data_free: true,
            gossip_period_ns: cfg.gossip_period.map(nanos),
            dispute_timeout_ns: nanos(cfg.dispute_timeout),
            freshness_window_ns: None,
            compaction_period_ns: None,
        };
        // One pool for the whole cluster, sized to the host: the cloud,
        // every edge and every client scope their fan-outs on it, and a
        // scope that finds it busy runs inline on its own service thread
        // instead of waiting, so engines never serialize on it.
        let pool = wedge_pool::Pool::new(cfg.pool_threads);
        let engines =
            Engines::build(&ids, engine_cfg, &edge_peers, &vec![vec![CLIENT_PEER]; n], &pool);
        // One proof cache for the whole cluster: a witness verified by
        // any partition's client is verified for all of them (the
        // cache's trust rule is content-based, not per-client). Its one
        // lock is held for a lookup or admit, never across a check; with
        // one partition, as in every benchmark workload, one client
        // service thread is its only user.
        let proof_cache = Arc::new(ReadProofCache::default());
        let mut client_engines: Vec<ClientEngine> = engines.clients.into_iter().flatten().collect();
        for engine in &mut client_engines {
            engine.set_pipeline_depth(cfg.pipeline_depth);
            engine.share_proof_cache(Arc::clone(&proof_cache));
        }

        let (cloud_tx, cloud_rx) = sync_channel(CLOUD_INBOX_CAP);
        let (edge_txs, edge_rxs): (Vec<_>, Vec<_>) =
            (0..n).map(|_| sync_channel(cfg.edge_inbox_cap)).unzip();
        // lint:allow(bounded-channels): deliberately unbounded — the client inbox is the one queue that must never block, or the client→edge→cloud→client send cycle deadlocks; inbound volume is bounded by the pipeline depth
        let client_inboxes: Vec<(Sender<ClientIn>, _)> = (0..n).map(|_| channel()).collect();
        let (client_txs, client_rxs): (Vec<_>, Vec<_>) = client_inboxes.into_iter().unzip();
        let gates: Vec<Arc<CloudGate>> =
            edge_txs.iter().map(|tx| Arc::new(CloudGate::new(tx.clone()))).collect();
        let flushers = gates
            .iter()
            .enumerate()
            .map(|(p, gate)| {
                let gate = Arc::clone(gate);
                spawn(format!("wedge-edge{p}-gate"), move || gate.flush_deferred())
            })
            .collect();

        let mut transport = T::default();
        let cloud_inlet = |peer| Inlet(Route::Cloud { tx: cloud_tx.clone(), peer });
        // Indexed by cloud peer: edges `0..n`, then clients `n..2n`.
        let mut cloud_links = Vec::with_capacity(2 * n);
        let mut edge_links = Vec::with_capacity(n);
        for (p, gate) in gates.iter().enumerate() {
            let (up, down) = transport.connect(
                (Node::Edge(p), Inlet(Route::Gate(Arc::clone(gate)))),
                (Node::Cloud, cloud_inlet(p)),
            );
            edge_links.push(up);
            cloud_links.push(down);
        }
        let mut client_links = Vec::with_capacity(n);
        let mut edge_to_client = Vec::with_capacity(n);
        for p in 0..n {
            let client_inlet = || Inlet(Route::Client(client_txs[p].clone()));
            let (to_edge, down) = transport.connect(
                (Node::Client(p), client_inlet()),
                (Node::Edge(p), Inlet(Route::Edge(edge_txs[p].clone()))),
            );
            let (to_cloud, cloud_down) = transport
                .connect((Node::Client(p), client_inlet()), (Node::Cloud, cloud_inlet(n + p)));
            client_links.push((to_edge, to_cloud));
            edge_to_client.push(down);
            cloud_links.push(cloud_down);
        }

        let epoch = Instant::now();
        let hop = cfg.cloud_hop_latency;
        let cloud = engines.cloud;
        let cloud_handle = spawn("wedge-cloud".into(), move || {
            serve(cloud, cloud_rx, &mut CloudService { peers: cloud_links, hop }, epoch)
        });
        let mut edge_handles = Vec::with_capacity(n);
        let edges =
            engines.edges.into_iter().zip(edge_rxs).zip(edge_links.into_iter().zip(edge_to_client));
        for (p, ((engine, rx), (up, down))) in edges.enumerate() {
            let seal_times =
                cfg.seal_times.as_ref().and_then(|s| s.get(p).cloned()).unwrap_or_default().into();
            let mut service = EdgeService {
                cloud: up,
                client: down,
                seal_times,
                apply_latency: cfg.edge_apply_latency,
            };
            edge_handles.push(spawn(format!("wedge-edge{p}"), move || {
                serve(engine, rx, &mut service, epoch)
            }));
        }
        let mut client_handles = Vec::with_capacity(n);
        let clients = client_engines.into_iter().zip(client_rxs).zip(client_links);
        for (p, ((engine, rx), (edge, cloud))) in clients.enumerate() {
            let mut service =
                ClientService { edge, cloud, completions: ClientCompletions::default() };
            client_handles.push(spawn(format!("wedge-client{p}"), move || {
                serve(engine, rx, &mut service, epoch)
            }));
        }

        Arc::new(Cluster {
            client_txs,
            edge_txs,
            cloud_tx,
            client_handles,
            edge_handles,
            cloud_handle: Some(cloud_handle),
            gates,
            flushers,
            transport,
            cloud_id: ids.cloud.id,
            registry: ids.registry,
            batcher: PutBatcher::new(n, cfg.batch_size),
            admission_timeout: cfg.admission_timeout,
            puts_shed: AtomicU64::new(0),
            proof_cache,
        })
    }

    /// Puts a key-value pair through partition `edge`'s client.
    /// Buffers caller-side until a batch is full, then submits the
    /// batch and returns the Phase-I reply. Returns `None` while
    /// buffering, or if the batch was rejected.
    pub fn put_on(&self, edge: usize, key: u64, value: Vec<u8>) -> Option<PutReply> {
        let rx = self.batcher.push(edge, key, value, |ops| self.submit(edge, ops))?;
        rx.recv().ok()
    }

    /// Flushes partition `edge`'s buffered entries as a partial batch.
    pub fn flush_on(&self, edge: usize) -> Option<PutReply> {
        let rx = self.batcher.flush(edge, |ops| self.submit(edge, ops))?;
        rx.recv().ok()
    }

    /// Like [`Cluster::put_on`], but with per-caller admission control:
    /// if the batch's Phase-I reply does not arrive within
    /// `RuntimeConfig::admission_timeout`, the put is *shed* — counted
    /// in [`RunReport::puts_shed`] and surfaced as [`PutShed`] —
    /// instead of blocking the caller indefinitely behind a full edge
    /// inbox. `Ok(None)` means the put is still buffering client-side.
    /// With no timeout configured this is `put_on` with a `Result`
    /// wrapper.
    pub fn try_put_on(
        &self,
        edge: usize,
        key: u64,
        value: Vec<u8>,
    ) -> Result<Option<PutReply>, PutShed> {
        let Some(rx) = self.batcher.push(edge, key, value, |ops| self.submit(edge, ops)) else {
            return Ok(None);
        };
        let reply = match self.admission_timeout {
            // Without a timeout this is still the *fallible* API: a
            // rejected batch (dropped reply sender) is
            // `PutShed::Rejected`.
            None => rx.recv().map_err(|_| PutShed::Rejected),
            Some(timeout) => rx.recv_timeout(timeout).map_err(|err| match err {
                RecvTimeoutError::Timeout => PutShed::AdmissionTimeout,
                RecvTimeoutError::Disconnected => PutShed::Rejected,
            }),
        };
        if reply.is_err() {
            self.puts_shed.fetch_add(1, Ordering::Relaxed);
        }
        reply.map(Some)
    }

    /// Sends one batch to the partition's client service. Called with
    /// the batcher lock held so batches enqueue in submission order;
    /// sequence signing happens on the (single) client thread, so no
    /// ordering hazard remains past this point.
    fn submit(&self, edge: usize, ops: PutOps) -> Receiver<PutReply> {
        // Single-shot reply: exactly one Phase-I reply ever rides the
        // channel, so the rendezvous send cannot block the service.
        let (tx, rx) = sync_channel(1);
        // lint:allow(discarded-result): client service gone = shutdown race; the caller sees the closed reply channel and sheds the put
        let _ = self.client_txs[edge].send(ClientIn::PutBatch { ops, reply: tx });
        rx
    }

    /// Puts on partition 0 (single-edge convenience).
    pub fn put(&self, key: u64, value: Vec<u8>) -> Option<PutReply> {
        self.put_on(0, key, value)
    }

    /// Flushes partition 0 (single-edge convenience).
    pub fn flush(&self) -> Option<PutReply> {
        self.flush_on(0)
    }

    /// Gets a key through partition `edge`'s client, with full
    /// engine-side verification (proof cache included).
    pub fn get_on(&self, edge: usize, key: u64) -> Result<GetOutcome, ProofError> {
        let (tx, rx) = sync_channel(1);
        let outcome = self.client_txs[edge]
            .send(ClientIn::Get { key, reply: tx })
            .ok()
            .and_then(|()| rx.recv().ok())
            // lint:allow(no-panic-path): caller-facing harness API; the client service outlives the cluster handle by construction, and a violated contract must fail fast here, not corrupt a measurement
            .expect("client service replies");
        match outcome.verify_error.clone() {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// Gets on partition 0 (single-edge convenience).
    pub fn get(&self, key: u64) -> Result<GetOutcome, ProofError> {
        self.get_on(0, key)
    }

    /// The read-proof cache every client of the cluster shares. Its
    /// counters are live: a caller may read them mid-run, taking the
    /// cache's lock for as long as one read.
    pub fn proof_cache(&self) -> &ReadProofCache {
        &self.proof_cache
    }

    /// Audits a log block through partition `edge`'s client. Fire and
    /// forget: a lying edge surfaces as a verdict in the report.
    pub fn log_read_on(&self, edge: usize, bid: BlockId) {
        // lint:allow(discarded-result): fire-and-forget audit — a dead client service means shutdown already began and there is nothing left to audit
        let _ = self.client_txs[edge].send(ClientIn::LogRead(bid));
    }

    /// Stops every service, joins its thread, closes the transport and
    /// the gates, and returns the final protocol state. Returns `None`
    /// unless called on the last owner, or if a service panicked.
    pub fn shutdown(mut self: Arc<Self>) -> Option<RunReport> {
        let this = Arc::get_mut(&mut self)?;
        // A closed inbox means its service has already exited, which
        // is the goal: the stop requests below are best-effort.
        for tx in &this.client_txs {
            // lint:allow(discarded-result): best-effort stop, see above
            let _ = tx.send(ClientIn::Shutdown);
        }
        for tx in &this.edge_txs {
            // lint:allow(discarded-result): best-effort stop, see above
            let _ = tx.send(EdgeIn::Shutdown);
        }
        // lint:allow(discarded-result): best-effort stop, see above
        let _ = this.cloud_tx.send(CloudIn::Shutdown);
        let clients: Vec<ClientEngine> =
            this.client_handles.drain(..).map(|h| h.join().ok()).collect::<Option<_>>()?;
        let edges: Vec<EdgeEngine<u8>> =
            this.edge_handles.drain(..).map(|h| h.join().ok()).collect::<Option<_>>()?;
        let cloud = this.cloud_handle.take()?.join().ok()?;
        let wire = this.transport.close();
        for gate in &this.gates {
            gate.close();
        }
        for flusher in this.flushers.drain(..) {
            let _ = flusher.join();
        }

        Some(RunReport {
            shed_cloud_msgs: this.gates.iter().map(|g| g.shed.load(Ordering::Relaxed)).sum(),
            deferred_cloud_msgs: this
                .gates
                .iter()
                .map(|g| g.deferred_count.load(Ordering::Relaxed))
                .sum(),
            failed_sends: wire.failed_sends_by_peer.iter().map(|(_, n)| n).sum(),
            failed_sends_by_peer: wire.failed_sends_by_peer,
            frames_sent: wire.frames_sent,
            frame_writes: wire.frame_writes,
            coalesced_frames: wire.frames_sent.saturating_sub(wire.frame_writes),
            puts_shed: this.puts_shed.load(Ordering::Relaxed),
            proof_cache_hits: this.proof_cache.hits(),
            proof_cache_misses: this.proof_cache.misses(),
            ..RunReport::from_engines(&cloud, edges.iter().zip(&clients))
        })
    }
}

/// Caller-side batching per partition: accumulates puts until a batch
/// fills, then hands the ops to the cluster's submit function and
/// returns the Phase-I reply channel.
struct PutBatcher {
    batchers: Vec<Mutex<PutOps>>,
    batch_size: usize,
}

impl PutBatcher {
    /// One batcher per partition; `batch_size` is clamped to ≥ 1.
    fn new(partitions: usize, batch_size: usize) -> Self {
        PutBatcher {
            batchers: (0..partitions).map(|_| Mutex::new(Vec::new())).collect(),
            batch_size: batch_size.max(1),
        }
    }

    /// Buffers one put; once the batch fills, submits it (under the
    /// batcher lock, so batches enqueue in submission order) and
    /// returns its reply channel. `None` while buffering.
    fn push(
        &self,
        partition: usize,
        key: u64,
        value: Vec<u8>,
        submit: impl FnOnce(PutOps) -> Receiver<PutReply>,
    ) -> Option<Receiver<PutReply>> {
        let mut pending = self.lock(partition);
        pending.push((key, value));
        (pending.len() >= self.batch_size).then(|| submit(std::mem::take(&mut *pending)))
    }

    /// Submits the partition's buffered entries as a partial batch.
    fn flush(
        &self,
        partition: usize,
        submit: impl FnOnce(PutOps) -> Receiver<PutReply>,
    ) -> Option<Receiver<PutReply>> {
        let mut pending = self.lock(partition);
        (!pending.is_empty()).then(|| submit(std::mem::take(&mut *pending)))
    }

    /// Poison recovery: the batcher holds plain data (a Vec of pending
    /// ops); a caller thread that panicked elsewhere must not wedge
    /// every other writer on this partition.
    fn lock(&self, partition: usize) -> std::sync::MutexGuard<'_, PutOps> {
        self.batchers[partition].lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine that is a deadline and a log: a tick clears the
    /// deadline, and every command comes back as its one effect.
    struct Alarm {
        deadline_ns: Option<u64>,
        handled: Vec<Option<u64>>,
    }

    impl Engine for Alarm {
        /// `Some(n)` is message `n`; `None` is the tick.
        type Cmd = Option<u64>;
        type Effect = Option<u64>;

        fn handle(&mut self, cmd: Option<u64>, _now_ns: u64) -> Vec<Option<u64>> {
            if cmd.is_none() {
                self.deadline_ns = None;
            }
            self.handled.push(cmd);
            vec![cmd]
        }

        fn next_deadline_ns(&self) -> Option<u64> {
            self.deadline_ns
        }

        fn tick() -> Option<u64> {
            None
        }
    }

    /// An in-memory link that counts what it is asked to do.
    #[derive(Default)]
    struct CountingLink {
        queued: usize,
        flushes: usize,
    }

    impl Link for CountingLink {
        fn queue(&mut self, _msg: WireMsg) {
            self.queued += 1;
        }

        fn flush(&mut self) {
            self.flushes += 1;
        }
    }

    /// Messages go out on link 0, ticks on link 1; a tick also stops
    /// the service at its next wakeup through its own inbox.
    struct AlarmService {
        links: [CountingLink; 2],
        inbox: Sender<Option<u64>>,
    }

    impl Service for AlarmService {
        type Engine = Alarm;
        /// `None` is `Shutdown`.
        type In = Option<u64>;

        fn step(&mut self, engine: &mut Alarm, msg: Option<u64>, epoch: Instant) -> bool {
            let Some(n) = msg else { return false };
            self.run(engine, Some(n), elapsed_ns(epoch));
            true
        }

        fn apply(&mut self, effect: Option<u64>) {
            let msg = WireMsg::LogRead { bid: BlockId(effect.unwrap_or(0)) };
            self.links[usize::from(effect.is_none())].queue(msg);
            if effect.is_none() {
                self.inbox.send(None).unwrap();
            }
        }

        fn flush(&mut self) {
            self.links.iter_mut().for_each(Link::flush);
        }
    }

    fn serve_alarm(deadline_ns: Option<u64>, inbox: &[Option<u64>]) -> (Alarm, AlarmService) {
        let (tx, rx) = channel();
        for &msg in inbox {
            tx.send(msg).unwrap();
        }
        let mut service = AlarmService { links: Default::default(), inbox: tx };
        let engine = Alarm { deadline_ns, handled: Vec::new() };
        (serve(engine, rx, &mut service, Instant::now()), service)
    }

    #[test]
    fn ticks_once_on_an_empty_inbox_after_the_deadline() {
        // Wakeup 1 times out on the empty inbox and ticks; the tick's
        // `Shutdown` ends wakeup 2.
        let (engine, service) = serve_alarm(Some(0), &[]);
        assert_eq!(engine.handled, vec![None]);
        assert_eq!(service.links.each_ref().map(|l| (l.queued, l.flushes)), [(0, 2), (1, 2)]);
    }

    #[test]
    fn no_tick_after_shutdown_in_the_same_wakeup() {
        // One wakeup drains both messages and the `Shutdown`: the due
        // deadline must not tick, and each link flushes once.
        let (engine, service) = serve_alarm(Some(0), &[Some(1), Some(2), None]);
        assert_eq!(engine.handled, vec![Some(1), Some(2)]);
        assert_eq!(service.links.each_ref().map(|l| (l.queued, l.flushes)), [(2, 1), (0, 1)]);
    }
}
