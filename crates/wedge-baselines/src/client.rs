//! The one baseline client: the WedgeChain client's plan policy
//! ([`PlanProgress`]) over either baseline's request path.
//!
//! Both baselines commit a batch only once the cloud has certified it,
//! so an ack is final: Phase I and Phase II coincide. A client keeps
//! one batch in flight, as the WedgeChain client does by default.

use crate::msg::BMsg;
use std::collections::HashMap;
use wedge_core::client::{ClientPlan, PlanProgress, PlanStep};
use wedge_core::cost::CostModel;
use wedge_core::metrics::ClientMetrics;
use wedge_crypto::{IdentityId, KeyRegistry, Signature};
use wedge_log::Entry;
use wedge_lsmerkle::{verify_read_proof, IndexReadProof, KvOp};
use wedge_sim::{Actor, ActorId, Context, SimTime};
use wedge_workload::KeySampler;

/// What sets the two baseline clients apart: the write payload, where
/// a get goes, and whether its answer is checked.
// One route per client, built once: boxing the edge's verification
// inputs would only add an indirection.
#[allow(clippy::large_enum_variant)]
pub enum Route {
    /// Cloud-only: raw ops and gets both go to the trusted cloud, whose
    /// answers need no check.
    Cloud,
    /// Edge-baseline: unsigned entries go to the cloud for synchronous
    /// certification; gets go to the edge, whose read proofs are
    /// verified.
    Edge {
        /// The edge actor serving reads.
        edge: ActorId,
        /// This client's identity, which its entries carry.
        client: IdentityId,
        /// The edge's identity (read proofs are about its tree).
        edge_identity: IdentityId,
        /// The cloud's identity (read proofs carry its certificates).
        cloud_identity: IdentityId,
        /// Keys to verify read proofs with.
        registry: KeyRegistry,
        /// Prices the read-proof check.
        cost: CostModel,
    },
}

impl Route {
    /// Whether a get's answer counts as a good read: the cloud is
    /// trusted; an edge answer must carry a read proof that verifies.
    fn accepts(&self, ctx: &mut Context<'_, BMsg>, proof: Option<&IndexReadProof>) -> bool {
        let Route::Edge { edge_identity, cloud_identity, registry, cost, .. } = self else {
            return true;
        };
        let Some(proof) = proof else { return false };
        ctx.use_cpu(cost.verify_read());
        let now_ns = ctx.now().as_nanos();
        verify_read_proof(proof, *edge_identity, *cloud_identity, registry, now_ns, None).is_ok()
    }
}

/// A Cloud-only or Edge-baseline client, as its [`Route`] says.
pub struct BaselineClient {
    cloud: ActorId,
    route: Route,
    plan: ClientPlan,
    sampler: KeySampler,
    progress: PlanProgress,
    next_req: u64,
    /// Sequence of the next entry (Edge-baseline writes only).
    next_seq: u64,
    outstanding_batch: Option<(u64, SimTime)>,
    outstanding_reads: HashMap<u64, SimTime>,
    /// Measurements.
    pub metrics: ClientMetrics,
}

impl BaselineClient {
    /// Creates a client that writes to `cloud` along `route`.
    pub fn new(cloud: ActorId, route: Route, plan: ClientPlan) -> Self {
        let sampler = KeySampler::new(plan.key_dist.clone(), plan.key_space);
        BaselineClient {
            cloud,
            route,
            plan,
            sampler,
            progress: PlanProgress::default(),
            next_req: 0,
            next_seq: 0,
            outstanding_batch: None,
            outstanding_reads: HashMap::new(),
            metrics: ClientMetrics::default(),
        }
    }

    fn send_batch(&mut self, ctx: &mut Context<'_, BMsg>) {
        let ops: Vec<KvOp> = (0..self.plan.batch_size)
            .map(|_| KvOp::put(self.sampler.sample(ctx.rng()), vec![0xAB; self.plan.value_size]))
            .collect();
        let req_id = self.next_req;
        self.next_req += 1;
        let msg = match &self.route {
            Route::Cloud => BMsg::CoBatch { req_id, ops },
            Route::Edge { client, .. } => {
                // Modeled signatures: the entry CPU cost is in the
                // cloud's processing budget, as with the WedgeChain
                // client.
                let first = self.next_seq;
                self.next_seq += ops.len() as u64;
                let entries = (first..)
                    .zip(&ops)
                    .map(|(sequence, op)| Entry {
                        client: *client,
                        sequence,
                        payload: op.encode(),
                        signature: Signature { e: 0, s: 0 },
                    })
                    .collect();
                BMsg::EbBatch { req_id, entries }
            }
        };
        let sz = msg.wire_size();
        self.outstanding_batch = Some((req_id, ctx.now_with_cpu()));
        ctx.send(self.cloud, msg, sz);
    }

    fn send_read(&mut self, ctx: &mut Context<'_, BMsg>) {
        let key = self.sampler.sample(ctx.rng());
        let req_id = self.next_req;
        self.next_req += 1;
        self.outstanding_reads.insert(req_id, ctx.now_with_cpu());
        let server = match &self.route {
            Route::Cloud => self.cloud,
            Route::Edge { edge, .. } => *edge,
        };
        ctx.send(server, BMsg::Get { req_id, key }, 24);
    }

    /// Advances the workload by one [`PlanProgress`] step, and records
    /// completion.
    fn pump(&mut self, ctx: &mut Context<'_, BMsg>) {
        let batches_in_flight = usize::from(self.outstanding_batch.is_some());
        let step =
            self.progress.next(&self.plan, batches_in_flight, 1, self.outstanding_reads.len());
        match step {
            PlanStep::Batches(n) => (0..n).for_each(|_| self.send_batch(ctx)),
            PlanStep::Reads(n) => (0..n).for_each(|_| self.send_read(ctx)),
            PlanStep::Wait => {}
            PlanStep::Finished => {
                self.metrics.finished_at.get_or_insert(ctx.now());
            }
        }
    }

    fn read_answered(
        &mut self,
        ctx: &mut Context<'_, BMsg>,
        req_id: u64,
        proof: Option<&IndexReadProof>,
    ) {
        let Some(sent) = self.outstanding_reads.remove(&req_id) else { return };
        if self.route.accepts(ctx, proof) {
            self.metrics.read_latency.record(ctx.now().since(sent).as_millis_f64());
            self.metrics.reads_ok += 1;
        } else {
            self.metrics.reads_rejected += 1;
        }
        self.pump(ctx);
    }
}

impl Actor<BMsg> for BaselineClient {
    fn on_message(&mut self, ctx: &mut Context<'_, BMsg>, _from: ActorId, msg: BMsg) {
        match msg {
            BMsg::Start => self.pump(ctx),
            BMsg::BatchAck { req_id } => {
                let Some((_, sent)) = self.outstanding_batch.take_if(|(id, _)| *id == req_id)
                else {
                    return;
                };
                let ms = ctx.now().since(sent).as_millis_f64();
                self.metrics.p1_latency.record(ms);
                self.metrics.p2_latency.record(ms);
                let batches_done = self.progress.batch_done(&self.plan);
                self.metrics.ops_p1 += self.plan.batch_size as u64;
                self.metrics.ops_p2 += self.plan.batch_size as u64;
                self.metrics.p1_timeline.record(ctx.now(), batches_done);
                self.metrics.p2_timeline.record(ctx.now(), batches_done);
                self.pump(ctx);
            }
            BMsg::CoGetResp { req_id, .. } => self.read_answered(ctx, req_id, None),
            BMsg::EbGetResp { req_id, proof } => self.read_answered(ctx, req_id, Some(&proof)),
            _ => {}
        }
    }
}
