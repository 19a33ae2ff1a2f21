//! The Cloud-only baseline: every request is served by the trusted
//! cloud node (§VI: "processes all requests in the cloud node").
//!
//! This module holds the server; its clients are
//! [`BaselineClient`](crate::client::BaselineClient)s on
//! [`Route::Cloud`](crate::client::Route::Cloud). They fully trust
//! results (no verification), but pay the wide-area round trip on
//! *every* operation — which is exactly what Figs 4, 5 and 7 show it
//! losing to WedgeChain on.

use crate::msg::BMsg;
use std::collections::BTreeMap;
use wedge_core::cost::CostModel;
use wedge_sim::{Actor, ActorId, Context, SimDuration};

/// The trusted cloud store: a plain ordered map (no proofs needed).
pub struct CloudOnlyCloud {
    /// The authoritative store.
    pub store: BTreeMap<u64, Vec<u8>>,
    cost: CostModel,
    /// Batches committed.
    pub batches_committed: u64,
    /// Gets served.
    pub gets_served: u64,
}

impl CloudOnlyCloud {
    /// Creates the cloud store.
    pub fn new(cost: CostModel) -> Self {
        CloudOnlyCloud { store: BTreeMap::new(), cost, batches_committed: 0, gets_served: 0 }
    }
}

impl Actor<BMsg> for CloudOnlyCloud {
    fn on_message(&mut self, ctx: &mut Context<'_, BMsg>, from: ActorId, msg: BMsg) {
        match msg {
            BMsg::CoBatch { req_id, ops } => {
                ctx.use_cpu(self.cost.cloud_only_commit(ops.len() as u64));
                for op in ops {
                    match op.value {
                        Some(v) => {
                            self.store.insert(op.key, v);
                        }
                        None => {
                            self.store.remove(&op.key);
                        }
                    }
                }
                self.batches_committed += 1;
                ctx.send(from, BMsg::BatchAck { req_id }, 8);
            }
            BMsg::Get { req_id, key } => {
                // Trusted read: index probe + I/O model only (Fig 5d's
                // 0.5 ms without verification).
                ctx.use_cpu(SimDuration::from_nanos(self.cost.read_base_ns) + self.cost.io_probe());
                self.gets_served += 1;
                let value = self.store.get(&key).cloned();
                let resp = BMsg::CoGetResp { req_id, value };
                let sz = resp.wire_size();
                ctx.send(from, resp, sz);
            }
            _ => {}
        }
    }
}
