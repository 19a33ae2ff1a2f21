//! The comparison the differential tests share: two runs of one
//! script, on any two runtimes, must end in the same protocol outcome.

use wedgechain::core::driver::{EdgeRunReport, RunReport};

/// Asserts that `got` ended where `want` did: per edge, the same
/// blocks (digest, the proof the edge holds, the digest the cloud
/// certified), certified prefix, gossip watermark, disputes and
/// verdicts; the same punished set; and the same merges, merge delta
/// split and compaction work at the cloud. A punished edge's watermark is left
/// out: the cloud drops that edge from gossip, so whether its client
/// saw one more round before the verdict is a matter of timing.
pub fn assert_same_outcome(label: &str, got: &RunReport, want: &RunReport) {
    assert_eq!(got.edges.len(), want.edges.len(), "{label}: partition count");
    for (p, (g, w)) in got.edges.iter().zip(&want.edges).enumerate() {
        assert_eq!(g.edge, w.edge, "{label} edge {p}: identity");
        assert_eq!(g.blocks, w.blocks, "{label} edge {p}: blocks/digests/proofs/certs");
        assert_eq!(g.certified_len, w.certified_len, "{label} edge {p}: certified prefix");
        if !want.punished.contains(&w.edge) {
            assert_eq!(g.watermark_len, w.watermark_len, "{label} edge {p}: watermark content");
        }
        let disputes =
            |e: &EdgeRunReport| (e.client_metrics.disputes_filed, e.client_metrics.disputes_upheld);
        assert_eq!(disputes(g), disputes(w), "{label} edge {p}: disputes filed/upheld");
        assert_eq!(g.verdicts, w.verdicts, "{label} edge {p}: verdicts");
    }
    assert_eq!(got.punished, want.punished, "{label}: punished set");
    // Merge replies and requests are delta-encoded identically
    // everywhere: the edge's full-vs-delta choice and the per-page
    // full/reference split are a pure function of the merge sequence,
    // whether a reference resolves through an in-process `Arc` or a
    // decoded wire frame.
    let merges = |r: &RunReport| {
        let s = &r.cloud_stats;
        [
            s.merges_processed,
            s.merge_reply_pages_full,
            s.merge_reply_pages_reused,
            s.merge_reply_bytes_saved,
            s.merge_req_pages_full,
            s.merge_req_pages_reused,
            s.merge_req_bytes_saved,
            s.merge_req_nacks,
        ]
    };
    assert_eq!(merges(got), merges(want), "{label}: merges and their delta split");
    assert_eq!(got.compaction, want.compaction, "{label}: compaction work");
}
