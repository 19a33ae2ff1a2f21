//! # wedge-log
//!
//! WedgeChain's logging layer (§III–IV of the paper): client-signed
//! [`entry::Entry`]s are sealed by a [`buffer::BlockBuffer`] into
//! [`block::Block`]s, appended to a [`store::LogStore`], and certified
//! by the cloud through the [`cert`] module's [`cert::BlockProof`] /
//! [`cert::CertLedger`] pair. [`watermark`] provides the signed gossip
//! that bounds omission attacks.
//!
//! The protocol logic that moves these types between nodes lives in
//! `wedge-core`; this crate is the pure data layer and is fully
//! testable without a network.

#![forbid(unsafe_code)]

pub mod block;
pub mod buffer;
pub mod cert;
pub mod enc;
pub mod entry;
pub mod frame;
pub mod store;
pub mod watermark;

pub use block::{Block, BlockId};
pub use buffer::BlockBuffer;
pub use cert::{BlockProof, CertLedger, CertOutcome, CommitPhase};
pub use enc::{DecodeError, Decoder, Encoder, Wire};
pub use entry::Entry;
pub use frame::{
    append_frame_header, decode_frame, read_frame, read_frame_into, write_frame, Frame,
    FRAME_HEADER_LEN, FRAME_MAGIC, FRAME_VERSION, MAX_FRAME_PAYLOAD,
};
pub use store::{LogStore, StoredBlock};
pub use watermark::{GossipWatermark, WatermarkTracker};
