//! # gsi-server — the network front-end
//!
//! Serves `gsi-service` over TCP with a length-prefixed, versioned binary
//! protocol (see `docs/PROTOCOL.md` and the [`frame`] module). The server
//! adds the multi-tenant serving contract the in-process API doesn't
//! need:
//!
//! * **Versioned framing** ([`frame`]) — magic + protocol version + frame
//!   kind + request id + tenant header on every message; malformed input
//!   yields a typed error and a closed connection, never a panic.
//! * **Tenant fair-queueing** ([`tenant`]) — per-tenant bounded lanes
//!   with queue and in-flight quotas, drained in deficit-round-robin
//!   order weighted by pattern size, so one tenant's flood cannot starve
//!   another's trickle.
//! * **Backpressure** — quota and admission-queue rejections answer with
//!   `Busy { retry_after_hint }` frames instead of growing a backlog.
//! * **Streaming** — match tables return in bounded `MatchChunk` frames;
//!   a response is `ResponseHeader`, zero or more chunks, `ResponseDone`.
//! * **Graceful drain** ([`GsiServer::shutdown`]) — stop accepting,
//!   flush every acknowledged query, send a typed goodbye, close. Zero
//!   acknowledged queries are dropped.
//! * **Observability over the wire** — `Metrics` frames reuse
//!   `GsiService::export_metrics` (Prometheus text or JSON); `Health`
//!   reports accept/drain state.
//!
//! [`GsiClient`] is the matching blocking client; the `perfbench`
//! benchmark drives it under closed- and open-loop load.

pub mod client;
pub mod frame;
pub mod server;
pub mod tenant;

/// The normative wire-format specification, compiled from
/// `docs/PROTOCOL.md`. Its embedded conformance block runs as a doc-test
/// (`cargo test --doc -p gsi-server`) that encodes, decodes, and
/// re-encodes one frame of every kind and pins the documented header
/// offsets — the spec cannot silently drift from the codec.
#[doc = include_str!("../../../docs/PROTOCOL.md")]
pub mod protocol_spec {}

pub use client::{
    ClientError, GsiClient, RemoteHealth, RemoteOutcome, RemoteRegistration, RemoteUpdate,
};
pub use frame::{Frame, FrameError, FrameHeader, MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use server::{DrainReport, GsiServer, ServerConfig};
pub use tenant::{EnqueueError, FairQueue, LaneSnapshot, TenantPolicy};
