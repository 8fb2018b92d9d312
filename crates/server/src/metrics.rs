//! Metric names this crate emits, and their registration.
//!
//! Names follow the workspace `crate.module.op` convention; the full
//! catalogue lives in `docs/OBSERVABILITY.md`.

/// Latency span around one request frame: decode, execute against the
/// store, encode the response (the socket write excluded).
pub const REQUEST_SPAN: &str = "server.request";

/// Connections accepted over the server's lifetime.
pub const CONNECTIONS: &str = "server.connections";
/// Connections currently open (gauge).
pub const OPEN_CONNECTIONS: &str = "server.connections.open";
/// Request frames decoded and executed (malformed frames excluded).
pub const REQUESTS: &str = "server.requests";
/// Frames answered with [`ResponseBody::Malformed`]: bad checksums,
/// oversized lengths, undecodable payloads.
///
/// [`ResponseBody::Malformed`]: crate::proto::ResponseBody::Malformed
pub const MALFORMED: &str = "server.malformed";
/// Connections that ended without a clean end-of-stream at a frame
/// boundary (peer died mid-frame, transport error, or framing-level
/// corruption that forced a close).
pub const DIRTY_DISCONNECTS: &str = "server.disconnects.dirty";
/// Responses that encoded past the server's frame cap and were
/// replaced by a typed [`ResponseBody::Oversized`] reply.
///
/// [`ResponseBody::Oversized`]: crate::proto::ResponseBody::Oversized
pub const OVERSIZED_RESPONSES: &str = "server.responses.oversized";

/// Request payload sizes in bytes.
pub const REQUEST_BYTES: &str = "server.request_bytes";
/// Response payload sizes in bytes.
pub const RESPONSE_BYTES: &str = "server.response_bytes";

/// Registers every metric above so snapshots cover them even before
/// the first connection (zero-valued metrics are still listed).
pub fn register() {
    hpm_obs::registry().counter(CONNECTIONS);
    hpm_obs::registry().counter(REQUESTS);
    hpm_obs::registry().counter(MALFORMED);
    hpm_obs::registry().counter(DIRTY_DISCONNECTS);
    hpm_obs::registry().counter(OVERSIZED_RESPONSES);
    hpm_obs::registry().gauge(OPEN_CONNECTIONS);
    hpm_obs::registry().histogram(REQUEST_BYTES, hpm_obs::Unit::Count);
    hpm_obs::registry().histogram(RESPONSE_BYTES, hpm_obs::Unit::Count);
    hpm_obs::registry().histogram(REQUEST_SPAN, hpm_obs::Unit::Nanos);
}
