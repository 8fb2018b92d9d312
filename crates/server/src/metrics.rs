//! Metric names this crate emits, and their registration.
//!
//! Names follow the workspace `crate.module.op` convention; the full
//! catalogue lives in `docs/OBSERVABILITY.md`.

hpm_obs::catalog! {
    #![extends(hpm_objectstore::metrics::register)]

    /// Latency span around one request frame: decode, execute against the
    /// store, encode the response (the socket write excluded).
    span REQUEST_SPAN = "server.request";

    /// Connections accepted over the server's lifetime.
    counter CONNECTIONS = "server.connections";
    /// Connections currently open (gauge).
    gauge OPEN_CONNECTIONS = "server.connections.open";
    /// Request frames decoded and executed (malformed frames excluded).
    counter REQUESTS = "server.requests";
    /// Frames answered with [`ResponseBody::Malformed`]: bad checksums,
    /// oversized lengths, undecodable payloads.
    ///
    /// [`ResponseBody::Malformed`]: crate::proto::ResponseBody::Malformed
    counter MALFORMED = "server.malformed";
    /// Connections that ended without a clean end-of-stream at a frame
    /// boundary (peer died mid-frame, transport error, or framing-level
    /// corruption that forced a close).
    counter DIRTY_DISCONNECTS = "server.disconnects.dirty";
    /// Responses that encoded past the server's frame cap and were
    /// replaced by a typed [`ResponseBody::Oversized`] reply.
    ///
    /// [`ResponseBody::Oversized`]: crate::proto::ResponseBody::Oversized
    counter OVERSIZED_RESPONSES = "server.responses.oversized";

    /// Request payload sizes in bytes.
    histogram[Count] REQUEST_BYTES = "server.request_bytes";
    /// Response payload sizes in bytes.
    histogram[Count] RESPONSE_BYTES = "server.response_bytes";
}
