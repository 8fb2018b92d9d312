//! One thread per connection, counted: 16 idle connections cost the
//! server process exactly 16 threads. Its own test binary, so the
//! process-wide count is not shared with other tests.

#![cfg(target_os = "linux")]

mod common;

use common::{config, spawn_server};
use hpm_objectstore::MovingObjectStore;
use hpm_server::{Client, ServerConfig};
use std::sync::Arc;

/// The `Threads:` line of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

#[test]
fn sixteen_idle_connections_cost_sixteen_threads() {
    let store = Arc::new(MovingObjectStore::new(config()));
    let server = spawn_server(store, ServerConfig::default());
    let before = process_threads();
    let mut clients: Vec<Client> = (0..16)
        .map(|_| Client::connect(server.addr).expect("connect"))
        .collect();
    // A ping answered proves the connection's thread is up and the
    // connection now sits idle in its read.
    for client in &mut clients {
        client.ping().expect("ping");
    }
    assert_eq!(process_threads() - before, 16);
    drop(clients);
    server.stop();
}
