//! A long-lived server joins its finished connection handlers: a
//! thousand requests must not leave a thousand thread stacks mapped.

#![cfg(target_os = "linux")]

use capstan_serve::client;
use capstan_serve::server::{Server, ServerConfig};

/// Lines in this process's memory map (`None` without `/proc`).
fn mapped_regions() -> Option<usize> {
    std::fs::read_to_string("/proc/self/maps")
        .ok()
        .map(|maps| maps.lines().count())
}

#[test]
fn finished_handler_threads_are_reaped() {
    if mapped_regions().is_none() {
        eprintln!("skipped: no /proc/self/maps on this platform");
        return;
    }
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr.to_string();
    // Warm up first, so allocator arenas and the like are already
    // mapped before the baseline is read.
    for _ in 0..50 {
        client::ping(&addr).expect("ping");
    }
    let before = mapped_regions().expect("maps");
    for _ in 0..1000 {
        client::ping(&addr).expect("ping");
    }
    let after = mapped_regions().expect("maps");
    client::shutdown(&addr).expect("shutdown");
    handle.join().expect("server exit");
    assert!(
        after < before + 64,
        "1000 pings grew the memory map from {before} to {after} lines"
    );
}
