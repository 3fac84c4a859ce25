#![deny(missing_docs)]

//! # capstan-serve
//!
//! Simulation-as-a-service: a content-addressed experiment server over
//! plain threaded TCP (std-only — this workspace builds fully offline,
//! so there is no async runtime and no serialization dependency; the
//! wire protocol is newline-framed text).
//!
//! Capstan's simulated-cycle counts are deterministic and
//! machine-independent — the repo pins them with golden tests and a CI
//! bench gate — which makes experiment results *content-addressable*: a
//! request is fully described by `(experiment, suite scale, memory
//! configuration)`, and any two identical requests must produce
//! byte-identical report text. The server exploits that end to end:
//!
//! * **Content-addressed cache** ([`key`]): every request canonicalizes
//!   to an FNV-1a-64 key over the snapshot-codec encoding of its
//!   experiment name, dataset fingerprint ([`capstan_bench::Suite::fingerprint`])
//!   and memory configuration — the same hashing discipline as the
//!   simulator's checkpoint `config_hash`. A repeated request is served
//!   from the cache without touching a core; concurrent duplicates
//!   coalesce onto one in-flight job.
//! * **In-process jobs** ([`server`]): a fresh request runs on its
//!   connection's handler thread through
//!   `capstan_bench::experiments::run_measured`, the measured run the
//!   CLI makes, with its modes in its own `Suite` and its simulated
//!   cycles in its own tally. A panicking job fails its waiters with a
//!   typed error and leaves the server serving.
//!
//! The `experiments` binary (which lives in this crate so it can be
//! both the first server and the first client) exposes the whole layer
//! as `--serve ADDR` / `--submit ADDR`; [`proto`] documents the wire
//! format and its typed errors, and [`client`] is the blocking client
//! used by `--submit` and the black-box conformance tests.

pub mod cache;
pub mod client;
pub mod key;
pub mod proto;
pub mod server;
