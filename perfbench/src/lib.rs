//! End-to-end and per-layer benchmark of the LTAM wire server.
//!
//! One command runs a workload against a real `ltam-serve` server,
//! hosted in a child process over a fresh or recovered `ltam-store`,
//! checks every answer against an in-process reference engine, and
//! prints its metrics as one JSON line. See `README.md` for the
//! workloads, the metrics and the layer map.

pub mod check;
pub mod inputs;
pub mod report;
pub mod scrape;
pub mod server;
pub mod stats;
pub mod trace;
pub mod workloads;
