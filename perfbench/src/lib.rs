//! Layered host-time benchmark of the llmsim simulator.
//!
//! One run replays one seeded workload through the public entry points of
//! `llmsim-cluster`, `llmsim-core` and `llmsim-isa`, checks every
//! repetition's output, and reports either the end-to-end metrics
//! (tracing off) or the per-layer metrics (a traced run that wraps each
//! layer's public trait). All metrics are host time or host memory — the
//! simulator's own speed. Simulated statistics are checked, not reported.
//! See `README.md` for the workloads, metrics and predictions.

pub mod expected;
pub mod host;
pub mod layers;
pub mod run;
pub mod workloads;
