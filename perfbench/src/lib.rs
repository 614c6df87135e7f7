//! End-to-end and per-layer benchmark of Shelley-rs: the editor loop over
//! the daemon, cold checks and warm restarts, and verification-bound
//! checks, with a layer-by-layer replay for the traced run.
//!
//! See `README.md` in this directory for the workloads and metrics.

pub mod bench;
pub mod gen;
pub mod replay;
pub mod trace;
