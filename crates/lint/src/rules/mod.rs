//! The whole-workspace rule families E1 and W1. Each module exposes
//! `check(...)`, pushing [`Finding`](crate::Finding)s; the per-file and
//! call-graph rules T1–T3 live in [`crate::taint`].

pub mod exhaustive;
pub mod posture;
