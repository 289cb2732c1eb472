//! Paper-scale benchmark of the ParColl simulator: three named
//! workloads measured end to end (host time, CPU, memory, virtual
//! bandwidth) and per layer (one crate at a time, timed from outside).
//! See `README.md` in this directory.

pub mod layers;
pub mod sys;
pub mod workload;
