//! PAREMSP — the paper's parallel algorithm (§IV, Algorithm 7) and its
//! supporting machinery.

pub mod paremsp;
pub mod partition;

pub use paremsp::{paremsp, paremsp_with, MergerKind, MergerStore, ParemspConfig, PhaseTimings};
pub use partition::{partition_rows, Chunk};
