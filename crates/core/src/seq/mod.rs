//! Sequential labeling algorithms (§III of the paper) plus the
//! run-based two-scan and the flood-fill oracle.

pub mod flood;
pub mod run_based;
pub mod two_pass;

pub use flood::{flood_fill_label, flood_fill_label_with};
pub use run_based::run_based;
pub use two_pass::{aremsp, arun, ccllrpc, cclremsp, two_pass_with, ScanStrategy};
