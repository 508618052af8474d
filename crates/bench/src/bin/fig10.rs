//! Regenerates **Figure 10** (Appendix A.5.2): peak-memory estimates
//! versus "measured" memory, per model and schedule. Closer to zero is
//! better. The measured side is what a device's executor holds resident
//! for the cell's compiled plan: arena pools plus loop-carry scratch. It
//! sits above the estimate, so every error is negative; the paper's
//! estimator over-estimates instead.
//!
//! Run with: `cargo run --release -p partir-bench --bin fig10 [--json]`

use partir_bench::{emit, paper};

fn main() {
    emit(&paper::fig10(&mut paper::Cells::default()));
}
