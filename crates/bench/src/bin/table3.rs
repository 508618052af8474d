//! Regenerates **Table 3** (Appendix A.4): memory, estimated runtime and
//! collective counts for manual, mixed and fully automatic schedules on
//! a 32-device (8×4) mesh.
//!
//! Run with: `cargo run --release -p partir-bench --bin table3 [--json]`

use partir_bench::{emit, paper};

fn main() {
    emit(&paper::table3(&mut paper::Cells::default()));
}
