//! Regenerates **Figure 7**: relative slowdown versus PartIR (higher is
//! worse) for the U-Net on a `{batch: 8, model: 2}` mesh, comparing
//! PartIR, PartIR-st (all tactics amalgamated into one), GSPMD (expert
//! constraints applied in priority stages) and GSPMD-- (all annotations
//! at once, heuristic conflict resolution).
//!
//! Run with: `cargo run --release -p partir-bench --bin fig7 [--json]`

use partir_bench::{emit, paper};

fn main() {
    emit(&paper::fig7(&mut paper::Cells::default()));
}
