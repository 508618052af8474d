//! Schedules and tactics — "a schedule is all you need" (paper §3).
//!
//! A [`Schedule`] is a sequence of [`Tactic`]s. Each tactic issues PartIR
//! compiler actions (`tile`, `atomic`) followed by propagation, and can be
//! [`ManualPartition`] (the user names values and dimensions) or
//! [`AutomaticPartition`] (a Monte-Carlo tree search over tiling actions,
//! guided by the analytical simulator — the paper's Automap-style search).
//! Tactics never undo earlier decisions.
//!
//! [`partir_jit`] plays the role of the paper's `partir.jit`: it applies
//! the schedule, lowers to SPMD, fuses collectives, and returns the
//! program together with per-tactic metadata — collective counts and
//! cost estimates after *every* tactic (read off the partitioning by the
//! static objective until the last tactic, whose program is simulated),
//! the incremental feedback the paper argues makes partitioning
//! predictable and debuggable.
//!
//! # Examples
//!
//! The paper's Listing 6 (BP + MP + Z3 on the matmul chain):
//!
//! ```
//! use partir_ir::{FuncBuilder, TensorType};
//! use partir_mesh::{HardwareConfig, Mesh};
//! use partir_sched::{partir_jit, DimSpec, ManualPartition, Schedule};
//!
//! let mut b = FuncBuilder::new("f");
//! let x = b.param("x", TensorType::f32([256, 8]));
//! let w1 = b.param("w1", TensorType::f32([8, 16]));
//! let w2 = b.param("w2", TensorType::f32([16, 8]));
//! let h = b.matmul(x, w1)?;
//! let y = b.matmul(h, w2)?;
//! let f = b.build([y])?;
//!
//! let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
//! let hw = HardwareConfig::tpu_v3_pod(mesh);
//! let bp = ManualPartition::new("BP", "B").dim("x", 0);
//! let mp = ManualPartition::new("MP", "M").dim("w1", 1);
//! let z3 = ManualPartition::new("Z3", "B").dim("w1", 0).dim("w2", 1);
//! let schedule = Schedule::new([bp.into(), mp.into(), z3.into()]);
//! let jitted = partir_jit(&f, &hw, &schedule)?;
//! assert_eq!(jitted.reports.len(), 3);
//! // Listing 5: two parameter gathers + one Megatron all-reduce.
//! assert_eq!(jitted.program.stats().all_gather, 2);
//! assert_eq!(jitted.program.stats().all_reduce, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod auto;
mod cache;
mod dsl;
mod error;
mod schedule;
mod static_search;
mod tactic;

pub use auto::{AutomaticPartition, MAX_ACTIONS, MAX_BRANCHING};
pub use cache::{CacheStats, EvalCache};
pub use dsl::parse_schedule;
pub use error::SchedError;
pub use schedule::{
    partir_jit, partir_jit_single_tactic, CostSource, Jitted, Schedule, TacticReport,
};
pub use static_search::{StaticSearch, StaticSearchReport, BEAM_WIDTH};
pub use tactic::{DimSpec, ManualPartition, Matcher, Tactic};
