//! Static SPMD legality and resource analysis for PartIR-rs.
//!
//! The paper's workflow leans on *incremental feedback*: after every
//! tactic the user sees what the partitioner did and what it will cost.
//! This crate adds the static half of that feedback loop — analyses that
//! prove properties of partitioned and lowered programs without running
//! them:
//!
//! * [`dataflow`] — a small lattice-based framework (a forward fixpoint
//!   with precise `for`-region feedback) layout tracking is built on;
//! * [`collective`] — structural rules for the collectives of a lowered
//!   program (unknown, repeated and size-1 axes, zero-trip loops,
//!   identity all-to-alls);
//! * [`sharding`] — consistency of `partir_core` propagation results
//!   (illegal tile entries, unresolved conflicts, implied reshards);
//! * [`layout`] — forward layout tracking through lowered programs
//!   (dropped axes, double slicing, redundant gather/slice round trips);
//! * [`cost`] — the cost model's formulas (roofline, FLOPs, ring
//!   collective stages, OOM penalty), stated once for the simulator,
//!   the static objective and the traffic predictor;
//! * [`memory`] — the one peak-memory walk, and the static bound on it
//!   guaranteed to dominate `partir_sim`'s simulated peak;
//! * [`plan`] — translation validation of *compiled execution plans*:
//!   a happens-before race detector over arena-slot effects and the
//!   cross-device rendezvous-deadlock verifier for the overlap
//!   scheduler's output ([`plan::verify_plan`]), the one static
//!   deadlock check;
//! * [`objective`] — a static search objective: communication and
//!   compute costs read straight off a propagated `Partitioning`
//!   (no lowering, no simulation), plus action equivalence classes
//!   keyed by propagated fingerprints;
//! * [`lint`] — aggregation of all of the above into the structured
//!   [`Diagnostic`] stream the `partir-lint` binary prints.
//!
//! `partir-sched` uses [`sharding::is_legal`] to reject illegal search
//! candidates before paying for lowering and simulation, and
//! `partir-spmd` / `partir-sim` re-assert the collective and memory
//! contracts in debug builds.
//!
//! # Examples
//!
//! ```
//! use partir_analysis::{diag::Severity, lint};
//! use partir_core::Partitioning;
//! use partir_ir::{FuncBuilder, TensorType};
//! use partir_mesh::Mesh;
//!
//! let mut b = FuncBuilder::new("main");
//! let x = b.param("x", TensorType::f32([8, 4]));
//! let w = b.param("w", TensorType::f32([4, 4]));
//! let y = b.matmul(x, w)?;
//! let f = b.build([y])?;
//!
//! let mesh = Mesh::new([("B", 2), ("M", 2)]).unwrap();
//! let mut part = Partitioning::new(&f, mesh)?;
//! part.tile(&f, x, 0, &"B".into())?;
//! part.propagate(&f);
//!
//! let diags = lint::lint_partitioning(&f, &part);
//! assert!(diags.iter().all(|d| d.severity < Severity::Error));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod collective;
pub mod cost;
pub mod dataflow;
pub mod diag;
pub mod layout;
pub mod lint;
pub mod memory;
pub mod objective;
pub mod plan;
pub mod sharding;

pub use diag::{error_count, max_severity, Diagnostic, Severity};
pub use memory::{static_peak_bound, PeakWalk};
pub use objective::{equivalence_classes, static_cost, StaticCost, StaticObjective, TileCandidate};
pub use plan::{verify_plan, PlanView};
pub use sharding::is_legal;
