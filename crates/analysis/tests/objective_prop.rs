//! The static objective against the simulator — the contract that lets
//! `StaticSearch`, `CostSource::Static` and `partir_jit`'s reports for
//! every tactic but the last replace simulation:
//!
//! * **field by field** — after every tactic of every Table 2 cell (4×2)
//!   and of the four `compile_zoo` benchmark cells (2×2), the static
//!   estimate has the simulator's five collective counts and wire bytes
//!   exactly, its seconds and flops within 1e-12 relative, and a
//!   peak-memory bound at or above the simulated peak; the same on loop
//!   boundaries where lowering fuses the collectives of two ops;
//! * **rank agreement** across random legal partitionings of the model
//!   zoo on the 1×2 / 2×2 / 4×2 mesh ladder — top-1 agreement (the
//!   candidate the static objective ranks best is one of the simulator's
//!   best) and monotone traffic ordering (whenever the simulator says two
//!   candidates move meaningfully different traffic, the static
//!   objective orders their `comm_bytes` the same way).
//!
//! Plus the mutation check: a deliberately mis-weighted score
//! (communication zeroed out) must *fail* the rank property — proof the
//! property has teeth, not just tolerance.

use std::collections::HashSet;

use partir_analysis::{is_legal, StaticCost, StaticObjective};
use partir_core::Partitioning;
use partir_ir::{Fingerprint, Func, FuncBuilder, TensorType};
use partir_mesh::{Axis, HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig,
    itransformer::{ITransformerConfig, ServingConfig},
    mlp::MlpConfig,
    transformer::TransformerConfig,
    unet::UNetConfig,
};
use partir_prng::{propcheck::check, Rng};
use partir_sched::{Schedule, Tactic};

/// Relative tolerance for "same cost": exact ties (symmetric states) and
/// float noise, nothing more.
const TIE_EPS: f64 = 1e-9;

/// Pairs whose simulated traffic differs by more than this must be
/// ordered identically by the static objective.
const TRAFFIC_EPS: f64 = 0.01;

fn zoo_model(rng: &mut Rng) -> Func {
    if rng.gen_bool(0.5) {
        partir_models::mlp::build_train_step(&MlpConfig::small())
            .expect("mlp")
            .func
    } else {
        partir_models::transformer::build_train_step(&TransformerConfig::tiny())
            .expect("transformer")
            .func
    }
}

fn mesh_ladder(rng: &mut Rng) -> Mesh {
    match rng.gen_range(3) {
        0 => Mesh::new([("batch", 2)]).unwrap(),
        1 => Mesh::new([("batch", 2), ("model", 2)]).unwrap(),
        _ => Mesh::new([("batch", 4), ("model", 2)]).unwrap(),
    }
}

/// Up to `want` distinct legal partitionings reached by 1–3 random tile
/// actions from replicated (replicated itself included).
fn random_legal_states(func: &Func, mesh: &Mesh, rng: &mut Rng, want: usize) -> Vec<Partitioning> {
    let axes: Vec<Axis> = mesh.axes().iter().map(|(a, _)| a.clone()).collect();
    let params = func.params().to_vec();
    let root = Partitioning::new(func, mesh.clone()).expect("state");
    let mut seen = vec![root.fingerprint()];
    let mut states = vec![root.clone()];
    for _ in 0..want * 6 {
        if states.len() >= want {
            break;
        }
        let mut s = root.clone();
        for _ in 0..rng.gen_range_in(1, 3) {
            let v = params[rng.gen_range(params.len())];
            let rank = func.value_type(v).rank();
            if rank == 0 {
                continue;
            }
            let axis = &axes[rng.gen_range(axes.len())];
            let _ = s.tile(func, v, rng.gen_range(rank), axis);
            s.propagate(func);
        }
        let fp = s.fingerprint();
        if seen.contains(&fp) || !is_legal(func, &s) {
            continue;
        }
        seen.push(fp);
        states.push(s);
    }
    states
}

/// One agreement case, ranking candidates by `score`. Returns `Err` on a
/// rank violation — the honest score must never produce one, the
/// mis-weighted score must produce at least one over the run.
fn agreement_case(
    score: impl Fn(&StaticCost, &HardwareConfig) -> f64,
    rng: &mut Rng,
) -> Result<(), String> {
    let func = zoo_model(rng);
    let mesh = mesh_ladder(rng);
    let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
    let states = random_legal_states(&func, &mesh, rng, 5);
    if states.len() < 2 {
        return Ok(());
    }
    let obj = StaticObjective::new(&func);
    let mut static_costs = Vec::with_capacity(states.len());
    let mut sim_costs = Vec::with_capacity(states.len());
    let mut static_bytes = Vec::with_capacity(states.len());
    let mut sim_bytes = Vec::with_capacity(states.len());
    for s in &states {
        let stat = obj.cost(s, &hw).map_err(|e| format!("static cost: {e}"))?;
        let eval = partir_sim::evaluate(&func, s, &hw).map_err(|e| format!("evaluate: {e}"))?;
        let breakdown = eval.cost_breakdown(&hw);
        static_costs.push(score(&stat, &hw));
        sim_costs.push(breakdown.cost);
        static_bytes.push(stat.comm_bytes);
        sim_bytes.push(breakdown.comm_bytes);
    }

    // Top-1 agreement: the static argmin must be sim-optimal (up to
    // exact-tie noise).
    let static_best = (0..states.len())
        .min_by(|&a, &b| static_costs[a].total_cmp(&static_costs[b]))
        .unwrap();
    let sim_min = sim_costs.iter().cloned().fold(f64::INFINITY, f64::min);
    if sim_costs[static_best] > sim_min * (1.0 + TIE_EPS) {
        return Err(format!(
            "top-1 disagreement: static picked candidate {static_best} \
             (sim cost {}), simulator's best is {sim_min}\n\
             static costs: {static_costs:?}\nsim costs: {sim_costs:?}",
            sim_costs[static_best]
        ));
    }

    // Monotone traffic ordering on pairs the simulator can tell apart.
    for i in 0..states.len() {
        for j in (i + 1)..states.len() {
            let (a, b) = (sim_bytes[i], sim_bytes[j]);
            if (a - b).abs() <= TRAFFIC_EPS * a.max(b).max(1.0) {
                continue;
            }
            let sim_says = a < b;
            let static_says = static_bytes[i] < static_bytes[j];
            if sim_says != static_says {
                return Err(format!(
                    "traffic ordering flipped for candidates {i},{j}: \
                     sim bytes ({a}, {b}), static bytes ({}, {})",
                    static_bytes[i], static_bytes[j]
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn static_objective_rank_agrees_with_simulator() {
    check("static/sim rank agreement", 24, |rng| {
        agreement_case(StaticCost::cost, rng)
    });
}

#[test]
fn misweighted_objective_is_caught() {
    // Score without the communication term: a broken calibration. The
    // *same* property over the *same* cases must now detect violations —
    // if it cannot tell a score that ignores communication from the
    // honest one, it gates nothing.
    let comm_blind =
        |c: &StaticCost, hw: &HardwareConfig| StaticCost { comm_s: 0.0, ..*c }.cost(hw);
    let mut violations = 0;
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0xBAD_0B1 ^ (case * 0x9E37_79B9));
        if agreement_case(comm_blind, &mut rng).is_err() {
            violations += 1;
        }
    }
    assert!(
        violations > 0,
        "a comm-blind objective passed all 24 rank-agreement cases — \
         the property has no teeth"
    );
}

/// The static estimate of `part` against `sim::evaluate` of it: the five
/// collective counts and the wire bytes exactly, seconds and flops within
/// 1e-12 relative, the peak memory as a bound.
fn assert_matches_simulator(
    what: &str,
    obj: &StaticObjective,
    func: &Func,
    part: &Partitioning,
    hw: &HardwareConfig,
) {
    let stat = obj
        .cost(part, hw)
        .unwrap_or_else(|e| panic!("{what}: static cost: {e}"));
    let eval = partir_sim::evaluate(func, part, hw).unwrap_or_else(|e| panic!("{what}: {e}"));
    let sim = eval.sim;
    assert_eq!(stat.stats, eval.stats, "{what}: collective counts");
    assert_eq!(stat.comm_bytes, sim.comm_bytes, "{what}: wire bytes");
    let seconds_and_flops = [
        ("compute_s", stat.compute_s, sim.compute_s),
        ("comm_s", stat.comm_s, sim.comm_s),
        ("runtime_s", stat.runtime_s(), sim.runtime_s),
        ("flops", stat.flops, sim.flops),
    ];
    for (field, got, want) in seconds_and_flops {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs(),
            "{what}: {field} {got} vs simulated {want}"
        );
    }
    assert!(
        stat.peak_memory_bytes >= sim.peak_memory_bytes,
        "{what}: peak bound {} below the simulated peak {}",
        stat.peak_memory_bytes,
        sim.peak_memory_bytes
    );
}

/// Applies `schedule` tactic by tactic, as `partir_jit` does, and checks
/// every state not already in `seen`.
fn check_every_tactic(
    cell: &str,
    obj: &StaticObjective,
    func: &Func,
    hw: &HardwareConfig,
    schedule: &Schedule,
    seen: &mut HashSet<Fingerprint>,
) {
    let mut part = Partitioning::new(func, hw.mesh.clone()).expect("state");
    for tactic in schedule.tactics() {
        let Tactic::Manual(m) = tactic else {
            panic!("{cell}: the zoo rows are manual");
        };
        m.apply(func, &mut part)
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        part.propagate(func);
        if seen.insert(part.fingerprint()) {
            let what = format!("{cell} after {}", tactic.name());
            assert_matches_simulator(&what, obj, func, &part, hw);
        }
    }
}

fn row(rows: Vec<(&'static str, Schedule)>, label: &str) -> Schedule {
    let row = rows.into_iter().find(|(l, _)| *l == label);
    row.unwrap_or_else(|| panic!("no schedule row {label}")).1
}

/// Every state `partir_jit` reports on — the state after each tactic — of
/// every Table 2 cell at 4×2 and of the four `compile_zoo` benchmark
/// cells at 2×2.
#[test]
fn static_bytes_equal_simulator_on_table2_cells() {
    let hw = HardwareConfig::tpu_v3_pod(Mesh::new([(BATCH, 4), (MODEL, 2)]).unwrap());
    let cells = [
        (
            "T32",
            partir_models::transformer::build_train_step(&TransformerConfig::t32())
                .expect("T32")
                .func,
            schedules::transformer_table2(),
        ),
        (
            "IT32",
            partir_models::itransformer::build_serving(&ITransformerConfig::it32(4))
                .expect("IT32")
                .func,
            schedules::itransformer_table2(),
        ),
        (
            "UNet",
            partir_models::unet::build_train_step(&UNetConfig::paper())
                .expect("UNet")
                .func,
            schedules::unet_table2(),
        ),
        (
            "GNS",
            partir_models::gns::build_train_step(&GnsConfig::paper())
                .expect("GNS")
                .func,
            schedules::gns_table2(),
        ),
    ];
    let mut rows = 0;
    for (model, func, schedules) in &cells {
        let obj = StaticObjective::new(func);
        // Rows share prefixes (BP, BP+MP, …): each state is checked once.
        let mut seen = HashSet::new();
        for (name, schedule) in schedules {
            check_every_tactic(
                &format!("{model} {name}"),
                &obj,
                func,
                &hw,
                schedule,
                &mut seen,
            );
            rows += 1;
        }
    }
    assert_eq!(rows, 15, "every Table 2 row is a cell");

    let hw = HardwareConfig::tpu_v3_pod(Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap());
    let t = TransformerConfig {
        layers: 4,
        ..TransformerConfig::t32()
    };
    let compile_zoo = [
        (
            "T",
            partir_models::transformer::build_train_step(&t)
                .expect("T")
                .func,
            row(schedules::transformer_table2(), "BP+MP+Z3+EMB"),
        ),
        (
            "UNet",
            partir_models::unet::build_train_step(&UNetConfig::paper())
                .expect("UNet")
                .func,
            row(schedules::unet_table2(), "BP+Z3"),
        ),
        (
            "GNS",
            partir_models::gns::build_train_step(&GnsConfig::paper())
                .expect("GNS")
                .func,
            row(schedules::gns_table2(), "ES"),
        ),
        (
            "IT32-decode",
            partir_models::itransformer::build_decode_step(&ServingConfig::it32())
                .expect("IT32 decode")
                .func,
            row(schedules::itransformer_table2(), "BP+MP+MQ"),
        ),
    ];
    for (model, func, schedule) in &compile_zoo {
        let cell = format!("compile_zoo {model}/{}", schedule.label());
        let obj = StaticObjective::new(func);
        check_every_tactic(&cell, &obj, func, &hw, schedule, &mut HashSet::new());
    }
}

/// Lowering fuses the collectives of two ops when a chain ends in a bare
/// gather or reduce whose value has one use, a pure-slice reshard.
/// Propagation tiles an operand wherever its op slices it, so only a loop
/// boundary it cannot unify gets there: a loop result pinned replicated
/// (`atomic`) while the carried value is tiled. Here the first loop's
/// init and yield are `#sum` results — each reduce meets the boundary's
/// slice and becomes a reduce_scatter, the yield's once per trip — and
/// its gathered result is the second loop's init, where gather and slice
/// cancel. An objective that never fused across ops would count
/// all-reduces, gathers and slices here instead.
#[test]
fn cross_op_fusion_matches_simulator() {
    const TRIPS: usize = 3;
    let mut b = FuncBuilder::new("carried");
    let x = b.param("x", TensorType::f32([8, 16]));
    let w0 = b.param("w0", TensorType::f32([16, 8]));
    let w1 = b.param("w1", TensorType::f32([8, 8]));
    let h = b.matmul(x, w0).unwrap();
    let mut carried = Vec::new();
    let first = b
        .for_loop(TRIPS, &[h], |b, _, c| {
            carried.push(c[0]);
            Ok(vec![b.matmul(c[0], w1)?])
        })
        .unwrap();
    let second = b
        .for_loop(TRIPS, &first, |b, _, c| {
            carried.push(c[0]);
            Ok(vec![b.neg(c[0])?])
        })
        .unwrap();
    let func = b.build(second).unwrap();

    let mesh = Mesh::new([("m", 2)]).unwrap();
    let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
    let m: Axis = "m".into();
    let mut part = Partitioning::new(&func, mesh).unwrap();
    part.atomic(&func, first[0], &m).unwrap();
    for &c in &carried {
        part.tile(&func, c, 1, &m).unwrap();
    }
    part.tile(&func, x, 1, &m).unwrap();
    part.propagate(&func);

    let obj = StaticObjective::new(&func);
    assert_matches_simulator("two carried loops", &obj, &func, &part, &hw);
    let s = obj.cost(&part, &hw).unwrap().stats;
    assert_eq!(
        (s.reduce_scatter, s.all_reduce, s.all_gather, s.all_slice),
        (1 + TRIPS, 0, 1, 0),
        "{s:?}"
    );
}
