//! Rank agreement between the static objective and the simulator — the
//! contract that lets `StaticSearch` and `CostSource::Static` replace
//! simulation-in-the-loop: across random legal partitionings of the
//! model zoo on the 1×2 / 2×2 / 4×2 mesh ladder,
//!
//! * **top-1 agreement** — the candidate the static objective ranks
//!   best is (one of) the simulator's best;
//! * **monotone traffic ordering** — whenever the simulator says two
//!   candidates move meaningfully different traffic, the static
//!   objective orders their `comm_bytes` the same way.
//!
//! Plus the mutation check: a deliberately mis-weighted objective
//! (communication zeroed out) must *fail* the same property — proof the
//! property has teeth, not just tolerance.
//!
//! Rank agreement tolerates drift; the Table 2 cells pin the two walks
//! exactly: on every paper schedule the static objective's wire bytes
//! equal the simulator's on the lowered, fused program.

use partir_analysis::{is_legal, ObjectiveConfig, StaticObjective};
use partir_core::Partitioning;
use partir_ir::Func;
use partir_mesh::{Axis, HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig, itransformer::ITransformerConfig, mlp::MlpConfig,
    transformer::TransformerConfig, unet::UNetConfig,
};
use partir_prng::{propcheck::check, Rng};
use partir_sched::partir_jit;

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

/// One agreement case under `cfg`. Returns `Err` on a rank violation —
/// the honest configuration must never produce one, the mis-weighted
/// configuration must produce at least one over the run.
fn agreement_case(cfg: ObjectiveConfig, rng: &mut Rng) -> Result<(), String> {
    let func = zoo_model(rng);
    let mesh = mesh_ladder(rng);
    let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
    let states = random_legal_states(&func, &mesh, rng, 5);
    if states.len() < 2 {
        return Ok(());
    }
    let mut static_costs = Vec::with_capacity(states.len());
    let mut sim_costs = Vec::with_capacity(states.len());
    let mut static_bytes = Vec::with_capacity(states.len());
    let mut sim_bytes = Vec::with_capacity(states.len());
    for s in &states {
        let stat = StaticObjective::with_config(&func, cfg)
            .cost(s, &hw)
            .map_err(|e| format!("static cost: {e}"))?;
        let eval = partir_sim::evaluate(&func, s, &hw).map_err(|e| format!("evaluate: {e}"))?;
        let breakdown = eval.cost_breakdown(&hw);
        static_costs.push(stat.cost(&hw));
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
        agreement_case(ObjectiveConfig::default(), rng)
    });
}

#[test]
fn misweighted_objective_is_caught() {
    // Zero the communication term: a broken calibration. The *same*
    // property over the *same* cases must now detect violations — if it
    // cannot tell an objective that ignores communication from the
    // honest one, it gates nothing.
    let broken = ObjectiveConfig { comm_weight: 0.0 };
    let mut violations = 0;
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0xBAD_0B1 ^ (case * 0x9E37_79B9));
        if agreement_case(broken, &mut rng).is_err() {
            violations += 1;
        }
    }
    assert!(
        violations > 0,
        "a comm-blind objective passed all 24 rank-agreement cases — \
         the property has no teeth"
    );
}

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
    let mut checked = 0;
    for (model, func, rows) in &cells {
        let obj = StaticObjective::new(func);
        for (name, schedule) in rows {
            let part = partir_jit(func, &hw, schedule)
                .unwrap_or_else(|e| panic!("{model} {name}: {e}"))
                .partitioning;
            let stat = obj.cost(&part, &hw).expect("static cost");
            let sim = partir_sim::evaluate(func, &part, &hw)
                .expect("evaluate")
                .cost_breakdown(&hw);
            assert_eq!(
                stat.comm_bytes, sim.comm_bytes,
                "{model} {name}: static and simulated wire bytes differ"
            );
            assert!(
                (stat.comm_s - sim.comm_s).abs() <= 1e-12 * sim.comm_s,
                "{model} {name}: comm_s {} vs simulated {}",
                stat.comm_s,
                sim.comm_s
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 15, "every Table 2 row is a cell");
}
