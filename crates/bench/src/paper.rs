//! The paper's evaluation cells and the rows each experiment reads from
//! them: Table 2, Table 3 (A.4), Figs 6 and 7, and Figs 9 and 10 (A.5).
//!
//! A cell is a (model, schedule, mesh) triple. The four paper models are
//! built once per [`Cells`], every schedule is stated once in
//! [`Model::schedule`], and every cell is jitted once however many
//! experiments read it: Table 3, Fig 6, Fig 9 and Fig 10 all read the
//! same 8×4 cells. The cells Figs 6, 9 and 10 "measure" are also
//! compiled to their device plan, once each. Each experiment is a
//! function from cells to rows;
//! the `table2` … `fig10` bins print one each, and `tests/experiments.rs`
//! pins their `--json` output byte for byte.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use partir_gspmd::{gspmd_partition, heuristic_propagate, GspmdOptions, InputSharding};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig, itransformer::ITransformerConfig, transformer::TransformerConfig,
    unet::UNetConfig, BuiltModel,
};
use partir_sched::{
    partir_jit, partir_jit_single_tactic, AutomaticPartition, Jitted, Schedule, Tactic,
};
use partir_sim::event::measure_overlap;
use partir_sim::{SimConfig, SimReport, Simulator};
use partir_spmd::CompiledPlan;

use crate::{tpu_mesh, Row};

/// A `{batch, model}` mesh shape.
type MeshShape = (usize, usize);

/// Table 2's mesh.
const TABLE2_MESH: MeshShape = (4, 2);
/// The 32-device mesh of Table 3 and Figs 6, 9 and 10.
const POD_MESH: MeshShape = (8, 4);
/// Fig 7's mesh.
const FIG7_MESH: MeshShape = (8, 2);

/// MCTS budget of the automatic tactics (halved where Auto sits between
/// two manual tactics).
const BUDGET: usize = 12;

/// A paper model, at the configuration every experiment here uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Model {
    /// The 32-layer training Transformer.
    T32,
    /// The 32-layer inference Transformer, 4 serving-loop trips (the
    /// paper's configuration implies 1536).
    It32,
    /// The diffusion U-Net.
    UNet,
    /// The Graph Network Simulator.
    Gns,
}

impl Model {
    /// Table 2's model order, which Figs 9 and 10 follow.
    const ALL: [Model; 4] = [Model::T32, Model::It32, Model::UNet, Model::Gns];

    /// The model column of every row.
    fn name(self) -> &'static str {
        match self {
            Model::T32 => "T32",
            Model::It32 => "IT32",
            Model::UNet => "UNet",
            Model::Gns => "GNS",
        }
    }

    fn build(self) -> BuiltModel {
        match self {
            Model::T32 => partir_models::transformer::build_train_step(&TransformerConfig::t32()),
            Model::It32 => partir_models::itransformer::build_serving(&ITransformerConfig::it32(4)),
            Model::UNet => partir_models::unet::build_train_step(&UNetConfig::paper()),
            Model::Gns => partir_models::gns::build_train_step(&GnsConfig::paper()),
        }
        .unwrap_or_else(|e| panic!("{} builds: {e}", self.name()))
    }

    /// Table 2's schedules for this model, in the table's order.
    fn table2(self) -> Vec<(&'static str, Schedule)> {
        match self {
            Model::T32 => schedules::transformer_table2(),
            Model::It32 => schedules::itransformer_table2(),
            Model::UNet => schedules::unet_table2(),
            Model::Gns => schedules::gns_table2(),
        }
    }

    /// The schedule labelled `label`: one of Table 2's, a mixed or
    /// automatic one of Table 3 and Fig 6 (arxiv 2210.06352), or one of
    /// Fig 7's U-Net composites.
    ///
    /// # Panics
    ///
    /// On a label no experiment uses for this model.
    fn schedule(self, label: &str) -> Schedule {
        let auto = |name: &str, axes: &[&str], budget: usize| -> Tactic {
            AutomaticPartition::new(name, axes.iter().copied())
                .with_budget(budget)
                .into()
        };
        match (self, label) {
            (_, "AllAuto") => Schedule::new([auto("AllAuto", &[BATCH, MODEL], BUDGET)]),
            (Model::T32, "BP+AutoMP+Z3") => Schedule::new([
                schedules::t_bp(),
                auto("AutoMP", &[MODEL], BUDGET / 2),
                schedules::t_z3(),
            ]),
            (Model::UNet, "BP+AutoMP") => {
                Schedule::new([schedules::u_bp(), auto("AutoMP", &[MODEL], BUDGET)])
            }
            (Model::UNet, "BP+MP+Z2") => {
                Schedule::new([schedules::u_bp(), schedules::u_mp(), schedules::u_z2()])
            }
            (Model::UNet, "BP+MP+Z3") => {
                Schedule::new([schedules::u_bp(), schedules::u_mp(), schedules::u_z3()])
            }
            (Model::Gns, "ES+AutoMP") => {
                Schedule::new([schedules::g_es(), auto("AutoMP", &[MODEL], BUDGET)])
            }
            (Model::Gns, "ES+AutoBP") => {
                Schedule::new([schedules::g_es(), auto("AutoBP", &[BATCH], BUDGET)])
            }
            _ => self
                .table2()
                .into_iter()
                .find_map(|(l, schedule)| (l == label).then_some(schedule))
                .unwrap_or_else(|| panic!("{} has no schedule {label}", self.name())),
        }
    }
}

/// The paper's models and cells, each built or jitted on first use.
#[derive(Default)]
pub struct Cells {
    models: BTreeMap<Model, BuiltModel>,
    jitted: BTreeMap<(Model, &'static str, MeshShape), Option<Jitted>>,
    plans: BTreeMap<(Model, &'static str, MeshShape), Option<CompiledPlan>>,
}

impl Cells {
    /// The built model.
    fn model(&mut self, model: Model) -> &BuiltModel {
        self.models.entry(model).or_insert_with(|| model.build())
    }

    /// The jitted cell, or `None` (with the error on stderr) when its
    /// schedule does not apply.
    fn jit(&mut self, model: Model, label: &'static str, mesh: MeshShape) -> Option<&Jitted> {
        let key = (model, label, mesh);
        if !self.jitted.contains_key(&key) {
            let built = self.model(model);
            let hw = tpu_mesh(mesh.0, mesh.1);
            let jitted = partir_jit(&built.func, &hw, &model.schedule(label))
                .map_err(|e| eprintln!("{} {label}: {e}", model.name()))
                .ok();
            self.jitted.insert(key, jitted);
        }
        self.jitted[&key].as_ref()
    }

    /// Compiles the device plan of every cell of `list` that jits and
    /// has none yet, two at a time: in a debug build each compile also
    /// runs the plan verifier, seconds per 8×4 cell. A plan that does not
    /// compile is `None`, with the error on stderr. Which thread compiles
    /// which plan changes nothing in it.
    fn compile_plans(&mut self, list: &[(Model, &'static str)], mesh: MeshShape) {
        let mut keys = Vec::new();
        for &(model, label) in list {
            let key = (model, label, mesh);
            if !self.plans.contains_key(&key) && self.jit(model, label, mesh).is_some() {
                keys.push(key);
            }
        }
        let jitted = &self.jitted;
        let cell =
            |key: &(Model, &'static str, MeshShape)| jitted[key].as_ref().expect("a jitted cell");
        // Largest estimated peak first: the verifier's time grows with
        // the arena, and the longest compile should not start last.
        keys.sort_by_key(|key| Reverse(cell(key).reports.last().map(|r| r.sim.peak_memory_bytes)));
        let compile = |key: &(Model, &'static str, MeshShape)| {
            let plan = cell(key).program.compile();
            let plan = plan.map_err(|e| eprintln!("{} {}: {e}", key.0.name(), key.1));
            (*key, plan.ok())
        };
        // Alternate cells between the two threads, in that order.
        let half =
            |first: usize| -> Vec<_> { keys.iter().skip(first).step_by(2).map(compile).collect() };
        let plans = std::thread::scope(|s| {
            let other = s.spawn(|| half(1));
            let mut plans = half(0);
            plans.extend(other.join().expect("plan compile thread"));
            plans
        });
        self.plans.extend(plans);
    }

    /// How many distinct cells have been jitted.
    pub fn jits(&self) -> usize {
        self.jitted.len()
    }

    /// How many distinct cells have been compiled to a plan.
    pub fn plans(&self) -> usize {
        self.plans.len()
    }
}

/// One row per cell of `list` that jits, its metrics read off the cell.
fn rows(
    cells: &mut Cells,
    experiment: &str,
    mesh: MeshShape,
    list: impl IntoIterator<Item = (Model, &'static str)>,
    metrics: impl Fn(Row, &Jitted) -> Row,
) -> Vec<Row> {
    list.into_iter()
        .filter_map(|(model, label)| {
            let jitted = cells.jit(model, label, mesh)?;
            Some(metrics(Row::new(experiment, model.name(), label), jitted))
        })
        .collect()
}

/// One row per cell of `list` on the pod mesh whose plan compiles, its
/// metrics read off the analytical estimate and the plan walk
/// ([`measure_overlap`]) of the cell's device program.
fn measured_rows(
    cells: &mut Cells,
    experiment: &str,
    list: impl IntoIterator<Item = (Model, &'static str)>,
    metrics: impl Fn(Row, &SimReport, &SimReport) -> Row,
) -> Vec<Row> {
    let hw = tpu_mesh(POD_MESH.0, POD_MESH.1);
    let sim = Simulator::new(&hw, SimConfig::default());
    let list: Vec<(Model, &'static str)> = list.into_iter().collect();
    cells.compile_plans(&list, POD_MESH);
    list.into_iter()
        .filter_map(|(model, label)| {
            let key = (model, label, POD_MESH);
            let plan = cells.plans.get(&key)?.as_ref()?;
            let func = cells.jitted[&key].as_ref()?.program.func();
            let estimated = sim.simulate(func).expect("estimate");
            let (measured, _) = measure_overlap(plan, func, &hw).expect("plan walk");
            let row = Row::new(experiment, model.name(), label);
            Some(metrics(row, &estimated, &measured))
        })
        .collect()
}

/// Table 2's cells, which Figs 9 and 10 read on the pod mesh.
fn table2_cells() -> Vec<(Model, &'static str)> {
    Model::ALL
        .into_iter()
        .flat_map(|model| {
            model
                .table2()
                .into_iter()
                .map(move |(label, _)| (model, label))
        })
        .collect()
}

/// The paper's Table 2 counts (AG, AR, RS, A2A). IT32's are for 1536
/// serving trips; ours run 4, and the per-layer-per-trip law (2 AR × 32
/// layers × trips under Megatron) is what carries over.
const PAPER_TABLE2: [(Model, &str, [usize; 4]); 15] = [
    (Model::T32, "BP", [0, 290, 0, 0]),
    (Model::T32, "BP+MP", [0, 418, 0, 0]),
    (Model::T32, "BP+MP+Z2", [129, 289, 129, 0]),
    (Model::T32, "BP+MP+Z3", [259, 289, 129, 0]),
    (Model::T32, "BP+MP+Z3+EMB", [515, 354, 257, 0]),
    (Model::T32, "MP", [0, 128, 0, 0]),
    (Model::T32, "EMB", [256, 193, 128, 0]),
    (Model::It32, "BP", [0, 0, 0, 0]),
    (Model::It32, "BP+MP", [0, 98304, 0, 0]),
    (Model::It32, "BP+MP+MQ", [64, 98304, 0, 98240]),
    (Model::It32, "MP", [0, 98304, 0, 0]),
    (Model::UNet, "BP", [0, 503, 0, 0]),
    (Model::UNet, "BP+Z2", [517, 2, 501, 0]),
    (Model::UNet, "BP+Z3", [799, 2, 501, 0]),
    (Model::Gns, "ES", [0, 423, 0, 0]),
];

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// The AG, AR, RS and A2A columns.
fn with_collectives(row: Row, jitted: &Jitted) -> Row {
    let stats = jitted.program.stats();
    row.metric("AG", stats.all_gather as f64)
        .metric("AR", stats.all_reduce as f64)
        .metric("RS", stats.reduce_scatter as f64)
        .metric("A2A", stats.all_to_all as f64)
}

/// **Table 2** (§7.3): the collectives each schedule introduces, beside
/// the paper's counts, on a 4×2 mesh.
pub fn table2(cells: &mut Cells) -> Vec<Row> {
    rows(
        cells,
        "table2",
        TABLE2_MESH,
        table2_cells(),
        |row, jitted| {
            let paper = PAPER_TABLE2
                .iter()
                .find(|(model, label, _)| model.name() == row.model && *label == row.schedule);
            let row = with_collectives(row, jitted);
            match paper {
                Some((_, _, p)) => row
                    .metric("paper_AG", p[0] as f64)
                    .metric("paper_AR", p[1] as f64)
                    .metric("paper_RS", p[2] as f64)
                    .metric("paper_A2A", p[3] as f64),
                None => row,
            }
        },
    )
}

/// **Table 3** (A.4): memory, estimated runtime and collectives of the
/// manual, mixed and automatic schedules on the 8×4 mesh.
pub fn table3(cells: &mut Cells) -> Vec<Row> {
    let manual = |model: Model| {
        model
            .table2()
            .into_iter()
            .map(move |(label, _)| (model, label))
    };
    let auto = |model: Model, labels: &'static [&'static str]| {
        labels.iter().map(move |&label| (model, label))
    };
    let list = manual(Model::Gns)
        .chain(auto(Model::Gns, &["ES+AutoMP", "ES+AutoBP", "AllAuto"]))
        .chain(manual(Model::It32))
        .chain(auto(Model::T32, &["BP+AutoMP+Z3"]))
        .chain(manual(Model::T32))
        .chain(auto(Model::UNet, &["BP+AutoMP", "AllAuto"]))
        .chain(manual(Model::UNet));
    rows(cells, "table3", POD_MESH, list, |row, jitted| {
        let last = &jitted.reports.last().expect("nonempty schedule").sim;
        let row = row
            .metric("Mem_MiB", mib(last.peak_memory_bytes))
            .metric("Est_ms", last.runtime_s * 1e3);
        with_collectives(row, jitted)
    })
}

/// **Fig 6**: step runtime of manual, mixed and automatic schedules on
/// the 8×4 mesh, from the plan walk.
pub fn fig6(cells: &mut Cells) -> Vec<Row> {
    let list = [
        (Model::T32, "BP+MP+Z3"),
        (Model::T32, "BP+AutoMP+Z3"),
        (Model::T32, "AllAuto"),
        (Model::UNet, "BP+Z3"),
        (Model::UNet, "BP+AutoMP"),
        (Model::UNet, "AllAuto"),
        (Model::Gns, "ES"),
        (Model::Gns, "ES+AutoMP"),
        (Model::Gns, "AllAuto"),
    ];
    measured_rows(cells, "fig6", list, |row, _, measured| {
        row.metric("runtime_ms", measured.runtime_s * 1e3)
    })
}

/// **Fig 7**: runtime and memory of PartIR-st, GSPMD and GSPMD-- relative
/// to PartIR, for the U-Net on the 8×2 mesh.
pub fn fig7(cells: &mut Cells) -> Vec<Row> {
    let hw = tpu_mesh(FIG7_MESH.0, FIG7_MESH.1);
    let sim = Simulator::new(&hw, SimConfig::default());
    let simulate = |func: &partir_ir::Func| sim.simulate(func).expect("simulate");
    let mut rows = Vec::new();
    for label in ["BP+Z2", "BP+Z3", "BP+MP+Z2", "BP+MP+Z3"] {
        let Some(partir) = cells.jit(Model::UNet, label, FIG7_MESH) else {
            continue;
        };
        let partir = simulate(partir.program.func());
        let model = cells.model(Model::UNet);

        // PartIR-st: all tactics amalgamated into one.
        let st =
            partir_jit_single_tactic(&model.func, &hw, &Model::UNet.schedule(label)).expect("st");
        let st = simulate(st.program.func());

        // GSPMD: staged expert constraints.
        let lowered = |part: &partir_core::Partitioning| {
            simulate(partir_spmd::lower(&model.func, part).expect("lower").func())
        };
        let groups = annotation_groups(model, label);
        let mut part = partir_core::Partitioning::new(&model.func, hw.mesh.clone())
            .expect("fresh partitioning");
        for group in &groups {
            for ann in group {
                if let Some(v) = model.func.value_by_name(&ann.name) {
                    let _ = part.tile(&model.func, v, ann.dim, &ann.axis);
                }
            }
            heuristic_propagate(&model.func, &mut part);
        }
        let gspmd = lowered(&part);

        // GSPMD--: everything at once.
        let flat: Vec<InputSharding> = groups.into_iter().flatten().collect();
        let part = gspmd_partition(
            &model.func,
            hw.mesh.clone(),
            &flat,
            &GspmdOptions::default(),
        )
        .expect("gspmd--");
        let gspmd_mm = lowered(&part);

        for (system, report) in [
            ("PartIR", &partir),
            ("PartIR-st", &st),
            ("GSPMD", &gspmd),
            ("GSPMD--", &gspmd_mm),
        ] {
            rows.push(
                Row::new("fig7", label, system)
                    .metric("slowdown", report.runtime_s / partir.runtime_s)
                    .metric("runtime_ms", report.runtime_s * 1e3)
                    .metric("mem_MiB", mib(report.peak_memory_bytes)),
            );
        }
    }
    rows
}

/// GSPMD annotation groups equivalent to the U-Net tactics of `label`,
/// one per tactic: GSPMD applies them staged (expert constraints),
/// GSPMD-- all at once.
fn annotation_groups(model: &BuiltModel, label: &str) -> Vec<Vec<InputSharding>> {
    let names = || {
        model
            .func
            .params()
            .iter()
            .map(|&p| (p, model.func.value(p).name.clone().unwrap_or_default()))
    };
    let mut groups = Vec::new();
    for tactic in label.split('+') {
        let mut group = Vec::new();
        match tactic {
            "BP" => group.push(InputSharding::tile("x", 0, BATCH)),
            "MP" => {
                for (_, name) in names() {
                    if name.contains("conv1_w") {
                        group.push(InputSharding::tile(&name, 0, MODEL));
                    } else if name.contains("attn_wq")
                        || name.contains("attn_wk")
                        || name.contains("attn_wv")
                    {
                        group.push(InputSharding::tile(&name, 1, MODEL));
                    }
                }
            }
            "Z2" | "Z3" => {
                for (p, name) in names() {
                    let shard_params = tactic == "Z3";
                    let is_param = name.starts_with("params.");
                    let is_opt = name.starts_with("opt.");
                    if (is_param && shard_params) || is_opt {
                        let ty = model.func.value_type(p);
                        if let Some(dim) =
                            (0..ty.rank()).find(|&d| ty.shape.dim(d).is_multiple_of(8))
                        {
                            group.push(InputSharding::tile(&name, dim, BATCH));
                        }
                    }
                }
            }
            other => panic!("unknown tactic {other}"),
        }
        groups.push(group);
    }
    groups
}

/// **Fig 9** (A.5.1): the analytical runtime estimate against the plan
/// walk's "measurement", for Table 2's cells on the 8×4 mesh.
pub fn fig9(cells: &mut Cells) -> Vec<Row> {
    measured_rows(cells, "fig9", table2_cells(), |row, est, meas| {
        row.metric("estimated_ms", est.runtime_s * 1e3)
            .metric("measured_ms", meas.runtime_s * 1e3)
            .metric("error_ms", (est.runtime_s - meas.runtime_s) * 1e3)
    })
}

/// **Fig 10** (A.5.2): the peak-memory estimate against the "measured"
/// memory, for Table 2's cells on the 8×4 mesh. The measured side is
/// what a device's plan executor holds resident: its arena pools and
/// loop-carry scratch (`CompiledPlan::resident_bytes`).
pub fn fig10(cells: &mut Cells) -> Vec<Row> {
    measured_rows(cells, "fig10", table2_cells(), |row, est, meas| {
        let estimated = mib(est.peak_memory_bytes);
        let measured = mib(meas.peak_memory_bytes);
        row.metric("estimated_MiB", estimated)
            .metric("measured_MiB", measured)
            .metric("error_MiB", estimated - measured)
    })
}
