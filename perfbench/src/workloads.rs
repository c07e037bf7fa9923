//! The four benchmark workloads: closed grids of deterministic simulation
//! cells, each driven through the library's public entry points.
//!
//! The experiment binaries are never called: they rewrite the committed
//! `results/*.csv`. The end-to-end passes call the library's own drivers
//! instead: `sweep::run_sweep` for the paper grids and `fleet::run` for the
//! fleet, rendering their tables as the library renders them, so the paper
//! grids' FNV-1a fingerprints match the pinned values. `write-surge` mixes
//! backends and apply-worker counts in one grid, which no library driver
//! covers, so it fans its cells out with `exec::parallel_map` itself. The
//! traced pass forks the same cells one by one (see `layers`).

use crate::judge::CellResult;
use amdb_cloudstone::{build_template, DataCounters, DataSize, MixConfig, Phases, WorkloadConfig};
use amdb_core::cluster::S;
use amdb_core::{
    run_sharded_with_template, BackendKind, Cluster, ClusterConfig, Placement, RunReport,
    ShardedConfig, ShardedReport,
};
use amdb_experiments::calib::paper_cost_model;
use amdb_experiments::exec::{parallel_map, Progress};
use amdb_experiments::fleet::{self, FleetSpec};
use amdb_experiments::sweep::{run_sweep, SweepOptions, SweepSpec};
use amdb_experiments::Fidelity;
use amdb_metrics::Table;
use amdb_sim::{Rng, Sim};
use amdb_sql::Engine;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub const NAMES: [&str; 4] = [
    "fig2-5050",
    "fig3-8020-fanout",
    "write-surge",
    "fleet-observed",
];

/// What one cell runs: a single replication tree or a sharded fleet.
#[derive(Clone)]
pub enum Plan {
    Flat(ClusterConfig),
    Sharded(ShardedConfig),
}

impl Plan {
    /// The tree configuration (the base tree of a sharded fleet).
    pub fn tree(&self) -> &ClusterConfig {
        match self {
            Plan::Flat(cfg) => cfg,
            Plan::Sharded(cfg) => &cfg.base,
        }
    }
}

pub struct Cell {
    pub label: String,
    pub plan: Plan,
    /// Index into the workload's templates.
    pub template: usize,
}

pub enum Report {
    Flat(Box<RunReport>),
    Sharded(Box<ShardedReport>),
}

impl Report {
    /// Every field of the report, for exact cross-pass comparison.
    pub fn signature(&self) -> String {
        match self {
            Report::Flat(r) => format!("{r:?}"),
            Report::Sharded(r) => format!("{r:?}"),
        }
    }

    /// The signature with the kernel event count left out: everything the
    /// run measured, minus the scheduling work it took to measure it.
    pub fn outputs_signature(&self) -> String {
        match self {
            Report::Flat(r) => {
                let mut r = r.clone();
                r.sim_events = 0;
                format!("{r:?}")
            }
            Report::Sharded(r) => {
                let mut r = r.clone();
                r.sim_events = 0;
                for tree in &mut r.per_shard {
                    tree.sim_events = 0;
                }
                format!("{r:?}")
            }
        }
    }

    /// The per-tree reports (one for a flat cell).
    pub fn trees(&self) -> &[RunReport] {
        match self {
            Report::Flat(r) => std::slice::from_ref(&**r),
            Report::Sharded(r) => &r.per_shard,
        }
    }
}

pub type Template = (Engine, DataCounters);

enum Kind {
    Sweep(SweepSpec),
    Surge,
    Fleet(FleetSpec),
}

pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    /// Output fingerprint pinned at the spec's own seed (paper grids only).
    pub pinned: Option<u64>,
    pub cells: Vec<Cell>,
    kind: Kind,
}

/// `write-surge` arms: (label, backend, apply workers per slave).
const SURGE_ARMS: [(&str, BackendKind, usize); 3] = [
    ("row/1w", BackendKind::Row, 1),
    ("row/4w", BackendKind::Row, 4),
    ("shared-log", BackendKind::SharedLog, 1),
];
const SURGE_USERS: [u32; 2] = [100, 200];
const SURGE_SLAVES: usize = 2;
const SURGE_SEED: u64 = 44;
const SURGE_MIX: MixConfig = MixConfig { read_fraction: 0.2 };

impl Workload {
    /// The named workload at `seed` (`None`: the spec's own seed).
    pub fn new(name: &str, seed: Option<u64>) -> Option<Workload> {
        match name {
            "fig2-5050" => Some(Self::sweep(
                "fig2-5050",
                SweepSpec::fig2_fig5(Fidelity::Quick),
                seed,
                0x5529_4b98_a489_afbd,
            )),
            "fig3-8020-fanout" => Some(Self::sweep(
                "fig3-8020-fanout",
                SweepSpec::fig3_fig6(Fidelity::Quick),
                seed,
                0x85d2_c411_7df7_430a,
            )),
            "write-surge" => Some(Self::surge(seed.unwrap_or(SURGE_SEED))),
            "fleet-observed" => Some(Self::fleet(seed)),
            _ => None,
        }
    }

    pub(crate) fn sweep(
        name: &'static str,
        mut spec: SweepSpec,
        seed: Option<u64>,
        pin: u64,
    ) -> Workload {
        let pinned = seed.is_none_or(|s| s == spec.seed).then_some(pin);
        spec.seed = seed.unwrap_or(spec.seed);
        let mut cells = Vec::new();
        for &placement in &spec.placements {
            for &slaves in &spec.slaves {
                for &users in &spec.users {
                    cells.push(Cell {
                        label: format!("slaves={slaves} users={users}"),
                        plan: Plan::Flat(spec.cell_config(placement, slaves, users)),
                        template: 0,
                    });
                }
            }
        }
        Workload {
            name,
            seed: spec.seed,
            pinned,
            cells,
            kind: Kind::Sweep(spec),
        }
    }

    fn surge(seed: u64) -> Workload {
        let mut cells = Vec::new();
        for (arm, backend, workers) in SURGE_ARMS {
            for users in SURGE_USERS {
                let mut workload = WorkloadConfig::paper(users);
                workload.phases = Phases::quick();
                let label = format!("{arm} users={users}");
                let cfg = ClusterConfig::builder()
                    .slaves(SURGE_SLAVES)
                    .placement(Placement::SameZone)
                    .mix(SURGE_MIX)
                    .data_size(DataSize::SMALL)
                    .workload(workload)
                    .cost(paper_cost_model())
                    .backend(backend)
                    .apply_workers(workers)
                    .seed(Rng::new(seed).derive(&format!("surge/{label}")).next_u64())
                    .build();
                cells.push(Cell {
                    label,
                    plan: Plan::Flat(cfg),
                    template: 0,
                });
            }
        }
        Workload {
            name: "write-surge",
            seed,
            pinned: None,
            cells,
            kind: Kind::Surge,
        }
    }

    fn fleet(seed: Option<u64>) -> Workload {
        let mut spec = FleetSpec::paper_set(Fidelity::Quick);
        spec.seed = seed.unwrap_or(spec.seed);
        let mut cells = Vec::new();
        for &slaves in &spec.slave_counts {
            for &users in &spec.user_counts {
                cells.push(Cell {
                    label: format!("slaves={slaves} users={users}"),
                    plan: Plan::Sharded(spec.cell_config(slaves, users)),
                    // Sharded runs load their template from the cell seed.
                    template: cells.len(),
                });
            }
        }
        Workload {
            name: "fleet-observed",
            seed: spec.seed,
            pinned: None,
            cells,
            kind: Kind::Fleet(spec),
        }
    }

    /// Build every template the cells fork, exactly as the library's own
    /// entry points would load them.
    pub fn build_templates(&self) -> Vec<Template> {
        match &self.kind {
            Kind::Sweep(spec) => vec![spec.template()],
            Kind::Surge => {
                let mut rng = Rng::new(self.seed).derive("load");
                vec![build_template(DataSize::SMALL, &mut rng)]
            }
            Kind::Fleet(_) => self
                .cells
                .iter()
                .map(|c| {
                    let tree = c.plan.tree();
                    build_template(tree.data_size, &mut Rng::new(tree.seed).derive("load"))
                })
                .collect(),
        }
    }

    /// True when the workload runs its observability planes.
    pub fn observed(&self) -> bool {
        self.cells.iter().any(|c| c.plan.tree().obs.enabled)
    }

    /// Produce the workload's tables from nothing, through the library's
    /// driver at `jobs` workers: templates loaded, every cell run, tables
    /// rendered. A panic anywhere fails every cell of the pass.
    pub fn produce(&self, jobs: usize) -> Tables {
        let opts = SweepOptions::silent(jobs);
        let run = catch_unwind(AssertUnwindSafe(|| match &self.kind {
            Kind::Sweep(spec) => {
                let placements = run_sweep(spec, &opts);
                let mut rendered = String::new();
                for p in &placements {
                    rendered.push_str(&p.throughput.render());
                    rendered.push('\n');
                    rendered.push_str(&p.delay.render());
                    rendered.push('\n');
                }
                let results = placements
                    .into_iter()
                    .flat_map(|p| p.reports.into_iter().flatten())
                    .map(|r| Ok(Report::Flat(Box::new(r))))
                    .collect();
                Tables {
                    results,
                    rendered: Some(rendered),
                }
            }
            Kind::Fleet(spec) => {
                let cells = fleet::run(spec, &opts);
                let rendered = fleet::combined_table(spec, &cells).render();
                let results = cells
                    .into_iter()
                    .map(|c| Ok(Report::Sharded(Box::new(c.report))))
                    .collect();
                Tables {
                    results,
                    rendered: Some(rendered),
                }
            }
            Kind::Surge => {
                let results = run_pass(&self.cells, &self.build_templates(), jobs);
                let reports: Option<Vec<&Report>> =
                    results.iter().map(|r| r.as_ref().ok()).collect();
                let rendered = reports.map(|r| render_surge(&self.cells, &r));
                Tables { results, rendered }
            }
        }));
        run.unwrap_or_else(|p| {
            let why = panic_message(p);
            Tables {
                results: self.cells.iter().map(|_| Err(why.clone())).collect(),
                rendered: None,
            }
        })
    }
}

/// One pass's per-cell results (grid order) and its rendered tables
/// (`None` when some cell produced no report).
pub struct Tables {
    pub results: Vec<CellResult>,
    pub rendered: Option<String>,
}

pub fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Run every cell at `jobs` workers off prebuilt templates; each cell's
/// panic is caught and returned as its result.
pub fn run_pass(cells: &[Cell], tpls: &[Template], jobs: usize) -> Vec<CellResult> {
    parallel_map(cells, jobs, &Progress::Silent, |_, cell, _| {
        catch_unwind(AssertUnwindSafe(|| run_cell(cell, &tpls[cell.template])))
            .map_err(panic_message)
    })
}

/// Fork and run one cell end to end; its world is torn down before return.
pub fn run_cell(cell: &Cell, tpl: &Template) -> Report {
    match &cell.plan {
        Plan::Flat(cfg) => {
            let mut world = Cluster::with_template(cfg.clone(), &tpl.0, tpl.1.clone());
            let mut sim: S = Sim::new();
            world.schedule_timeline(&mut sim);
            sim.run(&mut world);
            Report::Flat(Box::new(world.report(sim.events_executed())))
        }
        Plan::Sharded(cfg) => Report::Sharded(Box::new(run_sharded_with_template(
            cfg,
            &tpl.0,
            tpl.1.clone(),
        ))),
    }
}

fn opt(v: Option<f64>, prec: usize) -> String {
    v.map_or("-".to_string(), |v| format!("{v:.prec$}"))
}

fn render_surge(cells: &[Cell], reports: &[&Report]) -> String {
    let mut t = Table::new(
        "write-surge (20/80, size 300, 2 slaves)",
        [
            "arm",
            "throughput (ops/s)",
            "p95 latency (ms)",
            "avg rel delay (ms)",
            "apply events/batch",
            "quorum wait mean (ms)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for (cell, report) in cells.iter().zip(reports) {
        let r = &report.trees()[0];
        t.push_row(vec![
            cell.label.clone(),
            format!("{:.1}", r.throughput_ops_s),
            opt(r.latency_ms.as_ref().map(|s| s.p95), 1),
            opt(r.avg_relative_delay_ms(), 1),
            format!(
                "{:.2}",
                r.apply_events as f64 / r.apply_batches.max(1) as f64
            ),
            opt(r.shared_log.as_ref().and_then(|s| s.quorum_wait_mean_ms), 2),
        ]);
    }
    t.render()
}

/// FNV-1a over bytes: the output fingerprint of a rendered grid.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Invariant violations a cell's report shows: a shared-log arm must lose
/// no acked write and must drain every published record to quorum.
pub fn invariant_violation(report: &Report) -> Option<String> {
    report.trees().iter().find_map(|r| {
        let sl = r.shared_log.as_ref()?;
        (r.lost_writes > 0 || sl.durable_lsn != sl.published_lsn).then(|| {
            format!(
                "shared log lost {} acked write(s); durable {} of {} published",
                r.lost_writes, sl.durable_lsn, sl.published_lsn
            )
        })
    })
}
