//! The traced pass: per-layer wall-clock and counts, taken by timing the
//! benchmark's calls into each layer's public functions.
//!
//! One traced round runs, in order:
//!
//! 1. an untraced serial pass (the base of `trace.overhead`, and the obs-on
//!    arm of `obs.overhead_share`);
//! 2. on a workload with observability on, a serial pass with it off;
//! 3. a traced serial pass: every cell split into `core.fork`
//!    (`Cluster::with_template`), `sim.run` (`Sim::run`) and `core.report`
//!    (`Cluster::report`) spans;
//! 4. replays of each cell's inputs against single layers: the op stream
//!    through `Engine::execute` (SQL), the master binlog through
//!    `Engine::apply_event` (replication apply) and through
//!    `ApplyScheduler::plan_batch` (apply planning), whose batches are then
//!    applied each in reverse order to check that they commute;
//! 5. a traced parallel pass (`exec::parallel_map` at `jobs = nproc`) for
//!    the slowest cell and the idle tail.
//!
//! The sharded fleet keeps its kernel loop private, so on `fleet-observed`
//! the `sim.run` span covers the whole `run_sharded_with_template` call
//! (tree forks and report assembly included) and `core.fork` is timed on a
//! separate fork of the same trees after the pass.

use crate::judge::{CellResult, Judge};
use crate::spans::Spans;
use crate::workloads::{
    fnv64, panic_message, run_cell, run_pass, Cell, Plan, Report, Template, Workload,
};
use amdb_apply::ApplyScheduler;
use amdb_cloudstone::{OpClass, OpGenerator};
use amdb_core::cluster::S;
use amdb_core::{run_sharded_with_template, Cluster};
use amdb_experiments::exec::{parallel_map, Progress};
use amdb_sim::{Rng, Sim};
use amdb_sql::binlog::{BinlogFormat, Lsn};
use amdb_sql::{BinlogEvent, Engine, EventPayload, ForkRole, Session};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Ops replayed per cell through the SQL layer (fewer if the run issued
/// fewer). A prefix of the cell's own op stream, so the mix matches.
const SQL_REPLAY_OPS: u64 = 2_000;

/// (name, unit, better) of every per-layer metric, in print order.
pub const METRICS: [(&str, &str, &str); 27] = [
    ("sim.run_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("core.fork_ms", "ms", "lower"),
    ("core.report_ms", "ms", "lower"),
    ("sql.read_us", "us", "lower"),
    ("sql.write_us", "us", "lower"),
    ("sql.rows_examined_per_read", "rows", "lower"),
    ("sql.plan_cache_hit_ratio", "ratio", "higher"),
    ("sql.plan_cache_lookups", "count", "lower"),
    ("repl.apply_us_per_event", "us", "lower"),
    ("repl.apply_events", "count", "lower"),
    ("repl.peak_relay_backlog", "events", "lower"),
    ("apply.plan_ns_per_event", "ns", "lower"),
    ("apply.mean_batch", "events", "higher"),
    ("apply.conflict_bound_ratio", "ratio", "lower"),
    ("proxy.slave_read_share", "ratio", "higher"),
    ("pool.wait_ratio", "ratio", "lower"),
    ("sql.client_share", "ratio", "lower"),
    ("repl.apply_share", "ratio", "lower"),
    ("core.other_share", "ratio", "lower"),
    ("shard.scatter_legs", "count", "lower"),
    ("shard.filtered_leg_ratio", "ratio", "lower"),
    ("obs.overhead_share", "ratio", "lower"),
    ("exec.cell_max_s", "s", "lower"),
    ("exec.tail_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
];

/// Sums over one traced round.
#[derive(Default)]
struct Totals {
    run_s: f64,
    events: u64,
    fork_s: f64,
    report_s: f64,
    // SQL replay.
    read_s: f64,
    reads: u64,
    read_rows: u64,
    write_s: f64,
    writes: u64,
    // In-run plan caches.
    cache_hits: u64,
    cache_lookups: u64,
    // Binlog apply replay.
    apply_replay_s: f64,
    apply_replayed: u64,
    // Apply planner replay.
    plan_s: f64,
    plan_events: u64,
    plan_batches: u64,
    conflict_batches: u64,
    // In-run counts from the reports.
    ops_in_run: u64,
    apply_events_in_run: u64,
    peak_backlog: u64,
    steady_reads: u64,
    steady_slave_reads: u64,
    pool_acquired: u64,
    pool_waited: u64,
    scatter_legs: u64,
    filtered_legs: u64,
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Split of `Sim::run` time into SQL client work, binlog apply and the
/// rest. The two layer estimates come from replays; when they overshoot
/// the measured run they are scaled down together so the parts still sum
/// to `run_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    pub client_s: f64,
    pub apply_s: f64,
    pub other_s: f64,
}

pub fn split_run(run_s: f64, client_est_s: f64, apply_est_s: f64) -> Split {
    let layers = client_est_s + apply_est_s;
    let scale = if layers > run_s {
        ratio(run_s, layers)
    } else {
        1.0
    };
    let client_s = client_est_s * scale;
    let apply_s = apply_est_s * scale;
    Split {
        client_s,
        apply_s,
        other_s: (run_s - client_s - apply_s).max(0.0),
    }
}

/// The same cells with every observability plane switched off.
fn without_obs(wl: &Workload) -> Vec<Cell> {
    wl.cells
        .iter()
        .map(|c| {
            let mut plan = c.plan.clone();
            let tree = match &mut plan {
                Plan::Flat(cfg) => cfg,
                Plan::Sharded(cfg) => &mut cfg.base,
            };
            tree.obs.enabled = false;
            tree.obs.tsdb = false;
            tree.telemetry.enabled = false;
            Cell {
                label: c.label.clone(),
                plan,
                template: c.template,
            }
        })
        .collect()
}

/// One traced cell: spans around the layer calls, plus what the replays
/// need from the finished world.
fn traced_cell(
    cell: &Cell,
    tpl: &Template,
    spans: &mut Spans,
    parent: usize,
    t: &mut Totals,
) -> (Report, Option<Cluster>) {
    let cell_span = spans.open("cell", Some(parent));
    let out = match &cell.plan {
        Plan::Flat(cfg) => {
            let (mut world, fork_s) = spans.time("core.fork", Some(cell_span), || {
                Cluster::with_template(cfg.clone(), &tpl.0, tpl.1.clone())
            });
            let mut sim: S = Sim::new();
            world.schedule_timeline(&mut sim);
            let ((), run_s) = spans.time("sim.run", Some(cell_span), || sim.run(&mut world));
            for node in 0..=world.current_slaves() {
                let st = world.engine_mut(node).plan_cache_stats();
                t.cache_hits += st.hits;
                t.cache_lookups += st.hits + st.misses;
            }
            let events = sim.events_executed();
            let (report, report_s) =
                spans.time("core.report", Some(cell_span), || world.report(events));
            t.fork_s += fork_s;
            t.run_s += run_s;
            t.report_s += report_s;
            t.ops_in_run += report.pool_stats.0;
            (Report::Flat(Box::new(report)), Some(world))
        }
        Plan::Sharded(cfg) => {
            let (report, run_s) = spans.time("sim.run", Some(cell_span), || {
                run_sharded_with_template(cfg, &tpl.0, tpl.1.clone())
            });
            t.run_s += run_s;
            // Each scattered read runs as one leg per unfiltered shard.
            t.ops_in_run += report.pool_stats.0 - report.scatter_reads
                + (report.scatter_legs - report.scatter_filtered_legs)
                + report.scatter_master_fallbacks;
            t.scatter_legs += report.scatter_legs;
            t.filtered_legs += report.scatter_filtered_legs;
            (Report::Sharded(Box::new(report)), None)
        }
    };
    spans.close(cell_span);
    let report = &out.0;
    t.events += match report {
        Report::Flat(r) => r.sim_events,
        Report::Sharded(r) => r.sim_events,
    };
    for r in report.trees() {
        t.apply_events_in_run += r.apply_events;
        t.peak_backlog = t.peak_backlog.max(r.peak_relay_backlog);
    }
    // Users live at the sharded front, so its op counts are the front's.
    let (acquired, waited, reads, slave_reads) = match report {
        Report::Flat(r) => (
            r.pool_stats.0,
            r.pool_stats.1,
            r.steady_reads,
            r.steady_slave_reads,
        ),
        Report::Sharded(r) => (
            r.pool_stats.0,
            r.pool_stats.1,
            r.steady_reads,
            r.steady_slave_reads,
        ),
    };
    t.steady_reads += reads;
    t.steady_slave_reads += slave_reads;
    t.pool_acquired += acquired;
    t.pool_waited += waited;
    out
}

/// Replay a prefix of the cell's op stream through `Engine::execute` on a
/// fresh master fork. Returns the fork, whose binlog holds the replayed
/// writes.
fn replay_sql(cell: &Cell, tpl: &Template, ops: u64, t: &mut Totals) -> Engine {
    let cfg = cell.plan.tree();
    let mut engine = tpl.0.fork(ForkRole::Master(cfg.format));
    let mut gen = OpGenerator::new(tpl.1.clone(), Rng::new(cfg.seed).derive("ops"));
    let mut session = Session::new();
    for i in 0..ops {
        let op = gen.generate(cfg.mix);
        // A deterministic clock: one op per simulated millisecond.
        session.now_micros = 1_000_000_000 + i as i64 * 1_000;
        let t0 = Instant::now();
        let mut rows = 0;
        for (sql, params) in &op.statements {
            let res = engine
                .execute(&mut session, sql, params)
                .unwrap_or_else(|e| panic!("replayed op '{}' failed: {e}", op.name));
            rows += res.rows_examined;
        }
        let dt = t0.elapsed().as_secs_f64();
        match op.class {
            OpClass::Read => {
                t.read_s += dt;
                t.reads += 1;
                t.read_rows += rows;
            }
            OpClass::Write => {
                t.write_s += dt;
                t.writes += 1;
            }
        }
    }
    engine
}

/// Replay `events` through `Engine::apply_event` on a fresh slave fork,
/// at each event's own commit timestamp. Returns the replica's
/// fingerprint.
fn replay_apply(events: &[BinlogEvent], tpl: &Template, t: &mut Totals) -> u64 {
    let mut slave = tpl.0.fork(ForkRole::Slave);
    let t0 = Instant::now();
    for ev in events {
        slave
            .apply_event(ev, ev.commit_ts_micros)
            .unwrap_or_else(|e| panic!("replayed {} failed: {e}", ev.lsn));
    }
    t.apply_replay_s += t0.elapsed().as_secs_f64();
    t.apply_replayed += events.len() as u64;
    slave.fingerprint()
}

/// Plan `events` into group-commit batches with `ApplyScheduler::plan_batch`
/// and return each batch's length, in log order.
fn replay_plan(
    events: &[BinlogEvent],
    workers: usize,
    base: &Engine,
    t: &mut Totals,
) -> Vec<usize> {
    let mut sched = ApplyScheduler::new(workers);
    let mut batches = Vec::new();
    let mut head = 0;
    let t0 = Instant::now();
    while head < events.len() {
        let plan = sched.plan_batch(events[head..].iter(), |tb| base.pk_index_of(tb));
        batches.push(plan.len);
        head += plan.len;
    }
    t.plan_s += t0.elapsed().as_secs_f64();
    let st = sched.stats();
    t.plan_events += st.events;
    t.plan_batches += st.batches;
    t.conflict_batches += st.conflict_bounded;
    batches
}

/// Order-independent digest of the rows of `tables`: every row, sorted.
/// Two engines that hold the same rows in different slots agree on it.
fn rows_digest(engine: &mut Engine, tables: &BTreeSet<&str>) -> u64 {
    let mut session = Session::new();
    let mut text = String::new();
    for table in tables {
        let res = engine
            .execute(&mut session, &format!("SELECT * FROM {table}"), &[])
            .unwrap_or_else(|e| panic!("scanning {table} failed: {e}"));
        let mut rows: Vec<String> = res.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort_unstable();
        text.push_str(table);
        text.push_str(&rows.join("\n"));
    }
    fnv64(text.as_bytes())
}

/// True when applying `events` batch by batch, with each batch's events in
/// reverse order, onto a fresh slave fork of `base` leaves the same rows as
/// `master`. The planner promises that a batch's events touch disjoint
/// rows, so their order within the batch cannot matter; a batch holding a
/// conflicting pair applies it the wrong way round and fails the check.
pub fn batches_commute(
    events: &[BinlogEvent],
    batches: &[usize],
    base: &Engine,
    master: &mut Engine,
) -> bool {
    let mut slave = base.fork(ForkRole::Slave);
    let mut head = 0;
    for &len in batches {
        for ev in events[head..head + len].iter().rev() {
            if slave.apply_event(ev, ev.commit_ts_micros).is_err() {
                return false;
            }
        }
        head += len;
    }
    let tables: BTreeSet<&str> = events
        .iter()
        .flat_map(|ev| match &ev.payload {
            EventPayload::Rows { changes } => changes.iter().map(|c| c.table.as_str()).collect(),
            EventPayload::Statement { .. } => Vec::new(),
        })
        .collect();
    head == events.len() && rows_digest(&mut slave, &tables) == rows_digest(master, &tables)
}

/// Replays of one traced cell: SQL, binlog apply (which must reproduce
/// the master's data), and apply planning (whose batches must commute).
fn replay_cell(
    wl: &Workload,
    cell: &Cell,
    tpl: &Template,
    report: &Report,
    world: Option<&mut Cluster>,
    t: &mut Totals,
    judge: &mut Judge,
) {
    let ops_in_run = match report {
        Report::Flat(r) => r.pool_stats.0,
        Report::Sharded(r) => r.pool_stats.0,
    };
    let ops = ops_in_run.clamp(1, SQL_REPLAY_OPS);
    let mut replayed = replay_sql(cell, tpl, ops, t);
    // The flat cell's own master; the fleet's trees are private, so its
    // replicated log is the one the SQL replay just wrote.
    let master: &mut Engine = match world {
        Some(w) => w.engine_mut(0),
        None => &mut replayed,
    };
    let events = master.binlog().read_from(Lsn(0)).to_vec();
    let want = master.fingerprint();
    let got = replay_apply(&events, tpl, t);
    judge.check(
        got == want,
        wl,
        &cell.label,
        &format!("binlog replay fingerprint {got:016x} != master {want:016x}"),
    );
    let cfg = cell.plan.tree();
    if cfg.apply_workers > 1 && cfg.format == BinlogFormat::Row {
        let batches = replay_plan(&events, cfg.apply_workers, &tpl.0, t);
        judge.check(
            batches_commute(&events, &batches, &tpl.0, master),
            wl,
            &cell.label,
            "a planned apply batch does not commute",
        );
    }
}

/// Fork the fleet cell's trees again, timed, for `core.fork_ms`.
fn refork_trees(cell: &Cell, tpl: &Template, spans: &mut Spans, parent: usize, t: &mut Totals) {
    if let Plan::Sharded(cfg) = &cell.plan {
        let (trees, secs) = spans.time("core.fork", Some(parent), || {
            (0..cfg.shards)
                .map(|_| Cluster::with_template(cfg.base.clone(), &tpl.0, tpl.1.clone()))
                .collect::<Vec<_>>()
        });
        drop(trees);
        t.fork_s += secs;
    }
}

/// Slowest cell and idle tail of a parallel pass, from per-cell timings
/// taken inside the closure given to `exec::parallel_map`.
fn exec_profile(wl: &Workload, tpls: &[Template], jobs: usize) -> (Vec<CellResult>, f64, f64) {
    let marks: Mutex<Vec<(std::thread::ThreadId, f64, f64)>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let results = parallel_map(&wl.cells, jobs, &Progress::Silent, |_, cell, _| {
        let start = t0.elapsed().as_secs_f64();
        let r = catch_unwind(AssertUnwindSafe(|| run_cell(cell, &tpls[cell.template])))
            .map_err(panic_message);
        let end = t0.elapsed().as_secs_f64();
        marks
            .lock()
            .expect("no cell panics while holding the marks lock")
            .push((std::thread::current().id(), start, end));
        r
    });
    let pass_s = t0.elapsed().as_secs_f64();
    let marks = marks.into_inner().expect("marks lock is not poisoned");
    let cell_max = marks.iter().map(|(_, s, e)| e - s).fold(0.0, f64::max);
    // Each worker's last finish; the tail is the pass end minus the
    // earliest of them, i.e. how long some worker sat idle at the end.
    let mut last: HashMap<std::thread::ThreadId, f64> = HashMap::new();
    for &(tid, _, e) in &marks {
        let slot = last.entry(tid).or_insert(0.0);
        *slot = slot.max(e);
    }
    let first_idle = last.values().copied().fold(pass_s, f64::min);
    (results, cell_max, pass_s - first_idle)
}

/// One traced round; returns its metrics by name.
pub fn traced_round(
    wl: &Workload,
    tpls: &[Template],
    jobs: usize,
    spans: &mut Spans,
    judge: &mut Judge,
) -> BTreeMap<&'static str, f64> {
    let mut t = Totals::default();
    let t0 = Instant::now();
    let untraced = run_pass(&wl.cells, tpls, 1);
    let untraced_s = t0.elapsed().as_secs_f64();
    judge.pass(wl, &untraced, None);
    // The obs-off arm runs right after the obs-on one, so host drift
    // between the two stays small.
    let obs_share = if wl.observed() {
        let t0 = Instant::now();
        let off_results = run_pass(&without_obs(wl), tpls, 1);
        let off_s = t0.elapsed().as_secs_f64();
        // Observability must not change what the run computes. The kernel
        // event count is left out: the planes' sampling ticks are events.
        for ((cell, on), off) in wl.cells.iter().zip(&untraced).zip(&off_results) {
            let same = matches!((on, off),
                (Ok(a), Ok(b)) if a.outputs_signature() == b.outputs_signature());
            judge.check(same, wl, &cell.label, "report differs with obs off");
        }
        (untraced_s - off_s) / untraced_s
    } else {
        0.0
    };

    let pass = spans.open("pass.traced", None);
    let mut traced: Vec<(CellResult, Option<Cluster>)> = Vec::new();
    for cell in &wl.cells {
        let r = catch_unwind(AssertUnwindSafe(|| {
            traced_cell(cell, &tpls[cell.template], spans, pass, &mut t)
        }));
        traced.push(match r {
            Ok((report, world)) => (Ok(report), world),
            Err(p) => (Err(panic_message(p)), None),
        });
    }
    let mut traced_s = spans.close(pass);
    let (results, worlds): (Vec<CellResult>, Vec<Option<Cluster>>) = traced.into_iter().unzip();
    judge.pass(wl, &results, None);

    let replay = spans.open("replay", None);
    for ((cell, res), mut world) in wl.cells.iter().zip(&results).zip(worlds) {
        let Ok(report) = res else { continue };
        let tpl = &tpls[cell.template];
        refork_trees(cell, tpl, spans, replay, &mut t);
        let span = spans.open("replay.cell", Some(replay));
        let r = catch_unwind(AssertUnwindSafe(|| {
            replay_cell(wl, cell, tpl, report, world.as_mut(), &mut t, judge)
        }));
        spans.close(span);
        if let Err(p) = r {
            let why = format!("replay panicked: {}", panic_message(p));
            judge.check(false, wl, &cell.label, &why);
        }
        // Tearing a world down is part of its cell's wall time, deferred
        // until the replays are done with its master.
        let ((), drop_s) = spans.time("core.drop", Some(replay), || drop(world));
        traced_s += drop_s;
    }
    spans.close(replay);

    let exec = spans.open("pass.parallel", None);
    let (par, cell_max_s, tail_s) = exec_profile(wl, tpls, jobs);
    spans.close(exec);
    judge.pass(wl, &par, None);

    let mean_op_s = ratio(t.read_s + t.write_s, (t.reads + t.writes) as f64);
    let apply_per_event_s = ratio(t.apply_replay_s, t.apply_replayed as f64);
    let split = split_run(
        t.run_s,
        t.ops_in_run as f64 * mean_op_s,
        t.apply_events_in_run as f64 * apply_per_event_s,
    );
    BTreeMap::from([
        ("sim.run_s", t.run_s),
        ("sim.events", t.events as f64),
        ("sim.ns_per_event", ratio(t.run_s * 1e9, t.events as f64)),
        ("core.fork_ms", t.fork_s * 1e3),
        ("core.report_ms", t.report_s * 1e3),
        ("sql.read_us", ratio(t.read_s * 1e6, t.reads as f64)),
        ("sql.write_us", ratio(t.write_s * 1e6, t.writes as f64)),
        (
            "sql.rows_examined_per_read",
            ratio(t.read_rows as f64, t.reads as f64),
        ),
        (
            "sql.plan_cache_hit_ratio",
            ratio(t.cache_hits as f64, t.cache_lookups as f64),
        ),
        ("sql.plan_cache_lookups", t.cache_lookups as f64),
        ("repl.apply_us_per_event", apply_per_event_s * 1e6),
        ("repl.apply_events", t.apply_events_in_run as f64),
        ("repl.peak_relay_backlog", t.peak_backlog as f64),
        (
            "apply.plan_ns_per_event",
            ratio(t.plan_s * 1e9, t.plan_events as f64),
        ),
        (
            "apply.mean_batch",
            ratio(t.plan_events as f64, t.plan_batches as f64),
        ),
        (
            "apply.conflict_bound_ratio",
            ratio(t.conflict_batches as f64, t.plan_batches as f64),
        ),
        (
            "proxy.slave_read_share",
            ratio(t.steady_slave_reads as f64, t.steady_reads as f64),
        ),
        (
            "pool.wait_ratio",
            ratio(t.pool_waited as f64, t.pool_acquired as f64),
        ),
        ("sql.client_share", ratio(split.client_s, t.run_s)),
        ("repl.apply_share", ratio(split.apply_s, t.run_s)),
        ("core.other_share", ratio(split.other_s, t.run_s)),
        ("shard.scatter_legs", t.scatter_legs as f64),
        (
            "shard.filtered_leg_ratio",
            ratio(t.filtered_legs as f64, t.scatter_legs as f64),
        ),
        ("obs.overhead_share", obs_share),
        ("exec.cell_max_s", cell_max_s),
        ("exec.tail_s", tail_s),
        ("trace.overhead", traced_s / untraced_s - 1.0),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_sql::Value;

    /// A two-row table, and a master fork that sets `v` on the rows `ids`
    /// in turn (row binlog). Returns (base, master, the master's events).
    fn two_updates(ids: [i64; 2]) -> (Engine, Engine, Vec<BinlogEvent>) {
        let mut base = Engine::new_master(BinlogFormat::Row);
        let mut s = Session::new();
        base.execute_batch(
            &mut s,
            "CREATE TABLE t (id INT PRIMARY KEY, v INT);
             INSERT INTO t VALUES (1, 0);
             INSERT INTO t VALUES (2, 0);",
        )
        .expect("schema loads");
        let mut master = base.fork(ForkRole::Master(BinlogFormat::Row));
        for (i, id) in ids.into_iter().enumerate() {
            let params = [Value::Int(i as i64 + 1), Value::Int(id)];
            master
                .execute(&mut s, "UPDATE t SET v = ? WHERE id = ?", &params)
                .expect("update runs");
        }
        let events = master.binlog().read_from(Lsn(0)).to_vec();
        assert_eq!(events.len(), 2);
        (base, master, events)
    }

    #[test]
    fn a_batch_holding_a_conflicting_pair_fails_the_commute_check() {
        let (base, mut master, events) = two_updates([1, 1]);
        let planned = replay_plan(&events, 4, &base, &mut Totals::default());
        assert_eq!(planned, vec![1, 1], "the planner splits the conflict");
        assert!(batches_commute(&events, &planned, &base, &mut master));
        assert!(!batches_commute(&events, &[2], &base, &mut master));
    }

    #[test]
    fn a_batch_of_disjoint_rows_commutes() {
        let (base, mut master, events) = two_updates([1, 2]);
        let planned = replay_plan(&events, 4, &base, &mut Totals::default());
        assert_eq!(planned, vec![2], "disjoint rows share a batch");
        assert!(batches_commute(&events, &planned, &base, &mut master));
    }

    fn sums_to(split: Split, run_s: f64) {
        let total = split.client_s + split.apply_s + split.other_s;
        assert!((total - run_s).abs() < 1e-12, "{split:?} sums to {total}");
    }

    #[test]
    fn derived_shares_add_up_to_the_run() {
        let s = split_run(10.0, 4.0, 2.0);
        assert_eq!((s.client_s, s.apply_s, s.other_s), (4.0, 2.0, 4.0));
        sums_to(s, 10.0);
    }

    #[test]
    fn overshooting_estimates_scale_down_and_still_add_up() {
        let s = split_run(3.0, 4.0, 2.0);
        assert!((s.client_s - 2.0).abs() < 1e-12 && (s.apply_s - 1.0).abs() < 1e-12);
        assert_eq!(s.other_s, 0.0);
        sums_to(s, 3.0);
    }

    #[test]
    fn an_idle_run_splits_into_nothing() {
        let s = split_run(0.0, 0.0, 0.0);
        assert_eq!(
            s,
            Split {
                client_s: 0.0,
                apply_s: 0.0,
                other_s: 0.0
            }
        );
    }
}
