//! CPU cost model: what executing a statement costs the owning VM.
//!
//! The simulation runs statements instantly in host time and separately
//! charges the VM's FIFO CPU a *demand* so that queueing, saturation, and
//! replication-apply backlogs emerge. Writes and applies run functionally;
//! the timed cluster runs a client read only for its cost
//! ([`Engine::execute_for_cost`](crate::Engine::execute_for_cost)), because
//! the demand reads nothing but a statement's `rows_examined` and
//! `rows_affected` — never its result rows. The demand model is
//! deliberately simple — a per-statement overhead plus per-row-examined and
//! per-row-written terms and a commit charge — with constants calibrated at
//! the experiment level so that the paper's observed saturation points land
//! where they did on m1.small instances (see `amdb-experiments::calib` and
//! EXPERIMENTS.md for the derivation).
//!
//! All outputs are in microseconds of *reference-speed* CPU time; the VM's
//! speed factor divides it at submission (see `amdb_sim::FifoCpu`).

use crate::exec::QueryResult;

/// Cost-model constants (µs of reference CPU).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Fixed per-statement overhead: parse, plan, protocol handling.
    pub stmt_overhead_us: f64,
    /// Per row examined by the executor (index probes, scans, join rows).
    pub per_row_examined_us: f64,
    /// Per row inserted/updated/deleted (index maintenance, logging).
    pub per_row_written_us: f64,
    /// Per-transaction commit charge on the master (fsync/group-commit
    /// analogue — EBS-backed fsync dominates small writes on m1.small).
    /// Charged once per operation by the harness, not per statement.
    pub commit_us: f64,
    /// Per-event commit charge on slaves. Replicas run with relaxed
    /// durability (the `innodb_flush_log_at_trx_commit=0` convention), so
    /// this is far below `commit_us` — which is what lets apply throughput
    /// exceed master write throughput and the slave fan-out scale.
    pub slave_commit_us: f64,
    /// Per-slave charge on the master for shipping one event (binlog read +
    /// network send) — the reason the master saturates slightly earlier as
    /// slaves are added.
    pub ship_per_event_us: f64,
    /// Per-event apply overhead on a slave, in addition to the statement's
    /// own execution cost.
    pub apply_overhead_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibrated for the paper's m1.small MySQL servers; see
        // EXPERIMENTS.md ("Calibration") for how these were derived from the
        // observed saturation points.
        Self {
            stmt_overhead_us: 1_500.0,
            per_row_examined_us: 1_550.0,
            per_row_written_us: 2_500.0,
            commit_us: 70_000.0,
            slave_commit_us: 2_000.0,
            ship_per_event_us: 300.0,
            apply_overhead_us: 1_200.0,
        }
    }
}

impl CostModel {
    /// Demand of executing one statement, given its result. `is_write` adds
    /// the per-row write term; the per-transaction [`Self::commit_us`] is
    /// charged separately, once per operation.
    pub fn statement_demand_us(&self, res: &QueryResult, is_write: bool) -> f64 {
        let mut us = self.stmt_overhead_us + self.per_row_examined_us * res.rows_examined as f64;
        if is_write {
            us += self.per_row_written_us * res.rows_affected as f64;
        }
        us
    }

    /// Demand charged to the master for shipping one binlog event to one
    /// slave.
    pub fn ship_demand_us(&self) -> f64 {
        self.ship_per_event_us
    }

    /// Demand of applying one shipped event on a slave: apply-thread
    /// overhead, the event's own row work, and the relaxed slave commit.
    /// No client-protocol overhead and no fsync-grade commit — slave applies
    /// are an order of magnitude cheaper than the original master write.
    pub fn apply_demand_us(&self, res: &QueryResult) -> f64 {
        self.apply_overhead_us
            + self.per_row_examined_us * res.rows_examined as f64
            + self.per_row_written_us * res.rows_affected as f64
            + self.slave_commit_us
    }

    /// Demand of applying a *group-commit batch* of shipped events planned
    /// by `amdb-apply`: every event's row work is still paid in full (one
    /// CPU core, so parallel workers add no raw capacity), but the batch
    /// shares a single apply-thread dispatch and a single relaxed commit —
    /// the amortization that multi-threaded apply actually buys on a
    /// saturated slave.
    ///
    /// A one-event batch delegates to [`Self::apply_demand_us`] so the
    /// `workers = 1` pipeline is *float-identical* (not merely close) to the
    /// classic serial apply thread — f64 addition order matters for the
    /// byte-identical-results contract.
    pub fn apply_batch_demand_us(&self, results: &[QueryResult]) -> f64 {
        match results {
            [] => 0.0,
            [one] => self.apply_demand_us(one),
            many => {
                let mut us = self.apply_overhead_us;
                for res in many {
                    us += self.per_row_examined_us * res.rows_examined as f64
                        + self.per_row_written_us * res.rows_affected as f64;
                }
                us + self.slave_commit_us
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(examined: u64, affected: u64) -> QueryResult {
        QueryResult {
            rows_examined: examined,
            rows_affected: affected,
            ..QueryResult::default()
        }
    }

    #[test]
    fn read_cost_scales_with_rows_examined() {
        let m = CostModel::default();
        let small = m.statement_demand_us(&result(10, 0), false);
        let big = m.statement_demand_us(&result(1000, 0), false);
        assert!(big > small);
        assert!((big - small - 990.0 * m.per_row_examined_us).abs() < 1e-9);
    }

    #[test]
    fn write_statement_adds_row_term_but_not_commit() {
        let m = CostModel::default();
        let read = m.statement_demand_us(&result(5, 0), false);
        let write = m.statement_demand_us(&result(5, 1), true);
        assert!((write - read - m.per_row_written_us).abs() < 1e-9);
    }

    #[test]
    fn apply_is_much_cheaper_than_master_write() {
        let m = CostModel::default();
        let master_write = m.statement_demand_us(&result(1, 1), true) + m.commit_us;
        let apply = m.apply_demand_us(&result(0, 1));
        assert!(
            apply * 5.0 < master_write,
            "apply {apply} vs master write {master_write}"
        );
    }

    #[test]
    fn singleton_batch_is_float_identical_to_serial_apply() {
        let m = CostModel::default();
        let res = result(3, 2);
        assert_eq!(
            m.apply_batch_demand_us(std::slice::from_ref(&res))
                .to_bits(),
            m.apply_demand_us(&res).to_bits(),
            "workers=1 must reproduce the serial path bit-for-bit"
        );
        assert_eq!(m.apply_batch_demand_us(&[]), 0.0);
    }

    #[test]
    fn batch_amortizes_overhead_and_commit_only() {
        let m = CostModel::default();
        let batch = [result(0, 1), result(0, 1), result(0, 1), result(0, 1)];
        let batched = m.apply_batch_demand_us(&batch);
        let serial: f64 = batch.iter().map(|r| m.apply_demand_us(r)).sum();
        let saved = serial - batched;
        let expected = 3.0 * (m.apply_overhead_us + m.slave_commit_us);
        assert!(
            (saved - expected).abs() < 1e-9,
            "batch of 4 saves exactly 3 dispatch+commit charges (saved {saved})"
        );
        assert!(
            batched > m.apply_demand_us(&batch[0]),
            "row work is never discounted"
        );
    }

    #[test]
    fn costs_are_positive() {
        let m = CostModel::default();
        assert!(m.statement_demand_us(&result(0, 0), false) > 0.0);
        assert!(m.ship_demand_us() > 0.0);
    }
}
