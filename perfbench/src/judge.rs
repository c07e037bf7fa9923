//! Output checks. Every check failure marks cells failed; failed ÷ attempted
//! is the benchmark's fail rate.

use crate::workloads::{fnv64, invariant_violation, Report, Workload};

/// One cell's result: its report, or why it produced none (a panic).
pub type CellResult = Result<Report, String>;

/// Which cells of one pass failed.
///
/// * `sigs[i]` is cell `i`'s report signature, `None` when the cell
///   panicked or broke an invariant;
/// * `reference` holds the signatures of an earlier clean pass of the same
///   inputs (a differing cell is nondeterministic);
/// * `fingerprint` is the rendered grid's FNV-1a, `None` when some cell
///   produced no report; a mismatch with `pinned` fails every cell, since a
///   grid-wide hash cannot name the cell at fault.
pub fn failed_cells(
    sigs: &[Option<String>],
    reference: Option<&[String]>,
    fingerprint: Option<u64>,
    pinned: Option<u64>,
) -> Vec<bool> {
    let grid_wrong = matches!((fingerprint, pinned), (Some(f), Some(p)) if f != p);
    sigs.iter()
        .enumerate()
        .map(|(i, sig)| match sig {
            None => true,
            Some(s) => grid_wrong || reference.is_some_and(|r| r[i] != *s),
        })
        .collect()
}

/// Running tally across every pass of a run.
#[derive(Default)]
pub struct Judge {
    pub attempted: u64,
    pub failed: u64,
    /// Signatures of the first clean pass: later passes must match it.
    reference: Option<Vec<String>>,
}

impl Judge {
    /// Judge one pass over the workload's cells. Its rendered tables, when
    /// it has them, are checked against the workload's pin.
    pub fn pass(&mut self, wl: &Workload, results: &[CellResult], rendered: Option<&str>) {
        let sigs: Vec<Option<String>> = results
            .iter()
            .zip(&wl.cells)
            .map(|(res, cell)| match res {
                Err(why) => {
                    eprintln!("perfbench: {} {}: panicked: {why}", wl.name, cell.label);
                    None
                }
                Ok(report) => match invariant_violation(report) {
                    Some(why) => {
                        eprintln!("perfbench: {} {}: {why}", wl.name, cell.label);
                        None
                    }
                    None => Some(report.signature()),
                },
            })
            .collect();
        let fingerprint = rendered.map(|s| fnv64(s.as_bytes()));
        let failed = failed_cells(&sigs, self.reference.as_deref(), fingerprint, wl.pinned);
        if let (Some(f), Some(p)) = (fingerprint, wl.pinned) {
            if f != p {
                eprintln!(
                    "perfbench: {} fingerprint {f:016x} != pinned {p:016x}",
                    wl.name
                );
            }
        }
        for (cell, _) in wl.cells.iter().zip(&failed).filter(|(_, &f)| f) {
            eprintln!("perfbench: {} {}: failed", wl.name, cell.label);
        }
        let n_failed = failed.iter().filter(|&&f| f).count() as u64;
        self.attempted += sigs.len() as u64;
        self.failed += n_failed;
        if self.reference.is_none() && n_failed == 0 {
            self.reference = Some(sigs.into_iter().flatten().collect());
        }
    }

    /// Count one check made outside a pass (a replay, the obs-off pass)
    /// as one attempt, failed unless `ok`.
    pub fn check(&mut self, ok: bool, wl: &Workload, label: &str, why: &str) {
        self.attempted += 1;
        if !ok {
            eprintln!("perfbench: {} {label}: {why}", wl.name);
            self.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_experiments::sweep::SweepSpec;
    use amdb_experiments::Fidelity;

    fn sigs(n: usize) -> Vec<Option<String>> {
        (0..n).map(|i| Some(format!("cell{i}"))).collect()
    }

    #[test]
    fn a_wrong_pinned_fingerprint_fails_every_cell() {
        let failed = failed_cells(&sigs(9), None, Some(0x1234), Some(0x5529_4b98_a489_afbd));
        assert_eq!(failed, vec![true; 9]);
    }

    #[test]
    fn a_matching_or_absent_pin_fails_nothing() {
        assert_eq!(
            failed_cells(&sigs(3), None, Some(7), Some(7)),
            vec![false; 3]
        );
        assert_eq!(failed_cells(&sigs(3), None, Some(7), None), vec![false; 3]);
    }

    #[test]
    fn panics_and_nondeterministic_cells_fail_alone() {
        let reference: Vec<String> = (0..3).map(|i| format!("cell{i}")).collect();
        let mut s = sigs(3);
        s[0] = None;
        s[2] = Some("drifted".into());
        assert_eq!(
            failed_cells(&s, Some(&reference), None, Some(7)),
            vec![true, false, true]
        );
    }

    #[test]
    fn a_grid_that_misses_its_pin_counts_every_cell_failed() {
        let mut spec = SweepSpec::fig2_fig5(Fidelity::Quick);
        spec.users = vec![50];
        spec.slaves = vec![1, 2];
        let run = |pin: u64| {
            let wl = Workload::sweep("fig2-thin", spec.clone(), None, pin);
            let tables = wl.produce(1);
            let mut judge = Judge::default();
            judge.pass(&wl, &tables.results, tables.rendered.as_deref());
            let rendered = tables.rendered.expect("every cell reported");
            (judge.attempted, judge.failed, fnv64(rendered.as_bytes()))
        };
        // The full grid's pin cannot match the thinned grid.
        let (attempted, failed, fp) = run(0x5529_4b98_a489_afbd);
        assert_eq!((attempted, failed), (2, 2));
        // Pinned to its own fingerprint, the same grid passes.
        assert_eq!(run(fp), (2, 0, fp));
    }
}
