//! Host-speed probe: a fixed piece of work that lives in the benchmark, so
//! no change to the repository's crates can move it.
//!
//! The host's speed drifts by tens of percent over minutes, with CPU time
//! equal to wall time, so nothing inside a pass can tell a slow host from
//! slow code. The benchmark therefore times this probe right before and
//! after every pass it measures and scales the pass to a host on which the
//! probe takes [`REFERENCE_S`]: `raw × REFERENCE_S / probe`. A run reports
//! the interquartile mean of the scaled rounds. The probe runs on one
//! thread, also around the parallel pass: timed on every core at once it
//! read noisier, and scaled the parallel pass less steadily.
//!
//! The work mixes what the simulation does: dependent loads over a
//! working set that spills out of the per-core caches, hash-map inserts
//! and lookups, small allocations, and plain integer arithmetic. The drift
//! shows in the memory-bound parts, not in the integer work.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe seconds on the reference host (2 vCPU, the host the committed
/// baseline was measured on). Scaled times read as seconds on that host.
pub const REFERENCE_S: f64 = 0.175;

/// Entries of the pointer-chase table (16 MiB of `u32`).
const CHASE_LEN: usize = 1 << 22;
const CHASE_STEPS: usize = 600_000;
const MAP_KEYS: u64 = 40_000;
const ALLOCS: usize = 60_000;
const ALU_STEPS: u64 = 3_000_000;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One fixed unit of probe work on the chase table `next`; returns a
/// digest so none of it is elided.
fn work(next: &mut [u32]) -> u64 {
    let mut s = 0x5eed_u64;
    // A single random cycle through the table (Sattolo's shuffle), walked
    // with dependent loads.
    for (i, slot) in next.iter_mut().enumerate() {
        *slot = i as u32;
    }
    for i in (1..CHASE_LEN).rev() {
        let j = (splitmix(&mut s) % i as u64) as usize;
        next.swap(i, j);
    }
    let mut at = 0usize;
    for _ in 0..CHASE_STEPS {
        at = next[at] as usize;
    }
    let mut digest = at as u64;

    let mut map: HashMap<u64, u64> = HashMap::new();
    for k in 0..MAP_KEYS {
        map.insert(splitmix(&mut s), k);
    }
    let mut q = 0x1234_u64;
    for _ in 0..MAP_KEYS * 4 {
        digest = digest.wrapping_add(*map.get(&splitmix(&mut q)).unwrap_or(&1));
    }

    let mut boxes: Vec<Box<[u64]>> = Vec::with_capacity(ALLOCS);
    for i in 0..ALLOCS {
        boxes.push(vec![i as u64; 1 + i % 16].into_boxed_slice());
    }
    digest = digest.wrapping_add(boxes.iter().map(|b| b[b.len() - 1]).sum::<u64>());

    let mut x = digest | 1;
    for i in 0..ALU_STEPS {
        x = x.rotate_left(7).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i;
    }
    digest ^ x
}

/// The probe's chase table. It is allocated and touched once, so the probe
/// adds the same resident memory to the whole run instead of coming and
/// going around the measured passes.
pub struct Probe {
    table: Vec<u32>,
}

impl Probe {
    /// Allocate the table and run the probe once, so that first-touch
    /// costs stay out of the timed probes.
    pub fn new() -> Probe {
        let mut probe = Probe {
            table: (0..CHASE_LEN as u32).collect(),
        };
        probe.time_s();
        probe
    }

    /// Seconds one run of the probe takes.
    pub fn time_s(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(work(&mut self.table));
        t0.elapsed().as_secs_f64()
    }
}

/// `raw` seconds scaled to the reference host, given the probe seconds
/// measured next to it.
pub fn scaled(raw: f64, probe: f64) -> f64 {
    raw * REFERENCE_S / probe
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        let mut table = vec![7; CHASE_LEN];
        let first = work(&mut table);
        assert_eq!(first, work(&mut table));
    }

    #[test]
    fn a_host_half_as_fast_scales_back_to_the_same_time() {
        let fast = scaled(1.0, REFERENCE_S);
        let slow = scaled(2.0, 2.0 * REFERENCE_S);
        assert!((fast - 1.0).abs() < 1e-12 && (slow - 1.0).abs() < 1e-12);
    }
}
