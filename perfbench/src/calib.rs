//! Host-speed calibration.
//!
//! Host times are reported in reference seconds. On a shared 2-vCPU x86-64
//! VM the host's speed changed by up to 1.7x for seconds to minutes at a
//! time: over ten runs of the same code, raw `sim_ops_per_s` spread 17-33%
//! (IQR / median) and the raw median epoch time 12-32%. Around every round
//! the benchmark times a fixed kernel of its own, which never calls the
//! program under test, and scales the round's host times by
//! `REFERENCE_S / kernel time`. A slow spell stretches the kernel and the
//! round alike, so the ratio cancels most of it (the same spreads fell to
//! 5-15% and 6-10%); a change to the program cannot move the kernel, so it
//! shows in full. Raw times are kept in the run record.

use crate::span::now;

/// The kernel's time on an uncontended 2-vCPU x86-64 VM, in seconds.
pub const REFERENCE_S: f64 = 0.005;
/// Words in the kernel's table (8 MiB, larger than a typical L2).
const WORDS: usize = 1 << 20;
const STEPS: u32 = 1_000_000;

pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Self {
        Self {
            table: (0..WORDS as u64).collect(),
        }
    }

    /// Median of three timings of the kernel (random read-modify-writes
    /// over the table), in seconds.
    pub fn measure(&mut self) -> f64 {
        let mut times = [0.0; 3];
        for t in &mut times {
            let start = now();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            let mut acc = 0u64;
            for _ in 0..STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = x as usize & (WORDS - 1);
                acc = acc.wrapping_add(self.table[i]);
                self.table[i] = acc ^ x;
            }
            std::hint::black_box(acc);
            *t = now() - start;
        }
        times.sort_by(f64::total_cmp);
        times[1]
    }
}
