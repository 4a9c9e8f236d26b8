//! A host-speed reference that shares no code with the repo.
//!
//! The container this benchmark runs in is a small virtual machine whose
//! speed drifts with its neighbours: the same binary on the same inputs
//! was measured at anything from 1.4 to 3.6 `guest_mips` within twenty
//! minutes, minutes at a time. No median over a twenty-second run
//! removes that. So every timed region is bracketed by short bursts of a
//! fixed calibration loop — SipHash map probes, independent arithmetic
//! lanes, scattered byte stores and an unpredictable branch, the mix the
//! emulator's own inner loops are made of — and host times are scaled by
//! how fast that loop ran against [`REFERENCE_RATE`]. The ratio is what
//! ROADMAP item 1 asks wall-time gates to be: measured in the same
//! process, within the same second. It is a first-order correction, not
//! a cure: it took the scatter between passes from 6–19 % down to 2–6 %,
//! and under the heaviest contention seen it still left runs 15–20 %
//! apart, which is why the host-time metrics carry the widest bound.
//!
//! The loop must never call into the crates under test: a change that
//! sped it up would hide its own gain.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calibration operations per second on the reference container when it
/// is quiet. Only the absolute scale of the host-time metrics depends on
/// it: on a quiet reference container a calibrated second is a second.
pub const REFERENCE_RATE: f64 = 1.95e7;

/// Map entries. The table's size sets how hard the loop is hit when a
/// neighbour takes the shared cache, and was chosen by regression of the
/// emulator's pass rate on the loop's rate over 30 passes at a time:
/// with 2^14 entries the emulator slowed 1.3 to 1.5 times as much as the
/// loop (in log terms), with 2^17 only 0.8 to 0.9 times, with 2^16
/// between 0.95 and 1.2 times.
const ENTRIES: u64 = 1 << 16;
/// Operations between two looks at the clock.
const BATCH: u64 = 4096;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The calibration loop and its state.
#[derive(Debug)]
pub struct Calibrator {
    map: HashMap<u64, u64>,
    bytes: Vec<u8>,
    state: [u64; 2],
    lanes: [u64; 8],
}

impl Calibrator {
    /// Builds the loop's tables.
    pub fn new() -> Calibrator {
        let map = (0..ENTRIES).map(|k| (k, k.wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect();
        Calibrator {
            map,
            bytes: vec![0; 1 << 18],
            state: [0x2545_F491_4F6C_DD1D, 0x9E37_79B9_7F4A_7C15],
            lanes: [1, 2, 3, 4, 5, 6, 7, 8],
        }
    }

    /// Spins for about `burst` and returns the host's speed relative to
    /// the quiet reference container (1.0 = as fast, 0.5 = half).
    pub fn speed(&mut self, burst: Duration) -> f64 {
        let t0 = Instant::now();
        let mut ops = 0u64;
        let mut acc = 0u64;
        loop {
            for _ in 0..BATCH {
                let a = xorshift(&mut self.state[0]);
                let b = xorshift(&mut self.state[1]);
                // Two independent probes and eight independent lanes:
                // the emulator's inner loops keep several chains in
                // flight, and a dependent chain alone slows less than
                // they do when a neighbour takes the core's resources.
                let va = self.map.get(&(a % ENTRIES)).copied().unwrap_or(0);
                let vb = self.map.get(&(b % ENTRIES)).copied().unwrap_or(0);
                for (k, lane) in self.lanes.iter_mut().enumerate() {
                    *lane = lane.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(k as u32 + 5) ^ va;
                }
                acc = acc.rotate_left(7) ^ vb ^ self.lanes[(a & 7) as usize];
                let i = (acc % self.bytes.len() as u64) as usize;
                if acc & 1 == 0 {
                    self.bytes[i] = self.bytes[i].wrapping_add(a as u8);
                } else {
                    acc = acc.wrapping_add(u64::from(self.bytes[i]));
                }
            }
            ops += BATCH;
            let elapsed = t0.elapsed();
            if elapsed >= burst {
                black_box(acc);
                return ops as f64 / elapsed.as_secs_f64() / REFERENCE_RATE;
            }
        }
    }
}

/// The shortest calibration burst. A burst that follows a longer stretch
/// of timed work spins for a fifth of that stretch, so that a workload
/// of few long programs is sampled as densely as one of many short ones.
const BURST: Duration = Duration::from_millis(10);
/// Timed work between two bursts (a burst waits for the next boundary
/// the caller reports, so that no timed region is ever interrupted).
const BURST_EVERY: Duration = Duration::from_millis(50);

/// Converts timed stretches of work into *calibrated seconds*: the
/// stretches between two calibration bursts are scaled by the mean host
/// speed the two bursts measured.
#[derive(Debug)]
pub struct CalibratedClock<'a> {
    calibrator: &'a mut Calibrator,
    speed: f64,
    since_burst: Duration,
    /// One entry per stretch: calibrated up to `settled`, wall seconds
    /// behind it.
    stretches: Vec<f64>,
    settled: usize,
}

impl<'a> CalibratedClock<'a> {
    /// Takes the opening burst.
    pub fn start(calibrator: &'a mut Calibrator) -> CalibratedClock<'a> {
        let speed = calibrator.speed(BURST);
        CalibratedClock {
            calibrator,
            speed,
            since_burst: Duration::ZERO,
            stretches: Vec::new(),
            settled: 0,
        }
    }

    /// A timed stretch just ended; spins a burst if one is due.
    pub fn add(&mut self, timed: Duration) {
        self.stretches.push(timed.as_secs_f64());
        self.since_burst += timed;
        if self.since_burst >= BURST_EVERY {
            self.burst();
        }
    }

    fn burst(&mut self) {
        let burst = BURST.max(self.since_burst / 5);
        let before = std::mem::replace(&mut self.speed, self.calibrator.speed(burst));
        for stretch in &mut self.stretches[self.settled..] {
            *stretch *= (before + self.speed) / 2.0;
        }
        self.settled = self.stretches.len();
        self.since_burst = Duration::ZERO;
    }

    /// Takes the closing burst; returns every stretch, in the order
    /// added, in calibrated seconds.
    pub fn finish(mut self) -> Vec<f64> {
        if self.settled < self.stretches.len() {
            self.burst();
        }
        self.stretches
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}
