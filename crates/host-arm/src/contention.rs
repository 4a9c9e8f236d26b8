//! The contention model: which cores have recently taken a cache line
//! exclusively.
//!
//! An exclusive or atomic access pays a ping-pong penalty per *other*
//! core whose latest access to the same word lies inside the cost
//! model's window ([`CostModel::contend_window`](crate::CostModel)). This
//! table answers that count; what a contender costs is the machine's
//! business.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for word addresses: one multiply and a fold. The keys are the
/// machine's own aligned addresses, which is what SipHash's collision
/// resistance is wasted on.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // The map takes its bucket from the low bits and its tag from
        // the high ones: fold the well-mixed top half down.
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

pub(crate) struct Contention {
    window: u64,
    cores: usize,
    /// Word → each core's latest access; `None` for a core that has
    /// none, or whose latest is known to lie outside the window.
    sites: HashMap<u64, Box<[Option<u64>]>, BuildHasherDefault<WordHasher>>,
    /// Table size at which the next sweep runs.
    sweep_at: usize,
}

impl Contention {
    pub(crate) fn new(window: u64, cores: usize) -> Contention {
        Contention { window, cores, sites: HashMap::default(), sweep_at: 64 }
    }

    /// Records `core`'s access to the word at `addr` at clock `now` and
    /// returns how many other cores are inside the window on it.
    ///
    /// `floor` is the slowest running core's clock, asked for only when
    /// the table has doubled since the last sweep: sites whose every
    /// access is older than the window as seen from there are dropped,
    /// since the next access would discard them unseen. (A core that
    /// starts later starts at its spawner's clock, not behind it.)
    pub(crate) fn others_in_window(
        &mut self,
        core: usize,
        addr: u64,
        now: u64,
        floor: impl FnOnce() -> u64,
    ) -> u64 {
        let window = self.window;
        if self.sites.len() >= self.sweep_at {
            let floor = floor();
            self.sites.retain(|_, slots| {
                slots.iter().flatten().any(|&t| floor.saturating_sub(t) <= window)
            });
            self.sweep_at = (2 * self.sites.len()).max(64);
        }
        // Each core's latest access decides whether it is still in the
        // window, so that is all a site keeps of it: one slot per core.
        let cores = self.cores;
        let slots = self.sites.entry(addr & !7).or_insert_with(|| vec![None; cores].into());
        let mut others = 0;
        for (c, slot) in slots.iter_mut().enumerate() {
            match *slot {
                _ if c == core => {}
                Some(t) if now.saturating_sub(t) <= window => others += 1,
                _ => *slot = None,
            }
        }
        slots[core] = Some(now);
        others
    }

    /// Number of words the table holds.
    #[cfg(test)]
    pub(crate) fn sites(&self) -> usize {
        self.sites.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::xorshift;

    /// The table as the machine had it before the per-core slots: a
    /// `Vec` of `(cycle, core)` per word behind SipHash, and the
    /// `retain` that walked it, kept as they were to be the reference.
    struct Reference {
        window: u64,
        sites: HashMap<u64, Vec<(u64, usize)>>,
        sweep_at: usize,
    }

    impl Reference {
        fn others_in_window(&mut self, core: usize, addr: u64, now: u64, floor: u64) -> u64 {
            if self.sites.len() >= self.sweep_at {
                self.sites
                    .retain(|_, h| h.iter().any(|&(t, _)| floor.saturating_sub(t) <= self.window));
                self.sweep_at = (2 * self.sites.len()).max(64);
            }
            let hist = self.sites.entry(addr & !7).or_default();
            hist.retain(|&(t, c)| c != core && now.saturating_sub(t) <= self.window);
            let others = hist.len() as u64;
            hist.push((now, core));
            others
        }
    }

    #[test]
    fn agrees_with_the_vec_it_replaced() {
        let mut rng = 0x5851_F42D_4C95_7F2D_u64;
        let mut counted = [0u32; 8];
        let mut sweeps = 0;
        for round in 0..64u64 {
            let cores = 1 + (round % 8) as usize;
            // The calibrated window, and the flat model's zero.
            let window = if round / 8 % 4 == 3 { 0 } else { 600 };
            let mut table = Contention::new(window, cores);
            let mut reference = Reference { window, sites: HashMap::new(), sweep_at: 64 };
            let mut clocks = vec![0u64; cores];
            for step in 0..5_000 {
                let r = xorshift(&mut rng);
                // Mostly the core furthest behind, as the schedule picks;
                // now and then any, so clocks also pass each other.
                let behind = (0..cores).min_by_key(|&c| clocks[c]).unwrap();
                let core = if r.is_multiple_of(4) { (r >> 4) as usize % cores } else { behind };
                // Steps around the window's edge, and now and then a long one.
                clocks[core] += match (r >> 8) % 16 {
                    0 => 600,
                    1 => 5_000,
                    n => (r >> 16) % (20 * n),
                };
                // Mostly a few hot words, some of them unaligned; and a
                // spread wide enough that the table sweeps.
                let addr = match (r >> 32) % 4 {
                    0 => 0x8000 + 8 * ((r >> 40) % 512),
                    _ => 0x1000 + 8 * ((r >> 40) % 2) + (r >> 50) % 8,
                };
                let now = clocks[core];
                let floor = *clocks.iter().min().unwrap();
                let want = reference.others_in_window(core, addr, now, floor);
                let before = table.sites();
                let got = table.others_in_window(core, addr, now, || floor);
                assert_eq!(got, want, "round {round} step {step}: core {core} at {addr:#x}");
                assert_eq!(table.sites(), reference.sites.len(), "round {round} step {step}");
                sweeps += u32::from(table.sites() < before);
                counted[got as usize] += 1;
            }
        }
        // Every contender count an eight-core machine can see, and sweeps.
        assert!(counted.iter().all(|&n| n > 0), "contender counts seen: {counted:?}");
        assert!(sweeps > 0);
    }
}
