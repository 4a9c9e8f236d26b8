//! The contention model: which cores have recently taken a cache line
//! exclusively.
//!
//! An exclusive or atomic access pays a ping-pong penalty per *other*
//! core whose latest access to the same word lies inside the cost
//! model's window ([`CostModel::contend_window`](crate::CostModel)). This
//! table answers that count; what a contender costs is the machine's
//! business.

use std::collections::HashMap;

pub(crate) struct Contention {
    window: u64,
    /// Word → each core's latest access inside the window, as
    /// (cycle, core).
    sites: HashMap<u64, Vec<(u64, usize)>>,
    /// Table size at which the next sweep runs.
    sweep_at: usize,
}

impl Contention {
    pub(crate) fn new(window: u64) -> Contention {
        Contention { window, sites: HashMap::new(), sweep_at: 64 }
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
        if self.sites.len() >= self.sweep_at {
            let floor = floor();
            self.sites
                .retain(|_, h| h.iter().any(|&(t, _)| floor.saturating_sub(t) <= self.window));
            self.sweep_at = (2 * self.sites.len()).max(64);
        }
        // Each core's latest access decides whether it is still in the
        // window, so that is all a site keeps of it: dropping this core's
        // older entry leaves the other cores, each counted once.
        let hist = self.sites.entry(addr & !7).or_default();
        hist.retain(|&(t, c)| c != core && now.saturating_sub(t) <= self.window);
        let others = hist.len() as u64;
        hist.push((now, core));
        others
    }

    /// Number of words the table holds.
    #[cfg(test)]
    pub(crate) fn sites(&self) -> usize {
        self.sites.len()
    }
}
