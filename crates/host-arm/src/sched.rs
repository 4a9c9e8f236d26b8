//! Which core [`Machine::run`](crate::Machine::run) steps next, and for
//! how long.
//!
//! The machine has one schedule, discrete-event order: the runnable core
//! with the smallest clock steps next, the lowest index on a tie, so the
//! reported runtime is the largest core clock.
//!
//! The scheduler sees one *key* per core — its clock while it is
//! runnable — and nothing else of the machine. Inside one `run` call only
//! the core being stepped changes its clock or run state, so `run` hands
//! over every key on entry and the stepped core's again when its quantum
//! ends, and each pick reads exactly what a scan of the cores would read
//! at that moment (DESIGN.md §6, "Scheduling: run quanta"). A quantum the
//! fuel cut short stays open here until the next `run` resumes it.

/// The key of a core that is not runnable: below nothing.
const PARKED: u64 = u64::MAX;

/// A `(clock, index)` pair no core's compares below.
const NO_BOUND: (u64, usize) = (u64::MAX, usize::MAX);

/// A run quantum: the core a pick chose, the `(clock, index)` bound it
/// stays the pick below, and whether it has passed that bound (and so
/// may take only core-local steps).
pub(crate) type Quantum = (usize, (u64, usize), bool);

pub(crate) struct Scheduler {
    /// Per core, its clock, or [`PARKED`].
    keys: Vec<u64>,
    /// The quantum a `run` call left when its fuel ran out (see
    /// [`Scheduler::keep_open`]).
    open: Option<Quantum>,
}

impl Scheduler {
    pub(crate) fn new(n_cores: usize) -> Scheduler {
        Scheduler { keys: vec![PARKED; n_cores], open: None }
    }

    /// Records `core`'s clock, `None` while it is not runnable: every
    /// core's when a `run` call starts, the stepped core's when its
    /// quantum ends. An open quantum closes when its core stops being
    /// runnable or any other core's key moves: its bound was read off
    /// those keys, so whatever the engine did between two `run` calls
    /// that could change a pick makes the next `run` pick afresh.
    #[inline]
    pub(crate) fn set_clock(&mut self, core: usize, clock: Option<u64>) {
        let key = clock.unwrap_or(PARKED);
        if let Some((open, ..)) = self.open {
            if (core == open && key == PARKED) || (core != open && key != self.keys[core]) {
                self.open = None;
            }
        }
        self.keys[core] = key;
    }

    /// Keeps the quantum `run` was inside when its fuel ran out, for the
    /// next `run` call to resume: the same steps then follow however the
    /// fuel was sliced.
    #[inline]
    pub(crate) fn keep_open(&mut self, quantum: Quantum) {
        self.open = Some(quantum);
    }

    /// The open quantum, if one survived since the last `run` call.
    #[inline]
    pub(crate) fn resume(&mut self) -> Option<Quantum> {
        self.open.take()
    }

    /// Picks the runnable core with the smallest `(clock, index)` — the
    /// smallest clock, the lowest index on a tie — and the runner-up's
    /// `(clock, index)`: the bound below which that core stays the pick.
    #[inline]
    pub(crate) fn pick(&self) -> Option<(usize, (u64, usize))> {
        // Walked in index order, `<` on the clock alone is the
        // `(clock, index)` order, and `PARKED` is below nothing.
        let (mut best, mut runner_up) = (NO_BOUND, NO_BOUND);
        for (i, &clock) in self.keys.iter().enumerate() {
            if clock < best.0 {
                (best, runner_up) = ((clock, i), best);
            } else if clock < runner_up.0 {
                runner_up = (clock, i);
            }
        }
        (best != NO_BOUND).then_some((best.1, runner_up))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler(clocks: &[Option<u64>]) -> Scheduler {
        let mut s = Scheduler::new(clocks.len());
        for (core, &clock) in clocks.iter().enumerate() {
            s.set_clock(core, clock);
        }
        s
    }

    #[test]
    fn each_policy_picks_and_bounds_as_documented() {
        // Smallest clock, lowest index on a tie; the runner-up — here the
        // other half of the tie — is the bound.
        let mut s = scheduler(&[None, Some(40), Some(90), Some(40), None, Some(90)]);
        assert_eq!(s.pick(), Some((1, (40, 3))));
        // The quantum ran core 1 past the tie: core 3 next, bounded by
        // the lowest-numbered of what is left.
        s.set_clock(1, Some(95));
        assert_eq!(s.pick(), Some((3, (90, 2))));
        // Core 3 halted: the tie at 90 goes to the lower index.
        s.set_clock(3, None);
        assert_eq!(s.pick(), Some((2, (90, 5))));
        // A lone runnable core is never bounded.
        assert_eq!(scheduler(&[None, Some(7)]).pick(), Some((1, NO_BOUND)));
    }

    #[test]
    fn an_open_quantum_survives_only_while_the_other_keys_hold() {
        let open = (1, (40, 0), true);
        let reopened = |clocks: &[Option<u64>]| {
            let mut s = scheduler(&[Some(40), Some(30), None]);
            s.keep_open(open);
            for (core, &clock) in clocks.iter().enumerate() {
                s.set_clock(core, clock);
            }
            s.resume()
        };
        // The open core's own clock may move; it is being stepped.
        assert_eq!(reopened(&[Some(40), Some(45), None]), Some(open));
        // Another core charged, halted or started, or the open one
        // halted: pick afresh.
        assert_eq!(reopened(&[Some(90), Some(45), None]), None);
        assert_eq!(reopened(&[None, Some(45), None]), None);
        assert_eq!(reopened(&[Some(40), Some(45), Some(45)]), None);
        assert_eq!(reopened(&[Some(40), None, None]), None);
        // Resumed once.
        let mut s = scheduler(&[Some(40), Some(30)]);
        s.keep_open(open);
        assert_eq!((s.resume(), s.resume()), (Some(open), None));
    }

    #[test]
    fn nothing_runnable_is_no_pick_and_no_draw() {
        let mut s = scheduler(&[None, None]);
        assert_eq!(s.pick(), None);
        s.set_clock(1, Some(3));
        assert_eq!(s.pick(), Some((1, NO_BOUND)));
    }
}
