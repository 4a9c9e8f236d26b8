//! Which core [`Machine::run`](crate::Machine::run) steps next, and for
//! how long.
//!
//! The scheduler sees one *key* per core — its clock while it is
//! runnable — and nothing else of the machine. Inside one `run` call only
//! the core being stepped changes its clock or run state, so `run` hands
//! over every key on entry and the stepped core's again when its quantum
//! ends, and each pick reads exactly what a scan of the cores would read
//! at that moment (DESIGN.md §6, "Scheduling: run quanta"). A quantum the
//! fuel cut short stays open here until the next `run` resumes it.

/// How [`Machine::run`](crate::Machine::run) picks the next core to step.
///
/// All three policies are deterministic (the random policy is seeded),
/// so any schedule-dependent failure reproduces exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Discrete-event order: the runnable core with the smallest local
    /// clock runs next (the default; reported runtime = max core clock).
    Deterministic,
    /// Seeded pseudo-random choice among runnable cores.
    Random(u64),
    /// Adversarial: always run the *most advanced* runnable core,
    /// maximizing clock skew between cores (worst case for code that
    /// polls cross-core state).
    Adversarial,
}

/// One step of the xorshift stream in `state` (which must not be zero).
#[inline]
pub(crate) fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The key of a core that is not runnable: below nothing.
const PARKED: u64 = u64::MAX;

/// A `(clock, index)` pair no core's compares below.
const NO_BOUND: (u64, usize) = (u64::MAX, usize::MAX);

/// A run quantum: the core a pick chose, the `(clock, index)` bound it
/// stays the pick below, and whether it has passed that bound (and so
/// may take only core-local steps).
pub(crate) type Quantum = (usize, (u64, usize), bool);

pub(crate) struct Scheduler {
    policy: SchedPolicy,
    /// The `Random` policy's xorshift state.
    state: u64,
    /// Per core, its clock, or [`PARKED`].
    keys: Vec<u64>,
    /// The quantum a `run` call left when its fuel ran out (see
    /// [`Scheduler::keep_open`]).
    open: Option<Quantum>,
}

impl Scheduler {
    pub(crate) fn new(n_cores: usize) -> Scheduler {
        Scheduler {
            policy: SchedPolicy::Deterministic,
            state: 0x243F_6A88_85A3_08D3,
            keys: vec![PARKED; n_cores],
            open: None,
        }
    }

    pub(crate) fn set_policy(&mut self, policy: SchedPolicy) {
        self.policy = policy;
        self.open = None;
        if let SchedPolicy::Random(seed) = policy {
            // Never let the xorshift state be zero.
            self.state = seed | 1;
        }
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

    /// `true` if a core past its bound may go on taking core-local
    /// steps: under `Deterministic` only. `Random` draws afresh for every
    /// step and `Adversarial` never passes a bound, so both keep the
    /// schedule a pick before every step would give.
    #[inline]
    pub(crate) fn runs_ahead(&self) -> bool {
        self.policy == SchedPolicy::Deterministic
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

    /// `true` if no core is runnable. Asked when the fuel is gone, in
    /// place of a pick: a `Random` draw is spent only on a step that
    /// happens, whatever the fuel slicing.
    #[inline]
    pub(crate) fn idle(&self) -> bool {
        self.keys.iter().all(|&k| k == PARKED)
    }

    /// Picks the next runnable core per the scheduling policy, and the
    /// `(clock, index)` bound below which that core stays the pick: the
    /// runner-up's under `Deterministic` (smallest clock first, lowest
    /// index on a tie), none under `Adversarial` (the leader only gets
    /// further ahead), and an immediate one under `Random`, which draws
    /// afresh for every step.
    #[inline]
    pub(crate) fn pick(&mut self) -> Option<(usize, (u64, usize))> {
        let mut runnable = self.keys.iter().enumerate().filter(|&(_, &clock)| clock != PARKED);
        match self.policy {
            SchedPolicy::Deterministic => {
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
            SchedPolicy::Adversarial => {
                // The first of the most advanced.
                let mut pick: Option<(usize, u64)> = None;
                for (i, &clock) in runnable {
                    if pick.is_none_or(|(_, leader)| clock > leader) {
                        pick = Some((i, clock));
                    }
                }
                pick.map(|(i, _)| (i, NO_BOUND))
            }
            SchedPolicy::Random(_) => {
                let n = runnable.clone().count() as u64;
                if n == 0 {
                    return None;
                }
                let x = xorshift(&mut self.state);
                runnable.nth((x % n) as usize).map(|(i, _)| (i, (0, 0)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler(policy: SchedPolicy, clocks: &[Option<u64>]) -> Scheduler {
        let mut s = Scheduler::new(clocks.len());
        s.set_policy(policy);
        for (core, &clock) in clocks.iter().enumerate() {
            s.set_clock(core, clock);
        }
        s
    }

    #[test]
    fn each_policy_picks_and_bounds_as_documented() {
        use SchedPolicy::*;
        let clocks = [None, Some(40), Some(90), Some(40), None, Some(90)];

        // Smallest clock, lowest index on a tie; the runner-up — here the
        // other half of the tie — is the bound.
        let mut s = scheduler(Deterministic, &clocks);
        assert_eq!(s.pick(), Some((1, (40, 3))));
        // The quantum ran core 1 past the tie: core 3 next, bounded by
        // the lowest-numbered of what is left.
        s.set_clock(1, Some(95));
        assert_eq!(s.pick(), Some((3, (90, 2))));
        // A lone runnable core is never bounded.
        assert_eq!(scheduler(Deterministic, &[None, Some(7)]).pick(), Some((1, NO_BOUND)));

        // The first of the most advanced, until it stops by itself.
        let mut s = scheduler(Adversarial, &clocks);
        assert_eq!(s.pick(), Some((2, NO_BOUND)));
        s.set_clock(2, None);
        assert_eq!(s.pick(), Some((5, NO_BOUND)));

        // One draw per pick selects among the runnable cores in index
        // order, and every (clock, index) is at or past the bound.
        let mut s = scheduler(Random(0xfeed), &clocks);
        let mut stream = 0xfeed | 1;
        for _ in 0..32 {
            let nth = (xorshift(&mut stream) % 4) as usize;
            assert_eq!(s.pick(), Some(([1, 2, 3, 5][nth], (0, 0))));
        }
        assert_eq!(s.state, stream);
    }

    #[test]
    fn an_open_quantum_survives_only_while_the_other_keys_hold() {
        let open = (1, (40, 0), true);
        let reopened = |clocks: &[Option<u64>]| {
            let mut s = scheduler(SchedPolicy::Deterministic, &[Some(40), Some(30), None]);
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
        // Resumed once, and a new policy closes it too.
        let mut s = scheduler(SchedPolicy::Deterministic, &[Some(40), Some(30)]);
        s.keep_open(open);
        assert_eq!((s.resume(), s.resume()), (Some(open), None));
        s.keep_open(open);
        s.set_policy(SchedPolicy::Deterministic);
        assert_eq!(s.resume(), None);
        assert!(s.runs_ahead());
        assert!(!scheduler(SchedPolicy::Random(1), &[]).runs_ahead());
        assert!(!scheduler(SchedPolicy::Adversarial, &[]).runs_ahead());
    }

    #[test]
    fn nothing_runnable_is_no_pick_and_no_draw() {
        for policy in [SchedPolicy::Deterministic, SchedPolicy::Adversarial] {
            let mut s = scheduler(policy, &[None, None]);
            assert!(s.idle());
            assert_eq!(s.pick(), None);
        }
        let mut s = scheduler(SchedPolicy::Random(6), &[None, None]);
        assert_eq!((s.idle(), s.pick(), s.state), (true, None, 7), "the stream did not move");
        s.set_clock(1, Some(3));
        assert_eq!((s.idle(), s.pick()), (false, Some((1, (0, 0)))));
        assert_ne!(s.state, 7);
    }
}
