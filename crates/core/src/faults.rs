//! Deterministic fault injection for the translation pipeline.
//!
//! A [`FaultPlan`] describes *where the pipeline is allowed to break*
//! during a run: targeted failures at specific guest pcs, failures of
//! specific host-library links, rejection of specific syscalls, and
//! seeded background failure rates per pipeline layer. The engine
//! consults the plan at each layer boundary and degrades gracefully —
//! translation and lowering failures fall back to interpreted execution,
//! TB-cache corruption is *detected* (checksum model) and re-translated,
//! host-link failures fall back to the translated guest implementation —
//! while syscall-layer faults surface as typed errors.
//!
//! Everything is deterministic: the same seed and the same program yield
//! the same fault sequence, so any failure a sweep finds reproduces
//! exactly.
//!
//! ```
//! use risotto_core::FaultPlan;
//!
//! let plan = FaultPlan::seeded(7).fail_translate_at(0x1_0000);
//! ```

use crate::rng::SplitMix64;
use std::collections::BTreeSet;
use std::fmt;

/// A pipeline layer boundary where a fault can be injected.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The guest decoder / TCG frontend fails for a block.
    Translate,
    /// The host backend fails to emit code for a block.
    Lower,
    /// An installed translation-cache entry is corrupted or evicted.
    /// Corruption is always *detected* (the cache-entry checksum model):
    /// the entry is discarded and re-translated, never executed.
    TbCache,
    /// Linking a host-library export fails; the call falls back to the
    /// translated guest implementation behind the PLT stub.
    HostCall,
    /// The syscall layer rejects a request.
    Syscall,
}

impl FaultSite {
    const COUNT: usize = 5;

    fn index(self) -> usize {
        match self {
            FaultSite::Translate => 0,
            FaultSite::Lower => 1,
            FaultSite::TbCache => 2,
            FaultSite::HostCall => 3,
            FaultSite::Syscall => 4,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultSite::Translate => "translate",
            FaultSite::Lower => "lower",
            FaultSite::TbCache => "tb-cache",
            FaultSite::HostCall => "host-call",
            FaultSite::Syscall => "syscall",
        })
    }
}

/// A deterministic, seeded fault-injection plan.
///
/// Build one with [`FaultPlan::seeded`] and the chainable `fail_*` /
/// [`FaultPlan::rate`] methods, then hand it to
/// [`Emulator::set_fault_plan`](crate::Emulator::set_fault_plan) before
/// linking and running. The default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Shared deterministic stream driving the background-rate rolls and
    /// victim picks (see [`SplitMix64`]). The default plan never consults
    /// it: all rates are zero.
    rng: SplitMix64,
    /// Per-site background failure probability in 1/65536 units.
    rates: [u16; FaultSite::COUNT],
    translate_pcs: BTreeSet<u64>,
    lower_pcs: BTreeSet<u64>,
    corrupt_pcs: BTreeSet<u64>,
    host_calls: BTreeSet<String>,
    syscall_nths: BTreeSet<u64>,
    install_nths: BTreeSet<u64>,
}

impl FaultPlan {
    /// A plan whose background rolls are driven by `seed` through the
    /// workspace-shared [`SplitMix64`] stream (nearby seeds give
    /// unrelated streams).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { rng: SplitMix64::new(seed), ..FaultPlan::default() }
    }

    /// Always fail frontend translation of the block starting at `pc`.
    #[must_use]
    pub fn fail_translate_at(mut self, pc: u64) -> Self {
        self.translate_pcs.insert(pc);
        self
    }

    /// Always fail backend lowering of the block starting at `pc`.
    #[must_use]
    pub fn fail_lower_at(mut self, pc: u64) -> Self {
        self.lower_pcs.insert(pc);
        self
    }

    /// Corrupt the installed translation of the block at `pc` once,
    /// after it is first installed. Detection discards and re-translates.
    #[must_use]
    pub fn corrupt_tb_at(mut self, pc: u64) -> Self {
        self.corrupt_pcs.insert(pc);
        self
    }

    /// Fail linking of host-library export `name`: the import stays on
    /// its translated guest implementation.
    #[must_use]
    pub fn fail_host_call(mut self, name: &str) -> Self {
        self.host_calls.insert(name.to_owned());
        self
    }

    /// Reject the `nth` serviced syscall (0-based, counted across all
    /// cores) with a typed error.
    #[must_use]
    pub fn fail_syscall_at(mut self, nth: u64) -> Self {
        self.syscall_nths.insert(nth);
        self
    }

    /// Flip one byte of the `nth` code install (0-based, counted across
    /// the run, every tier included) immediately after the bytes land
    /// in the code cache. The damage is only *detected* when the
    /// verifier's install-time read-back check is enabled
    /// ([`VerifyLevel::Install`](crate::VerifyLevel) or stronger), so
    /// this knob is never part of the background-rate sweeps.
    #[must_use]
    pub fn corrupt_install_at(mut self, nth: u64) -> Self {
        self.install_nths.insert(nth);
        self
    }

    /// Sets the background failure probability of `site` to
    /// `per_64k` / 65536 per decision.
    #[must_use]
    pub fn rate(mut self, site: FaultSite, per_64k: u16) -> Self {
        self.rates[site.index()] = per_64k;
        self
    }

    fn roll(&mut self, site: FaultSite) -> bool {
        let rate = self.rates[site.index()];
        rate != 0 && self.rng.below(65536) < rate as u64
    }

    /// Whether frontend translation of the block at `pc` fails now.
    pub fn translate_fails(&mut self, pc: u64) -> bool {
        self.translate_pcs.contains(&pc) || self.roll(FaultSite::Translate)
    }

    /// Whether backend lowering of the block at `pc` fails now.
    pub fn lower_fails(&mut self, pc: u64) -> bool {
        self.lower_pcs.contains(&pc) || self.roll(FaultSite::Lower)
    }

    /// Whether a background TB-cache corruption/eviction strikes now.
    pub fn tb_cache_strikes(&mut self) -> bool {
        self.roll(FaultSite::TbCache)
    }

    /// Takes (and consumes) the explicit one-shot corruption for `pc`.
    pub fn take_corrupt_tb(&mut self, pc: u64) -> bool {
        self.corrupt_pcs.remove(&pc)
    }

    /// Takes (and consumes) the planned install-time corruption for the
    /// `nth` install, if any.
    pub fn take_install_corruption(&mut self, nth: u64) -> bool {
        self.install_nths.remove(&nth)
    }

    /// Guest pcs with a pending explicit corruption.
    pub fn pending_corruptions(&self) -> Vec<u64> {
        self.corrupt_pcs.iter().copied().collect()
    }

    /// Whether linking export `name` fails now.
    pub fn host_call_fails(&mut self, name: &str) -> bool {
        self.host_calls.contains(name) || self.roll(FaultSite::HostCall)
    }

    /// Whether the `nth` serviced syscall is rejected now.
    pub fn syscall_fails(&mut self, nth: u64) -> bool {
        self.syscall_nths.contains(&nth) || self.roll(FaultSite::Syscall)
    }

    /// A deterministic index in `0..n` from the plan's stream (victim
    /// selection for background evictions). `n` must be non-zero.
    pub fn pick(&mut self, n: usize) -> usize {
        self.rng.usize_below(n)
    }

    /// `true` if the plan can never inject anything (the default plan).
    pub fn is_empty(&self) -> bool {
        self.rates.iter().all(|&r| r == 0)
            && self.translate_pcs.is_empty()
            && self.lower_pcs.is_empty()
            && self.corrupt_pcs.is_empty()
            && self.host_calls.is_empty()
            && self.syscall_nths.is_empty()
            && self.install_nths.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let mut p = FaultPlan::default();
        assert!(p.is_empty());
        for pc in 0..1000 {
            assert!(!p.translate_fails(pc));
            assert!(!p.lower_fails(pc));
            assert!(!p.tb_cache_strikes());
            assert!(!p.syscall_fails(pc));
        }
    }

    #[test]
    fn explicit_sites_fire_and_rates_are_deterministic() {
        let mut p = FaultPlan::seeded(42)
            .fail_translate_at(0x1_0000)
            .fail_host_call("sin")
            .rate(FaultSite::Translate, 6554); // ~10%
        assert!(p.translate_fails(0x1_0000));
        assert!(p.host_call_fails("sin"));
        assert!(!p.host_call_fails("cos"));

        let hits = |seed: u64| -> Vec<bool> {
            let mut p = FaultPlan::seeded(seed).rate(FaultSite::Translate, 6554);
            (0..64).map(|pc| p.translate_fails(pc)).collect()
        };
        assert_eq!(hits(42), hits(42), "same seed, same sequence");
        assert_ne!(hits(42), hits(43), "different seeds diverge");
        let n = hits(42).iter().filter(|&&b| b).count();
        assert!((1..=20).contains(&n), "~10% rate wildly off: {n}/64");
    }

    #[test]
    fn one_shot_corruption_is_consumed() {
        let mut p = FaultPlan::seeded(1).corrupt_tb_at(0x2_0000);
        assert_eq!(p.pending_corruptions(), vec![0x2_0000]);
        assert!(p.take_corrupt_tb(0x2_0000));
        assert!(!p.take_corrupt_tb(0x2_0000), "fires once");
        assert!(p.pending_corruptions().is_empty());
    }
}
