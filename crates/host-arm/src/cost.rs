//! The cycle-cost model of the simulated Arm host.
//!
//! Constants are calibrated once (`thunderx2_like`) so the *shape* of the
//! paper's Figures 12–15 reproduces: full barriers are an order of
//! magnitude costlier than plain ALU work, `DMB LD`/`DMB ST` are several
//! times cheaper than `DMB FF`, helper calls carry a fixed runtime
//! round-trip, soft-float is several times hardware FP, and contended
//! atomics are dominated by cache-line ping-pong. Absolute numbers are
//! simulator artifacts; EXPERIMENTS.md reports shape comparisons only.

/// Cycle costs per instruction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Plain ALU / move / compare.
    pub alu: u64,
    /// Multiply.
    pub mul: u64,
    /// Divide.
    pub div: u64,
    /// Plain load.
    pub load: u64,
    /// Plain store (into the store buffer).
    pub store: u64,
    /// Acquire load / release store extra cost.
    pub acq_rel_extra: u64,
    /// `DMB FF`.
    pub dmb_ff: u64,
    /// `DMB LD`.
    pub dmb_ld: u64,
    /// `DMB ST`.
    pub dmb_st: u64,
    /// Branch (taken or not).
    pub branch: u64,
    /// Call and return around a native library call (`NativeCall`).
    pub call: u64,
    /// Single-instruction atomic (`cas`/`casal`/`ldaddal`), uncontended.
    pub atomic: u64,
    /// Extra atomic cycles per *other* core recently hitting the same line.
    pub atomic_contend: u64,
    /// Exclusive load/store (`ldxr`/`stxr`), each.
    pub exclusive: u64,
    /// Fixed overhead of a helper call (jump out of the code cache, spill,
    /// run runtime code, return).
    pub helper_overhead: u64,
    /// Soft-float operation (executed inside a helper, on top of
    /// `helper_overhead`).
    pub softfloat: u64,
    /// Hardware floating-point operation.
    pub hardfloat: u64,
    /// Guest→host argument marshaling per native-library call (§6.2).
    pub marshal: u64,
    /// Following an already-patched chain slot (or a jump-cache hit) at a
    /// TB exit: effectively a direct branch inside the code cache.
    pub tb_chain: u64,
    /// Falling back to the dispatcher at a TB exit: spill, hash the guest
    /// pc into the translation map, reload, and branch. Charged on the
    /// first traversal of a direct exit (before it is chained) and on
    /// every indirect-branch jump-cache miss.
    pub tb_dispatch: u64,
    /// Window (in cycles) in which another core's RMW on the same address
    /// counts as contention.
    pub contend_window: u64,
}

impl CostModel {
    /// The calibrated model used by all experiments.
    pub fn thunderx2_like() -> CostModel {
        CostModel {
            alu: 1,
            mul: 4,
            div: 16,
            load: 4,
            store: 2,
            acq_rel_extra: 4,
            dmb_ff: 50,
            dmb_ld: 38,
            dmb_st: 18,
            branch: 1,
            call: 2,
            atomic: 24,
            atomic_contend: 260,
            exclusive: 12,
            helper_overhead: 65,
            softfloat: 26,
            hardfloat: 4,
            marshal: 22,
            tb_chain: 2,
            tb_dispatch: 14,
            contend_window: 600,
        }
    }

    /// A flat unit-cost model (useful in functional tests).
    pub fn uniform() -> CostModel {
        CostModel {
            alu: 1,
            mul: 1,
            div: 1,
            load: 1,
            store: 1,
            acq_rel_extra: 0,
            dmb_ff: 1,
            dmb_ld: 1,
            dmb_st: 1,
            branch: 1,
            call: 1,
            atomic: 1,
            atomic_contend: 0,
            exclusive: 1,
            helper_overhead: 1,
            softfloat: 1,
            hardfloat: 1,
            marshal: 1,
            tb_chain: 1,
            tb_dispatch: 1,
            contend_window: 0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::thunderx2_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_orderings_hold() {
        let c = CostModel::thunderx2_like();
        // The relationships the paper's analysis depends on.
        assert!(c.dmb_ff > c.dmb_ld, "the full fence beats DMB LD");
        assert!(c.dmb_ff > 2 * c.dmb_st, "the full fence dwarfs DMB ST");
        assert!(
            c.dmb_ff < c.dmb_ld + c.dmb_st,
            "fence merging (Frm·Fww → one full fence, §6.1) must be profitable"
        );
        assert!(c.dmb_ld > c.load, "even light fences beat plain loads");
        assert!(c.helper_overhead > c.atomic, "helper round-trip dominates an uncontended CAS");
        assert!(c.softfloat > 4 * c.hardfloat, "QEMU soft-float penalty");
        assert!(c.atomic_contend > c.atomic, "contention dominates the CAS itself");
        assert!(
            c.tb_dispatch > c.tb_chain,
            "the dispatcher map lookup must cost more than a patched chain"
        );
    }
}
