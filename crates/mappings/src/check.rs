//! The executable Theorem 1 (§5.4): *transformation correctness*.
//!
//! > Suppose a source program `Ps` in model `Ms` is transformed to the
//! > target program `Pt` in model `Mt`. The transformation is correct if
//! > for each consistent target execution `Xt ∈ [[Pt]]Mt` there exists a
//! > consistent source execution `Xs ∈ [[Ps]]Ms` such that
//! > `Behav(Xt) = Behav(Xs)`.
//!
//! On litmus-sized programs both behavior sets are computed exhaustively,
//! so the check is a decision procedure: `behaviors(Pt, Mt) ⊆
//! behaviors(Ps, Ms)`. The paper proves the statement for *all* programs in
//! Agda; we verify it over the corpus plus a systematically generated
//! program family (see [`crate::gen`]), which in particular contains every
//! counterexample the paper reports.

use crate::scheme::MappingScheme;
use risotto_litmus::{behaviors, Behavior, Program};
use risotto_memmodel::MemoryModel;
use std::collections::BTreeMap;
use std::fmt;

/// How behaviors are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BehaviorScope {
    /// Final memory and final registers — the strongest observation. Valid
    /// whenever the transformation preserves the register file, which all
    /// our schemes and transformations do.
    MemoryAndRegisters,
    /// Final memory only — the paper's literal `Behav(X)`.
    MemoryOnly,
}

/// A Theorem-1 violation: a target behavior with no matching source
/// behavior.
#[derive(Debug, Clone)]
pub struct TranslationError {
    /// Source program name.
    pub source: String,
    /// Target program name.
    pub target: String,
    /// The behaviors of the target that the source cannot produce.
    pub new_behaviors: Vec<Behavior>,
}

impl fmt::Display for TranslationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "translation {} → {} introduces {} new behavior(s), e.g. {:?}",
            self.source,
            self.target,
            self.new_behaviors.len(),
            self.new_behaviors.first()
        )
    }
}

impl std::error::Error for TranslationError {}

/// Checks Theorem 1 for an explicit source/target program pair.
///
/// # Errors
///
/// Returns a [`TranslationError`] listing every target behavior the source
/// cannot exhibit.
pub fn check_translation<Ms, Mt>(
    src: &Program,
    src_model: &Ms,
    tgt: &Program,
    tgt_model: &Mt,
    scope: BehaviorScope,
) -> Result<(), TranslationError>
where
    Ms: MemoryModel + ?Sized,
    Mt: MemoryModel + ?Sized,
{
    let src_b = behaviors(src, src_model);
    let tgt_b = behaviors(tgt, tgt_model);
    let project = |b: &Behavior| -> (BTreeMap<_, _>, Option<Vec<BTreeMap<_, _>>>) {
        match scope {
            BehaviorScope::MemoryAndRegisters => (b.mem.clone(), Some(b.regs.clone())),
            BehaviorScope::MemoryOnly => (b.mem.clone(), None),
        }
    };
    let src_proj: std::collections::BTreeSet<_> = src_b.iter().map(&project).collect();
    let new: Vec<Behavior> =
        tgt_b.into_iter().filter(|b| !src_proj.contains(&project(b))).collect();
    if new.is_empty() {
        Ok(())
    } else {
        Err(TranslationError {
            source: src.name.clone(),
            target: tgt.name.clone(),
            new_behaviors: new,
        })
    }
}

/// Checks Theorem 1 for a mapping scheme applied to a source program.
///
/// # Errors
///
/// Propagates the [`TranslationError`] of [`check_translation`].
pub fn check_mapping<Ms, Mt, S>(
    scheme: &S,
    src: &Program,
    src_model: &Ms,
    tgt_model: &Mt,
) -> Result<(), TranslationError>
where
    Ms: MemoryModel + ?Sized,
    Mt: MemoryModel + ?Sized,
    S: MappingScheme + ?Sized,
{
    let tgt = scheme.map_program(src);
    check_translation(src, src_model, &tgt, tgt_model, BehaviorScope::MemoryAndRegisters)
}

/// Sweeps a scheme over a suite of programs; returns the list of failing
/// program names with their errors.
pub fn verify_suite<Ms, Mt, S>(
    scheme: &S,
    suite: &[Program],
    src_model: &Ms,
    tgt_model: &Mt,
) -> Vec<(String, TranslationError)>
where
    Ms: MemoryModel + ?Sized,
    Mt: MemoryModel + ?Sized,
    S: MappingScheme + ?Sized,
{
    let mut failures = Vec::new();
    for p in suite {
        if let Err(e) = check_mapping(scheme, p, src_model, tgt_model) {
            failures.push((p.name.clone(), e));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{
        no_fences_x86_to_arm, qemu_x86_to_arm, verified_x86_to_arm, ArmCatsIntended, HelperStyle,
    };
    use risotto_litmus::corpus;
    use risotto_memmodel::{Arm, RmwStyle, X86Tso};

    #[test]
    fn verified_scheme_passes_on_paper_counterexamples() {
        let x86 = X86Tso::new();
        let arm = Arm::corrected();
        for p in
            [corpus::mpq_x86(), corpus::sbq_x86(), corpus::sbal_x86(), corpus::mp(), corpus::sb()]
        {
            for rmw in [RmwStyle::Rmw2Fenced, RmwStyle::Casal] {
                let s = verified_x86_to_arm(rmw);
                check_mapping(&s, &p, &x86, &arm)
                    .unwrap_or_else(|e| panic!("verified scheme failed on {}: {e}", p.name));
            }
        }
    }

    #[test]
    fn qemu_scheme_fails_on_mpq_with_gcc10() {
        let s = qemu_x86_to_arm(HelperStyle::Gcc10Casal);
        let err = check_mapping(&s, &corpus::mpq_x86(), &X86Tso::new(), &Arm::corrected());
        assert!(err.is_err(), "Qemu's translation of MPQ must introduce behaviors");
    }

    #[test]
    fn qemu_scheme_fails_on_sbq_with_gcc9() {
        let s = qemu_x86_to_arm(HelperStyle::Gcc9Lxsx);
        let err = check_mapping(&s, &corpus::sbq_x86(), &X86Tso::new(), &Arm::corrected());
        assert!(err.is_err(), "Qemu's translation of SBQ must introduce behaviors");
    }

    #[test]
    fn qemu_scheme_is_fine_on_fence_free_mp() {
        // Qemu's errors are RMW-related; on plain MP its (over-strong)
        // fences are correct.
        let s = qemu_x86_to_arm(HelperStyle::Gcc10Casal);
        check_mapping(&s, &corpus::mp(), &X86Tso::new(), &Arm::corrected()).unwrap();
        check_mapping(&s, &corpus::sb(), &X86Tso::new(), &Arm::corrected()).unwrap();
    }

    #[test]
    fn intended_mapping_fails_under_original_model_only() {
        let p = corpus::sbal_x86();
        let s = ArmCatsIntended;
        assert!(check_mapping(&s, &p, &X86Tso::new(), &Arm::original()).is_err());
        check_mapping(&s, &p, &X86Tso::new(), &Arm::corrected()).unwrap();
    }

    #[test]
    fn no_fences_oracle_is_incorrect() {
        let s = no_fences_x86_to_arm();
        assert!(check_mapping(&s, &corpus::mp(), &X86Tso::new(), &Arm::corrected()).is_err());
    }

    #[test]
    fn memory_only_scope_is_weaker() {
        // On MP, the no-fences scheme's new behaviors are register-visible
        // only (final memory is always X=Y=1), so the MemoryOnly scope
        // passes while MemoryAndRegisters fails.
        let s = no_fences_x86_to_arm();
        let tgt = s.map_program(&corpus::mp());
        assert!(check_translation(
            &corpus::mp(),
            &X86Tso::new(),
            &tgt,
            &Arm::corrected(),
            BehaviorScope::MemoryOnly
        )
        .is_ok());
        assert!(check_translation(
            &corpus::mp(),
            &X86Tso::new(),
            &tgt,
            &Arm::corrected(),
            BehaviorScope::MemoryAndRegisters
        )
        .is_err());
    }
}
