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
//!
//! Every scheme verdict is one row of [`table`]: the scheme, its models,
//! and where Theorem 1 must fail. [`check_row`] sweeps a row over
//! [`Sources`] and compares; the `verify_mappings` gate, the tests and the
//! tier-0 template rows all check through it.

use crate::gen::{
    generate_short_thread, generate_two_thread, tcg_fence_patterns, x86_alphabet,
    x86_alphabet_small,
};
use crate::scheme::{
    no_fences_x86_to_arm, qemu_x86_to_arm, verified_x86_to_arm, verified_x86_to_tso,
    ArmCatsIntended, HelperStyle, MappingScheme, VerifiedTcgToArm, VerifiedTcgToTso, X86ToTcg,
};
use risotto_litmus::{behaviors, corpus, Behavior, Program};
use risotto_memmodel::{Arm, FencePlacement, MemoryModel, RmwStyle, TcgIr, X86Tso};
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

// ---------------------------------------------------------------------
// The verdict table
// ---------------------------------------------------------------------

/// A memory model at one end of a [`Row`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// x86-TSO: the guest's model, and the MiniTSO host's.
    X86Tso,
    /// The TCG IR model (Fig. 6).
    TcgIr,
    /// Arm as published before the paper's fix (§3.3).
    ArmOriginal,
    /// Arm with the paper's `casal` strengthening: the host the DBT runs.
    ArmCorrected,
}

impl Model {
    /// Short name, as the verdict table prints it.
    pub fn name(self) -> &'static str {
        match self {
            Model::X86Tso => "x86-TSO",
            Model::TcgIr => "TCG",
            Model::ArmOriginal => "Arm original",
            Model::ArmCorrected => "Arm corrected",
        }
    }

    fn judge(self) -> Box<dyn MemoryModel> {
        match self {
            Model::X86Tso => Box::new(X86Tso::new()),
            Model::TcgIr => Box::new(TcgIr::new()),
            Model::ArmOriginal => Box::new(Arm::original()),
            Model::ArmCorrected => Box::new(Arm::corrected()),
        }
    }
}

/// One row of the verdict table: a scheme, the models it maps between,
/// and where Theorem 1 must fail on it.
pub struct Row {
    /// The row's name, unique in [`table`]; tests select rows by it.
    pub name: String,
    /// The mapping scheme.
    pub scheme: Box<dyn MappingScheme>,
    /// The model its source programs are judged in: [`Model::X86Tso`] or
    /// [`Model::TcgIr`], which also picks the programs of [`Sources`] it
    /// reads.
    pub from: Model,
    /// The model its target programs are judged in.
    pub to: Model,
    /// The corpus programs, by name and in corpus order, on which
    /// Theorem 1 fails; empty for a sound row.
    pub corpus_fails: &'static [&'static str],
    /// The number of programs of the full family ([`Sources::full`]) on
    /// which Theorem 1 fails.
    pub family_fails: usize,
}

impl Row {
    /// A sound row: Theorem 1 holds on every program it reads.
    pub fn new(name: &str, scheme: impl MappingScheme + 'static, from: Model, to: Model) -> Row {
        let scheme = Box::new(scheme);
        Row { name: name.into(), scheme, from, to, corpus_fails: &[], family_fails: 0 }
    }

    /// The row, failing exactly on the corpus programs `corpus` and on
    /// `family` programs of the full family.
    pub fn fails(self, corpus: &'static [&'static str], family: usize) -> Row {
        Row { corpus_fails: corpus, family_fails: family, ..self }
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Row").field("name", &self.name).finish_non_exhaustive()
    }
}

/// The verified x86→TCG row (Fig. 7a), through which the TCG sources are
/// built.
const VERIFIED: X86ToTcg = X86ToTcg(FencePlacement::VerifiedTrailing);

/// Every scheme the paper states a Theorem-1 verdict for, with that
/// verdict: QEMU's schemes fail on MPQ/SBQ (§3.2), the intended Fig. 3
/// mapping fails on SBAL under the original Arm model (§3.3), the
/// verified schemes are sound (§5.4), and the no-fences oracle is
/// knowingly incorrect.
pub fn table() -> Vec<Row> {
    let (x86, tcg, arm) = (Model::X86Tso, Model::TcgIr, Model::ArmCorrected);
    let (rmw2, casal) = (RmwStyle::Rmw2Fenced, RmwStyle::Casal);
    let (gcc9, gcc10) = (HelperStyle::Gcc9Lxsx, HelperStyle::Gcc10Casal);
    vec![
        Row::new("verified x86->tcg", VERIFIED, x86, tcg),
        Row::new("qemu x86->tcg", X86ToTcg(FencePlacement::QemuLeading), x86, tcg)
            .fails(&["MPQ(x86)"], 0),
        Row::new("verified tcg->arm (Rmw2Fenced)", VerifiedTcgToArm { rmw: rmw2 }, tcg, arm),
        Row::new("verified tcg->arm (Casal)", VerifiedTcgToArm { rmw: casal }, tcg, arm),
        Row::new("verified tcg->tso", VerifiedTcgToTso, tcg, x86),
        Row::new("verified x86->arm (Rmw2Fenced)", verified_x86_to_arm(rmw2), x86, arm),
        Row::new("verified x86->arm (Casal)", verified_x86_to_arm(casal), x86, arm),
        Row::new("verified x86->tso", verified_x86_to_tso(), x86, x86),
        Row::new("qemu x86->arm (Gcc9Lxsx)", qemu_x86_to_arm(gcc9), x86, arm)
            .fails(&["MPQ(x86)", "SBQ(x86)", "SBAL(x86)"], 1),
        Row::new("qemu x86->arm (Gcc10Casal)", qemu_x86_to_arm(gcc10), x86, arm)
            .fails(&["MPQ(x86)"], 0),
        Row::new("intended x86->arm (original Arm)", ArmCatsIntended, x86, Model::ArmOriginal)
            .fails(&["SBAL(x86)"], 1),
        Row::new("intended x86->arm (corrected Arm)", ArmCatsIntended, x86, arm),
        Row::new("no-fences x86->arm", no_fences_x86_to_arm(), x86, arm)
            .fails(&["MP", "LB", "IRIW", "2+2W", "S", "MPQ(x86)"], 21),
    ]
}

/// The rows of [`table`] named `names`, in `names` order.
///
/// # Panics
///
/// Panics on a name that is not in the table.
pub fn rows(names: &[&str]) -> Vec<Row> {
    let mut table = table();
    (names.iter())
        .map(|name| {
            let at = table.iter().position(|r| r.name == *name);
            table.swap_remove(at.unwrap_or_else(|| panic!("no row {name:?} in the verdict table")))
        })
        .collect()
}

/// The programs the rows are swept over. A row from x86 reads the x86
/// corpus ([`corpus::x86`]) and a two-thread family; a row from TCG reads
/// the same programs mapped through the verified x86→TCG row, plus the 48
/// [`tcg_fence_patterns`] in its family.
#[derive(Debug, Clone)]
pub struct Sources {
    x86: [Vec<Program>; 2],
    tcg: [Vec<Program>; 2],
    full: bool,
}

impl Sources {
    /// The full family: all 1 225 two-thread length-2 programs over
    /// [`x86_alphabet`]. Each row's family count is asserted exactly.
    pub fn full() -> Sources {
        Sources::with_family(generate_two_thread(&x86_alphabet(), 2, 1), true)
    }

    /// The debug-sized family: all 325 programs over
    /// [`x86_alphabet_small`], every 24th of the full family, and the 371
    /// programs over [`x86_alphabet`] in which a thread holds one
    /// instruction ([`generate_short_thread`]). A row with no full-family
    /// counterexample must find none here either; an unsound row's family
    /// count is not asserted.
    pub fn debug() -> Sources {
        let mut family = generate_two_thread(&x86_alphabet_small(), 2, 1);
        family.extend(generate_two_thread(&x86_alphabet(), 2, 24));
        family.extend(generate_short_thread(&x86_alphabet()));
        Sources::with_family(family, false)
    }

    fn with_family(family: Vec<Program>, full: bool) -> Sources {
        let corpus = Vec::from(corpus::x86());
        let to_tcg = |ps: &[Program]| ps.iter().map(|p| VERIFIED.map_program(p)).collect();
        let mut tcg_family: Vec<_> = to_tcg(&family);
        tcg_family.extend(tcg_fence_patterns());
        Sources { tcg: [to_tcg(&corpus), tcg_family], x86: [corpus, family], full }
    }

    /// The corpus and the family a row from `model` reads.
    ///
    /// # Panics
    ///
    /// Panics unless `model` is x86-TSO or TCG.
    pub fn of(&self, model: Model) -> &[Vec<Program>; 2] {
        match model {
            Model::X86Tso => &self.x86,
            Model::TcgIr => &self.tcg,
            other => panic!("no source programs in {other:?}"),
        }
    }
}

/// What sweeping a [`Row`] over [`Sources`] found.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The corpus programs on which Theorem 1 failed, in corpus order.
    pub corpus_fails: Vec<String>,
    /// The number of family programs on which it failed.
    pub family_fails: usize,
    /// `None` when the row's expectation holds: the corpus failures are
    /// exactly the row's, a row without family counterexamples found
    /// none, and on [`Sources::full`] the family count is the row's.
    /// Otherwise what differs, with a counterexample.
    pub mismatch: Option<String>,
}

/// Sweeps `row`'s scheme over the programs of `sources` it reads, with
/// [`check_mapping`], and compares the result with the row.
pub fn check_row(row: &Row, sources: &Sources) -> Verdict {
    let (from, to) = (row.from.judge(), row.to.judge());
    let [corpus, family] = sources.of(row.from);
    let fails = |ps: &[Program]| -> Vec<TranslationError> {
        ps.iter().filter_map(|p| check_mapping(&*row.scheme, p, &*from, &*to).err()).collect()
    };
    let (corpus_errs, family_errs) = (fails(corpus), fails(family));
    let corpus_fails: Vec<String> = corpus_errs.iter().map(|e| e.source.clone()).collect();
    let family_fails = family_errs.len();
    let unexpected = corpus_errs.iter().find(|e| !row.corpus_fails.contains(&e.source.as_str()));
    let mismatch = if corpus_fails != row.corpus_fails {
        let e = unexpected.map_or(String::new(), |e| format!("; {e}"));
        Some(format!("corpus fails {corpus_fails:?}, expected {:?}{e}", row.corpus_fails))
    } else if (sources.full || row.family_fails == 0) && family_fails != row.family_fails {
        let e = family_errs.first().map_or(String::new(), |e| format!("; {e}"));
        Some(format!("{family_fails} family fails, expected {}{e}", row.family_fails))
    } else {
        None
    };
    Verdict { corpus_fails, family_fails, mismatch }
}

/// Checks every row of `rows` over `sources`.
///
/// # Panics
///
/// Panics naming each row whose verdict differs from its expectation.
pub fn assert_rows(rows: &[Row], sources: &Sources) {
    let bad: Vec<String> = (rows.iter())
        .filter_map(|r| check_row(r, sources).mismatch.map(|m| format!("{}: {m}", r.name)))
        .collect();
    assert!(bad.is_empty(), "Theorem-1 verdicts differ from the table:\n  {}", bad.join("\n  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows named `names`, checked over the debug-sized sources. The
    /// other rows are slices of `tests/theorem1_sweep.rs`; each row is in
    /// one slice.
    fn slice(names: &[&str]) {
        assert_rows(&rows(names), &Sources::debug());
    }

    #[test]
    fn intended_mapping_fails_under_original_model_only() {
        slice(&["intended x86->arm (original Arm)", "intended x86->arm (corrected Arm)"]);
    }

    #[test]
    fn no_fences_oracle_is_incorrect() {
        slice(&["no-fences x86->arm"]);
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
