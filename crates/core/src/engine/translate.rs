//! Translation: one producer per tier — tier-0 template, tier-1 IR
//! pipeline, PLT native thunk — each handing a [`Candidate`] to the one
//! [`Emulator::commit`] path that verifies, installs, reads back and
//! maps it (or rolls it back), plus the quarantine bookkeeping behind
//! the interpreter fallback.

use super::{Emulator, Setup, TbMeta, VerifyLevel};
use crate::obs::TraceStage;
use risotto_analysis::event_sites;
use risotto_guest_x86::Gpr;
use risotto_host_arm::{
    AOp, BackendConfig, EncodingScratch, HostInsn, LowerScratch, MemOrder, TbExitKind, Xreg,
    ENV_BASE,
};
use risotto_tcg::{
    optimize_in, translate_block_counted, verify as tcg_verify, OptScratch, TcgBlock, TcgOp,
    VerifyError, VerifyPass, VerifyScratch,
};
use risotto_template::{translate_block_template, TemplateError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
#[cfg(doc)]
use {super::EmuConfig, super::EmuError, crate::faults::FaultPlan, risotto_host_arm::Event};

/// How many times a failing block is re-offered to the translator before
/// it is permanently interpreted.
const QUARANTINE_RETRY_LIMIT: u32 = 3;

/// Upper bound on tracked quarantined pcs; beyond it the
/// least-recently-touched entry is evicted (see [`Quarantine`]).
const QUARANTINE_CAPACITY: usize = 1024;

/// Why a translation could not be produced right now. All variants are
/// recoverable through the interpreter fallback; genuinely undecodable
/// guest bytes resurface there as [`EmuError::Translate`].
pub(super) enum TbFault {
    /// A [`FaultPlan`] injection at the frontend or backend boundary.
    Injected,
    /// The frontend failed to decode the guest block.
    Frontend,
    /// The backend failed to lower the block.
    Backend,
    /// The translation verifier rejected the produced translation (IR
    /// lint, fence-obligation check, or encoding read-back) and the
    /// block was discarded before it could be dispatched.
    Verify,
    /// The pc exhausted its re-translation retries and is permanently
    /// interpreted.
    Quarantined,
}

/// Bounded fallback bookkeeping: guest pc → failed translation attempts,
/// with least-recently-touched eviction at [`QUARANTINE_CAPACITY`] so a
/// guest sweeping an unbounded set of failing pcs cannot grow the map
/// without limit. Eviction may forget a pc's retry count; the evicted
/// block simply earns a fresh (still bounded) retry budget, which is
/// safe — quarantine only ever trades translation attempts for
/// interpreter time, never correctness.
#[derive(Debug, Default)]
pub(super) struct Quarantine {
    /// pc → (failed attempts, last-touch stamp).
    map: HashMap<u64, (u32, u64)>,
    /// Monotonic touch stamp; unique per touch, so LRU victims are
    /// deterministic even over `HashMap` iteration.
    stamp: u64,
}

impl Quarantine {
    /// Failed attempts recorded for `pc` (0 if untracked); refreshes
    /// the entry's LRU stamp.
    fn attempts(&mut self, pc: u64) -> u32 {
        self.stamp += 1;
        let stamp = self.stamp;
        match self.map.get_mut(&pc) {
            Some(e) => {
                e.1 = stamp;
                e.0
            }
            None => 0,
        }
    }

    /// Whether `pc` is currently quarantined (no LRU refresh).
    fn contains(&self, pc: u64) -> bool {
        self.map.contains_key(&pc)
    }

    /// Records one more failed attempt for `pc`, evicting the
    /// least-recently-touched entry if the map is full.
    fn note_failure(&mut self, pc: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self.map.get_mut(&pc) {
            e.0 += 1;
            e.1 = stamp;
            return;
        }
        if self.map.len() >= QUARANTINE_CAPACITY {
            // Tie-break equal stamps on the guest pc: iteration order of
            // the map is hash-seeded, and fault-sweep runs must be
            // reproducible.
            if let Some(victim) =
                self.map.iter().min_by_key(|(&pc, &(_, s))| (s, pc)).map(|(&pc, _)| pc)
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(pc, (1, stamp));
    }

    /// Clears `pc` (a successful translation ends its quarantine).
    fn clear(&mut self, pc: u64) {
        self.map.remove(&pc);
    }

    /// Number of tracked pcs (always ≤ [`QUARANTINE_CAPACITY`]).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The translate path's working memory, one per [`Emulator`]: every
/// table the optimizer, the register allocator, the assembler and the
/// three verifier passes need per block, plus the buffer a candidate is
/// encoded into. Stages clear what they use on entry and never shrink
/// it, so once the largest block has been seen a translation allocates
/// only what it hands to the code cache (DESIGN.md §6, "Translation
/// scratch and allocation discipline") — and a stage
/// that bailed out half-way cannot leak state into the next block.
#[derive(Debug, Default)]
pub(super) struct TranslateScratch {
    opt: OptScratch,
    lower: LowerScratch,
    verify: VerifyScratch,
    encoding: EncodingScratch,
    /// The candidate's one encoding: what the encoding check reads,
    /// what the code cache installs and what the read-back compares.
    bytes: Vec<u8>,
}

/// What the [`VerifyLevel::Full`] static passes check
/// (docs/VERIFIER.md): the optimized block that was lowered, and the
/// verifier's own relaxation mask (empty = nothing relaxed). The
/// unoptimized block the fence obligations are derived from is not kept:
/// the producer captures what Pass 2 needs of it into the verifier
/// scratch before optimizing it in place.
struct FullCheck {
    optimized: TcgBlock,
    relax_mask: Vec<bool>,
}

/// Host code a tier's producer offers to [`Emulator::commit`]. The
/// producers differ only in how `code` came to be; everything that makes
/// it dispatchable is `commit`'s.
struct Candidate {
    guest_pc: u64,
    code: Vec<HostInsn>,
    /// `Some` at [`VerifyLevel::Full`] from the producer that builds IR
    /// (tier-1); templates and thunks have no per-block IR.
    full: Option<FullCheck>,
}

impl Candidate {
    /// A candidate with nothing for the static passes.
    fn block(guest_pc: u64, code: Vec<HostInsn>) -> Candidate {
        Candidate { guest_pc, code, full: None }
    }
}

impl Emulator {
    /// The 16-byte instruction window at `pc` (zero-padded outside
    /// `.text`) — what every decoder in the engine reads through.
    pub(super) fn fetch(&self, pc: u64) -> [u8; 16] {
        self.binary.window(pc)
    }

    /// The backend configuration every producer lowers with and the
    /// encoding check decodes against.
    fn backend_config(&self) -> BackendConfig {
        self.setup.backend_config(self.config.rmw_style)
    }

    /// Fires a planned install-time corruption ([`FaultPlan::corrupt_install_at`])
    /// against the freshly installed region at `host`, if one is due.
    fn maybe_corrupt_install(&mut self, host: u64) {
        let nth = self.counts.installs_done;
        self.counts.installs_done += 1;
        if !self.config.fault_plan.take_install_corruption(nth) {
            return;
        }
        let len = self.machine.code_bytes(host).map_or(0, <[u8]>::len);
        if len > 0 {
            let off = self.config.fault_plan.pick(len);
            if self.machine.corrupt_code_byte(host, off) {
                self.counts.faults_injected += 1;
                self.counts.faults_install += 1;
            }
        }
    }

    /// Install-time read-back check: the bytes resident in the code
    /// cache at `host` must be exactly `expect`, the canonical encoding
    /// of the instructions that were installed.
    fn check_install_bytes(
        &self,
        guest_pc: u64,
        host: u64,
        expect: &[u8],
    ) -> Result<(), VerifyError> {
        let got = self.machine.code_bytes(host).unwrap_or(&[]);
        if got != expect {
            let off = expect
                .iter()
                .zip(got)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| expect.len().min(got.len()));
            return Err(VerifyError {
                pass: VerifyPass::Encoding,
                guest_pc,
                op_index: None,
                obligation: format!(
                    "installed bytes differ from canonical encoding at code offset {off}"
                ),
            });
        }
        Ok(())
    }

    /// Counts a verifier violation into the per-pass counters and emits
    /// a fault trace event.
    fn record_verify_violation(&mut self, core: Option<usize>, e: &VerifyError) {
        match e.pass {
            VerifyPass::IrLint => self.counts.verify_ir += 1,
            VerifyPass::FenceObligations => self.counts.verify_fence += 1,
            VerifyPass::Encoding => self.counts.verify_encoding += 1,
        }
        let tb_id = self.tb_id(e.guest_pc);
        self.obs.trace(TraceStage::Fault, core, Some(e.guest_pc), tb_id, || e.to_string());
    }

    /// The static validation of [`VerifyLevel::Full`], run on a
    /// candidate before it is installed: IR lint, fence-obligation check
    /// of the optimized block against the unoptimized reference, and the
    /// host decode-back encoding check of the candidate's encoding
    /// `bytes`.
    fn verify_translation(
        &mut self,
        cand: &Candidate,
        full: &FullCheck,
        bytes: &[u8],
    ) -> Result<(), VerifyError> {
        let (fences, policy) = (self.setup.frontend().fences, self.setup.opt_policy());
        let (host, backend) = (self.config.backend.host(), self.backend_config());
        let scratch = &mut self.scratch;
        tcg_verify::lint_in(&full.optimized, &mut scratch.verify)?;
        tcg_verify::check_captured(
            &full.optimized,
            fences,
            policy,
            &full.relax_mask,
            &mut scratch.verify,
        )?;
        host.check_encoding_in(&full.optimized, &cand.code, bytes, backend, &mut scratch.encoding)
    }

    /// The one path by which host code becomes dispatchable, whatever
    /// tier produced it: Full-level static passes, install, the planned
    /// corruption hook, read-back, then mapping and bookkeeping — or
    /// rollback. At every [`VerifyLevel`] the installed bytes are read
    /// back and checked *before* a block is mapped; a mismatch discards
    /// the region, so corrupt code is never dispatchable.
    fn commit(&mut self, core: Option<usize>, cand: Candidate) -> Result<u64, TbFault> {
        // Encoded once, here: these bytes are what the encoding check
        // reads, what the cache installs and what the read-back
        // compares against.
        let mut bytes = std::mem::take(&mut self.scratch.bytes);
        bytes.clear();
        for i in &cand.code {
            i.encode(&mut bytes);
        }
        let committed = self.commit_encoded(core, cand, &bytes);
        self.scratch.bytes = bytes;
        committed
    }

    /// [`Emulator::commit`] past the encode: `bytes` is `cand.code`'s
    /// encoding.
    fn commit_encoded(
        &mut self,
        core: Option<usize>,
        cand: Candidate,
        bytes: &[u8],
    ) -> Result<u64, TbFault> {
        if let Some(full) = &cand.full {
            self.counts.verify_checked += 1;
            if let Err(e) = self.verify_translation(&cand, full, bytes) {
                self.record_verify_violation(core, &e);
                return Err(TbFault::Verify);
            }
        }
        let Candidate { guest_pc, code, .. } = cand;
        let host = self.machine.install_bytes(bytes);
        self.maybe_corrupt_install(host);
        self.counts.verify_checked += 1;
        if let Err(err) = self.check_install_bytes(guest_pc, host, bytes) {
            self.record_verify_violation(core, &err);
            self.machine.discard_region(host);
            return Err(TbFault::Verify);
        }
        self.machine.map_tb(guest_pc, host);
        self.counts.tb_count += 1;
        let id = match self.tbs.entry(guest_pc) {
            Entry::Occupied(meta) => {
                self.counts.retranslations += 1;
                meta.get().id
            }
            Entry::Vacant(slot) => {
                slot.insert(TbMeta { id: self.counts.tb_count as u64, tier0: false }).id
            }
        };
        self.obs.trace(TraceStage::Install, core, Some(guest_pc), Some(id), || {
            format!("{} host insns", code.len())
        });
        Ok(host)
    }

    /// Routes [`Event::HotTb`] up the tier ladder: a block still
    /// installed as a tier-0 template re-translates through the tier-1
    /// IR pipeline. The machine raises the event at every multiple of
    /// [`EmuConfig::warm_threshold`] entries, so a failed promotion is
    /// re-offered later; it counts those entries itself, so no
    /// observability setting moves a promotion.
    pub(super) fn on_hot_tb(&mut self, core: usize, guest_pc: u64) {
        if self.tbs.get(&guest_pc).is_some_and(|meta| meta.tier0) {
            self.promote_template(core, guest_pc);
        }
    }

    /// Sets the tier-0 mark of the block installed at `guest_pc`.
    fn set_tier0(&mut self, guest_pc: u64, tier0: bool) {
        if let Some(meta) = self.tbs.get_mut(&guest_pc) {
            meta.tier0 = tier0;
        }
    }

    /// Whether the translation at `guest_pc` can move up a tier: it must
    /// still be installed, not be a PLT thunk, and not be quarantined.
    fn promotable(&self, guest_pc: u64) -> bool {
        self.machine.lookup_tb(guest_pc).is_some()
            && !self.plt_natives.contains_key(&guest_pc)
            && !self.quarantine.contains(guest_pc)
    }

    /// Promotes a warm tier-0 pc: the block re-translates through the
    /// full tier-1 pipeline (optimizer, register allocator, Full-level
    /// verifier passes when enabled) and the result is installed over
    /// the template body — the rebind unlinks chain words into the old
    /// code. Failure (injected or real) keeps the template translation:
    /// correctness never depends on promotion.
    fn promote_template(&mut self, core: usize, guest_pc: u64) {
        if !self.promotable(guest_pc) {
            // Stale candidate: evicted or quarantined since it was
            // marked.
            self.set_tier0(guest_pc, false);
            return;
        }
        let produced = self
            .produce(Some(core), guest_pc, false)
            .and_then(|cand| self.commit(Some(core), cand));
        match produced {
            Ok(_) => {
                self.set_tier0(guest_pc, false);
                self.counts.template_promotions += 1;
            }
            Err(_) => self.counts.template_promotion_failures += 1,
        }
    }

    /// Produces the candidate for one guest block: the marshaling thunk
    /// behind a host-linked PLT entry, else a tier-0 template
    /// instantiation (`tier0`) or the tier-1 IR pipeline. The two
    /// translating tiers share the [`FaultPlan`]'s injection sites: the
    /// frontend boundary here, before any decode, and the backend
    /// boundary in [`Emulator::lower_fault`].
    fn produce(
        &mut self,
        core: Option<usize>,
        guest_pc: u64,
        tier0: bool,
    ) -> Result<Candidate, TbFault> {
        if let Some(&(func, nargs)) = self.plt_natives.get(&guest_pc) {
            return Ok(Candidate::block(guest_pc, self.build_native_thunk(func, nargs)));
        }
        if self.config.fault_plan.translate_fails(guest_pc) {
            self.counts.faults_injected += 1;
            return Err(TbFault::Injected);
        }
        if tier0 {
            self.produce_template(core, guest_pc)
        } else {
            self.produce_tier1(core, guest_pc)
        }
    }

    /// The [`FaultPlan`]'s backend-boundary injection site: after the
    /// tier-1 optimizer, after a tier-0 template instantiation.
    fn lower_fault(&mut self, guest_pc: u64) -> Result<(), TbFault> {
        if self.config.fault_plan.lower_fails(guest_pc) {
            self.counts.faults_injected += 1;
            return Err(TbFault::Injected);
        }
        Ok(())
    }

    /// Tier-1 producer: frontend → analysis relaxation → optimizer →
    /// backend lowering, one trace event per stage.
    fn produce_tier1(&mut self, core: Option<usize>, guest_pc: u64) -> Result<Candidate, TbFault> {
        let frontend = self.setup.frontend();
        let (mut block, insns) = translate_block_counted(guest_pc, frontend, |a| self.fetch(a))
            .map_err(|_| TbFault::Frontend)?;
        // The denominator of the per-tier translation-cost metrics
        // (`translate.insns`).
        self.counts.tier1_insns += insns as u64;
        for op in &block.ops {
            if let TcgOp::Fence(k) = op {
                if let Some(i) = k.tcg_index() {
                    self.counts.fence_inserted[i] += 1;
                }
            }
        }
        self.obs.trace(TraceStage::Decode, core, Some(guest_pc), None, || {
            format!("{} ops", block.ops.len())
        });
        // Analysis-driven relaxation (docs/ANALYSIS.md): the engine
        // mask relaxes the frontend block before optimization; the
        // verifier mask is re-derived from the pristine facts, so a
        // wrong "private" claim (e.g. an injected mutant) is rejected
        // by Pass 2 at install time.
        let masks = self.analysis.as_ref().map(|facts| {
            let sites = event_sites(guest_pc, block.guest_len as u64, |a| self.fetch(a));
            let verifier: Vec<bool> =
                sites.iter().map(|&(p, plain)| plain && facts.relaxable(p)).collect();
            let engine: Vec<bool> = sites
                .iter()
                .zip(&verifier)
                .map(|(&(p, plain), &v)| v || (plain && self.forced_private.contains(&p)))
                .collect();
            (engine, verifier)
        });
        // The unoptimized block is the fence-obligation reference the
        // Full-level verifier validates the optimized result against.
        let full = self.config.verify == VerifyLevel::Full;
        if full {
            let verifier_mask = masks.as_ref().map_or(&[][..], |(_, verifier)| verifier);
            self.scratch.verify.capture_reference(&block, frontend.fences, verifier_mask);
        }
        if let Some((engine_mask, _)) = &masks {
            let removed = tcg_verify::relax_block_in(
                &mut block,
                frontend.fences,
                engine_mask,
                &mut self.scratch.verify,
            );
            if removed > 0 {
                self.counts.analysis_relaxed += removed as u64;
                self.counts.analysis_relaxed_blocks += 1;
            }
        }
        let policy = self.setup.opt_policy();
        let stats = optimize_in(&mut block, policy, self.config.passes, &mut self.scratch.opt);
        self.counts.opt_totals += stats;
        self.obs.trace(TraceStage::Opt, core, Some(guest_pc), None, || {
            format!(
                "folded {}, forwarded {}, fences merged {}, dce {}",
                stats.folded, stats.loads_forwarded, stats.fences_merged, stats.dce_removed
            )
        });
        self.lower_fault(guest_pc)?;
        let (host, backend) = (self.config.backend.host(), self.backend_config());
        let out = host
            .lower_block_in(&block, backend, &mut self.scratch.lower)
            .map_err(|_| TbFault::Backend)?;
        self.counts.regalloc_totals += out.alloc;
        let code = out.insns;
        self.obs.trace(TraceStage::Encode, core, Some(guest_pc), None, || {
            format!("{} host insns", code.len())
        });
        let full = full.then(|| FullCheck {
            optimized: block,
            relax_mask: masks.map(|(_, verifier)| verifier).unwrap_or_default(),
        });
        Ok(Candidate { full, ..Candidate::block(guest_pc, code) })
    }

    /// Tier-0 producer: translates one block by IR-less template
    /// instantiation — no `TcgOp` block is built and no optimizer,
    /// register allocator or per-block static verifier pass runs. The
    /// template set is verified once, statically, by the test suite
    /// (Theorem-1 per template per backend); only the install-time
    /// encoding read-back remains on this path.
    fn produce_template(
        &mut self,
        core: Option<usize>,
        guest_pc: u64,
    ) -> Result<Candidate, TbFault> {
        let (frontend, backend) = (self.setup.frontend(), self.backend_config());
        let host = self.config.backend.host();
        let blk = translate_block_template(guest_pc, frontend, backend, host, |a| self.fetch(a))
            .map_err(|err| match err {
                TemplateError::Decode(_) => TbFault::Frontend,
                TemplateError::Lower(_) => TbFault::Backend,
            })?;
        self.lower_fault(guest_pc)?;
        self.counts.template_blocks += 1;
        self.counts.template_insns += blk.insns as u64;
        self.obs.trace(TraceStage::Decode, core, Some(guest_pc), None, || {
            format!("tier-0 template: {} guest insns", blk.insns)
        });
        Ok(Candidate::block(guest_pc, blk.code))
    }

    /// Ensures a translation exists for `guest_pc`; returns its host pc,
    /// or the (recoverable) reason none could be produced. Verifier
    /// rejections take the same quarantine path as pipeline failures:
    /// bounded re-translation, interpreter fallback in between.
    pub(super) fn ensure_translated(
        &mut self,
        core: Option<usize>,
        guest_pc: u64,
    ) -> Result<u64, TbFault> {
        if let Some(host) = self.machine.lookup_tb(guest_pc) {
            return Ok(host);
        }
        let prior = self.quarantine.attempts(guest_pc);
        if prior > QUARANTINE_RETRY_LIMIT {
            return Err(TbFault::Quarantined);
        }
        if prior > 0 {
            // A bounded re-translate retry of a previously failing block.
            self.counts.retranslations += 1;
        }
        // Cold code gets the near-zero-latency template tier; the
        // machine's entry count re-translates it through tier-1 when it
        // warms up.
        let tier0 = self.tier0_active() && !self.plt_natives.contains_key(&guest_pc);
        let produced = self.produce(core, guest_pc, tier0).and_then(|cand| self.commit(core, cand));
        match produced {
            Ok(host) => {
                if tier0 {
                    self.set_tier0(guest_pc, true);
                }
                self.quarantine.clear(guest_pc);
                Ok(host)
            }
            Err(fault) => {
                if prior == 0 {
                    self.counts.fallback_blocks += 1;
                }
                self.quarantine.note_failure(guest_pc);
                self.obs.trace(TraceStage::Fault, core, Some(guest_pc), None, || {
                    let what = match fault {
                        TbFault::Injected => "injected fault",
                        TbFault::Frontend => "frontend decode failure",
                        TbFault::Backend => "backend lowering failure",
                        TbFault::Verify => "translation verification failure",
                        TbFault::Quarantined => "quarantined",
                    };
                    format!("{what}; interpreter fallback (attempt {})", prior + 1)
                });
                Err(fault)
            }
        }
    }

    /// Builds the marshaling thunk that calls a native host function from
    /// guest code (§6.2): copy guest argument registers into the host
    /// ABI's, call, write the result back, and perform the guest `ret`.
    fn build_native_thunk(&self, func: u16, nargs: usize) -> Vec<HostInsn> {
        let ldr = |dst, base, off| HostInsn::Ldr { dst, base, off, order: MemOrder::Plain };
        let str = |src, base, off| HostInsn::Str { src, base, off, order: MemOrder::Plain };
        let pop = |sp| HostInsn::AluImm { op: AOp::Add, dst: sp, a: sp, imm: 8 };
        let env = |g: Gpr| g.0 as i32 * 8;
        let args = Gpr::ARGS.iter().take(nargs).enumerate();
        let mut code = Vec::new();
        if self.setup == Setup::Native {
            // Native ABI: direct register moves, no memory marshaling.
            code.extend(
                args.map(|(i, g)| HostInsn::MovReg { dst: Xreg(i as u8), src: Xreg(6 + g.0) }),
            );
            code.push(HostInsn::NativeCall { func });
            code.push(HostInsn::MovReg { dst: Xreg(6 + Gpr::RAX.0), src: Xreg(0) });
            // ret: pop the return address from the guest stack (RSP = X10).
            let (sp, ra) = (Xreg(6 + Gpr::RSP.0), Xreg(29));
            code.extend([
                ldr(ra, sp, 0),
                pop(sp),
                HostInsn::ExitTb(TbExitKind::JumpReg { reg: ra }),
            ]);
        } else {
            // DBT ABI: marshal through the env block — this load/store
            // traffic *is* the marshaling overhead visible in Fig. 14.
            code.extend(args.map(|(i, g)| ldr(Xreg(i as u8), ENV_BASE, env(*g))));
            code.push(HostInsn::NativeCall { func });
            code.push(str(Xreg(0), ENV_BASE, env(Gpr::RAX)));
            // Guest ret through the env'd RSP.
            let (sp, ra) = (Xreg(25), Xreg(26));
            code.extend([
                ldr(sp, ENV_BASE, env(Gpr::RSP)),
                ldr(ra, sp, 0),
                pop(sp),
                str(sp, ENV_BASE, env(Gpr::RSP)),
                HostInsn::ExitTb(TbExitKind::JumpReg { reg: ra }),
            ]);
        }
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_counts_clears_and_bounds() {
        let mut q = Quarantine::default();
        assert_eq!(q.attempts(0x1000), 0);
        q.note_failure(0x1000);
        q.note_failure(0x1000);
        assert_eq!(q.attempts(0x1000), 2);
        assert!(q.contains(0x1000));
        q.clear(0x1000);
        assert!(!q.contains(0x1000));
        assert_eq!(q.attempts(0x1000), 0);
    }

    #[test]
    fn quarantine_capacity_is_enforced_with_lru_eviction() {
        let mut q = Quarantine::default();
        for pc in 0..QUARANTINE_CAPACITY as u64 {
            q.note_failure(pc);
        }
        assert_eq!(q.len(), QUARANTINE_CAPACITY);
        // Touch pc 0 so it is no longer the LRU victim.
        assert_eq!(q.attempts(0), 1);
        q.note_failure(0xDEAD_0000);
        assert_eq!(q.len(), QUARANTINE_CAPACITY, "insertion beyond capacity must evict");
        assert!(q.contains(0xDEAD_0000));
        assert!(q.contains(0), "recently touched entry must survive eviction");
        assert!(!q.contains(1), "least-recently-touched entry is the victim");
        // A sweep of fresh failing pcs can never grow the map.
        for pc in 0..10 * QUARANTINE_CAPACITY as u64 {
            q.note_failure(0x4000_0000 + pc);
            assert!(q.len() <= QUARANTINE_CAPACITY);
        }
    }

    #[test]
    fn quarantine_retry_counts_survive_unrelated_churn() {
        let mut q = Quarantine::default();
        q.note_failure(0x42);
        q.note_failure(0x42);
        q.note_failure(0x42);
        for pc in 0..(QUARANTINE_CAPACITY / 2) as u64 {
            q.note_failure(0x9000_0000 + pc);
        }
        assert_eq!(q.attempts(0x42), 3, "below capacity, counts are exact");
    }

    /// A pc that failed once and then translates leaves quarantine: its
    /// next failure starts a fresh retry budget, not the old one.
    #[test]
    fn a_successful_translation_ends_the_quarantine() {
        let mut b = risotto_guest_x86::GelfBuilder::new("main");
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RAX, 7);
        b.asm.hlt();
        let bin = b.finish().unwrap();
        let mut emu = Emulator::with_config(&bin, Setup::Risotto, 1, crate::EmuConfig::default());
        emu.quarantine.note_failure(bin.entry);
        assert!(emu.ensure_translated(None, bin.entry).is_ok());
        assert_eq!(emu.counts.retranslations, 1, "the success was a retry");
        assert!(!emu.quarantine.contains(bin.entry));
    }
}
