//! Mirrors the engine's and the machine's counters into the metrics
//! registry and the hot-TB profiler (docs/METRICS.md).

use super::Emulator;
use risotto_memmodel::FenceKind;

impl Emulator {
    /// Mirrors every engine/machine counter into the metrics registry
    /// (the stage histograms are observed live during translation).
    pub(super) fn refresh_metrics(&mut self) {
        let chain = self.machine.chain_stats();
        let stats = self.machine.total_stats();
        let r = &mut self.obs.registry;
        r.set_counter("translate.blocks", self.tb_count as u64);
        r.set_counter("translate.retranslations", self.retranslations as u64);
        r.set_counter("translate.fallback_blocks", self.fallback_blocks as u64);
        r.set_counter("translate.interp_steps", self.interp_steps);
        r.set_counter("translate.insns", self.tier1_insns);
        r.set_counter("fault.injected", self.faults_injected);
        r.set_counter("template.blocks", self.template_stats.blocks);
        r.set_counter("template.insns", self.template_stats.insns);
        r.set_counter("template.promotions", self.template_stats.promotions);
        r.set_counter("template.promotion_failures", self.template_stats.promotion_failures);
        r.set_counter("opt.folded", self.opt_totals.folded as u64);
        r.set_counter("opt.loads_forwarded", self.opt_totals.loads_forwarded as u64);
        r.set_counter("opt.stores_eliminated", self.opt_totals.stores_eliminated as u64);
        r.set_counter("opt.fences_merged", self.opt_totals.fences_merged as u64);
        r.set_counter("opt.dce_removed", self.opt_totals.dce_removed as u64);
        for (i, k) in FenceKind::TCG_ALL.iter().enumerate() {
            let n = k.tcg_name().expect("TCG fence has a short name");
            r.set_counter(&format!("fence.inserted.{n}"), self.fence_inserted[i]);
            r.set_counter(
                &format!("fence.merged.{n}"),
                self.opt_totals.fences_merged_by_kind[i] as u64,
            );
        }
        r.set_counter("chain.hits", chain.chain_hits);
        r.set_counter("chain.links", chain.chain_links);
        r.set_counter("chain.flushes", chain.chain_flushes);
        r.set_counter("jcache.hits", chain.dispatch_hits);
        r.set_counter("jcache.misses", chain.dispatch_misses);
        r.set_counter("exec.insns", stats.insns);
        r.set_counter("exec.atomics", stats.atomics);
        r.set_counter("fence.exec.dmb_ld", stats.dmb[0]);
        r.set_counter("fence.exec.dmb_st", stats.dmb[1]);
        r.set_counter("fence.exec.dmb_ff", stats.dmb[2]);
        r.set_counter("fence.exec.cycles", stats.fence_cycles);
        r.set_counter("engine.syscalls", self.syscalls_completed);
        r.set_counter("sb.promotions", self.sb_stats.promotions);
        r.set_counter("sb.fences_merged_cross", self.sb_opt.fences_merged_cross as u64);
        let violations = self.verify_ir + self.verify_fence + self.verify_encoding;
        r.set_counter("verify.checked", self.verify_checked);
        r.set_counter("verify.violations", violations);
        r.set_counter("verify.ir_violations", self.verify_ir);
        r.set_counter("verify.fence_violations", self.verify_fence);
        r.set_counter("verify.encoding_violations", self.verify_encoding);
        let asum = self.analysis.as_ref().map(|f| f.summary()).unwrap_or_default();
        r.set_counter("analysis.sites", asum.sites);
        r.set_counter("analysis.private", asum.private);
        r.set_counter("analysis.relaxable", asum.relaxable);
        r.set_counter("analysis.poisons", asum.poisons);
        r.set_counter("analysis.relaxed", self.analysis_relaxed);
        r.set_counter("analysis.relaxed_blocks", self.analysis_relaxed_blocks);
        r.set_counter("analysis.hint_folded", self.hint_totals.folded as u64);
        r.set_counter("analysis.branches_pruned", self.hint_totals.branches_pruned as u64);
        let ra = self.regalloc_totals;
        r.set_counter("regalloc.env_loads_eliminated", ra.env_loads_eliminated);
        r.set_counter("regalloc.spills", ra.spills);
        r.set_gauge("exec.cycles", self.machine.clock());
        r.set_gauge("exec.cores", self.machine.n_cores() as u64);
        for c in 0..self.machine.n_cores() {
            let s = self.machine.stats(c);
            r.set_gauge(&format!("core.{c}.insns"), s.insns);
            r.set_gauge(&format!("core.{c}.cycles"), self.machine.core_cycles(c));
        }
    }

    /// Rebuilds the hot-TB profiler from the machine's transfer profile
    /// plus the engine's dispatch-loop entries.
    pub(super) fn rebuild_profiler(&mut self) {
        self.obs.profiler.clear();
        for (&pc, meta) in self.tbs.iter().filter(|(_, meta)| meta.resumes > 0) {
            self.obs.profiler.record(meta.id.unwrap_or(0), pc, meta.resumes, meta.resumes);
        }
        for (pc, prof) in self.machine.tb_profile() {
            let tb_id = self.tb_id(pc).unwrap_or(0);
            self.obs.profiler.record(tb_id, pc, prof.execs, prof.chain_misses);
        }
    }
}
