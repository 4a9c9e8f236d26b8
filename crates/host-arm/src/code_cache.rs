//! The translation-block code cache, and the [`Machine`] API over it.
//!
//! [`CodeCache`] owns every copy of "guest pc `g` is translated at host
//! address `h`" the machine keeps: the encoded bytes, their pre-decoded
//! shadow, one [`Tb`] record per guest pc, the per-core jump caches, the
//! install regions and the holes between them. All of it is private to
//! this module — `machine.rs` fetches and resolves TB exits, nothing else
//! — so DESIGN.md §11's two safety arguments are properties of the
//! functions below.
//!
//! **Chain invalidation order.** A translation stops being reachable in
//! one function, [`Machine::retire`]: every chain slot patched to point
//! at it is un-patched, then every jump-cache entry naming it is dropped,
//! and only then is its region released — so once the bytes can be
//! reused no core can reach them except through the dispatcher, which no
//! longer finds them. A region a live core is still parked inside waits
//! in `pending_free` until the core has left.
//!
//! **Decoded-code invalidation.** Every write to `code` clears the
//! decodes it can have changed, in the function that does the write:
//!
//! 1. [`CodeCache::patch_chain`] (the link on first dispatch and every
//!    unlink): the patched exit is decoded again, so a chain word is
//!    re-read after each patch;
//! 2. [`Machine::reclaim`]: the region's decodes are dropped and it
//!    becomes a hole, where a fetch faults rather than run bytes nobody
//!    owns;
//! 3. region reuse in [`Machine::install_bytes`]: the part of a hole the new
//!    code fills is undecoded code again (its tail stays a hole);
//! 4. [`Machine::corrupt_code_byte`]: the whole region's decodes are
//!    dropped, so a read-back and any later fetch see the mutated bytes.
//!
//! Nothing else writes `code`.

use crate::insn::{HostInsn, TbExitKind, Xreg, JUMP_CHAIN_OFFSET};
use crate::machine::Machine;
use std::collections::HashMap;

/// Base address where translated host code lives (outside guest ranges).
pub const CODE_BASE: u64 = 0x4000_0000;

/// Entries in each core's direct-mapped indirect-branch lookup cache
/// (guest pc → host pc; the QEMU `tb_jmp_cache` analogue).
const JCACHE_SIZE: usize = 64;

/// An empty jump-cache slot (`u64::MAX` is never a valid guest pc here).
const JCACHE_EMPTY: (u64, u64) = (u64::MAX, 0);

/// Counters for the TB-chaining machinery (machine-wide totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Direct-jump exits that followed an already-patched chain slot
    /// (no map lookup; charged `cost.tb_chain`).
    pub chain_hits: u64,
    /// Direct-jump exits resolved through the dispatcher and then patched
    /// (first traversal of a chain site; charged `cost.tb_dispatch`).
    pub chain_links: u64,
    /// Chain slots un-patched and jump-cache entries dropped because the
    /// block they pointed to was unmapped or replaced.
    pub chain_flushes: u64,
    /// Indirect (`JumpReg`) exits that hit the per-core jump cache.
    pub dispatch_hits: u64,
    /// Indirect exits that went through the full dispatcher lookup.
    pub dispatch_misses: u64,
}

/// Pre-decoded instructions, addressed by byte offset into the code
/// cache: `slot[off]` says whether the bytes at `off` have been decoded
/// yet, lie in a freed hole, or names the decoded entry. One `u32` per
/// code byte plus one entry per instruction actually executed keeps the
/// table a small multiple of the code it shadows.
#[derive(Debug, Default)]
struct DecodeTable {
    /// Per code byte: [`Self::UNDECODED`], [`Self::HOLE`], or `index + 1`
    /// into `entries`.
    slot: Vec<u32>,
    entries: Vec<(HostInsn, u16)>,
    /// Indices into `entries` released by [`Self::clear`], reused first.
    free: Vec<u32>,
}

impl DecodeTable {
    const UNDECODED: u32 = 0;
    /// Freed code: nothing may execute here until an install reuses it.
    const HOLE: u32 = u32::MAX;

    /// Remembers the instruction decoded at `off`; returns its index in
    /// `entries`.
    fn fill(&mut self, off: usize, entry: (HostInsn, u16)) -> usize {
        let idx = match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = entry;
                i
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        self.slot[off] = idx + 1;
        idx as usize
    }

    /// Forgets every decode that starts in `off..off + len`, leaving the
    /// range `mark`ed ([`Self::UNDECODED`] or [`Self::HOLE`]).
    fn clear(&mut self, off: usize, len: usize, mark: u32) {
        for s in &mut self.slot[off..off + len] {
            if *s != Self::UNDECODED && *s != Self::HOLE {
                self.free.push(*s - 1);
            }
            *s = mark;
        }
    }
}

/// Everything the cache knows about one guest pc. A record is never
/// removed: the entry count outlives unmap and remap.
#[derive(Debug, Default)]
struct Tb {
    /// Host address of the current translation; `None` = not mapped.
    host: Option<u64>,
    /// Host pcs of the `ExitTb(Jump)` sites currently patched to point
    /// at this translation, un-patched before the bytes go away.
    incoming: Vec<u64>,
    /// Machine-resolved entries (patched chain, jump cache, or
    /// dispatcher lookup); zero while no hot threshold is set.
    execs: u64,
}

/// One install: its encoded length and how many [`Tb`] records map to
/// its start (a region something still targets is never freed).
#[derive(Debug)]
struct Region {
    len: usize,
    targets: u32,
}

/// How a TB exit reached its target, which is what the machine charges
/// for: a patched chain slot (a straight-line branch), a hit in the
/// core's jump cache, or the dispatcher's lookup by guest pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    Chain,
    JumpCache,
    Dispatch,
}

/// A resolved TB exit: the target's translation, how it was found, and
/// whether this entry crossed the target's hotness threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Transfer {
    pub(crate) host: u64,
    pub(crate) via: Via,
    pub(crate) hot: bool,
}

#[derive(Debug, Default)]
pub(crate) struct CodeCache {
    code: Vec<u8>,
    /// Decoded form of `code`, filled by [`CodeCache::fetch`].
    decoded: DecodeTable,
    tbs: HashMap<u64, Tb>,
    /// Install regions by host start address.
    regions: HashMap<u64, Region>,
    /// Reusable holes in `code`: (byte offset, length), unordered.
    free_list: Vec<(usize, usize)>,
    /// Regions whose free is deferred because a core was parked inside
    /// them when they were released; retried on later installs/unmaps.
    pending_free: Vec<(u64, usize)>,
    /// Every core's jump cache, [`JCACHE_SIZE`] slots each, core-major.
    jcache: Vec<(u64, u64)>,
    chaining: bool,
    hot_threshold: Option<u64>,
    chain_stats: ChainStats,
}

/// What stepping a core needs of the cache: fetch, and resolve a TB exit
/// — both inlined into the step loop (resolved out of line, a chain hit
/// cost `exec_steady` 6 % of its `guest_mips`).
impl CodeCache {
    pub(crate) fn new(n_cores: usize) -> CodeCache {
        let jcache = vec![JCACHE_EMPTY; n_cores * JCACHE_SIZE];
        CodeCache { jcache, chaining: true, ..CodeCache::default() }
    }

    fn lookup(&self, guest_pc: u64) -> Option<u64> {
        self.tbs.get(&guest_pc)?.host
    }

    /// Writes `target` into the chain word of the `ExitTb(Jump)` encoded
    /// at host pc `site` and drops the now-stale decode of that exit.
    fn patch_chain(&mut self, site: u64, target: u64) {
        let site = (site - CODE_BASE) as usize;
        let off = site + JUMP_CHAIN_OFFSET;
        debug_assert!(off + 8 <= self.code.len(), "chain site outside code");
        self.code[off..off + 8].copy_from_slice(&target.to_le_bytes());
        self.decoded.clear(site, 1, DecodeTable::UNDECODED);
    }

    fn jcache_idx(guest_pc: u64) -> usize {
        ((guest_pc ^ (guest_pc >> 6)) as usize) & (JCACHE_SIZE - 1)
    }

    /// Counts one machine-resolved entry into `guest_pc`; `true` when it
    /// crossed the hotness threshold.
    #[inline]
    fn count_entry(&mut self, guest_pc: u64) -> bool {
        // No threshold: no lookup.
        let Some(t) = self.hot_threshold else {
            return false;
        };
        let tb = self.tbs.entry(guest_pc).or_default();
        tb.execs += 1;
        tb.execs.is_multiple_of(t)
    }

    /// Resolves the `ExitTb(Jump)` at host pc `site`, whose chain word
    /// reads `chain`: follows a patched slot, else looks `guest_pc` up
    /// and patches the slot for next time. `None` = no translation.
    #[inline]
    pub(crate) fn follow_jump(&mut self, site: u64, guest_pc: u64, chain: u64) -> Option<Transfer> {
        if self.chaining && chain != 0 {
            self.chain_stats.chain_hits += 1;
            let hot = self.count_entry(guest_pc);
            return Some(Transfer { host: chain, via: Via::Chain, hot });
        }
        let tb = self.tbs.get_mut(&guest_pc)?;
        let host = tb.host?;
        if self.chaining {
            // Resolve once: remember the site, patch its chain word.
            tb.incoming.push(site);
            self.chain_stats.chain_links += 1;
            self.patch_chain(site, host);
        }
        let hot = self.count_entry(guest_pc);
        Some(Transfer { host, via: Via::Dispatch, hot })
    }

    /// Resolves an `ExitTb(JumpReg)` on `core` to `guest_pc`: the core's
    /// jump cache, else the lookup, which fills the cache.
    #[inline]
    pub(crate) fn follow_jump_reg(&mut self, core: usize, guest_pc: u64) -> Option<Transfer> {
        let slot = core * JCACHE_SIZE + Self::jcache_idx(guest_pc);
        if self.chaining && self.jcache[slot].0 == guest_pc {
            self.chain_stats.dispatch_hits += 1;
            let hot = self.count_entry(guest_pc);
            return Some(Transfer { host: self.jcache[slot].1, via: Via::JumpCache, hot });
        }
        let host = self.lookup(guest_pc)?;
        self.chain_stats.dispatch_misses += 1;
        if self.chaining {
            self.jcache[slot] = (guest_pc, host);
        }
        let hot = self.count_entry(guest_pc);
        Some(Transfer { host, via: Via::Dispatch, hot })
    }

    /// `true` if the TB exit `kind` on `core` will resolve without the
    /// dispatcher — through a patched chain word, or a hit in the core's
    /// own jump cache on the target `reg` reads — and so touches nothing
    /// but counters that commute with other cores' steps. Only with
    /// chaining on and no hot threshold: an entry count can raise
    /// [`crate::Event::HotTb`].
    #[inline]
    pub(crate) fn resolves_locally(
        &self,
        core: usize,
        kind: TbExitKind,
        reg: impl FnOnce(Xreg) -> u64,
    ) -> bool {
        if !self.chaining || self.hot_threshold.is_some() {
            return false;
        }
        match kind {
            TbExitKind::Jump { chain, .. } => chain != 0,
            TbExitKind::JumpReg { reg: r } => {
                let guest_pc = reg(r);
                self.jcache[core * JCACHE_SIZE + Self::jcache_idx(guest_pc)].0 == guest_pc
            }
            TbExitKind::Halt | TbExitKind::Syscall { .. } => false,
        }
    }

    /// The decoded entry for the instruction at a host pc, as an index
    /// for [`CodeCache::entry`]. `None` on undecodable bytes, a freed
    /// hole, or a pc outside the code cache.
    #[inline]
    pub(crate) fn fetch(&mut self, pc: u64) -> Option<usize> {
        let off = usize::try_from(pc.checked_sub(CODE_BASE)?).ok()?;
        match *self.decoded.slot.get(off)? {
            DecodeTable::HOLE => None,
            DecodeTable::UNDECODED => self.decode_at(off),
            idx => Some(idx as usize - 1),
        }
    }

    /// The first fetch at `off`: decodes the bytes there and files the
    /// instruction in the side table, which serves it from then on.
    #[cold]
    #[inline(never)]
    fn decode_at(&mut self, off: usize) -> Option<usize> {
        let (insn, len) = HostInsn::decode(&self.code[off..]).ok()?;
        Some(self.decoded.fill(off, (insn, len as u16)))
    }

    /// The instruction and encoded length a [`CodeCache::fetch`] named.
    #[inline]
    pub(crate) fn entry(&self, idx: usize) -> &(HostInsn, u16) {
        &self.decoded.entries[idx]
    }
}

/// The machine's code-cache API: installing, mapping and releasing
/// translations. It lives on the machine because a region is reused only
/// once no live core is parked inside it (`Machine::core_parked_in`).
impl Machine {
    /// Enables or disables TB chaining and the indirect jump cache.
    ///
    /// Disabled, every exit resolves through the dispatcher's lookup
    /// (charged `cost.tb_dispatch`) — the reference configuration that
    /// chained runs are differentially checked against. Chain slots
    /// already patched keep being maintained (unmapping still unlinks
    /// them) but are ignored, so the flag can be toggled at any point.
    pub fn set_chaining(&mut self, on: bool) {
        self.cache.chaining = on;
    }

    /// Machine-wide chaining/dispatch counters.
    pub fn chain_stats(&self) -> ChainStats {
        self.cache.chain_stats
    }

    /// Sets the entry count at which a block raises
    /// [`crate::Event::HotTb`] (every `t` machine-resolved entries, so a
    /// declined promotion retriggers later); the machine counts block
    /// entries only while a threshold is set. `None` (the default) never
    /// raises the event. Values are clamped to at least 1.
    pub fn set_hot_threshold(&mut self, threshold: Option<u64>) {
        self.cache.hot_threshold = threshold.map(|t| t.max(1));
    }

    /// Installs encoded host instructions; returns their start address.
    ///
    /// Freed regions (from [`Machine::unmap_tb`]) are reused first-fit, so
    /// retranslation churn does not grow the code buffer without bound.
    pub fn install_code(&mut self, insns: &[HostInsn]) -> u64 {
        let mut bytes = Vec::with_capacity(insns.iter().map(HostInsn::encoded_len).sum());
        for i in insns {
            i.encode(&mut bytes);
        }
        self.install_bytes(&bytes)
    }

    /// [`Machine::install_code`] for instructions the caller has already
    /// encoded — the engine encodes a translation once, verifies those
    /// bytes, and installs the same bytes.
    pub fn install_bytes(&mut self, bytes: &[u8]) -> u64 {
        self.retry_pending_frees();
        let cache = &mut self.cache;
        let off = match cache.free_list.iter().position(|&(_, len)| len >= bytes.len()) {
            Some(slot) => {
                let (off, len) = cache.free_list.swap_remove(slot);
                cache.code[off..off + bytes.len()].copy_from_slice(bytes);
                // The hole is code again; its tail, if any, stays a hole.
                cache.decoded.clear(off, bytes.len(), DecodeTable::UNDECODED);
                if len > bytes.len() {
                    cache.free_list.push((off + bytes.len(), len - bytes.len()));
                }
                off
            }
            None => {
                let off = cache.code.len();
                cache.code.extend_from_slice(bytes);
                cache.decoded.slot.resize(cache.code.len(), DecodeTable::UNDECODED);
                off
            }
        };
        cache.regions.insert(CODE_BASE + off as u64, Region { len: bytes.len(), targets: 0 });
        CODE_BASE + off as u64
    }

    /// Total bytes of installed host code (code-cache footprint,
    /// including holes awaiting reuse).
    pub fn code_size(&self) -> usize {
        self.cache.code.len()
    }

    /// Registers a translation: guest pc → the host code address an
    /// install returned.
    ///
    /// Remapping a guest pc to a *different* host address first unlinks
    /// every chain and jump-cache entry into the old translation and
    /// releases its region (the engine's `link_library` rebinding and
    /// tier-0 → tier-1 promotion paths).
    pub fn map_tb(&mut self, guest_pc: u64, host_pc: u64) {
        let old = self.cache.tbs.entry(guest_pc).or_default().host.replace(host_pc);
        if old == Some(host_pc) {
            return;
        }
        if let Some(r) = self.cache.regions.get_mut(&host_pc) {
            r.targets += 1;
        }
        if let Some(old) = old {
            self.retire(guest_pc, old);
        }
    }

    /// Looks up a translation.
    pub fn lookup_tb(&self, guest_pc: u64) -> Option<u64> {
        self.cache.lookup(guest_pc)
    }

    /// Removes a translation mapping (cache eviction / invalidation):
    /// every chain slot and jump-cache entry pointing into the dead
    /// translation is unlinked before its code region is released for
    /// reuse (DESIGN.md §11). Returns `true` if a mapping existed.
    pub fn unmap_tb(&mut self, guest_pc: u64) -> bool {
        let Some(host) = self.cache.tbs.get_mut(&guest_pc).and_then(|tb| tb.host.take()) else {
            return false;
        };
        self.retire(guest_pc, host);
        self.retry_pending_frees();
        true
    }

    /// The one way the translation of `guest_pc` at `host` — already taken
    /// out of the record — stops being reachable, in the order that is
    /// the safety argument (module docs): un-patch every chain into it,
    /// drop it from every jump cache, and only then release its region.
    fn retire(&mut self, guest_pc: u64, host: u64) {
        let cache = &mut self.cache;
        let tb = cache.tbs.get_mut(&guest_pc).expect("a retired translation has a record");
        for site in std::mem::take(&mut tb.incoming) {
            cache.patch_chain(site, 0);
            cache.chain_stats.chain_flushes += 1;
        }
        let idx = CodeCache::jcache_idx(guest_pc);
        for slot in cache.jcache.iter_mut().skip(idx).step_by(JCACHE_SIZE) {
            if slot.0 == guest_pc {
                *slot = JCACHE_EMPTY;
                cache.chain_stats.chain_flushes += 1;
            }
        }
        if let Some(r) = cache.regions.get_mut(&host) {
            // Saturating: a mapping made before the region existed was not counted.
            r.targets = r.targets.saturating_sub(1);
        }
        self.discard_region(host);
    }

    /// Releases the install region starting at `host_start`, unless a
    /// mapping still targets it: the install-time verifier's rejection
    /// path for a region that was never mapped, so a quarantined
    /// translation doesn't leak code-cache space, and the last step of
    /// every unmap.
    pub fn discard_region(&mut self, host_start: u64) {
        let Some(&Region { len, targets: 0 }) = self.cache.regions.get(&host_start) else {
            return;
        };
        self.cache.regions.remove(&host_start);
        self.reclaim(host_start, len);
    }

    /// Reclaims a region nothing maps any more — once no core is parked
    /// in it: turns it into an undecodable hole, forgets the chain sites
    /// recorded inside it, then adds it to the free list.
    fn reclaim(&mut self, start: u64, len: usize) {
        if self.core_parked_in(start, len) {
            self.cache.pending_free.push((start, len));
            return;
        }
        let (cache, end) = (&mut self.cache, start + len as u64);
        cache.decoded.clear((start - CODE_BASE) as usize, len, DecodeTable::HOLE);
        // Chain sites *inside* the dead body must be forgotten, or a later
        // unmap of their target would patch bytes that now belong to a
        // different translation.
        for tb in cache.tbs.values_mut() {
            tb.incoming.retain(|&s| s < start || s >= end);
        }
        cache.free_list.push(((start - CODE_BASE) as usize, len));
    }

    fn retry_pending_frees(&mut self) {
        for (start, len) in std::mem::take(&mut self.cache.pending_free) {
            self.reclaim(start, len);
        }
    }

    /// Audits the chain graph: every recorded incoming site must hold a
    /// chain word that is either 0 (unlinked) or the current host address
    /// of its target translation. Returns `(target_guest_pc, site,
    /// stale_word)` for each violation — empty means no dangling chains.
    pub fn validate_chains(&self) -> Vec<(u64, u64, u64)> {
        let mut bad = Vec::new();
        for (&target, tb) in &self.cache.tbs {
            for &site in &tb.incoming {
                let off = (site - CODE_BASE) as usize + JUMP_CHAIN_OFFSET;
                let word = u64::from_le_bytes(self.cache.code[off..off + 8].try_into().unwrap());
                if word != 0 && Some(word) != tb.host {
                    bad.push((target, site, word));
                }
            }
        }
        bad
    }

    /// Guest pcs with an installed translation, in unspecified order.
    pub fn mapped_tbs(&self) -> Vec<u64> {
        self.cache.tbs.iter().filter(|(_, tb)| tb.host.is_some()).map(|(&pc, _)| pc).collect()
    }

    /// The guest pc whose mapped translation contains `host_pc` (the
    /// lowest, should several map to that region); `None` for a pc in a
    /// freed hole, an unmapped region, or outside the code buffer.
    pub fn guest_pc_of_host(&self, host_pc: u64) -> Option<u64> {
        let contains = |start: u64| {
            let len = self.cache.regions.get(&start).map_or(0, |r| r.len as u64);
            start <= host_pc && host_pc - start < len
        };
        let inside = self.cache.tbs.iter().filter(|(_, tb)| tb.host.is_some_and(contains));
        inside.map(|(&pc, _)| pc).min()
    }

    /// The encoded bytes of the install region starting at `host_start`
    /// (as returned by [`Machine::install_code`]), or `None` if no such
    /// region exists. Used by the install-time encoding verifier to
    /// read back what actually landed in the code cache.
    pub fn code_bytes(&self, host_start: u64) -> Option<&[u8]> {
        let len = self.cache.regions.get(&host_start)?.len;
        let off = host_start.checked_sub(CODE_BASE)? as usize;
        self.cache.code.get(off..off + len)
    }

    /// Flips one byte (xor `0xff`) inside the install region at
    /// `host_start`, returning `true` if the offset was in bounds.
    /// This is the fault-injection hook modelling code-cache corruption
    /// *at install time* (bit flips between encoding and mapping);
    /// `VerifyLevel::Install` must catch it before dispatch.
    pub fn corrupt_code_byte(&mut self, host_start: u64, offset: usize) -> bool {
        let cache = &mut self.cache;
        let Some(len) = cache.regions.get(&host_start).map(|r| r.len).filter(|&len| offset < len)
        else {
            return false;
        };
        let start = (host_start - CODE_BASE) as usize;
        cache.code[start + offset] ^= 0xff;
        cache.decoded.clear(start, len, DecodeTable::UNDECODED);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::insn::{TbExitKind, Xreg};
    use crate::machine::xorshift;

    #[test]
    fn a_host_pc_names_a_guest_pc_only_inside_its_mapped_region() {
        let mut m = Machine::new(1, CostModel::uniform());
        let body = [HostInsn::MovImm { dst: Xreg(1), imm: 7 }, HostInsn::Hlt];
        let [a, b, d] = [0; 3].map(|_| m.install_code(&body));
        let len = b - a;
        for (guest_pc, host) in [(0x1000, a), (0x2000, b), (0x3000, d)] {
            m.map_tb(guest_pc, host);
        }
        // Inside a mapped region: its first byte, its last, none of the next.
        assert_eq!(m.guest_pc_of_host(b), Some(0x2000));
        assert_eq!(m.guest_pc_of_host(b + len - 1), Some(0x2000));
        assert_eq!(m.guest_pc_of_host(b + len), Some(0x3000));
        // In a hole between two live regions: not the translation below.
        assert!(m.unmap_tb(0x2000));
        for host_pc in b..b + len {
            assert_eq!(m.guest_pc_of_host(host_pc), None, "{host_pc:#x}");
        }
        // Past the last byte of the buffer, and below its first.
        let end = CODE_BASE + m.code_size() as u64;
        assert_eq!(m.guest_pc_of_host(end - 1), Some(0x3000));
        for host_pc in [end, end + 1, u64::MAX, CODE_BASE - 1, 0] {
            assert_eq!(m.guest_pc_of_host(host_pc), None, "{host_pc:#x}");
        }
        // Two guest pcs on one region: the lowest.
        m.map_tb(0x0800, a);
        assert_eq!(m.guest_pc_of_host(a + 1), Some(0x0800));
    }

    /// What the churn test holds the cache to after every operation.
    fn check_invariants(m: &mut Machine, step: usize) {
        let parked: Vec<u64> =
            (0..m.n_cores()).filter(|&i| !m.core_halted(i)).map(|i| m.core_pc(i)).collect();
        let c = &mut m.cache;
        // Live regions, free-list holes and regions waiting in
        // `pending_free` tile the code buffer: disjoint, no gaps.
        let live = c.regions.iter().map(|(&start, r)| ((start - CODE_BASE) as usize, r.len));
        let pending =
            c.pending_free.iter().map(|&(start, len)| ((start - CODE_BASE) as usize, len));
        let mut code: Vec<(usize, usize)> = live.chain(pending).collect();
        let mut tiles = code.clone();
        tiles.extend(&c.free_list);
        tiles.sort_unstable();
        let mut at = 0;
        for &(off, len) in &tiles {
            assert_eq!(off, at, "step {step}: gap or overlap at {at} in {tiles:?}");
            assert!(len > 0, "step {step}: empty tile at {off}");
            at = off + len;
        }
        assert_eq!(at, c.code.len(), "step {step}: tiles end short of the buffer");

        // A mapping names a live region, which counts it.
        for (pc, tb) in &c.tbs {
            if let Some(host) = tb.host {
                assert!(c.regions.contains_key(&host), "step {step}: {pc:#x} maps to {host:#x}");
            }
        }
        for (&start, r) in &c.regions {
            let targets = c.tbs.values().filter(|tb| tb.host == Some(start)).count();
            assert_eq!(r.targets as usize, targets, "step {step}: targets of {start:#x}");
        }

        // Every recorded chain site lies in code a core can still
        // execute: a live region, or one whose free waits on the core
        // parked inside it — never a hole. Nor does a parked core.
        code.sort_unstable();
        let in_code = |host_pc: u64| {
            let off = (host_pc - CODE_BASE) as usize;
            code.iter().any(|&(start, len)| start <= off && off < start + len)
        };
        for (pc, tb) in &c.tbs {
            for &site in &tb.incoming {
                assert!(
                    in_code(site),
                    "step {step}: chain site {site:#x} into {pc:#x} is in a hole"
                );
            }
        }
        for &pc in &parked {
            assert!(in_code(pc), "step {step}: a core is parked in a hole at {pc:#x}");
        }
        // A jump cache serves current mappings only.
        for &(guest_pc, host) in c.jcache.iter().filter(|&&slot| slot != JCACHE_EMPTY) {
            assert_eq!(c.lookup(guest_pc), Some(host), "step {step}: stale jump-cache entry");
        }

        // A fetch in a hole faults; a fetch in code serves the bytes that
        // are there now, instruction by instruction.
        for (off, len) in c.free_list.clone() {
            for off in [off, off + len / 2, off + len - 1] {
                assert_eq!(c.fetch(CODE_BASE + off as u64), None, "step {step}: fetch in a hole");
            }
        }
        for (start, len) in code {
            let mut off = start;
            while off < start + len {
                let now = HostInsn::decode(&c.code[off..]).ok().map(|(i, len)| (i, len as u16));
                let served = c.fetch(CODE_BASE + off as u64).map(|idx| *c.entry(idx));
                assert_eq!(served, now, "step {step}: stale decode at offset {off}");
                let Some((_, len)) = now else { break };
                off += len as usize;
            }
        }
        // No patched chain word is stale.
        assert_eq!(m.validate_chains(), [], "step {step}");
    }

    const ROUND_STEPS: usize = 1_000;

    /// Installs `insns`, counting in `reuses` an install that reused a
    /// freed region: the only kind that leaves the code buffer as long
    /// as it was.
    fn install(m: &mut Machine, insns: &[HostInsn], reuses: &mut u64) -> u64 {
        let size = m.code_size();
        let host = m.install_code(insns);
        *reuses += u64::from(m.code_size() == size);
        host
    }

    /// One round of seeded churn on a fresh two-core machine that never
    /// runs: every operation that moves a translation, with a core or two
    /// parked in the code, and [`check_invariants`] after each. Rounds
    /// are short because holes are never coalesced: the free list, and
    /// with it the cost of a check, grows with the length of a run.
    /// Returns the machine, and how many installs reused a freed region
    /// and how many unmaps removed a mapping.
    fn churn_round(
        rng: &mut u64,
        first_step: usize,
        fired: &mut [usize; 10],
    ) -> (Machine, [u64; 2]) {
        const GUEST_PCS: u64 = 24;
        let (mut reuses, mut evictions) = (0, 0);
        let mut m = Machine::new(2, CostModel::uniform());
        m.set_hot_threshold(Some(8));
        let guest_pc = |r: u64| 0x1000 + 8 * (r % GUEST_PCS);
        for step in first_step..first_step + ROUND_STEPS {
            let mut live: Vec<u64> = m.cache.regions.keys().copied().collect();
            live.sort_unstable();
            let mut mapped = m.mapped_tbs();
            mapped.sort_unstable();
            let (r, r2) = (xorshift(rng), xorshift(rng));
            let pick =
                |from: &[u64]| from.get(((r >> 8) % from.len().max(1) as u64) as usize).copied();
            // One to three 20-byte units, so that every hole an unmap
            // leaves is one some later body fits: moves, then a
            // direct-jump exit or padding, then a halt.
            let body = || {
                let mov = HostInsn::MovImm { dst: Xreg(1), imm: r2 };
                let mut insns = vec![mov; 2 * (r2 % 3) as usize];
                if r2 & 4 != 0 {
                    let exit = TbExitKind::Jump { guest_pc: guest_pc(r2 >> 8), chain: 0 };
                    insns.push(HostInsn::ExitTb(exit));
                } else {
                    insns.push(mov);
                    insns.extend([HostInsn::Nop; 8]);
                }
                insns.push(HostInsn::ExitTb(TbExitKind::Halt));
                insns
            };
            let kind = match r % 32 {
                0..=5 => {
                    if live.len() < 48 {
                        install(&mut m, &body(), &mut reuses);
                    }
                    0
                }
                6..=11 => {
                    // Map or remap, onto a region of its own or a shared one.
                    if let Some(host) = pick(&live) {
                        m.map_tb(guest_pc(r2), host);
                    }
                    1
                }
                12..=15 => {
                    evictions += u64::from(m.unmap_tb(guest_pc(r2)));
                    2
                }
                16..=17 => {
                    // A translation replaced by a fresh install, as a
                    // promotion or a refill does.
                    let host = install(&mut m, &body(), &mut reuses);
                    m.map_tb(guest_pc(r2), host);
                    assert_eq!(m.lookup_tb(guest_pc(r2)), Some(host));
                    3
                }
                18..=19 => {
                    if let Some(host) = pick(&live) {
                        m.discard_region(host);
                    }
                    4
                }
                20 => {
                    // The engine's install-time fault: a byte of a region
                    // nothing maps yet flips, the read-back sees the new
                    // bytes, the region is discarded unexecuted.
                    let regions = &m.cache.regions;
                    let fresh: Vec<u64> =
                        live.iter().copied().filter(|host| regions[host].targets == 0).collect();
                    if let Some(host) = pick(&fresh) {
                        assert!(m.corrupt_code_byte(host, r2 as usize % regions[&host].len));
                        check_invariants(&mut m, step);
                        m.discard_region(host);
                    }
                    5
                }
                21..=26 => {
                    // What the machine does at a direct-jump exit: walk a
                    // mapped body to its exit and resolve it.
                    let mut pc = pick(&mapped).and_then(|g| m.lookup_tb(g)).unwrap_or(CODE_BASE);
                    while let Some(idx) = m.cache.fetch(pc) {
                        let (insn, len) = *m.cache.entry(idx);
                        if let HostInsn::ExitTb(TbExitKind::Jump { guest_pc, chain }) = insn {
                            if let Some(t) = m.cache.follow_jump(pc, guest_pc, chain) {
                                assert_eq!(Some(t.host), m.lookup_tb(guest_pc), "step {step}");
                            }
                            break;
                        }
                        if matches!(insn, HostInsn::ExitTb(_)) {
                            break;
                        }
                        pc += len as u64;
                    }
                    6
                }
                27..=28 => {
                    // Mostly to a pc that resolves, so the jump caches fill.
                    let target = pick(&mapped).filter(|_| r2 & 3 != 0).unwrap_or(guest_pc(r2));
                    if let Some(t) = m.cache.follow_jump_reg((r2 >> 32) as usize % 2, target) {
                        assert_eq!(Some(t.host), m.lookup_tb(target), "step {step}");
                    }
                    7
                }
                29..=30 => {
                    // A core stops somewhere inside a live region...
                    if let Some(host) = pick(&live) {
                        let len = m.cache.regions[&host].len as u64;
                        m.start_core((r2 % 2) as usize, host + (r2 >> 8) % len);
                    }
                    8
                }
                _ => {
                    // ...and later moves on.
                    m.halt_core((r2 % 2) as usize);
                    9
                }
            };
            fired[kind] += 1;
            check_invariants(&mut m, step);
        }
        (m, [reuses, evictions])
    }

    #[test]
    fn invariants_hold_under_seeded_churn() {
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        let mut fired = [0usize; 10];
        let mut seen = [0u64; 6];
        for round in 0..50 {
            let (m, [reuses, evictions]) = churn_round(&mut rng, round * ROUND_STEPS, &mut fired);
            let chain = m.chain_stats();
            let round = [
                chain.chain_links,
                chain.chain_hits,
                chain.chain_flushes,
                chain.dispatch_hits,
                reuses,
                evictions,
            ];
            for (total, n) in seen.iter_mut().zip(round) {
                *total += n;
            }
        }
        assert!(fired.iter().all(|&n| n > 500), "operations drawn: {fired:?}");
        assert!(
            seen.iter().all(|&n| n > 200),
            "links, chain hits, flushes, jump-cache hits, region reuses, evictions: {seen:?}"
        );
    }
}
