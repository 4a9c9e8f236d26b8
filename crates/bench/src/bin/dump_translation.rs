//! Developer tool: dump the full translation pipeline for a guest snippet
//! — guest disassembly, TCG IR before and after optimization, and the
//! lowered host code — under each setup.
//!
//! ```sh
//! cargo run --release -p risotto-bench --bin dump_translation [setup]
//! ```
//!
//! With `--analysis on` the tool instead dumps the whole-program
//! analysis of a representative two-core image: per-access
//! classification (private / read-only / shared / atomic), the
//! relaxation mask for the entry block, and the TCG IR before and
//! after analysis-driven fence relaxation (docs/ANALYSIS.md).

use risotto_analysis::{analyze_image, event_sites, SiteClass};
use risotto_bench::BenchCli;
use risotto_core::{BackendKind, Setup};
use risotto_guest_x86::{disassemble, syscalls, AluOp, Assembler, FpOp, GelfBuilder, Gpr, Insn};
use risotto_host_arm::RmwStyle;
use risotto_tcg::{optimize, translate_block, verify, FrontendConfig, OptPolicy};

/// The `--analysis on` mode: a two-worker image with disjoint private
/// slices, a read-only input, a shared atomic counter — every
/// classification the escape analysis produces, on one page.
fn dump_analysis() {
    let mut b = GelfBuilder::new("main");
    let out = b.data_zeroed(16);
    let input = b.data_u64(&[123]);
    let counter = b.data_u64(&[0]);
    let a = &mut b.asm;
    a.label("main");
    for i in 0..2u64 {
        a.mov_ri(Gpr::RAX, syscalls::SPAWN);
        a.mov_label(Gpr::RDI, "worker");
        a.mov_ri(Gpr::RSI, i);
        a.syscall();
    }
    a.hlt();
    a.label("worker");
    // slice = out + arg*8: disjoint per worker → private.
    a.mov_rr(Gpr::RBX, Gpr::RDI);
    a.alu_ri(AluOp::Mul, Gpr::RBX, 8);
    a.alu_ri(AluOp::Add, Gpr::RBX, out);
    a.mov_ri(Gpr::RDX, input);
    a.load(Gpr::RCX, Gpr::RDX, 0); // both workers read → read-only
    a.store(Gpr::RBX, 0, Gpr::RCX); // disjoint slices → private
    a.mov_ri(Gpr::RDX, counter);
    a.mov_ri(Gpr::RCX, 1);
    a.insn(Insn::LockXadd { base: Gpr::RDX, disp: 0, src: Gpr::RCX }); // atomic
    a.hlt();
    let bin = b.finish().expect("analysis demo image assembles");

    let facts = analyze_image(&bin);
    println!("=== whole-program analysis (docs/ANALYSIS.md) ===");
    println!(
        "  instances:     {} (root + {} spawned)",
        facts.instances.len(),
        facts.instances.len().saturating_sub(1)
    );
    println!("  poisons:       {:?}", facts.poisons);
    println!("  refined loops: {}", facts.refined_loops);
    println!("\n--- per-access classification ---");
    for (pc, site) in &facts.sites {
        let relaxed = facts.relaxable(*pc);
        println!(
            "  {pc:#07x}  {:<6} w{}  {:<9} {:<28} obligation {}",
            format!("{:?}", site.kind).to_lowercase(),
            site.width,
            site.class.tag(),
            format!("{:?}", site.region),
            if relaxed { "RELAXED" } else { "kept" },
        );
    }

    // The worker block is where relaxation bites: show the frontend IR
    // before and after `relax_block` removes the scheme fences of the
    // private/read-only events.
    let fetch = |pc: u64| bin.window(pc);
    let worker = bin.symbols["worker"];
    let fe = FrontendConfig::risotto();
    let mut block = translate_block(worker, fe, fetch).expect("worker translates");
    let mask = facts.relax_mask(worker, block.guest_len as u64, fetch);
    println!("\n--- relaxation mask for tb@{worker:#x} (event order) ---");
    for ((pc, plain), m) in event_sites(worker, block.guest_len as u64, fetch).iter().zip(&mask) {
        let class = facts.sites.get(pc).map(|s| s.class).unwrap_or(SiteClass::Shared);
        println!(
            "  event @{pc:#07x}  {}  {:<9} -> {}",
            if *plain { "plain " } else { "atomic" },
            class.tag(),
            if *m { "relax" } else { "keep" }
        );
    }
    println!("\n--- TCG IR (frontend output: {} ops) ---", block.ops.len());
    for op in &block.ops {
        println!("  {op:?}");
    }
    let removed = verify::relax_block(&mut block, fe.fences, &mask);
    let stats = optimize(&mut block, OptPolicy::Verified);
    println!(
        "--- TCG IR (relaxed {removed} fences, optimized: {} ops; merged {}) ---",
        block.ops.len(),
        stats.fences_merged
    );
    for op in &block.ops {
        println!("  {op:?}");
    }
}

fn main() {
    let cli = BenchCli::parse("dump_translation");
    if cli.analysis == Some(true) {
        dump_analysis();
        return;
    }
    let which = cli.positional.first().cloned().unwrap_or_else(|| "risotto".into());
    let setups: Vec<Setup> = match which.as_str() {
        "all" => Setup::ALL.to_vec(),
        name => vec![*Setup::ALL.iter().find(|s| s.name() == name).unwrap_or_else(|| {
            panic!("unknown setup `{name}` (try qemu/no-fences/tcg-ver/risotto/native/all)")
        })],
    };

    // A representative block: load, FP work, CAS, store.
    let mut a = Assembler::new(0x1000);
    a.load(Gpr::RAX, Gpr::RDI, 0);
    a.fp(FpOp::Mul, Gpr::RAX, Gpr::RBX);
    a.alu_ri(AluOp::Add, Gpr::RAX, 1);
    a.cmpxchg(Gpr::RSI, 0, Gpr::RAX);
    a.store(Gpr::RDI, 8, Gpr::RAX);
    a.hlt();
    let (bytes, _) = a.finish().unwrap();

    println!("=== guest (MiniX86) ===");
    for (addr, insn, _) in disassemble(&bytes, 0x1000) {
        println!("  {addr:#06x}:  {insn}");
    }

    let fetch = |addr: u64| {
        let mut w = [0u8; 16];
        let off = (addr - 0x1000) as usize;
        for (i, slot) in w.iter_mut().enumerate() {
            *slot = bytes.get(off + i).copied().unwrap_or(0);
        }
        w
    };

    for setup in setups {
        let (fe, be, policy) =
            (setup.frontend(), setup.backend_config(RmwStyle::Casal), setup.opt_policy());
        // The native oracle is Arm-compiled code whatever `--backend` says.
        let backend = if setup == Setup::Native { BackendKind::Arm } else { cli.backend };
        println!("\n################ setup: {} ################", setup.name());
        // `--tiers 0`: show what the tier-0 template translator emits
        // for the same block — straight from guest bytes to host code,
        // no IR stage to print (the native oracle has no tiers).
        if cli.tiers == Some(0) && setup != Setup::Native {
            let host = backend.host();
            let tpl = risotto_template::translate_block_template(0x1000, fe, be, host, fetch)
                .expect("template translation");
            println!(
                "--- tier-0 template host ({}, {} insns from {} guest insns) ---",
                backend.name(),
                tpl.code.len(),
                tpl.insns
            );
            for insn in &tpl.code {
                println!("  {insn:?}");
            }
            continue;
        }
        let mut block = translate_block(0x1000, fe, fetch).unwrap();
        println!("--- TCG IR (frontend output: {} ops) ---", block.ops.len());
        for op in &block.ops {
            println!("  {op:?}");
        }
        let stats = optimize(&mut block, policy);
        println!(
            "--- TCG IR (optimized: {} ops; folded {}, merged {}, dce {}) ---",
            block.ops.len(),
            stats.folded,
            stats.fences_merged,
            stats.dce_removed
        );
        for op in &block.ops {
            println!("  {op:?}");
        }
        println!("  exit: {:?}", block.exit);
        let host = backend.host().lower_block_with_stats(&block, be).expect("lowering").insns;
        println!("--- host ({}, {} insns) ---", backend.name(), host.len());
        for insn in &host {
            println!("  {insn:?}");
        }
    }
}
