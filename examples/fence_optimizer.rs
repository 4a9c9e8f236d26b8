//! Watch the translation pipeline work on one basic block: the verified
//! x86→TCG mapping inserts trailing/leading fences (Fig. 7a), the
//! optimizer merges the adjacent `Frm·Fww` pair into one full fence
//! (§6.1) and folds constants, and the backend lowers the result to
//! MiniArm with the minimal DMB mapping (Fig. 7b).
//!
//! ```sh
//! cargo run --release --example fence_optimizer
//! ```

use risotto::guest::{AluOp, Assembler, Gpr};
use risotto::host::{ArmBackend, BackendConfig, HostBackend, RmwStyle};
use risotto::tcg::{optimize, translate_block, FrontendConfig, OptPolicy, TcgOp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The §6.1 example, embedded in a little arithmetic: a = X; Y = 1.
    let mut a = Assembler::new(0x1000);
    a.load(Gpr::RAX, Gpr::RDI, 0); //   a = X
    a.mov_ri(Gpr::RCX, 21);
    a.alu_ri(AluOp::Mul, Gpr::RCX, 2); // dead constant work (folds away)
    a.store(Gpr::RSI, 0, Gpr::RCX); //  Y = 42
    a.hlt();
    let (bytes, _) = a.finish()?;
    let fetch = |addr: u64| {
        let mut w = [0u8; 16];
        let off = (addr - 0x1000) as usize;
        for (i, slot) in w.iter_mut().enumerate() {
            *slot = bytes.get(off + i).copied().unwrap_or(0);
        }
        w
    };

    let mut block = translate_block(0x1000, FrontendConfig::risotto(), fetch)?;
    println!("=== after the verified x86→TCG frontend (Fig. 7a) ===");
    print_fences(&block);
    println!("{block}");

    let stats = optimize(&mut block, OptPolicy::Verified);
    println!("=== after the optimizer ===");
    println!(
        "folded: {}, loads forwarded: {}, fences merged: {}, dce removed: {}",
        stats.folded, stats.loads_forwarded, stats.fences_merged, stats.dce_removed
    );
    print_fences(&block);
    println!("{block}");

    let host =
        ArmBackend.lower_block_with_stats(&block, BackendConfig::dbt(RmwStyle::Casal))?.insns;
    println!("=== after the TCG→Arm backend (Fig. 7b) ===");
    for insn in &host {
        println!("  {insn:?}");
    }
    Ok(())
}

fn print_fences(block: &risotto::tcg::TcgBlock) {
    let fences: Vec<String> = block
        .ops
        .iter()
        .filter_map(|o| match o {
            TcgOp::Fence(k) => Some(format!("{k:?}")),
            _ => None,
        })
        .collect();
    println!("fences in block: [{}]", fences.join(", "));
}
