//! The dynamic host library linker (§6.2) end to end: one guest binary
//! computing SHA-256 digests, run three ways —
//!
//! * `qemu`: the guest library implementation is translated and executed,
//! * `risotto`: the PLT entry is intercepted and the *native* host
//!   library runs instead (same digest, far fewer cycles),
//! * `native`: the native-oracle build calls the host library directly.
//!
//! ```sh
//! cargo run --release --example host_linker
//! ```

use risotto::core::{Emulator, Idl, Setup};
use risotto::host::CostModel;
use risotto::nativelib::{digest, hostlibs};
use risotto::workloads::libbench::{digest_bench, DigestAlgo};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let buf_len = 1024;
    let iters = 4;
    let bin = digest_bench(DigestAlgo::Sha256, buf_len, iters);
    println!(
        "guest binary: {} bytes of .text, imports {:?}\n",
        bin.text.len(),
        bin.dynsyms.iter().map(|d| d.name.as_str()).collect::<Vec<_>>()
    );

    // What the digest must be (reference implementation).
    let data: Vec<u8> = (0..buf_len).map(|i| (i as u8).wrapping_mul(131).wrapping_add(9)).collect();
    let expect = u64::from_le_bytes(digest::sha256(&data)[..8].try_into().unwrap());

    let idl = Idl::parse(hostlibs::IDL_TEXT)?;
    println!("{:<10} {:>12} {:>14} {:>8}", "setup", "cycles", "native calls", "digest ok");
    let mut qemu = 0u64;
    for setup in [Setup::Qemu, Setup::TcgVer, Setup::Risotto, Setup::Native] {
        let mut emu = Emulator::new(&bin, setup, 1, CostModel::thunderx2_like());
        let linked = emu.link_library(&bin, &idl, hostlibs::libcrypto())?;
        let report = emu.run(2_000_000_000)?;
        if setup == Setup::Qemu {
            qemu = report.cycles;
        }
        assert_eq!(report.exit_vals[0], Some(expect), "{} wrong digest", setup.name());
        println!(
            "{:<10} {:>12} {:>14} {:>8}   (linked: {:?}, {:.1}x vs qemu)",
            setup.name(),
            report.cycles,
            emu.metrics().counter("exec.native_calls"),
            "yes",
            linked,
            qemu as f64 / report.cycles as f64,
        );
    }
    println!("\nSame digest everywhere; the linked setups replaced the translated");
    println!("guest SHA-256 with the native host library (§6.2, Fig. 13).");
    Ok(())
}
