//! Replays a `.risotto` corpus file: prints where the risotto leg's
//! final state differs from the interpreter's, then every divergence of
//! the differential oracle. Usage:
//!
//! ```text
//! cargo run -p risotto-fuzz --example replay -- path/to/file.risotto
//! ```

use risotto_fuzz::{Subject, RISOTTO};

fn main() {
    let path = std::env::args().nth(1).expect("usage: replay <file.risotto>");
    let text = std::fs::read_to_string(&path).expect("read corpus file");
    let spec = risotto_fuzz::parse_corpus(&text).expect("parse corpus file");
    println!("spec:\n{}", risotto_fuzz::to_corpus_string(&spec));
    let p = Subject::of_spec(&spec).expect("reference run");
    let run = p.run(RISOTTO.setup, RISOTTO.config()).expect("risotto run");
    for i in 0..16 {
        let (a, b) = (p.regs[i], run.regs[i]);
        let mark = if a == b { "  " } else { "!!" };
        println!("{mark} reg {i:2}: interp {a:#018x}  risotto {b:#018x}");
    }
    println!("interp  data {:x?}", p.data);
    println!("risotto data {:x?}", run.data);
    println!("risotto flags {:?}", run.flags);
    let result = risotto_fuzz::differential(&spec);
    for d in &result.divergences {
        println!("DIVERGENCE {d}");
    }
}
