//! Bring your own kernel: write a program against the assembler API, verify
//! it functionally, and inspect exactly which instructions RENO collapsed.
//!
//! The kernel here is a toy string-hashing loop (FNV-style) over a byte
//! buffer, chosen because every iteration contains the three populations
//! RENO targets: a move, a register-immediate addition, and a stack reload
//! after a call.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use reno_repro::core::RenoConfig;
use reno_repro::func::run_to_completion;
use reno_repro::isa::{Asm, Reg};
use reno_repro::sim::{MachineConfig, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let text: Vec<u8> = (b"the quick brown fox jumps over the lazy dog ".iter())
        .cycle()
        .take(4096)
        .copied()
        .collect();

    let lines = text.len() as i64 / 64;

    let mut a = Asm::named("custom");
    // The segment takes the buffer by value: it moves into the program.
    let buf = a.data("text", text);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::S1, lines); // lines of 64 bytes
    a.li(Reg::S4, 0);
    a.label("line");
    a.mov(Reg::A0, Reg::S0); // arg setup move (RENO_ME)
    a.li(Reg::A1, 64);
    a.call("hash");
    a.xor(Reg::S4, Reg::S4, Reg::V0);
    a.addi(Reg::S0, Reg::S0, 64); // folded (RENO_CF)
    a.addi(Reg::S1, Reg::S1, -1); // folded (RENO_CF)
    a.bnez(Reg::S1, "line");
    a.out(Reg::S4);
    a.halt();

    // hash(a0 = ptr, a1 = len) -> v0; the frame reloads are RENO_RA's food.
    a.label("hash");
    a.enter(&[Reg::S0, Reg::S1]);
    a.mov(Reg::S0, Reg::A0);
    a.mov(Reg::S1, Reg::A1);
    a.li(Reg::V0, 0x1505);
    a.label("byte");
    a.ldbu(Reg::T0, Reg::S0, 0);
    a.slli(Reg::T1, Reg::V0, 5);
    a.add(Reg::V0, Reg::V0, Reg::T1);
    a.add(Reg::V0, Reg::V0, Reg::T0);
    a.addi(Reg::S0, Reg::S0, 1); // folded (RENO_CF)
    a.addi(Reg::S1, Reg::S1, -1); // folded (RENO_CF)
    a.bnez(Reg::S1, "byte");
    a.leave(&[Reg::S0, Reg::S1]);
    let prog = a.assemble()?;

    let (cpu, func) = run_to_completion(&prog, 1 << 22)?;
    println!(
        "functional checksum: {:#018x} ({} dynamic instructions)",
        cpu.checksum(),
        func.executed
    );
    println!(
        "mix: {:.1}% moves, {:.1}% reg-imm adds, {:.1}% loads",
        func.mix.move_pct(),
        func.mix.reg_imm_add_pct(),
        func.mix.load_pct()
    );

    let base = Simulator::new(&prog, MachineConfig::four_wide(RenoConfig::baseline())).run(1 << 26);
    let reno = Simulator::new(&prog, MachineConfig::four_wide(RenoConfig::reno())).run(1 << 26);
    assert_eq!(
        base.digest, reno.digest,
        "RENO is invisible architecturally"
    );

    println!("\n{:>22} {:>10} {:>10}", "", "baseline", "RENO");
    println!("{:>22} {:>10} {:>10}", "cycles", base.cycles, reno.cycles);
    println!("{:>22} {:>10.2} {:>10.2}", "IPC", base.ipc(), reno.ipc());
    println!(
        "{:>22} {:>10} {:>10}",
        "moves eliminated", "-", reno.reno.moves
    );
    println!(
        "{:>22} {:>10} {:>10}",
        "addis folded", "-", reno.reno.const_folds
    );
    println!(
        "{:>22} {:>10} {:>10}",
        "loads integrated", "-", reno.reno.load_cse
    );
    println!(
        "{:>22} {:>10} {:>10}",
        "re-exec verified", "-", reno.stats.reexec_loads
    );
    println!("\nspeedup: {:+.1}%", reno.speedup_pct_vs(&base));
    Ok(())
}
