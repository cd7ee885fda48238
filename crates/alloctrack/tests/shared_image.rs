//! Pins that a sampled run holds one program image, whatever the number of
//! machines it builds: the length probe, the rare-event anchor, the
//! phase-1 pass, segment restores, the head window and every detailed
//! window all start from a copy-on-write clone of one
//! `reno_func::Memory::image_of`, so a data page no machine writes is
//! allocated once per call.
//!
//! Method: two kernels that differ only in the size of a data segment no
//! instruction touches. Each sampled entry point runs on both; the growth
//! in allocated bytes, divided by the growth in image size, is the number
//! of image copies the call makes. One copy, plus the page table each
//! machine clones, stays under 1.25; a second full copy anywhere would read
//! 2 or more. A page-table clone costs about 26 bytes per hash bucket; the
//! larger kernel's 833 pages sit near the capacity (896) of its
//! 1024-bucket table, so the growth in table size per clone stays under 1%
//! of the growth in image size.

use reno_alloctrack::{allocated_bytes, CountingAlloc};
use reno_core::RenoConfig;
use reno_func::{Memory, PAGE_BYTES};
use reno_isa::{Asm, Program, Reg};
use reno_sample::{run_sampled_auto, run_sampled_with_pass, CheckpointPass, SampleConfig};
use reno_sim::MachineConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A steady load/store loop of ~600k dynamic instructions — long enough
/// for `run_sampled_auto`'s sparse rung and for a second segment, which
/// restores the phase-1 checkpoint — followed in memory by an
/// `untouched`-page data segment no instruction references. The segment
/// sits after the working buffer, so both kernels execute the same
/// instructions at the same addresses.
fn kernel(untouched: usize) -> Program {
    let mut a = Asm::named("shared-image");
    let buf = a.zeros("buf", 1024);
    a.zeros("untouched", untouched * PAGE_BYTES);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::T0, 75_000);
    a.li(Reg::V0, 0);
    a.label("loop");
    a.andi(Reg::T1, Reg::T0, 127);
    a.slli(Reg::T1, Reg::T1, 3);
    a.add(Reg::T1, Reg::T1, Reg::S0);
    a.ld(Reg::T2, Reg::T1, 0);
    a.add(Reg::V0, Reg::V0, Reg::T2);
    a.st(Reg::V0, Reg::T1, 0);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::V0);
    a.halt();
    a.assemble().unwrap()
}

fn cfg() -> MachineConfig {
    MachineConfig::four_wide(RenoConfig::reno())
}

/// Bytes allocated while `f` runs.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocated_bytes();
    let out = f();
    (allocated_bytes() - before, out)
}

/// `(with_pass bytes, auto bytes, image bytes)` for one kernel.
fn measure(p: &Program, sc: &SampleConfig) -> (u64, u64, u64) {
    let image = (Memory::image_of(p).resident_pages() * PAGE_BYTES) as u64;
    let pass = CheckpointPass::compute(p, sc);
    assert!(
        !pass.checkpoints.is_empty(),
        "the run must restore a checkpoint"
    );
    let (with_pass, r) = bytes_during(|| run_sampled_with_pass(p, cfg(), sc, &pass).unwrap());
    assert!(r.halted && !r.intervals.is_empty());
    let (auto, r) = bytes_during(|| run_sampled_auto(p, cfg(), u64::MAX));
    assert!(
        r.halted && !r.intervals.is_empty(),
        "run_sampled_auto must take a sampled rung, not full detail"
    );
    (with_pass, auto, image)
}

#[test]
fn sampled_runs_allocate_one_program_image() {
    let sc = SampleConfig::new(512, 768, 32768)
        .with_head(4096)
        .with_max_intervals(6);
    let (pass_s, auto_s, image_s) = measure(&kernel(64), &sc);
    let (pass_b, auto_b, image_b) = measure(&kernel(832), &sc);
    assert_eq!(image_b - image_s, (768 * PAGE_BYTES) as u64);
    let slope = |s: u64, b: u64| (b as f64 - s as f64) / (image_b - image_s) as f64;
    let (pass_slope, auto_slope) = (slope(pass_s, pass_b), slope(auto_s, auto_b));
    eprintln!(
        "image copies: run_sampled_with_pass {pass_slope:.3}, run_sampled_auto {auto_slope:.3}"
    );
    assert!(
        pass_slope <= 1.25,
        "run_sampled_with_pass allocated {pass_slope:.3}x the image growth \
         ({pass_s} -> {pass_b} bytes for an image of {image_s} -> {image_b})"
    );
    assert!(
        auto_slope <= 1.25,
        "run_sampled_auto allocated {auto_slope:.3}x the image growth \
         ({auto_s} -> {auto_b} bytes for an image of {image_s} -> {image_b})"
    );
}
