//! Pins the allocation cost of building the kernels: the assembler takes
//! each data segment by value and moves it into the `Program`, so building
//! every kernel allocates about one program image. A return to copying
//! segments (a `to_vec` in `Asm::data`, a clone in `Asm::assemble`, staging
//! arrays in a kernel) costs a whole extra image per copy.

use reno_alloctrack::{allocated_bytes, CountingAlloc};
use reno_isa::Inst;
use reno_workloads::{all_workloads, Scale};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn kernel_build_allocates_about_one_image() {
    for scale in [Scale::Tiny, Scale::Default, Scale::Large] {
        let before = allocated_bytes();
        let workloads = all_workloads(scale);
        let allocated = allocated_bytes() - before;
        let image: usize = workloads
            .iter()
            .map(|w| w.program.data_len() + w.program.insts.len() * std::mem::size_of::<Inst>())
            .sum();
        let ratio = allocated as f64 / image as f64;
        println!("{scale:?}: {allocated} bytes allocated for a {image}-byte image ({ratio:.2}x)");
        assert!(
            ratio <= 1.5,
            "{scale:?}: building the kernels allocated {allocated} bytes, \
             {ratio:.2}x the {image}-byte image"
        );
    }
}
