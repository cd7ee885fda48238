//! Pins the cost of cloning a functional machine: `reno_func::Memory`
//! shares its pages copy-on-write, so a `Cpu` clone copies the page table
//! and the dirty set — a small constant number of allocations, whatever
//! the number of resident pages — and a later write copies only the page
//! it lands on. A return to deep-copying every 4 KiB page would cost one
//! allocation per resident page.

use reno_alloctrack::{allocations, CountingAlloc};
use reno_func::Cpu;
use reno_isa::Asm;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A machine with `pages` resident (and dirty) data pages.
fn machine(pages: u64) -> Cpu {
    let mut a = Asm::named("clone-cost");
    a.halt();
    let p = a.assemble().unwrap();
    let mut cpu = Cpu::new(&p);
    let resident = cpu.mem().resident_pages() as u64;
    for pno in 0..pages {
        cpu.mem_mut().write_u64(0x1000_0000 + (pno << 12), pno + 1);
    }
    assert_eq!(cpu.mem().resident_pages() as u64, resident + pages);
    assert_eq!(cpu.mem().dirty_page_count() as u64, pages);
    cpu
}

/// Allocations taken by one clone of `cpu`, and the clone.
fn clone_counted(cpu: &Cpu) -> (u64, Cpu) {
    let before = allocations();
    let copy = cpu.clone();
    (allocations() - before, copy)
}

#[test]
fn cpu_clone_costs_constant_allocations_and_copies_only_written_pages() {
    let (small, _) = clone_counted(&machine(256));
    let big_cpu = machine(1024);
    let (big, mut copy) = clone_counted(&big_cpu);
    assert!(
        small <= 4,
        "cloning a 256-page machine took {small} allocations"
    );
    assert_eq!(big, small, "clone cost grew with the resident page count");

    // Copy-on-write: the first write to a shared page copies that page
    // alone; further writes to it are free.
    let before = allocations();
    copy.mem_mut().write_u64(0x1000_0000, 7);
    assert_eq!(allocations() - before, 1, "one page copied");
    let before = allocations();
    copy.mem_mut().write_u64(0x1000_0008, 8);
    assert_eq!(allocations() - before, 0, "the page is already private");
    assert_eq!(big_cpu.mem().read_u64(0x1000_0000), 1);
    assert_eq!(copy.mem().read_u64(0x1000_0000), 7);
}
