//! # reno-sim — the cycle-level out-of-order timing simulator
//!
//! A trace-driven, dynamically scheduled superscalar core modelled after the
//! paper's §4.1 machine: a 13-stage pipeline (1 branch predict, 2 I$,
//! 1 decode, 2 rename, 1 dispatch, 1 schedule, 2 register read, 1 execute,
//! 1 complete, 1 retire), a 128-entry ROB, 48-entry load buffer, 24-entry
//! store buffer, 50-entry issue queue and 160 physical registers, with the
//! RENO renamer (`reno-core`) embedded in the two rename stages.
//!
//! The functional oracle (`reno-func`) supplies the correct-path dynamic
//! instruction stream; all *timing* comes from this crate's pipeline model:
//!
//! * fetch: hybrid predictor + BTB + RAS, one taken branch per cycle,
//!   I$ modelled through `reno-mem`; mispredicted branches stall fetch until
//!   they resolve at execute (trace-driven wrong-path simplification);
//! * rename/dispatch: the RENO group rules, with physical-register,
//!   ROB/IQ/LQ/SQ structural stalls;
//! * schedule: oldest-first wakeup-select with a configurable
//!   wakeup-select loop latency ([`MachineConfig::sched_loop`]) and per-class
//!   issue ports; load-hit speculation with replay on miss;
//! * execute: 3-input-adder fusion cost model for RENO_CF displacements;
//!   store-sets-guided load scheduling; memory-ordering violation squashes
//!   that roll the renamer back through its reference-counting undo path;
//! * retire: in-order, stores and integrated-load re-executions share the
//!   D$ store port; failed re-executions squash and re-rename.
//!
//! # Host performance: the event-driven scheduler
//!
//! The steady-state `run()` loop never scans the reorder buffer and never
//! allocates:
//!
//! * execution events live on a tiny cycle-indexed calendar wheel filled at
//!   select (the select-to-execute latency ahead) and drained at execute;
//! * select examines only issue-queue entries whose wakeup promises have
//!   matured: a program-ordered ready list, a 512-slot wakeup wheel (plus a
//!   far heap past its horizon) for operands with a known completion cycle,
//!   and per-physical-register waiter lists for operands whose producer has
//!   not issued yet;
//! * store-to-load forwarding and memory-ordering violation checks walk
//!   compact program-ordered load/store queue mirrors instead of the ROB;
//! * ROB entries are split hot/cold: a compact 80-byte scheduling record
//!   per entry, with the `DynInst`/`Renamed` payloads in a parallel deque and
//!   the dynamic instruction stream stored once in a sequence-indexed ring;
//! * every scratch structure is reused with retained capacity, so after
//!   warm-up the hot loop performs no heap allocation (verified by the
//!   `reno-alloctrack` counting-allocator test).
//!
//! All of this is *timing-invisible*: the reference whole-ROB polling
//! scheduler is kept behind [`MachineConfig::naive_sched`], and the
//! `sched_equivalence` property test plus the `pinned_timing` snapshots
//! enforce cycle-for-cycle, counter-for-counter equality between the two.
//!
//! # Sampling hooks
//!
//! The checkpointed-sampling subsystem (`reno-sample`) drives the pipeline
//! through three hooks, each a strict generalization of the normal entry
//! points: [`Simulator::from_cpu`] resumes from any architectural state (a
//! restored `reno_func::Checkpoint`), [`Simulator::resume`] /
//! [`Simulator::run_with_state`] thread functionally warmed caches,
//! predictors, and store-sets ([`WarmState`]) into and out of a run, and
//! [`Simulator::with_measure_window`] snapshots every counter when chosen
//! instructions retire ([`SampleMark`]), so a measurement interval's delta
//! has the pipeline in full flight at both edges. A differential property
//! suite in `reno-sample` pins resumed runs as counter-identical to
//! uninterrupted ones.
//!
//! ```no_run
//! use reno_isa::{Asm, Reg};
//! use reno_core::RenoConfig;
//! use reno_sim::{MachineConfig, Simulator};
//!
//! let mut a = Asm::new();
//! a.li(Reg::T0, 100);
//! a.label("loop");
//! a.addi(Reg::T0, Reg::T0, -1);
//! a.bnez(Reg::T0, "loop");
//! a.halt();
//! let prog = a.assemble()?;
//!
//! let base = Simulator::new(&prog, MachineConfig::four_wide(RenoConfig::baseline())).run(1 << 20);
//! let reno = Simulator::new(&prog, MachineConfig::four_wide(RenoConfig::reno())).run(1 << 20);
//! assert_eq!(base.retired, reno.retired, "RENO changes timing, never results");
//! println!("speedup: {:.1}%", (base.cycles as f64 / reno.cycles as f64 - 1.0) * 100.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod config;
mod pipeline;
mod stats;

pub use config::MachineConfig;
pub use pipeline::{classify_control, Simulator, WarmState};
pub use stats::{SampleMark, SimResult, SimStats};
