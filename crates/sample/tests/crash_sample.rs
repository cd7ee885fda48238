//! Kill-at-every-site chaos suite for the sampling engine: the tentpole
//! proof that sampled simulation is **self-healing**. For every registered
//! `reno-chaos` failpoint site, an injected fault (panic or corruption,
//! transient or sticky) must complete with zero escaped panics and a result
//! byte-identical to either the healthy run (transient fault → serial
//! retry) or the deterministic exact-replay fallback (persistent fault) —
//! at any `RENO_THREADS`.
//!
//! Abort-family modes (`abort`/`half-write`/`flush`) kill the process and
//! cannot be observed in-process; their coverage lives in the `reno-dse`
//! subprocess suite (`crates/dse/tests/crash_resume.rs`), which exercises
//! the same engine through `reno_chaos::write_all`.
//!
//! The chaos arming state is process-global, so every test serializes on
//! one mutex and arms programmatically ([`reno_chaos::arm`]) instead of
//! mutating environment variables under the threaded test runner.

use reno_core::RenoConfig;
use reno_isa::{Asm, Program, Reg};
use reno_sample::{
    run_sampled, FaultRecovery, SampleConfig, SampleError, SampledResult, FAILPOINT_SITES,
    FP_PASS_CHECKPOINT, FP_SEGMENT_RESTORE,
};
use reno_sim::MachineConfig;
use std::sync::{Mutex, MutexGuard, PoisonError};

static CHAOS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A failed assertion in one test must not wedge the rest of the suite.
    CHAOS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn kernel(iters: i64, mask: i16) -> Program {
    let mut a = Asm::named("chaos");
    let buf = a.zeros("buf", 8 * (mask as usize + 1));
    a.li(Reg::S0, buf as i64);
    a.li(Reg::T0, iters);
    a.li(Reg::V0, 0);
    a.label("loop");
    a.andi(Reg::T1, Reg::T0, mask);
    a.slli(Reg::T1, Reg::T1, 3);
    a.add(Reg::T1, Reg::T1, Reg::S0);
    a.ld(Reg::T2, Reg::T1, 0);
    a.add(Reg::V0, Reg::V0, Reg::T2);
    a.st(Reg::V0, Reg::T1, 0);
    a.xor(Reg::V0, Reg::V0, Reg::T0);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::V0);
    a.halt();
    a.assemble().unwrap()
}

fn cfg() -> MachineConfig {
    MachineConfig::four_wide(RenoConfig::reno())
}

/// ~920k dynamic insts / 64k periods = 14 strata = 2 segment jobs, so the
/// suite covers both a fresh-start segment and a checkpoint-restored one,
/// with per-context injection on the restored (last) segment.
fn sc() -> SampleConfig {
    SampleConfig::new(256, 512, 65536).with_head(2048)
}

fn fingerprint(r: &SampledResult) -> String {
    format!("{r:?}")
}

/// The healthy run's fingerprint with the fault annotations scrubbed —
/// what a retry-healed run must reproduce bit for bit.
fn scrubbed(r: &SampledResult) -> String {
    let mut c = r.clone();
    c.segment_faults.clear();
    fingerprint(&c)
}

#[test]
fn recording_enumerates_every_registered_site() {
    let _g = lock();
    reno_chaos::disarm();
    reno_chaos::reset_counts();
    reno_chaos::set_recording(true);
    let program = kernel(100_000, 255);
    let r = run_sampled(&program, cfg(), &sc());
    reno_chaos::set_recording(false);
    let counts = reno_chaos::counts();
    reno_chaos::reset_counts();

    assert!(r.segment_faults.is_empty(), "recording must not inject");
    for site in FAILPOINT_SITES {
        assert!(
            counts.iter().any(|(s, _, _)| s == site),
            "registered site {site} was never hit by a healthy sampled run \
             (counts: {counts:?})"
        );
    }
    // Context values are the segment indices, so per-segment specs can
    // target a specific job (only segments > 0 restore).
    let seg = 1;
    assert!(
        counts
            .iter()
            .any(|&(s, c, n)| s == FP_SEGMENT_RESTORE && c == seg && n > 0),
        "segment {seg} never hit its restore failpoint: {counts:?}"
    );
}

#[test]
fn a_transient_panic_at_every_site_heals_by_retry() {
    let _g = lock();
    reno_chaos::disarm();
    let program = kernel(100_000, 255);
    let healthy = run_sampled(&program, cfg(), &sc());
    assert!(healthy.segment_faults.is_empty());
    let want = fingerprint(&healthy);

    for site in FAILPOINT_SITES {
        reno_chaos::arm(&format!("{site}:1:panic")).unwrap();
        let r = run_sampled(&program, cfg(), &sc());
        reno_chaos::disarm();

        assert_eq!(
            r.segment_faults.len(),
            1,
            "one injected panic at {site} must surface as exactly one fault: \
             {:?}",
            r.segment_faults
        );
        let fault = &r.segment_faults[0];
        assert_eq!(fault.recovery, FaultRecovery::Retried, "site {site}");
        assert!(
            matches!(fault.error, SampleError::SegmentPanic(_)),
            "site {site}: {fault:?}"
        );
        assert!(r.exact_segments.is_empty(), "retry healed, no fallback");
        assert_eq!(
            scrubbed(&r),
            want,
            "a retry-healed run at {site} must be byte-identical to healthy"
        );
    }
}

#[test]
fn sticky_corruption_forces_the_exact_replay_fallback() {
    let _g = lock();
    reno_chaos::disarm();
    let program = kernel(100_000, 255);
    let healthy = run_sampled(&program, cfg(), &sc());

    // Sticky: the corruption survives the serial retry, so the engine must
    // escalate to re-simulating segment 1 in full detail.
    reno_chaos::arm(&format!("{FP_SEGMENT_RESTORE}@1:1+:corrupt")).unwrap();
    let r = run_sampled(&program, cfg(), &sc());
    reno_chaos::disarm();

    assert_eq!(r.segment_faults.len(), 1, "{:?}", r.segment_faults);
    let fault = &r.segment_faults[0];
    assert_eq!(fault.segment, 1);
    assert_eq!(fault.recovery, FaultRecovery::ExactReplay);
    assert!(matches!(fault.error, SampleError::BadCheckpoint(_)));
    assert_eq!(r.exact_segments.len(), 1);
    let exact = &r.exact_segments[0];
    assert_eq!(exact.segment, 1);
    // The replay covers the segment to the program's end, modulo the
    // halt-edge instructions the detailed window cannot mark.
    assert!(
        r.total_insts - exact.range.1 <= 8,
        "exact range {:?} should reach ~{}",
        exact.range,
        r.total_insts
    );
    assert!(exact.cycles > 0 && exact.insts > 0);

    // Architectural results stay exact; the estimate absorbs the replaced
    // segment's *measured* cycles, so it stays close to the healthy
    // estimate (well within the sampling error budget).
    assert_eq!(r.checksum, healthy.checksum);
    assert_eq!(r.digest, healthy.digest);
    assert_eq!(r.total_insts, healthy.total_insts);
    let rel = (r.est_cpi() - healthy.est_cpi()).abs() / healthy.est_cpi();
    assert!(
        rel < 0.05,
        "degraded estimate drifted {rel:.4} from healthy \
         ({} vs {})",
        r.est_cpi(),
        healthy.est_cpi()
    );
}

#[test]
fn the_same_sticky_fault_is_byte_identical_at_any_thread_count() {
    let _g = lock();
    reno_chaos::disarm();
    let program = kernel(100_000, 255);

    let mut prints: Vec<String> = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("RENO_THREADS", threads);
        // Context-qualified spec: segment 1's hits are sequenced by its own
        // code path, so the same dynamic event fires at any worker count.
        reno_chaos::arm(&format!("{FP_SEGMENT_RESTORE}@1:1+:corrupt")).unwrap();
        let r = run_sampled(&program, cfg(), &sc());
        reno_chaos::disarm();
        assert_eq!(r.segment_faults.len(), 1);
        assert_eq!(r.segment_faults[0].recovery, FaultRecovery::ExactReplay);
        prints.push(fingerprint(&r));
    }
    std::env::remove_var("RENO_THREADS");
    assert_eq!(
        prints[0], prints[1],
        "the same failure pattern must produce byte-identical degraded \
         results at RENO_THREADS=1 and 4"
    );
}

#[test]
fn a_sticky_phase1_panic_degrades_to_the_exact_full_detail_run() {
    let _g = lock();
    reno_chaos::disarm();
    // Checkpoints are only taken for multi-segment runs, so the failpoint
    // needs the 3-segment workload; the fallback then re-simulates the
    // whole program in detail.
    let program = kernel(100_000, 255);
    let scfg = sc();
    let healthy = run_sampled(&program, cfg(), &scfg);

    reno_chaos::arm(&format!("{FP_PASS_CHECKPOINT}:1+:panic")).unwrap();
    let r = run_sampled(&program, cfg(), &scfg);
    reno_chaos::disarm();

    assert_eq!(r.segment_faults.len(), 1, "{:?}", r.segment_faults);
    let fault = &r.segment_faults[0];
    assert_eq!(fault.segment, u64::MAX, "a whole-run fault");
    assert_eq!(fault.recovery, FaultRecovery::ExactReplay);
    assert!(
        r.intervals.is_empty() && r.head.is_some(),
        "full-detail fallback reports one all-covering head window"
    );
    // The fallback is exact: architectural results match, and the
    // "estimate" is a measurement.
    assert_eq!(r.checksum, healthy.checksum);
    assert_eq!(r.total_insts, healthy.total_insts);
    assert!(r.halted);
    assert_eq!(r.detailed_insts, r.total_insts);
}

#[test]
fn a_sticky_corrupt_pass_checkpoint_is_caught_by_validation() {
    let _g = lock();
    reno_chaos::disarm();
    let program = kernel(100_000, 255);
    let scfg = sc();
    let healthy = run_sampled(&program, cfg(), &scfg);

    // Corrupting the serialized phase-1 checkpoints defeats the retry (the
    // stored bytes stay poisoned), so pass validation rejects the pass and
    // the run degrades to the exact full-detail fallback — never a panic,
    // never a mis-sampled estimate.
    reno_chaos::arm(&format!("{FP_PASS_CHECKPOINT}:1+:corrupt")).unwrap();
    let r = run_sampled(&program, cfg(), &scfg);
    reno_chaos::disarm();

    assert_eq!(r.segment_faults.len(), 1, "{:?}", r.segment_faults);
    let fault = &r.segment_faults[0];
    assert_eq!(fault.segment, u64::MAX);
    assert_eq!(fault.recovery, FaultRecovery::ExactReplay);
    assert!(matches!(fault.error, SampleError::BadCheckpoint(_)));
    assert_eq!(r.checksum, healthy.checksum);
    assert_eq!(r.total_insts, healthy.total_insts);
}
