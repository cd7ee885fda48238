//! Every kernel must halt, be deterministic, and exhibit the
//! instruction-stream properties the paper's evaluation depends on.

use reno_func::run_to_completion;
use reno_workloads::{
    all_workloads, media_names, media_suite, spec_names, spec_suite, workload, workload_names,
    Scale, Workload,
};

const FUEL: u64 = 20_000_000;

fn run(w: &Workload) -> (u64, reno_func::MixStats) {
    let (cpu, r) =
        run_to_completion(&w.program, FUEL).unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
    assert!(r.halted, "{} must halt", w.name);
    (cpu.checksum(), r.mix)
}

#[test]
fn every_kernel_halts_with_nonzero_checksum() {
    for w in all_workloads(Scale::Tiny) {
        let (checksum, mix) = run(&w);
        assert_ne!(checksum, 0, "{} produced no output", w.name);
        assert!(
            mix.total > 1_000,
            "{} too small: {} insts",
            w.name,
            mix.total
        );
    }
}

#[test]
fn kernels_are_deterministic() {
    for w in spec_suite(Scale::Tiny) {
        let (c1, _) = run(&w);
        let w2 = workload(w.name, Scale::Tiny).unwrap();
        let (c2, _) = run(&w2);
        assert_eq!(c1, c2, "{} is nondeterministic", w.name);
    }
}

#[test]
fn scaling_changes_work_not_results_shape() {
    let tiny = run(&spec_suite(Scale::Tiny).remove(0)).1.total;
    let small = run(&spec_suite(Scale::Small).remove(0)).1.total;
    assert!(
        small > 4 * tiny,
        "Small should be much larger: {tiny} vs {small}"
    );
}

#[test]
fn spec_suite_has_specint_mix_shape() {
    // The paper: register-immediate adds >= 10% in nearly all programs
    // (SPEC average ~12%), moves ~4% average.
    let mut addi_sum = 0.0;
    let mut move_sum = 0.0;
    let mut load_sum = 0.0;
    let n = spec_suite(Scale::Tiny).len() as f64;
    for w in spec_suite(Scale::Tiny) {
        let (_, mix) = run(&w);
        addi_sum += mix.reg_imm_add_pct();
        move_sum += mix.move_pct();
        load_sum += mix.load_pct();
        assert!(
            mix.reg_imm_add_pct() > 4.0,
            "{}: reg-imm adds {:.1}% too low",
            w.name,
            mix.reg_imm_add_pct()
        );
    }
    let addi_avg = addi_sum / n;
    assert!(
        (8.0..22.0).contains(&addi_avg),
        "SPEC-like addi average should be near the paper's 12%: {addi_avg:.1}%"
    );
    assert!(
        move_sum / n < 10.0,
        "moves should be modest: {:.1}%",
        move_sum / n
    );
    assert!(
        load_sum / n > 10.0,
        "SPEC-like should be load-heavy: {:.1}%",
        load_sum / n
    );
}

#[test]
fn media_suite_is_addi_and_alu_heavy() {
    let mut addi_sum = 0.0;
    let mut alu_sum = 0.0;
    let n = media_suite(Scale::Tiny).len() as f64;
    for w in media_suite(Scale::Tiny) {
        let (_, mix) = run(&w);
        addi_sum += mix.reg_imm_add_pct();
        alu_sum += mix.pct(mix.alu_rr + mix.muls + mix.other_alu_ri + mix.reg_imm_adds);
    }
    let addi_avg = addi_sum / n;
    assert!(
        (11.0..28.0).contains(&addi_avg),
        "media addi average should be near the paper's 17%: {addi_avg:.1}%"
    );
    assert!(
        alu_sum / n > 35.0,
        "media should be ALU-bound: {:.1}%",
        alu_sum / n
    );
}

#[test]
fn mesa_like_has_outlier_move_density() {
    let w = workload("mesa.t", Scale::Tiny).unwrap();
    let (_, mix) = run(&w);
    assert!(
        mix.move_pct() > 7.0,
        "mesa-like moves: {:.1}%",
        mix.move_pct()
    );
}

#[test]
fn mcf_like_has_big_working_set() {
    let w = workload("mcf", Scale::Tiny).unwrap();
    assert!(
        w.program.data_len() >= 1 << 20,
        "mcf-like needs an L2-busting footprint"
    );
}

#[test]
fn names_and_by_name_builds_match_the_suites() {
    let names = |ws: Vec<Workload>| ws.into_iter().map(|w| w.name).collect::<Vec<_>>();
    assert_eq!(
        spec_names().collect::<Vec<_>>(),
        names(spec_suite(Scale::Tiny))
    );
    assert_eq!(
        media_names().collect::<Vec<_>>(),
        names(media_suite(Scale::Tiny))
    );
    assert_eq!(
        workload_names().collect::<Vec<_>>(),
        names(all_workloads(Scale::Tiny))
    );
    for w in all_workloads(Scale::Tiny) {
        let one = workload(w.name, Scale::Tiny).expect("every suite name builds");
        assert_eq!(one.program, w.program, "{}", w.name);
    }
    assert!(workload("no-such-kernel", Scale::Tiny).is_none());
}
