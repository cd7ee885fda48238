//! Tiny-scale smoke of all three workloads, the failed-operation
//! accounting of the correctness checks, and agreement between the
//! runner's metric lists and `BENCHMARK.json`.

use reno_perfbench::detail::{func_ref, run_jobs, FuncRef, FUEL};
use reno_perfbench::span::Tracer;
use reno_perfbench::stats::Ledger;
use reno_perfbench::{run, Kind, Plan, END_TO_END, EXACT, PER_LAYER};
use reno_workloads::{all_workloads, Scale};
use std::path::PathBuf;

fn plan(kind: Kind, trace: bool) -> Plan {
    Plan {
        kind,
        scale: Scale::Tiny,
        seed: 3,
        seconds: 0.0,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{}-{}",
            kind.name(),
            u8::from(trace)
        )),
    }
}

fn names(metrics: &[(String, f64, &str)]) -> Vec<String> {
    metrics.iter().map(|(n, _, _)| n.clone()).collect()
}

fn value(metrics: &[(String, f64, &str)], name: &str) -> f64 {
    metrics.iter().find(|(n, _, _)| n == name).expect(name).1
}

#[test]
fn every_workload_runs_clean_at_tiny_scale() {
    for kind in [Kind::Detail, Kind::Sampled, Kind::Sweep] {
        let out = run(&plan(kind, false));
        assert_eq!(out.ledger.failed, 0, "{kind:?}: {:?}", out.ledger.failures);
        assert!(out.ledger.attempted > 0);
        let want: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(&out.metrics), want);
        assert!(out.metrics.iter().all(|(_, v, _)| v.is_finite()));
        for m in ["setup_s", "peak_rss_mb"] {
            assert!(value(&out.metrics, m) > 0.0, "{kind:?} {m}");
        }
        assert!(out.spans.is_empty(), "untraced runs record no spans");

        let out = run(&plan(kind, true));
        assert_eq!(out.ledger.failed, 0, "{kind:?}: {:?}", out.ledger.failures);
        let want: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(&out.metrics), want);
        for m in [
            "sim_minst_per_s",
            "sim_minst_per_cpu_s",
            "cells_per_s",
            "func.run_minst_per_s",
            "func.ckpt_bytes",
            "sim.ns_per_inst.reno",
            "mem.warm_ns_per_access",
            "uarch.warm_ns_per_branch",
            "dse.put_ms",
            "trace.spans",
        ] {
            assert!(value(&out.metrics, m) > 0.0, "{kind:?} {m}");
        }
        assert!(!out.spans.is_empty());
        if kind == Kind::Sweep {
            assert_eq!(value(&out.metrics, "dse.computed"), 120.0);
            assert_eq!(value(&out.metrics, "dse.cached"), 200.0);
            assert!(value(&out.metrics, "dse.store_open_ms") > 0.0);
        }
    }
}

#[test]
fn exact_counts_repeat_across_seeds_and_thread_settings() {
    for kind in [Kind::Sampled, Kind::Sweep] {
        let runs: Vec<Vec<f64>> = [(1, "1"), (2, "3")]
            .into_iter()
            .map(|(seed, threads)| {
                // Every thread count yields the same results, so a test
                // running beside this one and reading the variable
                // is unaffected.
                std::env::set_var("RENO_THREADS", threads);
                let mut p = plan(kind, true);
                p.seed = seed;
                p.work_dir = p.work_dir.join(format!("threads-{threads}"));
                let out = run(&p);
                EXACT.iter().map(|m| value(&out.metrics, m)).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{kind:?}");
    }
}

#[test]
fn a_wrong_result_counts_as_a_failed_op() {
    let kernels: Vec<_> = all_workloads(Scale::Tiny).into_iter().take(2).collect();
    let mut refs: Vec<FuncRef> = kernels.iter().map(|w| func_ref(&w.program, FUEL)).collect();
    refs[1].checksum ^= 1;
    let mut ledger = Ledger::default();
    // Kernel 0 under one config, kernel 1 under two.
    run_jobs(
        &kernels,
        &refs,
        FUEL,
        &[0, 3, 5],
        None,
        &mut Tracer::off(),
        &mut ledger,
    );
    assert_eq!((ledger.attempted, ledger.failed), (3, 2));
    assert!(ledger.failures.iter().all(|f| f.contains("checksum")));
}

#[test]
fn benchmark_json_names_the_runner_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap())
        .collect();
    let mut want: Vec<&str> = vec!["detail", "sampled", "sweep"];
    want.extend(END_TO_END.iter().map(|(n, _)| *n));
    want.extend(PER_LAYER.iter().map(|(n, _)| *n));
    assert_eq!(declared, want);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
