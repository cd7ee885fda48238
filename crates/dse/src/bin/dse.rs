//! `dse <spec-file> --store <dir> [--out <file>] [--store-budget <bytes>]
//! [--quarantine-keep <k>]` — run (or resume) a design-space sweep.
//! `dse gc --store <dir> [--budget <bytes>] [--quarantine-keep <k>]` — run
//! one mark-sweep garbage-collection pass over a store.
//!
//! stdout and `--out` carry exactly the deterministic report; all cache and
//! store diagnostics go to stderr, so two runs of the same spec are
//! byte-comparable with a plain `diff`. With `--out`, the run's traffic
//! counters are also written as machine-readable JSON to `stats.json` in
//! the same directory (schema `reno-dse-stats-v3`, same numbers as the
//! stderr line). `--store-budget` triggers a GC pass after the sweep when
//! `objects/` exceeds the budget; its eviction counters land in the same
//! stats. Exit status: 0 on success (even with failed cells — they are
//! *in* the report), nonzero on unusable input or an unwritable store.
//!
//! `RENO_FAILPOINT=*:<n>:half-write` (test hook) aborts the process
//! mid-way through its n-th store/journal/lock/GC write, simulating
//! `kill -9` at the worst possible moment; a subsequent run with the same
//! arguments resumes and must produce the identical report.

use reno_dse::{parse_spec, run_gc, run_sweep, GcConfig, Store, SweepOptions};
use std::io::Write as _;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: dse <spec-file> --store <dir> [--out <file>] \
         [--store-budget <bytes>] [--quarantine-keep <k>]\n\
         \x20      dse gc --store <dir> [--budget <bytes>] [--quarantine-keep <k>]"
    );
    ExitCode::from(2)
}

fn open_store(dir: &str, quarantine_keep: Option<usize>) -> Result<Store, ExitCode> {
    match Store::open(dir) {
        Ok(mut s) => {
            if let Some(keep) = quarantine_keep {
                s.set_quarantine_keep(keep);
            }
            Ok(s)
        }
        Err(e) => {
            eprintln!("dse: cannot open store {dir}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn gc_main(args: &[String]) -> ExitCode {
    let mut store_dir = None;
    let mut budget = None;
    let mut quarantine_keep = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => match it.next() {
                Some(v) => store_dir = Some(v.clone()),
                None => return usage(),
            },
            "--budget" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => budget = Some(v),
                None => return usage(),
            },
            "--quarantine-keep" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => quarantine_keep = Some(v),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(store_dir) = store_dir else {
        return usage();
    };
    let store = match open_store(&store_dir, quarantine_keep) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let cfg = GcConfig {
        budget_bytes: budget,
        quarantine_keep: store.quarantine_keep(),
    };
    match run_gc(&store, &cfg) {
        Ok(g) => {
            eprintln!(
                "dse-gc: live={} evicted={} reclaimed={} quarantine_pruned={} wreckage={} store_bytes={}",
                g.live_objects,
                g.evicted_objects,
                g.reclaimed_bytes,
                g.quarantine_pruned,
                g.wreckage_removed,
                g.store_bytes_after
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dse-gc: failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "gc") {
        return gc_main(&args[1..]);
    }
    let mut spec_path = None;
    let mut store_dir = None;
    let mut out_path = None;
    let mut store_budget = None;
    let mut quarantine_keep = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => match it.next() {
                Some(v) => store_dir = Some(v.clone()),
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(v) => out_path = Some(v.clone()),
                None => return usage(),
            },
            "--store-budget" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => store_budget = Some(v),
                None => return usage(),
            },
            "--quarantine-keep" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => quarantine_keep = Some(v),
                None => return usage(),
            },
            _ if spec_path.is_none() && !a.starts_with('-') => spec_path = Some(a.clone()),
            _ => return usage(),
        }
    }
    let (Some(spec_path), Some(store_dir)) = (spec_path, store_dir) else {
        return usage();
    };

    let text = match std::fs::read_to_string(&spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dse: cannot read spec {spec_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match parse_spec(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dse: {e}");
            return ExitCode::from(2);
        }
    };
    let store = match open_store(&store_dir, quarantine_keep) {
        Ok(s) => s,
        Err(code) => return code,
    };

    let outcome = match run_sweep(&spec, &store, &SweepOptions::default()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dse: sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut s = outcome.stats;

    // Budget auto-trigger: sweep first, collect after, so GC sees this
    // run's journal records and never evicts what a resume would need.
    if let Some(budget) = store_budget {
        if s.store_bytes > budget {
            let cfg = GcConfig {
                budget_bytes: Some(budget),
                quarantine_keep: store.quarantine_keep(),
            };
            match run_gc(&store, &cfg) {
                Ok(g) => {
                    s.gc_evicted_objects = g.evicted_objects;
                    s.gc_reclaimed_bytes = g.reclaimed_bytes;
                    s.store_bytes = g.store_bytes_after;
                }
                Err(e) => eprintln!("dse: gc failed ({e}); store stays over budget"),
            }
        }
    }

    eprintln!(
        "dse: cells={} computed={} cached={} failed={} passes_computed={} passes_cached={} \
         store_corrupt={} lock_waits={} lease_takeovers={} timeouts={} gc_evicted={} \
         gc_reclaimed={} store_bytes={} shared_objects={}",
        s.cells,
        s.computed,
        s.cached,
        s.failed,
        s.passes_computed,
        s.passes_cached,
        s.store_corrupt,
        s.lock_waits,
        s.lease_takeovers,
        s.timeouts,
        s.gc_evicted_objects,
        s.gc_reclaimed_bytes,
        s.store_bytes,
        s.shared_objects
    );

    if let Some(out) = out_path {
        if let Err(e) = std::fs::write(&out, outcome.report.as_bytes()) {
            eprintln!("dse: cannot write report {out}: {e}");
            return ExitCode::FAILURE;
        }
        // Machine-readable twin of the stderr diagnostic line, written as
        // a sibling of the report so drivers can assert cache behavior
        // (resume served everything, no corruption) without stderr
        // scraping. Never part of the report itself: the report must stay
        // byte-identical whether cells were computed or cached.
        let stats_path = match out.rfind('/') {
            Some(i) => format!("{}/stats.json", &out[..i]),
            None => "stats.json".to_string(),
        };
        if let Err(e) = std::fs::write(&stats_path, s.to_json().as_bytes()) {
            eprintln!("dse: cannot write stats {stats_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut stdout = std::io::stdout();
    if stdout.write_all(outcome.report.as_bytes()).is_err() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
