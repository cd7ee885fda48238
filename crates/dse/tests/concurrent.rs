//! Multi-writer safety tests: several `dse` processes sharing one store,
//! lease takeover from a dead owner, read-only degradation while a live
//! owner holds the journal, and GC honoring the live set under a budget.

use reno_dse::{
    parse_spec, run_gc, run_sweep, GcConfig, Lease, LeaseConfig, Store, SweepOptions, SweepSpec,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const SPEC_A: &str = "\
sweep conc-test-a
scale tiny
fuel 20000
mode full
workload gzip.c
workload mcf
config BASE four_wide baseline
config RENO four_wide reno
";

const SPEC_B: &str = "\
sweep conc-test-b
scale tiny
fuel 24000
mode full
workload gzip.c
workload mcf
config BASE four_wide baseline
config RENO four_wide reno
";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reno-dse-conc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec_a() -> SweepSpec {
    parse_spec(SPEC_A).unwrap()
}

fn run_dse(spec_path: &Path, store: &Path) -> (bool, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dse"));
    cmd.arg(spec_path).arg("--store").arg(store);
    cmd.env_remove("RENO_FAILPOINT");
    let out = cmd.output().expect("dse binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn stderr_stat(stderr: &str, key: &str) -> u64 {
    stderr
        .lines()
        .rev()
        .find_map(|l| {
            l.split_whitespace()
                .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or_else(|| panic!("no {key}= in stderr: {stderr}"))
}

/// The store's single journal file (tests that run exactly one sweep).
fn journal_log_path(store: &Path) -> PathBuf {
    let mut logs: Vec<PathBuf> = fs::read_dir(store.join("journal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    assert_eq!(logs.len(), 1, "exactly one sweep journal");
    logs.pop().unwrap()
}

#[test]
fn concurrent_processes_on_one_store_match_serial_byte_for_byte() {
    let dir = tmp_dir("stress");
    fs::create_dir_all(&dir).unwrap();
    let spec_a_path = dir.join("spec-a.txt");
    let spec_b_path = dir.join("spec-b.txt");
    fs::write(&spec_a_path, SPEC_A).unwrap();
    fs::write(&spec_b_path, SPEC_B).unwrap();

    // Serial references from private stores.
    let (ok, ref_a, _) = run_dse(&spec_a_path, &dir.join("ref-a"));
    assert!(ok);
    let (ok, ref_b, _) = run_dse(&spec_b_path, &dir.join("ref-b"));
    assert!(ok);

    // Three processes race on one shared store: two run the *same* sweep
    // (lease contention — one owns, the other waits then serves from
    // cache) and one runs a different sweep (object-level concurrency
    // only). All must succeed with reports byte-identical to serial.
    let shared = dir.join("shared");
    let spawn = |spec: &Path| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_dse"));
        cmd.arg(spec).arg("--store").arg(&shared);
        cmd.env_remove("RENO_FAILPOINT");
        cmd.stdout(std::process::Stdio::piped());
        cmd.stderr(std::process::Stdio::piped());
        cmd.spawn().expect("dse binary spawns")
    };
    let children = vec![
        (spawn(&spec_a_path), ref_a.clone()),
        (spawn(&spec_a_path), ref_a.clone()),
        (spawn(&spec_b_path), ref_b.clone()),
    ];
    for (child, reference) in children {
        let out = child.wait_with_output().expect("dse binary finishes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "concurrent run failed: {stderr}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            reference,
            "concurrent report differs from serial ({stderr})"
        );
        assert_eq!(stderr_stat(&stderr, "store_corrupt"), 0);
    }

    // The shared store is sane afterwards: both sweeps fully cached,
    // nothing corrupt, reports still byte-identical.
    let (ok, again_a, stderr_a) = run_dse(&spec_a_path, &shared);
    assert!(ok);
    assert_eq!(again_a, ref_a);
    assert_eq!(stderr_stat(&stderr_a, "computed"), 0);
    assert_eq!(stderr_stat(&stderr_a, "store_corrupt"), 0);
    let (ok, again_b, stderr_b) = run_dse(&spec_b_path, &shared);
    assert!(ok);
    assert_eq!(again_b, ref_b);
    assert_eq!(stderr_stat(&stderr_b, "computed"), 0);
    assert_eq!(stderr_stat(&stderr_b, "store_corrupt"), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_lease_of_dead_owner_is_taken_over() {
    let dir = tmp_dir("takeover");
    let store = Store::open(&dir).unwrap();
    let first = run_sweep(&spec_a(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(first.stats.lease_takeovers, 0);

    // Forge a lease owned by a pid that cannot exist (beyond pid_max) with
    // an unexpired timestamp: exactly what a `kill -9`ed owner leaves
    // behind. Liveness, not expiry, must drive the takeover.
    let lease_path = journal_log_path(&dir).with_extension("lease");
    let forged = Lease {
        pid: 4_000_000_000,
        nonce: 0xdead_beef_dead_beef,
        expires_unix_ms: reno_dse::lock::now_unix_ms() + 3_600_000,
    };
    fs::write(&lease_path, forged.render()).unwrap();

    let store = Store::open(&dir).unwrap();
    let resumed = run_sweep(&spec_a(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(resumed.stats.lease_takeovers, 1, "stale lease broken");
    assert_eq!(resumed.stats.computed, 0);
    assert_eq!(first.report, resumed.report);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn live_lease_degrades_run_to_read_only_with_identical_report() {
    let dir = tmp_dir("readonly");
    let store = Store::open(&dir).unwrap();
    let first = run_sweep(&spec_a(), &store, &SweepOptions::default()).unwrap();

    // Forge a lease held by *this* (alive) process under a foreign nonce:
    // an active owner we must not preempt. With a short max_wait the run
    // gives up waiting and degrades to cache-less read-only mode.
    let lease_path = journal_log_path(&dir).with_extension("lease");
    let held = Lease {
        pid: std::process::id(),
        nonce: 0x0bad_cafe_0bad_cafe,
        expires_unix_ms: reno_dse::lock::now_unix_ms() + 3_600_000,
    };
    fs::write(&lease_path, held.render()).unwrap();
    let journal_before = fs::read(journal_log_path(&dir)).unwrap();

    let store = Store::open(&dir).unwrap();
    let opts = SweepOptions {
        lease: Some(LeaseConfig {
            max_wait: Duration::from_millis(120),
            backoff_start: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
            ..LeaseConfig::default()
        }),
        ..SweepOptions::default()
    };
    let degraded = run_sweep(&spec_a(), &store, &opts).unwrap();
    assert_eq!(
        degraded.stats.lease_takeovers, 0,
        "live owner not preempted"
    );
    assert!(degraded.stats.lock_waits > 0, "the run did wait first");
    assert_eq!(degraded.stats.computed, 0);
    assert_eq!(first.report, degraded.report, "read-only report identical");

    // Read-only means *no* writes: journal bytes and lease untouched.
    assert_eq!(fs::read(journal_log_path(&dir)).unwrap(), journal_before);
    assert_eq!(fs::read(&lease_path).unwrap(), held.render().into_bytes());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gc_budget_evicts_only_dead_objects_and_resume_stays_cached() {
    let dir = tmp_dir("gc-budget");
    let store = Store::open(&dir).unwrap();
    let first_a = run_sweep(&spec_a(), &store, &SweepOptions::default()).unwrap();
    let a_log = journal_log_path(&dir);
    let spec_b = parse_spec(SPEC_B).unwrap();
    let first_b = run_sweep(&spec_b, &store, &SweepOptions::default()).unwrap();
    assert!(first_b.stats.store_bytes > first_a.stats.store_bytes);

    // Kill sweep B's claim on its objects (its journal is the `.log` that
    // appeared after A's), then ask GC for a zero-byte store: it may evict
    // every dead object but none of sweep A's.
    let b_log = fs::read_dir(dir.join("journal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "log") && *p != a_log)
        .expect("sweep B journal found");
    fs::remove_file(&b_log).unwrap();

    let gc = run_gc(
        &store,
        &GcConfig {
            budget_bytes: Some(0),
            quarantine_keep: store.quarantine_keep(),
        },
    )
    .unwrap();
    assert_eq!(gc.live_objects, 4, "sweep A's cells are live");
    assert_eq!(gc.evicted_objects, 4, "sweep B's cells were dead");
    assert_eq!(gc.store_bytes_after, first_a.stats.store_bytes);

    // Sweep A: untouched, fully cached, byte-identical. Sweep B: evicted,
    // recomputed — and still byte-identical.
    let store = Store::open(&dir).unwrap();
    let again_a = run_sweep(&spec_a(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(again_a.stats.computed, 0, "GC never evicts a live object");
    assert_eq!(again_a.report, first_a.report);
    let store = Store::open(&dir).unwrap();
    let again_b = run_sweep(&spec_b, &store, &SweepOptions::default()).unwrap();
    assert_eq!(again_b.stats.computed, 4, "evicted cells recompute");
    assert_eq!(again_b.report, first_b.report);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cross_sweep_sharing_is_counted_and_reported_deterministically() {
    // A second sweep whose grid *overlaps* the first (cell keys pin
    // content, so the shared workload's cells are the same objects) is
    // served from the first sweep's cells and pins them in its own
    // journal; both the report's `shared objects` table and
    // `stats.shared_objects` must say so.
    let dir = tmp_dir("sharing");
    let store = Store::open(&dir).unwrap();
    let first = run_sweep(&spec_a(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(first.stats.shared_objects, 0, "solo sweep shares nothing");
    assert!(
        !first.report.contains("shared objects"),
        "a solo store keeps its exact report bytes"
    );

    // SPEC_A minus the mcf workload: 2 of its 2 cells are also 2 of
    // sweep A's 4.
    let sub = SPEC_A
        .replace("conc-test-a", "conc-test-sub")
        .replace("workload mcf\n", "");
    let spec_sub = parse_spec(&sub).unwrap();
    let store = Store::open(&dir).unwrap();
    let subset = run_sweep(&spec_sub, &store, &SweepOptions::default()).unwrap();
    assert_eq!(subset.stats.computed, 0, "overlap fully served from cache");
    assert_eq!(
        subset.stats.shared_objects, 2,
        "the gzip.c cells are pinned by both journals"
    );
    assert!(
        subset.report.contains("\nshared objects (2):\n"),
        "report carries the sharing table: {}",
        subset.report
    );
    assert!(
        subset.report.contains(": 2 of 4 pinned objects shared")
            && subset.report.contains(": 2 of 2 pinned objects shared"),
        "one table row per pinning sweep: {}",
        subset.report
    );

    // The census is durable journal state: re-running the *first* sweep now
    // renders the identical table, and twice over (cached) stays identical.
    let store = Store::open(&dir).unwrap();
    let again = run_sweep(&spec_a(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(again.stats.shared_objects, 2);
    let table = subset
        .report
        .split("\nshared objects")
        .nth(1)
        .map(|s| format!("\nshared objects{s}"))
        .unwrap();
    assert_eq!(
        again.report.strip_suffix(table.as_str()),
        Some(first.report.as_str()),
        "the table is purely additive to the solo report"
    );
    let store = Store::open(&dir).unwrap();
    let again2 = run_sweep(&spec_a(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(again.report, again2.report, "census is deterministic");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sampled_gc_pins_passes_a_resume_still_needs() {
    // Sampled-mode sweeps journal `pass` records precisely so GC treats
    // checkpoint passes as live: evicting the *cells* to meet a budget
    // must not take the passes a resumed/extended sweep reuses.
    let dir = tmp_dir("gc-pass");
    let store = Store::open(&dir).unwrap();
    let spec = parse_spec(
        "sweep gc-pass-test\nscale small\nmode sampled 128 384 1024\n\
         workload gzip.c\nworkload vpr.r\n\
         config BASE four_wide baseline\nconfig RENO four_wide reno\n",
    )
    .unwrap();
    let first = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert_eq!(first.stats.passes_computed, 2);

    let gc = run_gc(
        &store,
        &GcConfig {
            budget_bytes: Some(0),
            quarantine_keep: store.quarantine_keep(),
        },
    )
    .unwrap();
    assert_eq!(gc.evicted_objects, 0, "everything in the store is live");
    assert_eq!(gc.live_objects, 6, "4 cells + 2 passes");

    // Drop the journal: now everything is dead and a zero budget clears
    // the store entirely.
    for e in fs::read_dir(dir.join("journal")).unwrap() {
        let p = e.unwrap().path();
        if p.extension().is_some_and(|x| x == "log") {
            fs::remove_file(p).unwrap();
        }
    }
    let gc = run_gc(
        &store,
        &GcConfig {
            budget_bytes: Some(0),
            quarantine_keep: store.quarantine_keep(),
        },
    )
    .unwrap();
    assert_eq!(gc.evicted_objects, 6);
    assert_eq!(gc.store_bytes_after, 0);
    let _ = fs::remove_dir_all(&dir);
}
