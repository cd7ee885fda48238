//! The benchmark runner.
//!
//! ```text
//! perfbench --workload <detail|sampled|sweep> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --reference <check|write>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` it holds the end-to-end metrics, with `--trace 1` the
//! per-layer ones. Lines before it (prefixed `#`) record the environment
//! and the latency diagnostics; failed checks go to standard error.

use reno_perfbench::host::{nproc, probe_cmd, steal_ticks};
use reno_perfbench::span::to_json_lines;
use reno_perfbench::{reference, run, Kind, Plan};
use std::fmt::Write as _;
use std::process::exit;

/// Inherited settings that change the measured program; the runner
/// refuses to measure under any of them.
const REFUSED_ENV: [&str; 6] = [
    "RENO_FEED",
    "RENO_FAILPOINT",
    "RENO_DSE_FAILPOINT",
    "RENO_DSE_CELL_DEADLINE_MS",
    "RENO_DSE_DEADLINE_MULT",
    "RENO_SCALE",
];
const REFUSED_ENV_PREFIX: &str = "RENO_DSE_LEASE_";

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <detail|sampled|sweep> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --reference <check|write>"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let val = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or_else(|| usage("missing value"));
        match args[i].as_str() {
            "--workload" => {
                kind = Some(Kind::parse(val).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => seed = val.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = val.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => trace = val == "1",
            "--reference" => exit(reference::reference_mode(val)),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let kind = kind.unwrap_or_else(|| usage("--workload is required"));

    let refused: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| REFUSED_ENV.contains(&k.as_str()) || k.starts_with(REFUSED_ENV_PREFIX))
        .collect();
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to measure with {} set (it changes the measured program)",
            refused.join(", ")
        );
        exit(2);
    }
    let nproc = nproc();
    let threads = kind.threads(nproc);
    std::env::set_var("RENO_THREADS", threads.to_string());

    let work_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perfbench-work")))
        .unwrap_or_else(|| "perfbench-work".into());
    let plan = Plan {
        kind,
        scale: kind.scale(),
        seed,
        seconds,
        trace,
        work_dir,
    };
    let steal0 = steal_ticks();
    let out = run(&plan);
    let steal = steal_ticks() - steal0;

    println!(
        "# perfbench workload={} scale={:?} seed={seed} trace={} threads={threads} nproc={nproc} rustc=\"{}\" git={} steal_ticks={steal}{}",
        kind.name(),
        plan.scale,
        u8::from(trace),
        probe_cmd("rustc", &["--version"]),
        probe_cmd("git", &["rev-parse", "--short", "HEAD"]),
        if steal > 0 { " STEAL" } else { "" }
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for f in &out.ledger.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    if trace {
        let path = plan
            .work_dir
            .join(format!("spans-{}-seed{seed}.jsonl", kind.name()));
        match std::fs::write(&path, to_json_lines(&out.spans)) {
            Ok(()) => println!("# spans: {} ({} spans)", path.display(), out.spans.len()),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.ledger.failed == 0,
        out.ledger.attempted,
        out.ledger.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}
