//! Named regression corpus for `BENCH_sim.json` rejection classes.
//!
//! Each test pins one corruption class the `fuzz_report` harness probes
//! randomly: the class must map to a structured `Err` with a stable,
//! recognizable message — never a panic and never silent acceptance. The
//! asserted substrings are the rejection taxonomy; if one changes, the
//! harness's findings stop reproducing against the documented classes, so
//! change them deliberately.

use reno_bench::report::{check, render, validate};

const HEADER: &str = "{\"schema\":\"reno-bench-snapshot-v1\",\n\
                      \"unit\":\"simulated_cycles_per_host_second\",\n\
                      \"entries\":[\n";

fn v1(label: &str) -> String {
    format!(
        "{{\"label\":\"{label}\",\"baseline_cycles_per_sec\":100,\
         \"cf_me_cycles_per_sec\":110,\"reno_cycles_per_sec\":120}}"
    )
}

fn file_of(entries: &[String]) -> String {
    format!("{HEADER}{}\n]}}\n", entries.join(",\n"))
}

#[test]
fn pristine_file_validates_and_renders() {
    let entries = validate(&file_of(&[v1("seed"), v1("pr2")])).expect("valid file");
    assert_eq!(entries.len(), 2);
    let text = render(&entries, &check(&entries));
    assert!(text.contains("seed") && text.contains("pr2"));
}

#[test]
fn corrupt_header_lines_reject() {
    // A deleted/mangled header line (fuzz line-deletion class).
    let err = validate("\"unit\":\"simulated_cycles_per_host_second\",\n\"entries\":[\n]}\n")
        .unwrap_err();
    assert!(err.contains("bad schema header"), "{err}");
    let err = validate("{\"schema\":\"reno-bench-snapshot-v1\",\n\"entries\":[\n]}\n").unwrap_err();
    assert!(err.contains("bad unit line"), "{err}");
}

#[test]
fn missing_footer_rejects() {
    // Truncation class: a torn append loses the `]}` footer.
    let good = file_of(&[v1("a")]);
    let torn = good.trim_end().trim_end_matches("]}").to_string();
    let err = validate(&torn).unwrap_err();
    assert!(err.contains("footer"), "{err}");
}

#[test]
fn separator_damage_rejects() {
    // Line-swap / comma classes: missing ',' between entries, trailing ','
    // on the final entry.
    let missing = format!("{HEADER}{}\n{}\n]}}\n", v1("a"), v1("b"));
    let err = validate(&missing).unwrap_err();
    assert!(err.contains("missing ',' separator"), "{err}");
    let trailing = format!("{HEADER}{},\n]}}\n", v1("a"));
    let err = validate(&trailing).unwrap_err();
    assert!(err.contains("trailing ','"), "{err}");
}

#[test]
fn entry_structure_damage_rejects() {
    // Quote-deletion / byte-corruption classes inside one entry line.
    let unquoted_key = "{label:\"a\",\"baseline_cycles_per_sec\":1,\
                        \"cf_me_cycles_per_sec\":2,\"reno_cycles_per_sec\":3}"
        .to_string();
    let err = validate(&file_of(&[unquoted_key])).unwrap_err();
    assert!(err.contains("key must be quoted"), "{err}");
    let not_object = "\"just a string\"".to_string();
    let err = validate(&file_of(&[not_object])).unwrap_err();
    assert!(err.contains("not a {...} object"), "{err}");
}

#[test]
fn numeric_damage_rejects() {
    // Digit-corruption class: non-numeric, zero, and negative throughputs.
    for bad in ["\"abc\"", "0", "-5"] {
        let e = format!(
            "{{\"label\":\"x\",\"baseline_cycles_per_sec\":{bad},\
             \"cf_me_cycles_per_sec\":2,\"reno_cycles_per_sec\":3}}"
        );
        let err = validate(&file_of(&[e])).unwrap_err();
        assert!(
            err.contains("not numeric") || err.contains("not positive"),
            "{bad}: {err}"
        );
    }
}

#[test]
fn schema_generation_mixing_rejects() {
    // Key-deletion class: a v2 entry that lost one of its seven v2 keys
    // must not be guessed at as either generation.
    let half_v2 = "{\"label\":\"x\",\"git_rev\":\"abc\",\"baseline_cycles_per_sec\":1,\
                   \"cf_me_cycles_per_sec\":2,\"reno_cycles_per_sec\":3}"
        .to_string();
    let err = validate(&file_of(&[half_v2])).unwrap_err();
    assert!(err.contains("mixes v1 and v2 fields"), "{err}");
}

#[test]
fn duplicate_entries_reject() {
    // Line-duplication class.
    let err = validate(&file_of(&[v1("a"), v1("a")])).unwrap_err();
    assert!(
        err.contains("duplicate (label, scale, threads, mode)"),
        "{err}"
    );
}

#[test]
fn empty_label_rejects() {
    let err = validate(&file_of(&[v1("")])).unwrap_err();
    assert!(err.contains("empty label"), "{err}");
}
