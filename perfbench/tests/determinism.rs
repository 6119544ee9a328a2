//! Two traced runs at one seed must report identical work counts: the
//! counts are the regression signal that does not depend on the clock.

use std::process::Command;

/// The per-layer metrics that are exact counts, not times.
const COUNTS: [&str; 7] = [
    "engine.circuits_explored",
    "engine.frontier_words",
    "par.sharded_buckets",
    "mitm.found_frac",
    "mitm.backward_levels_mean",
    "host.cache_hit_frac",
    "host.expansions",
];

/// Runs a short traced run and returns its result line.
fn traced_run(seed: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "census_cold", "--seed", seed])
        .args(["--seconds", "3", "--trace", "1", "--work-dir"])
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "traced run failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The raw text of `name`'s value in a result line.
fn value<'a>(result: &'a str, name: &str) -> &'a str {
    let key = format!(r#""{name}": {{"value": "#);
    let start = result
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing"))
        + key.len();
    let len = result[start..].find(',').expect("a unit follows the value");
    &result[start..start + len]
}

#[test]
fn traced_counts_repeat_exactly_at_one_seed() {
    let first = traced_run("1");
    let second = traced_run("1");
    for result in [&first, &second] {
        assert!(result.starts_with(r#"{"correct": true,"#), "{result}");
    }
    for name in COUNTS {
        assert_eq!(value(&first, name), value(&second, name), "{name}");
    }
    // The warm serve path never expands, and every request is a hit.
    assert_eq!(value(&first, "host.expansions"), "0");
    assert_eq!(value(&first, "host.cache_hit_frac"), "1");
}
