//! Reduced-size smoke test of the benchmark: every workload, untraced and
//! traced, on small inputs of the same shape. Every named metric must
//! print for every workload it applies to, and every output check must
//! pass.

use std::process::Command;

#[allow(dead_code)]
#[path = "../src/metrics.rs"]
mod metrics;

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_flukebench"))
        .args([
            "--workload",
            workload,
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    stdout
}

/// The value printed on the report line of metric `name`, if any.
fn reported<'a>(report: &'a str, name: &str) -> Option<&'a str> {
    report.lines().find_map(|l| {
        let mut words = l.strip_prefix("#   ")?.split_whitespace();
        (words.next()? == name).then(|| words.next()).flatten()
    })
}

fn check_result_line(report: &str) -> &str {
    let last = report.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
        "checks failed:\n{report}"
    );
    last
}

#[test]
fn every_metric_prints_and_every_check_passes() {
    for workload in ["flukeperf", "memtest", "server"] {
        let report = run(workload, "0");
        let json = check_result_line(&report);
        for m in metrics::E2E {
            let v = reported(&report, m.name)
                .unwrap_or_else(|| panic!("{workload}: {} not reported", m.name));
            assert_eq!(
                v == "n/a",
                !m.applies.contains(&workload),
                "{workload}: {} printed {v}",
                m.name
            );
            let key = format!("\"{}\": {{\"value\": ", m.name);
            assert_eq!(
                json.contains(&key),
                m.gated,
                "{workload}: {} in JSON",
                m.name
            );
        }
        assert_eq!(reported(&report, "error_rate"), Some("0"));

        let report = run(workload, "1");
        let json = check_result_line(&report);
        for m in metrics::per_layer() {
            assert!(
                reported(&report, m.name).is_some(),
                "{workload}: {} not reported",
                m.name
            );
            let key = format!("\"{}\": {{\"value\": ", m.name);
            assert!(
                json.contains(&key),
                "{workload}: {} missing from JSON",
                m.name
            );
        }
    }
}

/// `BENCHMARK.json` lists exactly the catalog's gated end-to-end metrics
/// and every per-layer metric, with the same units and directions.
#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<String> {
        let start = doc.find(&format!("\"{key}\": [")).expect("section present");
        let end = start + doc[start..].find(']').expect("section closes");
        doc[start..end]
            .lines()
            .filter(|l| l.contains("{\"name\": "))
            .map(|l| l.trim().trim_end_matches(',').to_string())
            .collect()
    };
    let e2e: Vec<String> = section("end_to_end")
        .iter()
        .map(|l| l[..l.find(", \"bound\"").expect("a bound")].to_string() + "}")
        .collect();
    let want: Vec<String> = metrics::E2E
        .iter()
        .filter(|m| m.gated)
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\"}}",
                m.name, m.unit
            )
        })
        .collect();
    assert_eq!(e2e, want);
    let want: Vec<String> = metrics::per_layer()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    assert_eq!(section("per_layer"), want);
}
