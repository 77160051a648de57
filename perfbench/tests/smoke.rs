//! Smoke runs of every workload at a tiny scale, through the worker
//! binaries: every run needs a fresh process, because the key,
//! substitute and Montgomery-context caches are process-wide and the
//! set-up asserts that the key cache starts cold.

use std::process::{Command, Output};

use tlsfoe_core::json::Json;
use tlsfoe_perfbench::plan::Workload;
use tlsfoe_perfbench::sys::REFUSED_ENV;
use tlsfoe_perfbench::{END_TO_END, PER_LAYER};

const PLAIN: &str = env!("CARGO_BIN_EXE_perfbench");
const TRACED: &str = env!("CARGO_BIN_EXE_perfbench-traced");

/// Small enough that the studies take well under a second; set-up
/// (key generation) still runs in full.
const SMOKE_SCALE: &str = "4000";

fn worker(bin: &str, args: &[&str]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for var in REFUSED_ENV {
        cmd.env_remove(var);
    }
    cmd.output().expect("worker starts")
}

fn run(bin: &str, args: &[&str]) -> Json {
    let out = worker(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{bin} {args:?} failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn num(v: &Json) -> f64 {
    match v {
        Json::Int(i) => *i as f64,
        Json::Num(x) => *x,
        other => panic!("not a number: {other:?}"),
    }
}

fn value(report: &Json, metric: &str) -> f64 {
    let m = report.get("metrics").and_then(|m| m.get(metric));
    num(m.and_then(|m| m.get("value")).unwrap_or_else(|| panic!("{metric} has no value")))
}

/// Every expected metric is printed, with its unit and a finite value,
/// and nothing else is.
fn assert_metrics(report: &Json, expected: &[(&str, &str)]) {
    let Some(Json::Obj(metrics)) = report.get("metrics") else { panic!("no metrics object") };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, want);
    for (name, unit) in expected {
        let m = report.get("metrics").and_then(|m| m.get(name)).expect("listed above");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name} unit");
        assert!(value(report, name).is_finite(), "{name} value");
    }
}

fn no_errors(report: &Json) {
    assert_eq!(report.get("errors"), Some(&Json::Arr(vec![])), "checks failed: {report:?}");
}

fn smoke(workload: Workload) {
    let base = ["--workload", workload.name(), "--seed", "7", "--scale", SMOKE_SCALE];
    let plain = run(PLAIN, &base);
    assert_metrics(&plain, &END_TO_END);
    no_errors(&plain);
    assert!(value(&plain, "setup_s") > 0.0 && value(&plain, "run_s") > 0.0);

    let run_s = value(&plain, "run_s").to_string();
    let mut args = base.to_vec();
    args.extend(["--untraced-run-s", &run_s]);
    let traced = run(TRACED, &args);
    assert_metrics(&traced, &PER_LAYER);
    no_errors(&traced);
    // The public-call re-drive reproduces `run_study` exactly.
    for key in ["digest", "tally", "impressions"] {
        assert_eq!(plain.get(key), traced.get(key), "{} {key}", workload.name());
    }
    assert!(value(&traced, "trace.unattributed_ms").is_finite());
    assert!(value(&traced, "keys.generated") > 0.0, "set-up generated the keys");
    assert_eq!(value(&traced, "keys.run_generated"), 0.0, "set-up covered every key");
    let failed = value(&traced, "failed_frac");
    match workload {
        Workload::Chaos => assert!(failed > 0.0 && failed < 0.1, "chaos failed_frac {failed}"),
        _ => assert_eq!(failed, 0.0),
    }
}

#[test]
fn paper_prints_every_metric_and_redrives_exactly() {
    smoke(Workload::Paper);
}

#[test]
fn sessions_prints_every_metric_and_redrives_exactly() {
    smoke(Workload::Sessions);
}

#[test]
fn chaos_prints_every_metric_and_redrives_exactly() {
    smoke(Workload::Chaos);
}

/// `run.py` checks `paper`'s text against `exp_all` stdout, rendered in
/// another process. That only works if the text, with the Table 3/7
/// rows of tied countries canonicalized, does not depend on the process
/// that rendered it. Ties are common at this scale.
#[test]
fn paper_text_is_identical_across_processes() {
    let base = ["--workload", "paper", "--seed", "7", "--scale", SMOKE_SCALE];
    let (a, b) = (run(PLAIN, &base), run(PLAIN, &base));
    assert_eq!(a.get("digest"), b.get("digest"), "databases");
    assert_eq!(a.get("render"), b.get("render"), "rendered text");
}

#[test]
fn refuses_to_run_under_ablation_switches() {
    for var in REFUSED_ENV {
        let mut cmd = Command::new(PLAIN);
        cmd.args(["--workload", "chaos", "--seed", "1", "--scale", SMOKE_SCALE]).env(var, "1");
        let out = cmd.output().expect("worker starts");
        assert!(!out.status.success(), "{var} set but the run went ahead");
        assert!(out.stdout.is_empty(), "{var} set but a result was printed");
    }
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| match json.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        _ => panic!("{key} is not a list"),
    };
    let names: Vec<String> = list("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, want);
    for (key, expected) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let got: Vec<(String, String)> = list(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let want: Vec<(String, String)> =
            expected.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(got, want, "{key}");
    }
}
