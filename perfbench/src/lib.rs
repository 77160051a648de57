//! # tlsfoe-perfbench
//!
//! The repository benchmark: the reproduced paper (`exp_all`'s
//! pipeline) timed end to end, plus a traced re-run that splits the time
//! over the simulator's layers. `run.py` is the one command; it builds
//! the two worker binaries and runs each workload in fresh processes,
//! because the key, substitute and Montgomery-context caches are
//! process-wide:
//!
//! * `perfbench` (untraced) runs a workload's cold set-up, then its
//!   measured phase through `run_study` (repeated for `sessions` and
//!   `chaos`), and prints the end-to-end metrics ([`END_TO_END`]) with
//!   output digests;
//! * `perfbench-traced` runs the same workload through the public-call
//!   re-drive in [`redrive`], under a counting allocator, and prints the
//!   per-layer metrics ([`PER_LAYER`]) with the same digests.
//!
//! Each worker prints one JSON line as its last line of stdout.

pub mod alloc;
pub mod digest;
pub mod driver;
pub mod plan;
pub mod redrive;
pub mod sys;

use std::path::{Path, PathBuf};
use std::time::Instant;

use tlsfoe_crypto::shared_ctx_cache;
use tlsfoe_population::{cache, keys};

use crate::digest::{canonical_text, ratio, studies_digest, text_digest, Tally};
use crate::driver::{Finished, Plain};
use crate::plan::{Plan, Workload, THREADS};
use crate::redrive::Traced;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("impressions_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("adsim.deliver_ms", "ms"),
    ("adsim.impressions", "count"),
    ("keys.warm_ms", "ms"),
    ("keys.generated", "count"),
    ("keys.run_generated", "count"),
    ("hosts.catalog_ms", "ms"),
    ("cache.warm_ms", "ms"),
    ("cache.warm_signatures", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("crypto.session_signatures", "count"),
    ("crypto.ctx_hits", "count"),
    ("crypto.ctx_misses", "count"),
    ("tls.configs_built", "count"),
    ("model.derive_ms", "ms"),
    ("study.prepare_ms", "ms"),
    ("session.inject_ms", "ms"),
    ("session.drive_ms", "ms"),
    ("session.drives", "count"),
    ("session.drive_p50_us", "us"),
    ("session.drive_p99_us", "us"),
    ("session.probes", "count"),
    ("session.retried", "count"),
    ("session.failed_timeout", "count"),
    ("session.failed_alert", "count"),
    ("session.failed_parse", "count"),
    ("session.failed_closed", "count"),
    ("session.failed_deadline", "count"),
    ("session.malformed_uploads", "count"),
    ("netsim.events_per_impression", "events/imp"),
    ("netsim.sides_high_water", "count"),
    ("shard.busy_max_ms", "ms"),
    ("shard.idle_ms", "ms"),
    ("shard.parallel_eff", "ratio"),
    ("store.merge_ms", "ms"),
    ("store.records", "count"),
    ("store.distinct_substitutes", "count"),
    ("store.interned_kb", "KB"),
    ("analyze.tables_ms", "ms"),
    ("analyze.negligence_ms", "ms"),
    ("analyze.malware_ms", "ms"),
    ("analyze.audit_ms", "ms"),
    ("mitigation.eval_ms", "ms"),
    ("alloc.setup", "count"),
    ("alloc.per_impression", "count"),
    ("alloc.bytes_per_impression", "B"),
    ("trace.setup_s", "s"),
    ("trace.run_s", "s"),
    ("trace.attributed_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Per-layer failure counters, in [`digest::FAILURE_LABELS`] order.
const FAILURE_METRICS: [&str; 5] = [
    "session.failed_timeout",
    "session.failed_alert",
    "session.failed_parse",
    "session.failed_closed",
    "session.failed_deadline",
];

/// Worker command line: `--workload <name> --seed <n>`, plus
/// `--scale <n>` (smaller studies, for smoke tests),
/// `--measure-seconds <s>` (how long the untraced worker repeats the
/// measured phase; default one repetition) and, for the traced worker,
/// `--trace-out <file>`, `--untraced-run-s <s>` and `--paper-oracle
/// <file>`.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload, seed and scale.
    pub plan: Plan,
    /// How long the untraced worker repeats the measured phase.
    pub measure_seconds: f64,
    /// Where the traced worker writes its spans (JSON lines).
    pub trace_out: Option<PathBuf>,
    /// The untraced run's `run_s`, for `trace.overhead_frac`.
    pub untraced_run_s: Option<f64>,
    /// `exp_all` stdout at the same scale, seed and threads, for the
    /// traced worker to check `paper`'s text against.
    pub paper_oracle: Option<PathBuf>,
}

impl Args {
    /// Parse the worker arguments (program name excluded).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = args.into_iter();
        let (mut workload, mut seed, mut scale) = (None, None, None);
        let (mut trace_out, mut untraced_run_s, mut measure_seconds) = (None, None, 0.0);
        let mut paper_oracle = None;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--scale" => scale = Some(value.parse::<u32>().map_err(|_| bad())?),
                "--measure-seconds" => measure_seconds = value.parse::<f64>().map_err(|_| bad())?,
                "--trace-out" => trace_out = Some(PathBuf::from(&value)),
                "--paper-oracle" => paper_oracle = Some(PathBuf::from(&value)),
                "--untraced-run-s" => {
                    untraced_run_s = Some(value.parse::<f64>().map_err(|_| bad())?)
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let mut plan = Plan::new(workload, seed.ok_or("--seed is required")?);
        if let Some(scale) = scale {
            plan.scale = scale.max(1);
        }
        Ok(Args { plan, measure_seconds, trace_out, untraced_run_s, paper_oracle })
    }
}

/// What one worker run measured and produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The run's plan.
    pub plan: Plan,
    /// Impressions simulated in the measured phase.
    pub impressions: u64,
    /// Repetitions of the measured phase.
    pub reps: usize,
    /// Digest of every study's database ([`studies_digest`]).
    pub digest: String,
    /// Digest of the rendered paper, tied Table 3/7 rows canonicalized
    /// ([`canonical_text`]; empty text for other workloads).
    pub render: String,
    /// Measurement and failure tally ([`Tally::line`]).
    pub tally: String,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// The measured metrics.
    pub metrics: Vec<Metric>,
}

/// One metric: every sample the run took, reported as their median.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// One value per measured repetition (a single one for set-up).
    pub samples: Vec<f64>,
}

impl Metric {
    fn one(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, unit, samples: vec![value] }
    }

    /// The median sample (0 without samples).
    pub fn value(&self) -> f64 {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }
}

impl Report {
    fn new(plan: &Plan, finished: &Finished, tally: &Tally) -> Report {
        let mut errors = Vec::new();
        if tally.shard_failures > 0 {
            errors.push(format!("{} shard failure(s)", tally.shard_failures));
        }
        match plan.workload {
            Workload::Chaos if tally.failed() == 0 || tally.retried == 0 => {
                errors.push(format!("chaos injected no visible faults: {}", tally.line()))
            }
            Workload::Paper | Workload::Sessions if tally.failed() > 0 => {
                errors.push(format!("fault-free workload recorded failures: {}", tally.line()))
            }
            _ => {}
        }
        let render = match canonical_text(&finished.text, &finished.ties()) {
            Ok(text) => text_digest(&text),
            Err(e) => {
                errors.push(e);
                String::new()
            }
        };
        Report {
            plan: *plan,
            impressions: finished.studies.iter().map(|s| s.impressions()).sum(),
            reps: 1,
            digest: studies_digest(&finished.studies),
            render,
            tally: tally.line(),
            errors,
            metrics: Vec::new(),
        }
    }

    /// The report as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let num = |v: f64| if v.is_finite() { v.to_string() } else { "0".to_string() };
                let samples: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"samples\":[{}]}}",
                    json_str(m.name),
                    num(m.value()),
                    json_str(m.unit),
                    samples.join(",")
                )
            })
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"scale\":{},\"threads\":{},\"impressions\":{},\"reps\":{},\"digest\":{},\"render\":{},\"tally\":{},\"errors\":[{}],\"metrics\":{{{}}}}}",
            json_str(self.plan.workload.name()),
            self.plan.seed,
            self.plan.scale,
            THREADS,
            self.impressions,
            self.reps,
            json_str(&self.digest),
            json_str(&self.render),
            json_str(&self.tally),
            errors.join(","),
            metrics.join(",")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Counters read around the measured phase.
#[derive(Debug, Clone, Copy)]
struct Counters {
    cpu_s: f64,
    key_misses: u64,
    cache: (u64, u64),
    ctx: (u64, u64),
    configs: u64,
}

impl Counters {
    fn read() -> Counters {
        Counters {
            cpu_s: sys::cpu_seconds(),
            key_misses: keys::stats().1,
            cache: cache::process_cache().stats(),
            ctx: shared_ctx_cache().stats(),
            configs: tlsfoe_tls::server::configs_built(),
        }
    }
}

/// Run `plan` untraced in this (fresh) process: one cold set-up, then
/// the measured phase through `run_study`, repeated until
/// `measure_seconds` have passed (`paper` runs it once: its cold pass is
/// the workload). Every repetition must reproduce the first one's
/// databases exactly.
pub fn run_untraced(plan: &Plan, measure_seconds: f64) -> Result<Report, String> {
    sys::check_env()?;
    let start = Instant::now();
    driver::setup(&mut Plain, plan)?;
    let setup_s = start.elapsed().as_secs_f64();

    let mut report: Option<Report> = None;
    let (mut run_s, mut cpu_s, mut rate, mut success) = (vec![], vec![], vec![], vec![]);
    let mut peak_rss_mb = 0.0;
    let measuring = Instant::now();
    loop {
        let cpu = sys::cpu_seconds();
        let start = Instant::now();
        let finished = driver::measured(&mut Plain, plan).map_err(|e| e.to_string())?;
        let wall = start.elapsed().as_secs_f64();
        cpu_s.push(sys::cpu_seconds() - cpu);
        let tally = Tally::of(&finished.studies);
        let rep = Report::new(plan, &finished, &tally);
        run_s.push(wall);
        rate.push(ratio(rep.impressions as f64, wall));
        success.push(tally.success_frac());
        match &mut report {
            None => {
                // What a process that ran the workload once would report
                // at exit; later repetitions only add allocator churn.
                peak_rss_mb = sys::peak_rss_mb();
                for tie in finished.ties() {
                    eprintln!("perfbench: note: {}", tie.describe());
                }
                report = Some(rep)
            }
            Some(first) => {
                if (&rep.digest, &rep.render, &rep.tally)
                    != (&first.digest, &first.render, &first.tally)
                {
                    first.errors.push(format!("repetition {} differs from the first", run_s.len()));
                }
            }
        }
        let repeatable = plan.workload != Workload::Paper;
        if !repeatable || measuring.elapsed().as_secs_f64() >= measure_seconds {
            break;
        }
    }
    let mut report = report.expect("at least one repetition ran");
    report.reps = run_s.len();
    report.metrics = vec![
        Metric::one("setup_s", setup_s, "s"),
        Metric { name: "run_s", unit: "s", samples: run_s },
        Metric { name: "impressions_per_s", unit: "1/s", samples: rate },
        Metric { name: "cpu_s", unit: "s", samples: cpu_s },
        Metric::one("peak_rss_mb", peak_rss_mb, "MB"),
        Metric { name: "success_frac", unit: "ratio", samples: success },
    ];
    Ok(report)
}

/// Nearest-rank percentile of `sorted` (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied().unwrap_or(0)
}

/// Check `finished`'s paper against `exp_all` stdout saved in `oracle`:
/// the same text, up to which of the tied countries Tables 3 and 7 print.
fn check_paper(oracle: &Path, finished: &Finished, report: &mut Report) -> Result<(), String> {
    let text = std::fs::read_to_string(oracle).map_err(|e| format!("{}: {e}", oracle.display()))?;
    if text == finished.text {
        return Ok(());
    }
    let ties = finished.ties();
    let ours = canonical_text(&finished.text, &ties)?;
    match canonical_text(&text, &ties) {
        Ok(theirs) if theirs == ours => {
            eprintln!("perfbench-traced: note: exp_all printed other countries among tied rows")
        }
        Ok(theirs) => {
            let same = ours.lines().zip(theirs.lines()).take_while(|(a, b)| a == b).count();
            report
                .errors
                .push(format!("paper text differs from exp_all stdout at line {}", same + 1))
        }
        Err(e) => report.errors.push(format!("exp_all stdout: {e}")),
    }
    Ok(())
}

/// Run `plan` traced in this (fresh) process: the same set-up and
/// measured phase through [`Traced`], returning the per-layer report and
/// the trace. With `oracle`, also check `paper`'s text against it
/// ([`Args::paper_oracle`]).
pub fn run_traced(
    plan: &Plan,
    untraced_run_s: Option<f64>,
    oracle: Option<&Path>,
) -> Result<(Report, Traced), String> {
    sys::check_env()?;
    let mut tr = Traced::default();
    let allocs = alloc::snapshot().0;
    let start = Instant::now();
    let setup = driver::setup(&mut tr, plan)?;
    let setup_s = start.elapsed().as_secs_f64();
    let setup_allocs = alloc::snapshot().0 - allocs;

    let before = Counters::read();
    let start = Instant::now();
    let finished = driver::measured(&mut tr, plan).map_err(|e| e.to_string())?;
    let run_s = start.elapsed().as_secs_f64();
    let after = Counters::read();
    let cpu_s = after.cpu_s - before.cpu_s;

    let tally = Tally::of(&finished.studies);
    let mut report = Report::new(plan, &finished, &tally);
    if let Some(oracle) = oracle {
        check_paper(oracle, &finished, &mut report)?;
    }
    let s = &tr.sessions;
    let imps = s.impressions as f64;
    let mut drives = s.drive_samples_ns.clone();
    drives.sort_unstable();
    let (hits, misses) = (after.cache.0 - before.cache.0, after.cache.1 - before.cache.1);
    let dbs = finished.studies.iter().map(|s| &s.db);
    let records: usize = dbs.clone().map(|db| db.len()).sum();
    let distinct: usize = dbs.clone().map(|db| db.distinct_substitutes()).sum();
    let interned: u64 = dbs.map(|db| db.interned_chain_bytes()).sum();
    let total_ms = (setup_s + run_s) * 1e3;
    let attributed_ms = tr.attributed_ns() as f64 / 1e6;
    let ms = |ns: u64| ns as f64 / 1e6;
    let overhead = untraced_run_s.map_or(0.0, |u| ratio(run_s, u) - 1.0);

    report.metrics = vec![
        Metric::one("adsim.deliver_ms", tr.layer_ms("adsim.deliver"), "ms"),
        Metric::one("adsim.impressions", imps, "count"),
        Metric::one("keys.warm_ms", tr.layer_ms("keys.warm"), "ms"),
        Metric::one("keys.generated", setup.keys_generated as f64, "count"),
        Metric::one("keys.run_generated", (after.key_misses - before.key_misses) as f64, "count"),
        Metric::one("hosts.catalog_ms", tr.layer_ms("hosts.catalog"), "ms"),
        Metric::one("cache.warm_ms", tr.layer_ms("cache.warm"), "ms"),
        Metric::one("cache.warm_signatures", setup.warm_signatures as f64, "count"),
        Metric::one("cache.hits", hits as f64, "count"),
        Metric::one("cache.misses", misses as f64, "count"),
        Metric::one("cache.hit_ratio", ratio(hits as f64, (hits + misses) as f64), "ratio"),
        Metric::one("crypto.session_signatures", s.signatures as f64, "count"),
        Metric::one("crypto.ctx_hits", (after.ctx.0 - before.ctx.0) as f64, "count"),
        Metric::one("crypto.ctx_misses", (after.ctx.1 - before.ctx.1) as f64, "count"),
        Metric::one("tls.configs_built", (after.configs - before.configs) as f64, "count"),
        Metric::one("model.derive_ms", ms(s.derive_ns), "ms"),
        Metric::one("study.prepare_ms", tr.layer_ms("study.prepare"), "ms"),
        Metric::one("session.inject_ms", ms(s.inject_ns), "ms"),
        Metric::one("session.drive_ms", ms(s.drive_ns), "ms"),
        Metric::one("session.drives", drives.len() as f64, "count"),
        Metric::one("session.drive_p50_us", percentile(&drives, 0.50) as f64 / 1e3, "us"),
        Metric::one("session.drive_p99_us", percentile(&drives, 0.99) as f64 / 1e3, "us"),
        Metric::one("session.probes", s.probes as f64, "count"),
        Metric::one("session.retried", tally.retried as f64, "count"),
    ];
    for (name, n) in FAILURE_METRICS.into_iter().zip(tally.failures) {
        report.metrics.push(Metric::one(name, n as f64, "count"));
    }
    report.metrics.extend([
        Metric::one("session.malformed_uploads", tally.malformed as f64, "count"),
        Metric::one("netsim.events_per_impression", ratio(s.events as f64, imps), "events/imp"),
        Metric::one("netsim.sides_high_water", s.sides_high_water as f64, "count"),
        Metric::one("shard.busy_max_ms", ms(s.busy_max_ns), "ms"),
        Metric::one("shard.idle_ms", ms(s.idle_ns), "ms"),
        Metric::one("shard.parallel_eff", ratio(cpu_s, run_s * THREADS as f64), "ratio"),
        Metric::one("store.merge_ms", tr.layer_ms("store.merge"), "ms"),
        Metric::one("store.records", records as f64, "count"),
        Metric::one("store.distinct_substitutes", distinct as f64, "count"),
        Metric::one("store.interned_kb", interned as f64 / 1024.0, "KB"),
        Metric::one("analyze.tables_ms", tr.layer_ms("analyze.tables"), "ms"),
        Metric::one("analyze.negligence_ms", tr.layer_ms("analyze.negligence"), "ms"),
        Metric::one("analyze.malware_ms", tr.layer_ms("analyze.malware"), "ms"),
        Metric::one("analyze.audit_ms", tr.layer_ms("analyze.audit"), "ms"),
        Metric::one("mitigation.eval_ms", tr.layer_ms("mitigation.eval"), "ms"),
        Metric::one("alloc.setup", setup_allocs as f64, "count"),
        Metric::one("alloc.per_impression", ratio(s.allocs as f64, imps), "count"),
        Metric::one("alloc.bytes_per_impression", ratio(s.alloc_bytes as f64, imps), "B"),
        Metric::one("trace.setup_s", setup_s, "s"),
        Metric::one("trace.run_s", run_s, "s"),
        Metric::one("trace.attributed_ms", attributed_ms, "ms"),
        Metric::one("trace.unattributed_ms", total_ms - attributed_ms, "ms"),
        Metric::one("trace.overhead_frac", overhead, "ratio"),
        Metric::one("failed_frac", ratio(tally.failed() as f64, s.probes as f64), "ratio"),
    ]);
    Ok((report, tr))
}
