//! Untraced worker: one cold run of a workload through `run_study`,
//! printing the end-to-end metrics as one JSON line.
//!
//! `perfbench --workload <paper|sessions|chaos> --seed <n> [--scale <n>]`

fn main() {
    let result = tlsfoe_perfbench::Args::parse(std::env::args().skip(1))
        .and_then(|args| tlsfoe_perfbench::run_untraced(&args.plan, args.measure_seconds));
    match result {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
