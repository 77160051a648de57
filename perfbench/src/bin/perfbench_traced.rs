//! Traced worker: one cold run of a workload through the public-call
//! re-drive, printing the per-layer metrics as one JSON line and, with
//! `--trace-out <file>`, writing every span as JSON lines.
//!
//! `perfbench-traced --workload <name> --seed <n> [--scale <n>]
//! [--trace-out <file>] [--untraced-run-s <s>] [--paper-oracle <file>]`

use std::io::{BufWriter, Write};

use tlsfoe_perfbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn run() -> Result<String, String> {
    let args = tlsfoe_perfbench::Args::parse(std::env::args().skip(1))?;
    let oracle = args.paper_oracle.as_deref();
    let (report, trace) = tlsfoe_perfbench::run_traced(&args.plan, args.untraced_run_s, oracle)?;
    if let Some(path) = &args.trace_out {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        trace
            .write_spans(&mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(report.to_json())
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            std::process::exit(1);
        }
    }
}
