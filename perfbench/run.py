#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload <paper|sessions|chaos> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. Builds the two worker binaries (and, for a
traced `paper` run, the `exp_all` oracle) with cargo into
$CARGO_TARGET_DIR (default `.bench_build`), then:

--trace 0  runs the untraced worker in PROCESSES fresh processes. Each
           does one cold set-up and then repeats the measured phase for
           its share of --seconds (`paper` runs its cold pass once).
           Every repetition must produce the same databases; each
           end-to-end metric is the median over all samples of the run.
--trace 1  runs the untraced worker once and the traced worker once,
           each in a fresh process, and checks that both produced the
           same databases, failure tally and text. For `paper` it also
           runs `exp_all` at the same scale, seed and threads in between,
           and the traced worker checks its text against that stdout.
           The metrics are the traced worker's per-layer metrics.

Texts are compared up to which of several countries tied on their
(proxied, total) key Tables 3 and 7 print: the simulator ranks those
rows by the key alone, in hash-map order, so that choice differs from
process to process. The workers log every such tie.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `attempted` counts the impressions
simulated; `failed` counts impressions of runs that did not finish.
Injected faults on `chaos` are simulated outcomes, recorded as typed
probe failures, not failed operations of the benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper", "sessions", "chaos")
# Read inside the simulator or the exp_* binaries; each silently changes
# what a run measures.
REFUSED_ENV = (
    "TLSFOE_SCHOOLBOOK",
    "TLSFOE_PRIVATE_MINT",
    "TLSFOE_PARTITIONS",
    "TLSFOE_THREADS",
    "TLSFOE_BATCH",
)
PROCESSES = 2
WORKER_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def run_worker(cmd, env):
    """Run one worker process; return (report dict or None, elapsed s)."""
    start = time.monotonic()
    try:
        done = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        log(f"run.py: timed out: {' '.join(cmd)}")
        return None, time.monotonic() - start
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"run.py: worker failed ({done.returncode}): {' '.join(cmd)}")
        return None, elapsed
    return json.loads(lines[-1]), elapsed


def exp_all_text(target, report, env, path):
    """Write `exp_all` stdout at the worker's scale, seed, threads to path."""
    child = dict(env)
    child.update(
        TLSFOE_SCALE=str(report["scale"]),
        TLSFOE_SEED=str(report["seed"]),
        TLSFOE_THREADS=str(report["threads"]),
    )
    exe = os.path.join(target, "release", "exp_all")
    try:
        with open(path, "wb") as out:
            done = subprocess.run([exe], env=child, stdout=out, stderr=subprocess.DEVNULL,
                                  timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: exp_all timed out")
        return False
    if done.returncode != 0:
        log("run.py: exp_all failed")
    return done.returncode == 0


def untraced(args, exe, env):
    reports = []
    for i in range(PROCESSES):
        report, elapsed = run_worker(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--measure-seconds", str(args.seconds / PROCESSES)],
            env,
        )
        if report is None:
            return False, reports
        log(f"process {i + 1}: {elapsed:.1f} s  " + "  ".join(
            f"{k}=" + ",".join(f"{x:.4g}" for x in v["samples"])
            for k, v in report["metrics"].items()))
        reports.append(report)
    return True, reports


def check_untraced(reports):
    errors = [e for r in reports for e in r["errors"]]
    for key in ("digest", "render", "tally"):
        if len({r[key] for r in reports}) != 1:
            errors.append(f"{key} differs between repeated runs of one seed")
    return errors


def traced(args, target, env):
    bindir = os.path.join(target, "release")
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    plain, _ = run_worker([os.path.join(bindir, "perfbench")] + base, env)
    if plain is None:
        return False, [], []
    spans = os.path.join(target, f"perfbench-trace-{args.workload}-{args.seed}.jsonl")
    extra = ["--trace-out", spans, "--untraced-run-s", str(plain["metrics"]["run_s"]["value"])]
    if args.workload == "paper":
        oracle = os.path.join(target, f"perfbench-exp_all-{args.seed}.txt")
        if not exp_all_text(target, plain, env, oracle):
            return False, [plain], []
        extra += ["--paper-oracle", oracle]
    traced_report, _ = run_worker(
        [os.path.join(bindir, "perfbench-traced")] + base + extra, env)
    if traced_report is None:
        return False, [plain], []
    errors = plain["errors"] + traced_report["errors"]
    for key, what in (("digest", "database digest"), ("tally", "failure tally"),
                      ("render", "rendered text")):
        if plain[key] != traced_report[key]:
            errors.append(f"traced {what} {traced_report[key]} != untraced {plain[key]}")
    log(f"spans written to {spans}")
    return True, [plain, traced_report], errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        sys.exit(f"run.py: refusing to run with {', '.join(refused)} set")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo_build(["--manifest-path", "perfbench/Cargo.toml", "--bins"], env)
    if args.trace and args.workload == "paper":
        cargo_build(["-p", "tlsfoe-bench", "--bin", "exp_all"], env)

    if args.trace:
        finished, reports, errors = traced(args, target, env)
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in (reports[-1]["metrics"] if finished else {}).items()}
    else:
        exe = os.path.join(target, "release", "perfbench")
        finished, reports = untraced(args, exe, env)
        errors = check_untraced(reports) if finished else []
        metrics = {
            name: {"value": statistics.median(
                       x for r in reports for x in r["metrics"][name]["samples"]),
                   "unit": reports[0]["metrics"][name]["unit"]}
            for name in (reports[0]["metrics"] if reports else {})
        }
    for e in errors:
        log(f"run.py: check failed: {e}")
    attempted = sum(r["impressions"] * r["reps"] for r in reports)
    failed = 0 if finished else max(1, attempted)
    if reports:
        print(f"{args.workload}: {len(reports)} process(es), "
              f"{reports[0]['impressions']} impressions per repetition, seed {args.seed}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": finished and not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
