#!/usr/bin/env python3
"""DiLOS simulator benchmark.

Builds perfbench/main.exe from source with dune, runs one workload and
prints its metrics, ending with one JSON result line:

    python3 perfbench/run.py --workload sort --seed 7 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Other entry points:

    python3 perfbench/run.py --all [--seconds S]   every workload, one table
    python3 perfbench/run.py --record              rewrite expected.json

Run it from the root of a checkout. It reads and writes only inside the
checkout: the build goes to _build/, a result file per run to
perfbench/results/. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
EXPECTED = os.path.join(HERE, "expected.json")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ["sort", "scan", "scan_fastswap", "serve"]
DEFAULT_SEED = 42
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib", "apps"))
    ):
        die("no dune-project or lib/apps next to perfbench/: run from a "
            "complete checkout of the repository")
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune not found on PATH")
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed", 1)


def drive(workload, seed, seconds, trace):
    """Run main.exe once; return its JSON document."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    if r.returncode != 0:
        die(f"{workload}: main.exe exited with {r.returncode}", 1)
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        die(f"{workload}: unreadable output from main.exe", 1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def git_commit():
    """HEAD of the checkout, read from .git without invoking git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(doc, seed):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "ocaml": doc.get("ocaml", "unknown"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def check_recorded(workload, doc):
    """The default seed's simulated outputs must equal the recorded ones."""
    got = doc["default_outputs"]
    return got is None or got == load_json(EXPECTED)["outputs"][workload]


def end_to_end(doc):
    run_s = statistics.median(doc["run_s"])
    return {
        "run_s": run_s,
        "accesses_per_s": doc["memif_calls"] / run_s,
        "setup_s": statistics.median(doc["setup_only_s"] + doc["setup_s"]),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }


def measure(workload, seed, seconds, trace):
    """One benchmark run: (result line dict, human-readable text)."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    doc = drive(workload, seed, seconds, trace)
    attempted, failed = doc["attempted"], doc["failed"]
    notes = list(doc["notes"])
    if not check_recorded(workload, doc):
        failed += 1
        notes.append("default-seed outputs differ from perfbench/expected.json")
    if trace == 0:
        values = end_to_end(doc) if doc["run_s"] else {}
    else:
        values = doc["layers"]
    missing = [k for k in units if k not in values]
    if missing:
        notes.append("missing metrics: " + ", ".join(missing))
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in units.items() if k in values}
    correct = failed == 0 and not missing and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in metrics.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    lines = [f"perfbench {workload} seed={seed} trace={trace}"]
    lines += [f"  {k:<28} {m['value']:>16.6g} {m['unit']}"
              for k, m in metrics.items()]
    lines.append(f"  {'failed_ratio':<28} {failed / max(attempted, 1):>16.6g} "
                 f"fraction ({failed} of {attempted} runs)")
    lines += [f"  note: {n}" for n in notes]
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")
    with open(out, "w") as f:
        json.dump({"host": fingerprint(doc, seed), "result": result,
                   "notes": notes, "raw": doc,
                   "finished_unix_s": time.time()}, f, indent=1)
    return result, "\n".join(lines)


def record():
    """Rewrite expected.json from default-seed runs of every workload."""
    outputs = {}
    for w in WORKLOADS:
        doc = drive(w, DEFAULT_SEED, 1, 0)
        if doc["failed"] or doc["default_outputs"] is None:
            die(f"{w}: default-seed run failed: {doc['notes']}", 1)
        outputs[w] = doc["default_outputs"]
    with open(EXPECTED, "w") as f:
        json.dump({"default_seed": DEFAULT_SEED, "outputs": outputs}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {EXPECTED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print one table")
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from default-seed runs")
    args = ap.parse_args()
    if not (args.workload or args.all or args.record):
        ap.error("one of --workload, --all or --record is required")
    build()
    if args.record:
        record()
        return
    if args.all:
        ok = True
        for w in WORKLOADS:
            result, text = measure(w, args.seed, args.seconds, args.trace)
            print(text, flush=True)
            ok = ok and result["correct"]
        sys.exit(0 if ok else 1)
    result, text = measure(args.workload, args.seed, args.seconds, args.trace)
    print(text)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
