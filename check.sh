#!/bin/sh
# Repo-wide gate: build, static analysis, tests — in that order, so a
# lint finding points at its file:line before a golden diff ever has to.
set -e
cd "$(dirname "$0")"

echo "== dune build"
dune build

echo "== release profile guard"
# dune-workspace selects the release profile. dev passes -opaque to
# ocamlopt, which stops the cross-module inlining of the TLB-hit path
# (Memif closure -> Dilos.Cpu -> Sim.Bigbuf): no test fails without it,
# the simulator just gets ~40% slower on sort. Check the compile rule
# of lib/core/cpu.ml itself, so a lost profile cannot go unnoticed.
cpu_rule=$(dune rules -m _build/default/lib/core/.dilos.objs/native/dilos__Cpu.cmx)
case $cpu_rule in
  *ocamlopt*) ;;
  *) echo "check.sh: no native compile rule found for lib/core/cpu.ml" >&2
     exit 1 ;;
esac
case $cpu_rule in
  *-opaque*)
    echo "check.sh: lib/core/cpu.ml is compiled with -opaque; dune-workspace" \
      "must select (profile release) for cross-module inlining" >&2
    exit 1 ;;
esac

echo "== no Bigarray views on the data path"
# Each view is a custom block with a finalizer (~5% of scan's host
# time when every Bigbuf copy made two); copies go through the C stubs.
if grep -rn 'Array1\.sub' lib/; then
  echo "check.sh: Bigarray.Array1.sub under lib/; use Sim.Bigbuf's offset-based copies" >&2
  exit 1
fi

echo "== one allocator for page bytes"
# Sim.Bigbuf.create is the only place page bytes are allocated: large
# slabs are fresh huge-page mappings the kernel zeroes lazily, small
# ones are memset. A Bigarray made anywhere else gets neither.
if grep -rn 'Array1\.create' lib/ | grep -v '^lib/sim/bigbuf\.ml:'; then
  echo "check.sh: Bigarray.Array1.create under lib/ outside lib/sim/bigbuf.ml; use Sim.Bigbuf.create" >&2
  exit 1
fi

echo "== dune build @lint"
dune build @lint

echo "== dilos_lint --format=json"
# The same whole-program invocation CI's lint job runs: machine-readable
# findings land in lint_findings.json (gitignored) for inspection, and a
# non-suppressed finding fails the gate via exit code 1.
dune exec bin/dilos_lint.exe -- --format=json lib bin bench > lint_findings.json

echo "== dune runtest"
dune runtest

echo "== drill smoke"
# Seeded recovery drill through the CLI, run twice: kill a shard
# mid-run on a 2-shard, RF-2 memory node; the digest must match the
# failure-free run (exit 1 on mismatch, 4 on a lost page) and the JSON
# report must be byte-identical across runs.
dune exec bin/dilos_sim.exe -- drill --app seq,quicksort --seed 42 \
  --shards 2 --replication 2 --recover-after-us 200 \
  --json drill_report.json > /dev/null
dune exec bin/dilos_sim.exe -- drill --app seq,quicksort --seed 42 \
  --shards 2 --replication 2 --recover-after-us 200 \
  --json drill_repeat.json > /dev/null
cmp drill_report.json drill_repeat.json
rm -f drill_repeat.json

echo "== observatory report"
# Scenario matrix through the CLI, run twice: --check asserts the
# expected health events (clean run quiet, retry-storm under flaky,
# resync-backlog after kill-shard, queue ceiling under overload) and
# profile/attribution reconciliation; the JSON must be byte-identical
# across runs. The first run also writes the flaky-kill scenario's
# OpenMetrics and collapsed-stack artifacts.
dune exec bin/dilos_sim.exe -- report --seed 42 --check \
  --json obs_report.json --openmetrics metrics.prom \
  --folded profile.folded > /dev/null
dune exec bin/dilos_sim.exe -- report --seed 42 \
  --json obs_repeat.json > /dev/null
cmp obs_report.json obs_repeat.json
rm -f obs_repeat.json

echo "== serving smoke"
# A short open-loop serve sweep spanning the saturation knee, run
# twice: the JSON report must be byte-identical across runs (the
# determinism contract). The first run's report is kept as
# serve_report.json.
dune exec bin/dilos_sim.exe -- serve \
  --arrival-rate 100000,50000000 --zipf 0.99 --keys 1024 \
  --requests 2000 --local-mb 2 --json serve_report.json > /dev/null
dune exec bin/dilos_sim.exe -- serve \
  --arrival-rate 100000,50000000 --zipf 0.99 --keys 1024 \
  --requests 2000 --local-mb 2 --json serve_repeat.json > /dev/null
cmp serve_report.json serve_repeat.json
rm -f serve_repeat.json

echo "== perfbench correctness smoke"
# One short run per perfbench workload: run.py exits non-zero unless the
# default-seed simulated outputs equal perfbench/expected.json.
for w in sort scan scan_fastswap serve; do
  python3 perfbench/run.py --workload "$w" --seconds 1 --trace 0 > /dev/null
done

echo "== bench regress gate"
# Re-run the committed trajectory; fail on deterministic counter or
# sim-time drift (exact) or a >3x wall-clock regression.
dune exec bench/main.exe -- --regress BENCH_observatory.json

echo "== OK"
