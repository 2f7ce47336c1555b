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
# Seeded recovery drill through the CLI, run twice: the digest must
# match the failure-free run (exit code) and the JSON report must be
# byte-identical across runs.
dune exec bin/dilos_sim.exe -- drill --app seq --seed 42 \
  --recover-after-us 200 --json drill_report.json > /dev/null
dune exec bin/dilos_sim.exe -- drill --app seq --seed 42 \
  --recover-after-us 200 --json drill_repeat.json > /dev/null
cmp drill_report.json drill_repeat.json
rm -f drill_repeat.json

echo "== observatory report"
# Scenario matrix through the CLI, run twice: --check asserts the
# expected health events (clean run quiet, retry-storm under flaky,
# resync-backlog after kill-shard, queue ceiling under overload) and
# profile/attribution reconciliation; the JSON must be byte-identical
# across runs.
dune exec bin/dilos_sim.exe -- report --seed 42 --check \
  --json obs_report.json > /dev/null
dune exec bin/dilos_sim.exe -- report --seed 42 \
  --json obs_repeat.json > /dev/null
cmp obs_report.json obs_repeat.json
rm -f obs_repeat.json

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
