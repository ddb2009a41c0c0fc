#!/bin/sh
# Same-seed byte-identity probes. Writes the standard deterministic outputs
# of the simulator, the nemesis, the bench experiments and every example
# into OUT_DIR, one file (or directory) per probe. Every run is seeded, so
# two trees that behave the same produce identical directories:
#
#   scripts/same_seed_probes.sh /tmp/before   # on the parent commit
#   scripts/same_seed_probes.sh /tmp/after    # on the change
#   diff -r /tmp/before /tmp/after            # empty for a pure refactor
#
# test/golden/probes.sha256 holds one digest per output file, and CI checks
# a fresh run against it with `sha256sum -c`. test/golden/text/ holds whole
# copies of the readable outputs (fig6, table1, the nemesis and sim
# summaries, the examples' reports), which CI diffs against the fresh run
# so a failure shows what moved. After a change that alters behaviour on
# purpose, regenerate both from the repository root:
#
#   scripts/same_seed_probes.sh /tmp/probes
#   (cd /tmp/probes && find . -type f | LC_ALL=C sort | sed 's|^\./||' \
#     | xargs sha256sum) > test/golden/probes.sha256
#   rm -rf test/golden/text && mkdir -p test/golden/text/bench
#   cp /tmp/probes/bench/BENCH_fig6.report.txt \
#     /tmp/probes/bench/BENCH_table1.report.txt test/golden/text/bench/
#   cp /tmp/probes/nemesis-*.txt /tmp/probes/sim-*.txt \
#     /tmp/probes/example-*.txt test/golden/text/
#
# Output paths are relative to OUT_DIR, so no probe prints where it ran. A
# probe that exits non-zero records its status at the end of its output
# file; the script itself fails only when the build does.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$root"
dune build 2>&1
build="$root/_build/default"

# probe NAME DIR CMD... : run CMD inside DIR, stdout and stderr to NAME.txt
probe() {
  name=$1
  dir=$2
  shift 2
  mkdir -p "$dir"
  status=0
  (cd "$dir" && "$@") >"$out/$name.txt" 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then echo "exit $status" >>"$out/$name.txt"; fi
}

sim="$build/bin/avdb_sim_cli.exe"
nemesis="$build/bin/avdb_nemesis_cli.exe"

for d in 1 2; do
  probe "sim-mixed-d$d" "$out" "$sim" --class mixed --check --domains "$d" \
    --trace-out "sim-mixed-d$d.trace.json" \
    --metrics-out "sim-mixed-d$d.metrics.csv" --snapshot-every-ms 50
done
probe sim-immediate "$out" "$sim" --class immediate
probe sim-epoch "$out" "$sim" --class epoch
probe sim-centralized "$out" "$sim" --mode centralized
probe sim-lossy "$out" "$sim" --drop 0.05 --dup 0.05 --reorder 0.05 \
  --rpc-retries 4 --sync-ms 20 --check
probe sim-sharded "$out" "$sim" --retailers 99 --items 200 --spread 3 \
  --sync-ms 10 --check

probe nemesis-seeds "$out" "$nemesis" --seeds 100
probe nemesis-oracle "$out" "$nemesis" --oracle --seeds 25
probe nemesis-disk "$out" "$nemesis" --disk-faults --oracle
probe nemesis-epoch "$out" "$nemesis" --epoch 2 --oracle
probe nemesis-domains "$out" "$nemesis" --domains 2
probe nemesis-sharded "$out" "$nemesis" --sites 20 --spread 3 --oracle

probe bench "$out" "$build/bench/main.exe" --out bench \
  fig6 table1 fault-script sync elastic staleness ablation-prefetch \
  immediate recovery

for ex in "$build"/examples/*.exe; do
  name=$(basename "$ex" .exe)
  probe "example-$name" "$out/example-$name" "$ex"
done
