#!/usr/bin/env bash
# The serving benchmark's one command. It builds pgmr_bench against this
# checkout, fills the benchmark's own model cache (copying archives from
# .pgmr_cache, training only those the checkout lacks; never inside a
# measured run), then runs workloads. Each workload runs in its own
# pgmr_bench process.
#
#   benchmark/run.sh [--seed S] [--trace] [--out DIR]
#       every workload, untraced (with --trace: the traced pass instead)
#   benchmark/run.sh --smoke
#       every workload for 2 s plus a 1 s traced pass, then checks that the
#       printed metric names, and the program's metric catalog, are exactly
#       those of BENCHMARK.json
#   benchmark/run.sh --workload W --seed S [--seconds 20] --trace 0|1
#                    [--out DIR]
#       one workload; the last stdout line is the JSON result
#   benchmark/run.sh --compare BASE_DIR CHANGE_DIR
#       judges result files written with --out (see benchmark/README.md)
#
# The measured window is fixed at 20 s (BENCHMARK.json run_seconds), so
# every result file is a run of the same length; --seconds is accepted only
# with that value.
#
# Build output goes to stderr; build-bench/ holds the build, the model
# cache (build-bench/model_cache) and the Chrome traces (build-bench/trace).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build=build-bench
seed=1
seconds=20
trace=
workload=
out=
smoke=
compare=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds)
      if [ "$2" != "$seconds" ]; then
        echo "benchmark/run.sh: the window is fixed at $seconds s" >&2
        exit 64
      fi
      shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && [[ "$2" =~ ^[01]$ ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --workload) workload="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --compare) compare=("$2" "$3"); shift 3 ;;
    *) echo "benchmark/run.sh: unknown argument $1" >&2; exit 64 ;;
  esac
done

if [ ! -f CMakeLists.txt ] || [ ! -d src ]; then
  echo "benchmark/run.sh: no repository sources next to benchmark/; run it" \
       "from a full checkout" >&2
  exit 1
fi

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_PROJECT_INCLUDE="$PWD/benchmark/project_hook.cmake" >&2
fi
cmake --build "$build" --target pgmr_bench pgmr-shard-worker \
      -j "$(nproc)" >&2
bench="$build/benchmark/pgmr_bench"
"$bench" --prepare --build-dir "$build" >&2

if [ ${#compare[@]} -gt 0 ]; then
  exec "$bench" --compare "${compare[@]}"
fi

run_one() {  # workload seconds trace(0|1)
  local args=(--workload "$1" --seed "$seed" --seconds "$2" --trace "$3"
              --build-dir "$build")
  if [ -n "$out" ]; then args+=(--out "$out"); fi
  "$bench" "${args[@]}"
}

if [ -n "$workload" ]; then
  run_one "$workload" "$seconds" "${trace:-0}"
  exit
fi

if [ -z "$smoke" ]; then
  for w in $("$bench" --list-workloads); do
    run_one "$w" "$seconds" "${trace:-0}"
  done
  exit
fi

# --smoke: the benchmark's self-test. Its short runs write no result files.
out=
results=$(mktemp -d "$build/smoke.XXXXXX")
trap 'rm -rf "$results"' EXIT
for w in $("$bench" --list-workloads); do
  run_one "$w" 2 0 | tee "$results/$w.e2e"
  run_one "$w" 1 1 | tee "$results/$w.layer"
done
"$bench" --catalog > "$results/catalog"
python3 - "$results" <<'EOF'
import json, pathlib, sys
results = pathlib.Path(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
catalog = json.load(open(results / "catalog"))
ok = True
for kind in ("end_to_end", "per_layer"):
    if catalog[kind] != spec[kind]:
        ok = False
        print(f"smoke: BENCHMARK.json {kind} differs from the program's "
              "catalog", file=sys.stderr)
want = {"e2e": [m["name"] for m in spec["end_to_end"]],
        "layer": [m["name"] for m in spec["per_layer"]]}
for path in sorted(results.glob("*.e2e")) + sorted(results.glob("*.layer")):
    result = json.loads(path.read_text().strip().splitlines()[-1])
    kind = path.suffix[1:]
    names = list(result["metrics"])
    if names != want[kind] or not result["correct"]:
        ok = False
        print(f"smoke: {path.name}: names match {names == want[kind]}, "
              f"correct {result['correct']}", file=sys.stderr)
print("smoke: " + ("PASS" if ok else "FAIL"))
sys.exit(0 if ok else 1)
EOF
