#!/usr/bin/env sh
# One-command local equivalent of .github/workflows/ci.yml.
#
#   sh tools/ci_local.sh              # lint + tier-1 + benchmark smoke + api-index
#                                     # (the blocking jobs)
#   sh tools/ci_local.sh --perf       # additionally run the non-blocking tripwires
#   sh tools/ci_local.sh --sanitizer  # additionally run the CI sanitizer job
#                                     # (slow DFS tests + the seed-matrix campaign)
#   sh tools/ci_local.sh --trials     # additionally run the CI trials job (seeded
#                                     # campaign -> history.jsonl + TRENDS.md)
#   sh tools/ci_local.sh --serve      # additionally run the CI serve-soak job
#                                     # (full tests/serve incl. the slow
#                                     # acceptance soak + serve benchmarks)
#   sh tools/ci_local.sh --pool       # additionally run the CI executor-pool
#                                     # job (pool correctness + determinism
#                                     # suites + the multi-core speedup gates;
#                                     # gates skip-with-a-recorded-row < 4 cores)
#
# Requires only the baked-in toolchain (python + pytest + numpy). ruff
# and actionlint are picked up when installed and skipped with a
# warning otherwise, so the script never fails for a missing linter
# the CI lint job would have caught anyway.

set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks tools
else
    echo "ruff not installed (pip install -e '.[dev]') -- skipping lint"
fi
python -m compileall -q src
if command -v actionlint >/dev/null 2>&1; then
    actionlint
else
    echo "actionlint not installed -- skipping workflow lint"
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== benchmark smoke run =="
# run.py exits 0 even when an answer is wrong, so check the "correct"
# flag of the JSON result on its last output line. A traceback on
# stderr (e.g. from a worker or the resource tracker) also fails.
smoke_err="$(mktemp)"
for w in ladder dataflow serve-soak; do
    for t in 0 1; do
        python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace "$t" 2>"$smoke_err" \
            | tail -n 1 \
            | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin).get("correct") is not True)' \
            || { cat "$smoke_err" >&2; echo "benchmark smoke: $w --trace $t answered wrong"; exit 1; }
        cat "$smoke_err" >&2
        if grep -q Traceback "$smoke_err"; then
            echo "benchmark smoke: $w --trace $t printed a traceback"
            exit 1
        fi
    done
done
rm -f "$smoke_err"

echo "== api index =="
python tools/check_api_index.py --check

echo "== bench output schema =="
python tools/check_bench_schema.py --check

if [ "${1:-}" = "--perf" ]; then
    echo "== perf tripwires (non-blocking in CI) =="
    python -m pytest -q \
        tests/integration/test_overhead_tripwires.py \
        benchmarks/test_overhead_gates.py \
        benchmarks/test_executor_backends.py \
        benchmarks/test_serve_throughput.py \
        benchmarks/test_align.py \
        benchmarks/test_kmeans_models.py \
        benchmarks/test_fig2_nyc_pipeline.py \
        benchmarks/test_wordcount.py \
        benchmarks/test_spmd_microbench.py
    python tools/check_bench_schema.py --check
fi

if [ "${1:-}" = "--sanitizer" ]; then
    echo "== sanitizer suite (including slow systematic-DFS tests) =="
    python -m pytest -q tests/sanitizer -m 'slow or not slow'
    echo "== align, k-means and kNN conformance (cross-model same answer) =="
    python -m pytest -q tests/integration/test_model_conformance.py -k "Align or KMeans or Knn"
    python -m pytest -q tests/align/test_align_properties.py
    echo "== golden digests + owner-view crash reproducer (child interpreter) =="
    python -m pytest -q tests/golden/test_golden.py \
        tests/core/test_shm_views.py::TestViewOutlivesUnpublish
    echo "== ladder certification campaign (k-means + align, seed matrix) =="
    for seed in 0 7 123; do
        python tools/sanitizer_campaign.py --seed "$seed" --schedules 50 \
            --out sanitizer-reports
    done
fi

if [ "${1:-}" = "--trials" ]; then
    echo "== trial campaign + trend report (non-blocking in CI) =="
    python tools/trials --ingest-bench --fail-on never
fi

if [ "${1:-}" = "--pool" ]; then
    echo "== executor pool (correctness + determinism) =="
    python -m pytest -q \
        tests/util/test_team.py \
        tests/openmp/test_sync_reduction.py::TestThreadPrivate \
        tests/openmp/test_tasks.py \
        tests/core/test_executor.py \
        tests/core/test_executor_pool.py \
        tests/core/test_shm_lifecycle.py \
        tests/core/test_shm_views.py \
        tests/golden/test_golden.py \
        tests/core/test_executor_determinism.py \
        tests/core/test_executor_interrupt.py \
        tests/spark/test_executor_backends.py \
        tests/spark/test_stages.py \
        tests/spark/test_map_side_combine.py \
        tests/spark/test_one_task_path.py \
        tests/spark/test_spill_faults.py \
        tests/mapreduce/test_executor_backend.py \
        tests/mapreduce/test_keymultivalue.py \
        tests/kmeans/test_parallel_kmeans.py \
        tests/kmeans/test_cluster_sums.py
    echo "== heat and HPO conformance (process-backend rungs) =="
    python -m pytest -q tests/integration/test_model_conformance.py -k "Heat or Hpo"
    echo "== executor pool speedup gates (skip-with-record < 4 cores) =="
    python -m pytest -q -rs benchmarks/test_executor_backends.py
fi

if [ "${1:-}" = "--serve" ]; then
    echo "== serve soak (multi-tenant, fault-injected) =="
    python -m pytest -q -m 'slow or not slow' \
        tests/serve \
        tests/spark/test_cancellation.py \
        tests/core/test_executor_interrupt.py \
        tests/util/test_team.py
    echo "== serve throughput soak + idle-overhead gate =="
    python -m pytest -q benchmarks/test_serve_throughput.py \
        benchmarks/test_overhead_gates.py -k 'soak or serve'
fi

echo "ci_local: all checks passed"
