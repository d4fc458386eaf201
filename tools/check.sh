#!/usr/bin/env bash
# tools/check.sh — the single correctness gate for this repository.
#
# Runs, in order:
#   1. ruff        (style/pyflakes; skipped with a notice if not installed)
#   2. mypy        (type check;     skipped with a notice if not installed)
#   3. reprolint   (per-file determinism lints — always runs)
#   4. reproflow   (whole-program analysis: seeds, schema, fork, api)
#   5. pytest      (tier-1 test suite — always runs)
#   6. pytest perf (the benchmark harness's own tests: every workload at
#                   toy scale, and every layer's span targets resolve;
#                   tier-1 does not collect them)
#
# Exit code is non-zero if any executed check fails.  ruff and mypy are
# optional because the offline development container does not ship them;
# CI installs the `lint` extra so both run there.

set -u
cd "$(dirname "$0")/.."

failures=0

run_check() {
    local name="$1"; shift
    echo "==> ${name}: $*"
    if "$@"; then
        echo "==> ${name}: OK"
    else
        echo "==> ${name}: FAILED"
        failures=$((failures + 1))
    fi
    echo
}

maybe_run_check() {
    local name="$1" module="$2"; shift 2
    if python -c "import ${module}" >/dev/null 2>&1; then
        run_check "${name}" "$@"
    else
        echo "==> ${name}: SKIPPED (python -m ${module} not available;"
        echo "    install with: pip install -e '.[lint]')"
        echo
    fi
}

maybe_run_check ruff ruff python -m ruff check src tests benchmarks tools examples
maybe_run_check mypy mypy python -m mypy
run_check reprolint python -m tools.reprolint src tests benchmarks tools examples
run_check reproflow python -m tools.reproflow
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" run_check pytest python -m pytest -x -q
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" run_check pytest-perf python -m pytest perf -q

if [ "${failures}" -gt 0 ]; then
    echo "check.sh: ${failures} check(s) failed"
    exit 1
fi
echo "check.sh: all checks passed"
