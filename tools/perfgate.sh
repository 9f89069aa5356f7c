#!/usr/bin/env bash
# Perf regression gate: compare a bench's --json report against its
# committed baseline with maxk-perf-check.
#
#   perfgate.sh <checker-binary> <baseline.json> <report.json>
#
# The report comes from the bench's smoke run (`<bench> --smoke --json
# <report.json>`, registered in bench/CMakeLists.txt). Its records are
# collected with the cache model off, so they are deterministic across
# machines — see bench/bench_perf_kernels.cc. MAXK_PERF_BLESS=1 refreshes
# the baseline from the report instead of comparing (commit the result).
set -euo pipefail

if [ "$#" -ne 3 ]; then
    echo "usage: perfgate.sh <checker> <baseline.json> <report.json>" >&2
    exit 2
fi

checker=$1
baseline=$2
report=$3

if [ "${MAXK_PERF_BLESS:-0}" = "1" ]; then
    cp "$report" "$baseline"
    echo "perfgate: blessed new baseline $baseline"
    exit 0
fi

exec "$checker" "$report" "$baseline"
