#!/bin/sh
# Prints the repository's tracked size figure: lines of non-test Go,
# excluding the benchmark harness (perfbench/) and its build output
# (.bench_build/). Report-only; nothing gates on it.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './perfbench/*' | xargs cat | wc -l
