#!/usr/bin/env bash
# The diet's number (ROADMAP item 2): lines of non-test Go outside
# benchmark/, plus the CLI front end on its own.
set -euo pipefail
cd "$(dirname "$0")/.."
count() { find "$@" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l; }
echo "non-test Go outside benchmark/: $(count .)"
echo "cmd/accturbo-defend:            $(count ./cmd/accturbo-defend)"
