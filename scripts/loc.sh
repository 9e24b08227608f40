#!/usr/bin/env bash
# The diet's number (ROADMAP item 7): lines of non-test Go outside
# benchmark/ and testdata/ (fixtures only tests read), plus the CLI front end, the clusterer, the sketch layer
# and the experiment harness on their own. With --check, fail when the first number is above the
# ceiling below, so it can only go up by an edit to this file that shows
# in a diff.
set -euo pipefail
cd "$(dirname "$0")/.."
ceiling=19281
count() { find "$@" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l; }
total=$(count .)
echo "non-test Go outside benchmark/: $total"
echo "cmd/accturbo-defend:            $(count ./cmd/accturbo-defend)"
echo "internal/cluster:               $(count ./internal/cluster)"
echo "internal/sketch:                $(count ./internal/sketch)"
echo "internal/experiments:           $(count ./internal/experiments)"
if [ "${1:-}" = --check ] && [ "$total" -gt "$ceiling" ]; then
  echo "loc.sh: $total lines is over the recorded ceiling of $ceiling" >&2
  exit 1
fi
