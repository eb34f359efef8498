#!/usr/bin/env bash
# Kill-and-resume smoke test: SIGINT a sweep mid-grid, run it again on the
# same ledger, and assert the ledger records every point exactly once with
# a terminal status; then run it a third time on the finished ledger and
# assert nothing is leased and the merged results are unchanged. Used by
# CI; runnable locally:
#
#   scripts/resume_smoke.sh [workdir]
#
# Environment:
#   KILL_AFTER   seconds before the SIGINT (default 20)
#   PARALLEL     in-process workers (default 2)
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
kill_after="${KILL_AFTER:-20}"
parallel="${PARALLEL:-2}"
journal="$work/journal.jsonl"
results="$work/results.json"

go build -o "$work/sweep" ./cmd/sweep
rm -f "$journal"

# Expected point ids: every experiment plus the injected chaos points.
ids="$("$work/sweep" -list | tail -n +2 | awk '{print $1}')"
ids="$ids inject-panic inject-livelock"

args=(-all -scale quick -parallel "$parallel" -journal "$journal"
  -json "$results" -inject panic,livelock)

echo "== first run: interrupting after ${kill_after}s =="
"$work/sweep" "${args[@]}" >"$work/first.out" 2>"$work/first.err" &
pid=$!
sleep "$kill_after"
kill -INT "$pid" 2>/dev/null || true
first=0
wait "$pid" || first=$?
echo "first sweep exited $first"
tail -n 3 "$work/first.err" || true

# An interrupted sweep must not lose its results: exit 3 (partial) with a
# ledger and partial JSON, or it finished before the signal (exit 3 too,
# because the injected panic point always fails).
if [[ "$first" != 3 ]]; then
  echo "FAIL: interrupted sweep exited $first, want 3 (partial success)" >&2
  exit 1
fi
test -s "$journal" || { echo "FAIL: no ledger written" >&2; exit 1; }
test -s "$results" || { echo "FAIL: no partial -json results written" >&2; exit 1; }

echo "== resume: the same grid on the same ledger =="
resumed=0
"$work/sweep" "${args[@]}" -merged "$work/merged.json" \
  >"$work/second.out" 2>"$work/second.err" || resumed=$?
echo "resumed sweep exited $resumed"
tail -n 3 "$work/second.err" || true

# The injected panic point fails by design, so the completed sweep is a
# partial success: exit 3.
if [[ "$resumed" != 3 ]]; then
  echo "FAIL: resumed sweep exited $resumed, want 3" >&2
  exit 1
fi

echo "== ledger coverage =="
fail=0
for id in $ids; do
  n="$(grep -cE "\"type\":\"(done|failed)\".*\"record\":\{\"id\":\"$id\"" "$journal" || true)"
  if [[ "$n" != 1 ]]; then
    echo "FAIL: ledger has $n terminal records for $id, want exactly 1" >&2
    fail=1
  fi
done
# A canceled run is never reported, so no record may carry that status.
if grep -q '"status":"canceled"' "$journal"; then
  echo "FAIL: canceled record in the ledger" >&2
  fail=1
fi
if [[ "$fail" != 0 ]]; then
  exit 1
fi
echo "OK: the ledger records every point exactly once"

echo "== third run on the finished ledger =="
leases="$(grep -c '"type":"lease"' "$journal" || true)"
third=0
"$work/sweep" "${args[@]}" -merged "$work/merged-again.json" \
  >"$work/third.out" 2>"$work/third.err" || third=$?
echo "third sweep exited $third"
if [[ "$third" != 3 ]]; then
  echo "FAIL: third sweep exited $third, want 3" >&2
  exit 1
fi
if [[ "$(grep -c '"type":"lease"' "$journal" || true)" != "$leases" ]] ||
  grep -q 'leased to' "$work/third.err"; then
  echo "FAIL: the finished grid leased points again" >&2
  exit 1
fi
if ! cmp -s "$work/merged.json" "$work/merged-again.json"; then
  echo "FAIL: the finished grid's merged results changed" >&2
  exit 1
fi
echo "OK: the finished grid leased nothing and merged to the same bytes"
