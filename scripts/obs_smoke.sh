#!/usr/bin/env bash
# Observability smoke test: run a small remote sweep through sweepd + a
# checkpointing worker with every process logging structured JSON and
# recording spans, SIGKILL the worker mid-point (after a checkpoint has
# shipped), and let a replacement finish the job. Then assert the whole
# observability plane held up:
#
#   - every process's stderr is valid structured JSON (scripts/logcheck),
#     collectively carrying the job/spec_hash/worker/lease/trace keys;
#   - the per-process span logs stitch into ONE connected trace with zero
#     orphans (sweeptrace -strict) containing the expiry -> re-lease ->
#     takeover chain, and export as a valid Chrome/Perfetto trace
#     (scripts/tracecheck);
#   - the results API carries per-point provenance attributing the point
#     to the replacement worker with the right spec hash;
#   - sweepd never expires the healthy replacement worker's lease: it
#     heartbeats at a quarter of the TTL sweepd grants;
#   - /metrics serves the sweepd_build_info gauge;
#   - the merged result file is still byte-identical to a serial local
#     run (provenance never leaks into the canonical bytes).
#
# Used by CI; runnable locally:
#
#   scripts/obs_smoke.sh [workdir]
#
# Environment:
#   FIG    experiment to sweep (default fig2a — one point, so the kill
#          provably lands on the traced point)
#   PORT   sweepd port (default 8066)
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
fig="${FIG:-fig2a}"
port="${PORT:-8066}"
addr="127.0.0.1:$port"
ledger="$work/ledger.jsonl"

go build -o "$work/sweep" ./cmd/sweep
go build -o "$work/sweepd" ./cmd/sweepd
go build -o "$work/sweepworker" ./cmd/sweepworker
go build -o "$work/sweeptrace" ./cmd/sweeptrace
rm -f "$ledger"

cleanup() {
  kill "${sweepd_pid:-}" "${w1_pid:-}" "${w2_pid:-}" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

fetch() {
  if command -v curl >/dev/null 2>&1; then
    curl -fsS "$1" 2>/dev/null
  else
    wget -qO- "$1" 2>/dev/null
  fi
}

echo "== serial local baseline ($fig, quick scale) =="
"$work/sweep" -fig "$fig" -scale quick -merged "$work/baseline.json" \
  >"$work/baseline.out" 2>"$work/baseline.err"
test -s "$work/baseline.json" || { echo "FAIL: no baseline merged output" >&2; exit 1; }

"$work/sweepd" -addr "$addr" -ledger "$ledger" -lease-ttl 5s \
  -span-log "$work/sweepd.spans.jsonl" 2>"$work/sweepd.log" &
sweepd_pid=$!
sleep 1

"$work/sweepworker" -server "http://$addr" -name w1 \
  -checkpoint-dir "$work/w1-ckpts" -span-log "$work/w1.spans.jsonl" \
  2>"$work/w1.log" &
w1_pid=$!

echo "== traced sweep: sweepd pid $sweepd_pid, worker w1 ($w1_pid) =="
"$work/sweep" -remote "http://$addr" -job obs -fig "$fig" -scale quick \
  -span-log "$work/client.spans.jsonl" -merged "$work/remote.json" \
  >"$work/client.out" 2>"$work/client.err" &
client_pid=$!

# SIGKILL w1 only after a checkpoint has shipped, so the takeover path —
# the interesting part of the trace — provably runs.
shipped=0
for _ in $(seq 1 240); do
  if grep -q '"type":"done"' "$ledger" 2>/dev/null; then break; fi
  if fetch "http://$addr/metrics" | grep -Eq '^sweepd_checkpoints_stored_total [1-9]'; then
    shipped=1
    break
  fi
  sleep 0.5
done
if [[ "$shipped" != 1 ]]; then
  echo "FAIL: point finished (or timed out) before any checkpoint shipped; scenario degenerate" >&2
  exit 1
fi
kill -9 "$w1_pid" 2>/dev/null || true
echo "killed worker w1 (pid $w1_pid) mid-point, checkpoint already shipped"

"$work/sweepworker" -server "http://$addr" -name w2 \
  -checkpoint-dir "$work/w2-ckpts" -span-log "$work/w2.spans.jsonl" \
  2>"$work/w2.log" &
w2_pid=$!

client=0
wait "$client_pid" || client=$?
echo "client exited $client"
tail -n 2 "$work/client.err" || true
if [[ "$client" != 0 ]]; then
  echo "FAIL: sweep client exited $client, want 0" >&2
  exit 1
fi

echo "== the healthy replacement worker kept its lease =="
if grep '"msg":"lease expired"' "$work/sweepd.log" | grep -q '"worker":"w2"'; then
  echo "FAIL: sweepd expired the lease of the healthy worker w2" >&2
  grep '"msg":"lease expired"' "$work/sweepd.log" >&2
  exit 1
fi
echo "OK: no lease expiry names w2"

echo "== merged results vs serial baseline (provenance must not leak) =="
if ! cmp "$work/baseline.json" "$work/remote.json"; then
  echo "FAIL: remote merged results differ from the serial local run" >&2
  exit 1
fi
echo "OK: merged results byte-identical"

echo "== structured logs: every line JSON, correlation keys present =="
go run ./scripts/logcheck -require job,spec_hash,worker,lease,trace \
  "$work/sweepd.log" "$work/w1.log" "$work/w2.log" "$work/client.err"
go run ./scripts/logcheck -component sweepd "$work/sweepd.log"

echo "== span logs: stitch into one connected trace =="
"$work/sweeptrace" -strict -o "$work/stitched.trace.json" \
  "$work/sweepd.spans.jsonl" "$work/client.spans.jsonl" \
  "$work/w1.spans.jsonl" "$work/w2.spans.jsonl" \
  >"$work/trace.txt" 2>"$work/trace.err"
grep -q '"traces":1' "$work/trace.err" || {
  echo "FAIL: stitched span logs did not form exactly one trace" >&2
  cat "$work/trace.err" >&2
  exit 1
}
for span in submit lease expiry takeover merge; do
  grep -q "\"name\":\"$span\"" "$work/sweepd.spans.jsonl" || {
    echo "FAIL: sweepd span log has no $span span" >&2
    exit 1
  }
done
grep -q '"name":"run"' "$work/w1.spans.jsonl" || {
  echo "FAIL: killed worker w1 left no run span" >&2
  exit 1
}
grep -q '"name":"run"' "$work/w2.spans.jsonl" || {
  echo "FAIL: replacement worker w2 left no run span" >&2
  exit 1
}
echo "OK: one trace, zero orphans, expiry->takeover chain recorded"

echo "== exported Chrome trace validates =="
go run ./scripts/tracecheck "$work/stitched.trace.json"

echo "== results API carries provenance for the replacement worker =="
results="$(fetch "http://$addr/api/v1/jobs/obs/results")"
echo "$results" | grep -q '"worker":"w2"' || {
  echo "FAIL: results provenance not attributed to w2" >&2
  echo "$results" | head -c 2000 >&2
  exit 1
}
echo "$results" | grep -q '"spec_hash":"[0-9a-f]' || {
  echo "FAIL: results provenance has no spec hash" >&2
  exit 1
}
echo "OK: provenance attributes the point to w2 with a spec hash"

echo "== build-info gauge on /metrics =="
fetch "http://$addr/metrics" | grep -q '^sweepd_build_info{' || {
  echo "FAIL: sweepd_build_info gauge missing from /metrics" >&2
  exit 1
}
echo "OK: sweepd_build_info present"
echo "PASS: obs smoke"
