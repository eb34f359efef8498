#!/usr/bin/env bash
# Chaos smoke test for the distributed sweep service: run a grid through
# sweepd + two sweepworkers while SIGKILLing one worker mid-point and
# SIGKILLing + restarting sweepd mid-sweep (same ledger, same port). The
# client must ride out all of it and exit 0, the merged results must be
# byte-identical to a serial local run of the same grid, the ledger must
# record each point's terminal state exactly once, and a repeat submission
# must be served entirely from the result cache.
#
# A second scenario exercises checkpointed preemption: a worker running
# with -checkpoint-dir is SIGKILLed mid-point after its captures have
# shipped to sweepd, and a fresh worker must take the point over FROM THE
# CHECKPOINT (ledger records "resume") rather than restarting it — with
# the merged result still byte-identical to the serial baseline. Used by
# CI; runnable locally:
#
#   scripts/chaos_smoke.sh [workdir]
#
# Environment:
#   FIGS   comma-separated experiment grid (default fig2a,fig3a,tbl-miss)
#   PORT   sweepd port (default 8055)
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
figs="${FIGS:-fig2a,fig3a,tbl-miss}"
port="${PORT:-8055}"
addr="127.0.0.1:$port"
ledger="$work/ledger.jsonl"
npts="$(echo "$figs" | tr ',' '\n' | grep -c .)"

go build -o "$work/sweep" ./cmd/sweep
go build -o "$work/sweepd" ./cmd/sweepd
go build -o "$work/sweepworker" ./cmd/sweepworker
rm -f "$ledger"

cleanup() {
  kill "${sweepd_pid:-}" "${w1_pid:-}" "${w2_pid:-}" "${w3_pid:-}" "${w4_pid:-}" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

# fetch URL — curl in CI, wget as a local fallback.
fetch() {
  if command -v curl >/dev/null 2>&1; then
    curl -fsS "$1" 2>/dev/null
  else
    wget -qO- "$1" 2>/dev/null
  fi
}

# wait_healthy LOG — poll sweepd's /healthz until it answers, so no worker
# or client starts against a sweepd that is not listening yet.
wait_healthy() {
  for _ in $(seq 1 100); do
    if fetch "http://$addr/healthz" >/dev/null; then return 0; fi
    if ! kill -0 "$sweepd_pid" 2>/dev/null; then
      echo "FAIL: sweepd (pid $sweepd_pid) exited before answering /healthz" >&2
      tail -n 5 "$1" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "FAIL: sweepd (pid $sweepd_pid) did not answer /healthz within 10s" >&2
  exit 1
}

echo "== serial local baseline ($figs, quick scale) =="
"$work/sweep" -fig "$figs" -scale quick -merged "$work/baseline.json" \
  >"$work/baseline.out" 2>"$work/baseline.err"
test -s "$work/baseline.json" || { echo "FAIL: no baseline merged output" >&2; exit 1; }

start_sweepd() {
  "$work/sweepd" -addr "$addr" -ledger "$ledger" -lease-ttl 10s \
    >>"$work/sweepd.log" 2>&1 &
  sweepd_pid=$!
}

start_sweepd
wait_healthy "$work/sweepd.log"
"$work/sweepworker" -server "http://$addr" -name w1 \
  -checkpoint-dir "$work/w1-ckpts" >>"$work/w1.log" 2>&1 &
w1_pid=$!
"$work/sweepworker" -server "http://$addr" -name w2 \
  -checkpoint-dir "$work/w2-ckpts" >>"$work/w2.log" 2>&1 &
w2_pid=$!

echo "== chaos sweep: sweepd pid $sweepd_pid, workers $w1_pid/$w2_pid =="
"$work/sweep" -remote "http://$addr" -job chaos -fig "$figs" -scale quick \
  -merged "$work/remote.json" >"$work/client.out" 2>"$work/client.err" &
client_pid=$!

# Chaos 1: SIGKILL a worker while it holds a lease. Its point sits leased
# until the TTL expires, then gets re-issued to the survivor.
sleep 4
kill -9 "$w1_pid" 2>/dev/null || true
echo "killed worker w1 (pid $w1_pid) mid-point"

# Chaos 2: SIGKILL sweepd once at least one point is done, then restart it
# on the same ledger and port. Replay rebuilds the state machine; the
# client and surviving worker retry through the outage.
for _ in $(seq 1 120); do
  if [[ -s "$ledger" ]] && grep -q '"type":"done"' "$ledger"; then break; fi
  sleep 0.5
done
grep -q '"type":"done"' "$ledger" || { echo "FAIL: no point completed before restart window" >&2; exit 1; }
kill -9 "$sweepd_pid" 2>/dev/null || true
# Reap it first: the new sweepd binds the same port.
wait "$sweepd_pid" 2>/dev/null || true
echo "killed sweepd (pid $sweepd_pid) mid-sweep; restarting on the same ledger"
start_sweepd
wait_healthy "$work/sweepd.log"
echo "sweepd restarted (pid $sweepd_pid)"

client=0
wait "$client_pid" || client=$?
echo "client exited $client"
tail -n 3 "$work/client.err" || true
if [[ "$client" != 0 ]]; then
  echo "FAIL: chaos sweep client exited $client, want 0" >&2
  exit 1
fi

echo "== merged results: chaos run vs serial baseline =="
if ! cmp "$work/baseline.json" "$work/remote.json"; then
  echo "FAIL: distributed merged results differ from the serial local run" >&2
  exit 1
fi
echo "OK: merged results byte-identical"

echo "== ledger: exactly one terminal record per point =="
terminal="$(grep -c '"type":"done"\|"type":"failed"' "$ledger")"
if [[ "$terminal" != "$npts" ]]; then
  echo "FAIL: ledger has $terminal terminal records, want $npts" >&2
  exit 1
fi
dups="$(grep -o '"type":"\(done\|failed\)","hash":"[0-9a-f]*"' "$ledger" | sort | uniq -d)"
if [[ -n "$dups" ]]; then
  echo "FAIL: duplicate terminal ledger records: $dups" >&2
  exit 1
fi
echo "OK: $terminal points, each recorded exactly once"

echo "== repeat submission served from cache =="
"$work/sweep" -remote "http://$addr" -job chaos-again -fig "$figs" -scale quick \
  -merged "$work/cached.json" >"$work/client2.out" 2>"$work/client2.err"
if ! cmp -s "$work/baseline.json" "$work/cached.json"; then
  echo "FAIL: cached merged results differ from baseline" >&2
  exit 1
fi
cached="$(grep -c 'done (result cache)' "$work/client2.err" || true)"
if [[ "$cached" != "$npts" ]]; then
  echo "FAIL: $cached of $npts points served from cache on resubmission" >&2
  tail -n 20 "$work/client2.err" >&2
  exit 1
fi
echo "OK: all $npts points served from the result cache"

# ---------------------------------------------------------------------------
# Checkpoint kill-mid-point: a checkpointing worker is SIGKILLed after its
# captures have shipped; the replacement must RESUME the point from the
# shipped checkpoint (ledger "resume" record), not restart it, and still
# produce the byte-identical result.
# ---------------------------------------------------------------------------
ck_fig="${figs%%,*}"
ledger2="$work/ledger-ck.jsonl"
rm -f "$ledger2"

echo "== checkpoint takeover: serial baseline ($ck_fig) =="
"$work/sweep" -fig "$ck_fig" -scale quick -merged "$work/baseline-ck.json" \
  >"$work/baseline-ck.out" 2>"$work/baseline-ck.err"
test -s "$work/baseline-ck.json" || { echo "FAIL: no checkpoint-scenario baseline" >&2; exit 1; }

# Fresh sweepd on a fresh ledger (the previous one has $ck_fig cached) and
# a short TTL so the takeover happens quickly after the SIGKILL.
kill -9 "${sweepd_pid:-}" "${w2_pid:-}" 2>/dev/null || true
wait "${sweepd_pid:-}" "${w2_pid:-}" 2>/dev/null || true
"$work/sweepd" -addr "$addr" -ledger "$ledger2" -lease-ttl 5s \
  >>"$work/sweepd-ck.log" 2>&1 &
sweepd_pid=$!
wait_healthy "$work/sweepd-ck.log"

"$work/sweepworker" -server "http://$addr" -name w3 \
  -checkpoint-dir "$work/w3-ckpts" >>"$work/w3.log" 2>&1 &
w3_pid=$!
echo "== checkpoint takeover: sweepd pid $sweepd_pid, checkpointing worker w3 ($w3_pid) =="
"$work/sweep" -remote "http://$addr" -job ck -fig "$ck_fig" -scale quick \
  -merged "$work/remote-ck.json" >"$work/client-ck.out" 2>"$work/client-ck.err" &
client_pid=$!

# Wait until at least one capture has shipped to sweepd — the point must
# still be in flight, or the scenario is degenerate.
shipped=0
for _ in $(seq 1 240); do
  if grep -q '"type":"done"' "$ledger2" 2>/dev/null; then break; fi
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
kill -9 "$w3_pid" 2>/dev/null || true
echo "killed checkpointing worker w3 (pid $w3_pid) mid-point, captures already shipped"

# The replacement worker gets its own empty checkpoint dir: every byte of
# resumed progress must come through sweepd's shipped copies.
"$work/sweepworker" -server "http://$addr" -name w4 \
  -checkpoint-dir "$work/w4-ckpts" >>"$work/w4.log" 2>&1 &
w4_pid=$!

client=0
wait "$client_pid" || client=$?
echo "checkpoint-takeover client exited $client"
tail -n 3 "$work/client-ck.err" || true
if [[ "$client" != 0 ]]; then
  echo "FAIL: checkpoint-takeover client exited $client, want 0" >&2
  exit 1
fi

echo "== checkpoint takeover: ledger must record a resume =="
if ! grep -q '"type":"resume"' "$ledger2"; then
  echo "FAIL: no resume record — takeover restarted from scratch instead of the checkpoint" >&2
  grep -o '"type":"[a-z]*"' "$ledger2" | sort | uniq -c >&2 || true
  exit 1
fi
resume_line="$(grep '"type":"resume"' "$ledger2" | head -n 1)"
echo "$resume_line" | grep -q '"worker":"w4"' || {
  echo "FAIL: resume record not attributed to the replacement worker: $resume_line" >&2
  exit 1
}
echo "$resume_line" | grep -q '"from_cycle":[1-9]' || {
  echo "FAIL: resume record has no positive from_cycle: $resume_line" >&2
  exit 1
}
echo "OK: $resume_line"

echo "== checkpoint takeover: merged result vs serial baseline =="
if ! cmp "$work/baseline-ck.json" "$work/remote-ck.json"; then
  echo "FAIL: resumed-run merged results differ from the serial local run" >&2
  exit 1
fi
echo "OK: resumed run byte-identical to serial baseline"
echo "PASS: chaos smoke"
