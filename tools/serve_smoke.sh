#!/usr/bin/env bash
# End-to-end smoke of `synran serve` in socket mode, run by ctest
# (ServeCli.Smoke) and CI's serve-smoke job:
#
#   1.  ping over the socket
#   2.  run (cache miss), replayed run (cache hit) — byte-identical
#   3.  malformed config and non-JSON bodies — structured bad_request,
#       daemon stays up
#   4.  per-request deadline on an oversized batch — deadline_exceeded,
#       daemon stays up
#   5.  overload with --max-queue=1 — exactly the excess is shed
#   6.  SIGKILL mid-batch + a torn cache entry, restart over the same
#       cache dir — torn entry quarantined, cached response byte-identical
#       to the pre-kill one
#   7.  bench_schema_check --serve over the captured request and response
#       streams
#   8.  SIGTERM during an in-flight async batch — the in-flight request is
#       answered `shutting_down` and the daemon exits with code 4
#   9.  SIGTERM while idle — exit code 4
#
# Usage: serve_smoke.sh <synran-cli> <bench_schema_check> <workdir>
set -u

CLI=$1
CHECKER=$2
WORK=$3

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"
SOCK=$PWD/serve.sock
CACHE=$PWD/cache

fail() { echo "serve_smoke FAIL: $*" >&2; exit 1; }

# Never leave a daemon (or a blocked client) behind: ctest waits on every
# child, so an orphan turns one failed assertion into a timeout.
DAEMON=
CLIENT=
cleanup() {
  [ -n "${DAEMON:-}" ] && kill -KILL "$DAEMON" 2>/dev/null
  [ -n "${CLIENT:-}" ] && kill -KILL "$CLIENT" 2>/dev/null
  return 0
}
trap cleanup EXIT

frame() { printf '%s\n%s' "${#1}" "$1"; }

start_daemon() {
  "$CLI" serve --socket "$SOCK" --cache-dir "$CACHE" --git-rev smoke \
    "$@" 2>> serve.log &
  DAEMON=$!
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$DAEMON" 2>/dev/null || fail "daemon died on startup (serve.log)"
    sleep 0.1
  done
  fail "daemon never created $SOCK"
}

stop_daemon_expect() { # <expected exit code>
  kill -TERM "$DAEMON" 2>/dev/null
  wait "$DAEMON"
  local rc=$?
  [ "$rc" -eq "$1" ] || fail "daemon exited $rc, expected $1"
  DAEMON=
}

request() { # <request file> <response file>
  "$CLI" request --socket "$SOCK" < "$1" > "$2" || fail "request $1 failed"
}

# ---- 1. ping ---------------------------------------------------------------
start_daemon
frame '{"schema":"synran-req/1","id":"ping1","cmd":"ping"}' > ping.req
request ping.req ping.resp
grep -q '"pong":true' ping.resp || fail "ping got no pong: $(cat ping.resp)"

# ---- 2. miss, then hit: byte-identical -------------------------------------
RUN='{"schema":"synran-req/1","id":"run1","cmd":"run","config":{"model":"sync","n":16,"reps":5,"seed":21}}'
frame "$RUN" > run.req
request run.req run_miss.resp
grep -q '"ok":true' run_miss.resp || fail "run rejected: $(cat run_miss.resp)"
request run.req run_hit.resp
cmp -s run_miss.resp run_hit.resp \
  || fail "cache hit response differs from the computed one"

# ---- 3. malformed requests are structured rejections -----------------------
frame '{"schema":"synran-req/1","id":"bad","cmd":"run","config":{"bogus":1}}' \
  > bad.req
request bad.req bad.resp
grep -q '"code":"bad_request"' bad.resp || fail "unknown key not rejected"
grep -q '"id":"bad"' bad.resp || fail "rejection lost the request id"
frame 'this is not json' > notjson.req
request notjson.req notjson.resp
grep -q '"code":"bad_request"' notjson.resp || fail "non-JSON not rejected"

# ---- 4. deadline-exceeded, daemon keeps serving ----------------------------
SLOW='{"schema":"synran-req/1","id":"slow","cmd":"run","deadline_ms":50,"config":{"model":"sync","n":32,"reps":100000000,"seed":2}}'
frame "$SLOW" > slow.req
request slow.req slow.resp
grep -q '"code":"deadline_exceeded"' slow.resp \
  || fail "oversized batch not cut off: $(cat slow.resp)"
request ping.req ping2.resp
grep -q '"pong":true' ping2.resp || fail "daemon dead after deadline"

# ---- 5. overload shedding with --max-queue=1 -------------------------------
stop_daemon_expect 4
start_daemon --max-queue 1
{ frame "$SLOW"; frame "$SLOW"; frame "$SLOW"; } > burst.req
request burst.req burst.resp
# Every request is answered; how many are shed (vs served after the queue
# drains) depends on socket timing, but with --max-queue=1 at least one of
# the three must be.
answered=$(grep -o '"id":"slow"' burst.resp | wc -l)
[ "$answered" -eq 3 ] || fail "burst: expected 3 responses, got $answered"
overloaded=$(grep -o '"code":"overloaded"' burst.resp | wc -l)
[ "$overloaded" -ge 1 ] \
  || fail "expected at least 1 overloaded response, got $overloaded"

# ---- 6. SIGKILL mid-batch; restart; cache is intact and byte-identical -----
LONG='{"schema":"synran-req/1","id":"doomed","cmd":"run","config":{"model":"sync","n":64,"reps":100000000,"seed":4}}'
frame "$LONG" > long.req
"$CLI" request --socket "$SOCK" < long.req > /dev/null 2>&1 &
CLIENT=$!
sleep 1
kill -KILL "$DAEMON"
wait "$DAEMON" 2>/dev/null
wait "$CLIENT" 2>/dev/null
DAEMON=
printf '{"schema":"synran-ck' > "$CACHE/00deadbeef00dead.ckpt"  # torn entry
# The killed daemon left its socket file behind; remove it so start_daemon
# waits for the new daemon's own socket, which it binds only after
# recover() has logged.
rm -f "$SOCK"
start_daemon
grep -q "1 quarantined" serve.log || fail "torn cache entry not quarantined"
[ -e "$CACHE/00deadbeef00dead.ckpt.quarantined" ] \
  || fail "torn entry not renamed aside"
request run.req run_revived.resp
cmp -s run_miss.resp run_revived.resp \
  || fail "restarted daemon served different bytes for the cached run"

# ---- 7. the schema checker validates both captured streams -----------------
cat ping.req run.req bad.req slow.req burst.req > all_requests.stream
cat ping.resp run_miss.resp bad.resp slow.resp burst.resp > all_responses.stream
"$CHECKER" --serve all_requests.stream all_responses.stream \
  || fail "bench_schema_check --serve rejected the captured streams"
# notjson.req is a well-framed but invalid body: the checker must reject it.
if "$CHECKER" --serve notjson.req > /dev/null 2>&1; then
  fail "bench_schema_check --serve accepted a non-JSON body"
fi

# ---- 8. SIGTERM during an in-flight async batch drains with code 4 ---------
ASYNC='{"schema":"synran-req/1","id":"abatch","cmd":"run","config":{"model":"async","n":16,"reps":100000000,"seed":6}}'
frame "$ASYNC" > async.req
"$CLI" request --socket "$SOCK" < async.req > async.resp 2>/dev/null &
CLIENT=$!
sleep 1
kill -TERM "$DAEMON"
wait "$DAEMON"
rc=$?
[ "$rc" -eq 4 ] || fail "drain mid-async-batch exited $rc, expected 4"
wait "$CLIENT" 2>/dev/null
grep -q '"code":"shutting_down"' async.resp \
  || fail "in-flight async request not answered on drain: $(cat async.resp)"
DAEMON=

# ---- 9. SIGTERM while idle drains with code 4 ------------------------------
start_daemon
sleep 0.3
stop_daemon_expect 4

echo "serve_smoke OK"
