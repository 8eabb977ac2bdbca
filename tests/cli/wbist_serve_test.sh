#!/bin/sh
# Integration test for the `wbist serve` daemon and `wbist submit` client:
# start a daemon on a unix socket, fire concurrent clients at it, check the
# responses are bit-identical to the one-shot CLI, and shut it down cleanly.
# Run by ctest as: wbist_serve_test.sh <path-to-wbist-binary>
set -u

WBIST=${1:?usage: wbist_serve_test.sh <wbist-binary>}
WORK=$(mktemp -d)
SOCK="$WORK/d.sock"
FAILURES=0
SERVE_PID=

cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null
  [ -n "$SERVE_PID" ] && wait "$SERVE_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $1" >&2
  FAILURES=$((FAILURES + 1))
}

"$WBIST" serve --socket "$SOCK" --serve-threads 4 --stall-timeout 500 \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

# Wait (max ~5s) for the socket to appear.
tries=0
while [ ! -S "$SOCK" ] && [ "$tries" -lt 50 ]; do
  sleep 0.1
  tries=$((tries + 1))
done
[ -S "$SOCK" ] || { fail "daemon did not create $SOCK"; exit 1; }

# Client errors do not require a daemon restart.
"$WBIST" submit --socket "$SOCK" ping > "$WORK/ping.txt" 2>&1
[ "$(cat "$WORK/ping.txt")" = "pong" ] || fail "ping did not answer pong"
"$WBIST" submit --socket "$SOCK" info > /dev/null 2>&1
[ $? -eq 2 ] || fail "submit info without circuit should exit 2"
"$WBIST" submit --socket "$SOCK" info no-such-circuit > /dev/null 2>&1
[ $? -eq 1 ] || fail "unknown circuit over the daemon should exit 1"
"$WBIST" submit --socket "$WORK/absent.sock" ping > /dev/null 2>&1
[ $? -eq 5 ] || fail "submit to a dead socket should exit 5 (unreachable)"
"$WBIST" submit --socket "$SOCK" --deadline-ms 0 ping > /dev/null 2>&1
[ $? -eq 2 ] || fail "--deadline-ms 0 should be a usage error (exit 2)"

# Malformed peers must not wedge the daemon: a slow-loris that stalls
# mid-frame is evicted (connection closed by the daemon), and a frame whose
# payload is not JSON gets a structured exit-2 error — after both, a normal
# submit still answers. Needs a raw-socket speaker; skipped without python3.
if command -v python3 > /dev/null 2>&1; then
  python3 - "$SOCK" > "$WORK/malformed.txt" 2>&1 << 'PYEOF'
import socket, struct, sys

path = sys.argv[1]

# Slow-loris: two bytes of header, then silence. The daemon must hang up
# (recv sees EOF) within its stall bound instead of pinning a reader.
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
s.sendall(b"\x00\x00")
s.settimeout(10)
if s.recv(1) != b"":
    sys.exit("expected the daemon to close a stalled connection")
s.close()

# Garbage JSON in a well-formed frame: a framed error response, exit 2.
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
payload = b"this is not json"
s.sendall(struct.pack(">I", len(payload)) + payload)
s.settimeout(10)
hdr = b""
while len(hdr) < 4:
    chunk = s.recv(4 - len(hdr))
    if not chunk:
        sys.exit("daemon closed instead of answering a garbage payload")
    hdr += chunk
(n,) = struct.unpack(">I", hdr)
body = b""
while len(body) < n:
    chunk = s.recv(n - len(body))
    if not chunk:
        sys.exit("short response frame")
    body += chunk
if b'"exit":2' not in body:
    sys.exit("garbage payload should answer exit 2, got: %r" % body[:200])
s.close()
print("malformed-peer checks passed")
PYEOF
  [ $? -eq 0 ] || { cat "$WORK/malformed.txt" >&2; fail "malformed-peer checks failed"; }
  grep -q 'evicting slow client' "$WORK/serve.log" \
    || fail "daemon did not log the slow-client eviction"
  "$WBIST" submit --socket "$SOCK" ping > "$WORK/ping2.txt" 2>&1
  [ "$(cat "$WORK/ping2.txt")" = "pong" ] \
    || fail "daemon unhealthy after malformed peers"
fi

# 4 concurrent clients, mixed circuits. Every response must be
# byte-identical to the one-shot CLI (after stripping the CLI's
# wall-clock-only lines, which the deterministic daemon never emits).
for c in s27 s298; do
  "$WBIST" info "$c" > "$WORK/cli_info_$c.txt" 2>&1
  "$WBIST" flow "$c" 2>&1 | grep -v '^(.*s)$' > "$WORK/cli_flow_$c.txt"
done
"$WBIST" submit --socket "$SOCK" info s27 > "$WORK/d1.txt" 2>&1 &
P1=$!
"$WBIST" submit --socket "$SOCK" flow s27 > "$WORK/d2.txt" 2>&1 &
P2=$!
"$WBIST" submit --socket "$SOCK" info s298 > "$WORK/d3.txt" 2>&1 &
P3=$!
"$WBIST" submit --socket "$SOCK" flow s298 > "$WORK/d4.txt" 2>&1 &
P4=$!
for p in $P1 $P2 $P3 $P4; do
  wait "$p" || fail "concurrent submit (pid $p) failed"
done
diff "$WORK/d1.txt" "$WORK/cli_info_s27.txt" > /dev/null \
  || fail "daemon info s27 differs from CLI"
diff "$WORK/d2.txt" "$WORK/cli_flow_s27.txt" > /dev/null \
  || fail "daemon flow s27 differs from CLI"
diff "$WORK/d3.txt" "$WORK/cli_info_s298.txt" > /dev/null \
  || fail "daemon info s298 differs from CLI"
diff "$WORK/d4.txt" "$WORK/cli_flow_s298.txt" > /dev/null \
  || fail "daemon flow s298 differs from CLI"

# tgen through the daemon writes the same sequence the CLI writes, and the
# fsim job closes the loop on it.
"$WBIST" tgen s27 "$WORK/cli.seq" > /dev/null 2>&1
"$WBIST" submit --socket "$SOCK" tgen s27 "$WORK/daemon.seq" > /dev/null 2>&1 \
  || fail "submit tgen failed"
diff "$WORK/cli.seq" "$WORK/daemon.seq" > /dev/null \
  || fail "daemon tgen sequence differs from CLI"
"$WBIST" submit --socket "$SOCK" fsim s27 "$WORK/daemon.seq" \
  > "$WORK/fsim.txt" 2>&1 || fail "submit fsim failed"
grep -q '32/32 faults detected' "$WORK/fsim.txt" \
  || fail "daemon fsim did not report full coverage"

# A fault-sim request's "threads" must lie in [0, cores]: a negative or
# huge count is a usage error (exit 2), not one OS thread per fault group.
if command -v python3 > /dev/null 2>&1; then
  python3 - "$SOCK" "$WORK/daemon.seq" > "$WORK/threads.txt" 2>&1 << 'PYEOF'
import json, socket, struct, sys

path, seq_path = sys.argv[1], sys.argv[2]
sequence = open(seq_path).read()

def ask(threads):
    req = json.dumps({"schema": "wbist.serve/1", "job": "fault-sim",
                      "circuit": "s27", "sequence": sequence,
                      "threads": threads}).encode()
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(path)
    s.settimeout(30)
    s.sendall(struct.pack(">I", len(req)) + req)
    data = b""
    while len(data) < 4 or len(data) < 4 + struct.unpack(">I", data[:4])[0]:
        chunk = s.recv(65536)
        if not chunk:
            sys.exit("daemon closed before answering threads=%r" % threads)
        data += chunk
    s.close()
    return json.loads(data[4:])

for bad in (-1, 100000):
    r = ask(bad)
    if r.get("exit") != 2 or "threads" not in r.get("error", ""):
        sys.exit("threads=%r should answer exit 2, got: %r" % (bad, r))
if ask(1).get("exit") != 0:
    sys.exit("threads=1 should still run")
print("threads checks passed")
PYEOF
  [ $? -eq 0 ] || { cat "$WORK/threads.txt" >&2; fail "threads validation checks failed"; }
fi

# The cache compiled each circuit once; every later request was a hit.
"$WBIST" submit --socket "$SOCK" metrics > "$WORK/metrics.txt" 2>&1
grep -q '"artifact_cache.compiles": 2' "$WORK/metrics.txt" \
  || fail "expected exactly 2 compiles (s27 + s298) in daemon metrics"
grep -q '"artifact_cache.hits"' "$WORK/metrics.txt" \
  || fail "daemon metrics missing cache hit counter"

# Shutdown job: daemon answers, exits 0, and removes its socket file.
"$WBIST" submit --socket "$SOCK" shutdown > "$WORK/shutdown.txt" 2>&1
grep -q 'shutting down' "$WORK/shutdown.txt" || fail "shutdown not confirmed"
wait "$SERVE_PID"
rc=$?
SERVE_PID=
[ "$rc" -eq 0 ] || fail "daemon exited $rc after shutdown job"
[ ! -e "$SOCK" ] || fail "daemon left its socket file behind"

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES serve check(s) failed" >&2
  exit 1
fi
echo "all serve checks passed"
