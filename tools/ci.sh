#!/bin/sh
# CI entry point: build, run the test suites, then the telemetry smoke
# benchmark, which writes machine-readable metrics and validates its own
# JSON output (trace parse-back + metrics parse-back) — any malformed
# artifact, or a pessimistic fallback descent in its non-chaos run, makes
# it exit nonzero — then the server selftests.  Timing is perfbench's job
# (python3 perfbench/run.py); nothing here compares timings.
set -eu

cd "$(dirname "$0")/.."

# The server sections list their temp dirs, sockets and server pids here
# as they make them; on every exit, failures included, the trap kills the
# listed servers and removes the listed paths.  A section clears a pid
# once it has waited for it.
CLEANUP_PATHS=""
SRV_PID=""
SIG_PID=""
WAL_PID=""
cleanup() {
  for p in $SRV_PID $SIG_PID $WAL_PID; do
    kill -9 "$p" 2>/dev/null || true
  done
  for f in $CLEANUP_PATHS; do
    rm -rf "$f"
  done
}
trap cleanup EXIT
trap 'exit 1' INT TERM

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== concurrency-discipline lint (lib/ + bin/) =="
# Static analysis over the repo's own sources (lib/lint): R1-R4
# (atomic confinement, lease discipline, no-blocking-under-write-permit,
# hygiene) plus the interprocedural v2 rules R5-R8 (fd discipline,
# wal-before-ack, select-loop purity, stale suppressions).  The alias
# runs `lint.exe --baseline LINT_BASELINE.json lib bin`: only findings
# NOT covered by the checked-in baseline fail (the ratchet — the
# baseline may only shrink; shrinkable entries are warned to stderr).
# Regenerate after fixing baselined findings with
#   dune exec bin/lint.exe -- --write-baseline LINT_BASELINE.json lib bin
dune build @lint

echo "== olock interleaving checker (exhaustive, deterministic) =="
# DFS over every schedule of 2-3-thread olock programs (lib/modelcheck):
# mutual exclusion, reader validation, upgrade atomicity, protocol
# violations — plus a seeded torn-CAS mutant that must be caught with a
# printed counterexample schedule.
dune exec test/test_modelcheck.exe

echo "== chaos stress smoke (fixed seed, deterministic) =="
# 100 seeded runs cycling optimistic / all-pessimistic / pool-fault /
# tuple-tree / query-server / wal-durability scenarios under active
# failpoints; every run ends in a full audit (check_invariants, the
# served-relation-equals-acked-set audit for the server scenario, or the
# torn-tail + kill -9 recovery differential for the wal scenario) and
# failing seeds replay deterministically.
sh tools/stress.sh --seed 42 --domains 4 --runs 100

echo "== flight-recorder crash-dump selftest =="
# Induce an uncontained Pool_failure under chaos, assert the per-domain
# rings drain into a crash dump, and validate the dump by round-tripping
# it through the flightrec inspector.
sh tools/stress.sh --crashdump-selftest

echo "== bench smoke (traced run + metrics JSON) =="
# Also fails on any pessimistic fallback descent in this non-chaos run.
METRICS="${METRICS_JSON:-bench_metrics.json}"
dune exec bench/main.exe -- --smoke --json "$METRICS"

# Independent sanity check on the artifact: non-empty and parseable by a
# second implementation when one is around (python3 is optional).
test -s "$METRICS" || { echo "ci: $METRICS is missing or empty" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$METRICS" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
for key in ("schema_version", "config", "eval", "counters", "trace",
            "histograms", "tree_shape", "contention"):
    if key not in d:
        raise SystemExit(f"ci: metrics JSON missing {key!r}")
if d["schema_version"] < 3:
    raise SystemExit(f"ci: expected schema_version >= 3, got {d['schema_version']}")
hists = d["histograms"]
if not hists:
    raise SystemExit("ci: metrics JSON has no histograms")
name, h = next(iter(hists.items()))
for key in ("count", "p50_ns", "p99_ns", "max_ns", "buckets"):
    if key not in h:
        raise SystemExit(f"ci: histogram {name!r} missing {key!r}")
shapes = d["tree_shape"]
if not shapes:
    raise SystemExit("ci: metrics JSON has no tree_shape entries")
rel, sh = next(iter(shapes.items()))
for key in ("height", "fill"):
    if key not in sh:
        raise SystemExit(f"ci: tree_shape {rel!r} missing {key!r}")
print("ci: metrics JSON ok (v%d):" % d["schema_version"], sys.argv[1])
PY
fi

echo "== every storage kind through the figure path (Fig. 5a/5b) =="
# Runs all six relation storages (both B-tree kinds and the four paper
# baselines) through the bench's Fig. 5 evaluations at a tiny scale; only
# the exit status is checked, no timing is judged.
dune exec bench/main.exe -- fig5a fig5b --scale 0.05 --threads 2

echo "== the paper's insert paths through the figure path (Fig. 3a/3b) =="
# Hinted and unhinted single inserts on both B-tree kinds (Btree,
# Btree_seq), plus the merge ablation, which fails unless the hinted
# insert_all and a plain insert loop build trees of equal cardinality.
# Exit status only; no timing is judged.
dune exec bench/main.exe -- fig3a fig3b ablation-merge --scale 0.01 --threads 2

echo "== query-server selftest (datalog_serve + datalog_cli --connect) =="
# Start the resident query server with live telemetry, drive it with the
# one-shot CLI in --connect mode (install program, batch-load facts, query
# every output relation), scrape and validate every telemetry endpoint
# (/metrics /snapshot.json /heat /health /trace) while the server is
# resident, then compare the served results against a purely local evaluation of the
# same program — byte-identical output or nonzero exit.  Finish with a
# protocol SHUTDOWN and assert a clean exit and unlinked sockets.
SRV_SOCK="$(mktemp -u /tmp/repro_dlserve_XXXXXX.sock)"
SRV_MSOCK="$(mktemp -u /tmp/repro_dlserve_metrics_XXXXXX.sock)"
SRV_TMP="$(mktemp -d /tmp/repro_dlserve_XXXXXX)"
CLEANUP_PATHS="$CLEANUP_PATHS $SRV_SOCK $SRV_MSOCK $SRV_TMP"
mkdir -p "$SRV_TMP/facts" "$SRV_TMP/served" "$SRV_TMP/local"
# a small DAG: one 12-node chain plus cross edges
i=0
while [ "$i" -lt 12 ]; do
  printf '%d\t%d\n' "$i" "$((i + 1))"
  i=$((i + 1))
done > "$SRV_TMP/facts/edge.facts"
printf '0\t5\n3\t9\n' >> "$SRV_TMP/facts/edge.facts"
dune exec bin/datalog_serve.exe -- --listen "unix:$SRV_SOCK" -j 2 \
  --flip-pending 64 --flip-interval 5 \
  --serve-metrics "unix:$SRV_MSOCK" --serve-interval 100 &
SRV_PID=$!
i=0
while [ ! -S "$SRV_SOCK" ] && [ "$i" -lt 100 ]; do i=$((i + 1)); sleep 0.05; done
if [ ! -S "$SRV_SOCK" ]; then
  echo "ci: datalog_serve socket never appeared" >&2
  exit 1
fi
if ! dune exec bin/datalog_cli.exe -- --connect "unix:$SRV_SOCK" \
    -F "$SRV_TMP/facts" -D "$SRV_TMP/served" examples/programs/distances.dl
then
  echo "ci: datalog_cli --connect run failed" >&2
  exit 1
fi
# scrape every telemetry endpoint while the server is resident and
# validate the payloads (python3 optional); one silent client stays
# connected throughout, and any scrape slower than 1 s fails
if command -v python3 >/dev/null 2>&1; then
  if ! SOCK="$SRV_MSOCK" python3 <<'PY'
import json, os, socket, time

sock_path = os.environ["SOCK"]


def fetch(path):
    t0 = time.monotonic()
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(5.0)
    s.connect(sock_path)
    s.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    buf = b""
    while chunk := s.recv(65536):
        buf += chunk
    s.close()
    took = time.monotonic() - t0
    if took > 1.0:
        raise SystemExit(f"ci: server {path} took {took:.2f} s to scrape")
    head, _, body = buf.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body.decode()


# wait for the monitor domain to bind the socket
for _ in range(100):
    if os.path.exists(sock_path):
        break
    time.sleep(0.05)
else:
    raise SystemExit("ci: server telemetry socket never appeared")

# a connected client that never sends its request must stall no scrape
silent = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
silent.connect(sock_path)

# let at least one sampling window complete so /snapshot.json is non-empty
time.sleep(0.25)

status, metrics = fetch("/metrics")
if status != 200:
    raise SystemExit(f"ci: server /metrics returned {status}")
samples = 0
for line in metrics.splitlines():
    if not line or line.startswith("#"):
        continue
    name_labels, _, value = line.rpartition(" ")
    if not name_labels:
        raise SystemExit(f"ci: malformed exposition line {line!r}")
    if value not in ("+Inf", "-Inf", "NaN"):
        float(value)  # raises on torn output
    samples += 1
if samples < 10:
    raise SystemExit(f"ci: only {samples} server exposition samples")

for path, schema in (("/snapshot.json", "telemetry_window/1"),
                     ("/heat", "telemetry_heat/1"),
                     ("/health", None),
                     ("/trace", "telemetry_trace/1")):
    status, body = fetch(path)
    if path != "/health" and status != 200:
        raise SystemExit(f"ci: server {path} returned {status}")
    if path == "/health" and status not in (200, 503):
        raise SystemExit(f"ci: server /health returned {status}")
    doc = json.loads(body)
    if schema and doc.get("schema") != schema:
        raise SystemExit(f"ci: server {path} schema {doc.get('schema')!r}")
if json.loads(fetch("/snapshot.json")[1])["window"]["seq"] < 1:
    raise SystemExit("ci: no completed window after warmup")
silent.close()
print(f"ci: server telemetry endpoints ok ({samples} exposition samples)")
PY
  then
    echo "ci: server telemetry endpoint selftest failed" >&2
    exit 1
  fi
else
  echo "ci: python3 not available; skipping server telemetry endpoint selftest"
fi
# differential: same program + facts evaluated locally must match exactly
dune exec bin/datalog_cli.exe -- -j 2 -F "$SRV_TMP/facts" \
  -D "$SRV_TMP/local" examples/programs/distances.dl
for f in "$SRV_TMP/local"/*.csv; do
  rel="$(basename "$f")"
  sort "$f" > "$SRV_TMP/local.sorted"
  sort "$SRV_TMP/served/$rel" > "$SRV_TMP/served.sorted"
  if ! cmp -s "$SRV_TMP/local.sorted" "$SRV_TMP/served.sorted"; then
    echo "ci: served $rel differs from local evaluation" >&2
    exit 1
  fi
done
echo "ci: served results match local evaluation"
dune exec bin/datalog_cli.exe -- --connect "unix:$SRV_SOCK" --shutdown
SRV_STATUS=0
wait "$SRV_PID" || SRV_STATUS=$?
SRV_PID=""
if [ "$SRV_STATUS" -ne 0 ]; then
  echo "ci: datalog_serve exited nonzero after SHUTDOWN" >&2
  exit 1
fi
for s in "$SRV_SOCK" "$SRV_MSOCK"; do
  if [ -e "$s" ]; then
    echo "ci: server socket $s not unlinked on clean shutdown" >&2
    exit 1
  fi
done
rm -rf "$SRV_TMP"
echo "ci: query server shut down cleanly"

echo "== signal-stop drill (kill -TERM, then recover) =="
# A durable server that has acked a LOAD is stopped by SIGTERM: it must
# exit within 3 s and print its "stopped" line, leaving a clean log.
# Restarted on the same data dir, it must report recovered_torn_tail=false
# (python3 optional) and serve every row: the recovered results must be
# byte-identical to a local evaluation of the loaded facts.
SIG_SOCK="$(mktemp -u /tmp/repro_dlsig_XXXXXX.sock)"
SIG_TMP="$(mktemp -d /tmp/repro_dlsig_XXXXXX)"
CLEANUP_PATHS="$CLEANUP_PATHS $SIG_SOCK $SIG_TMP"
mkdir -p "$SIG_TMP/facts" "$SIG_TMP/served" "$SIG_TMP/local" "$SIG_TMP/data"
printf '0\t1\n1\t2\n2\t3\n3\t4\n1\t4\n' > "$SIG_TMP/facts/edge.facts"
dune exec bin/datalog_serve.exe -- --listen "unix:$SIG_SOCK" -j 2 \
  --data-dir "$SIG_TMP/data" > "$SIG_TMP/serve.log" &
SIG_PID=$!
i=0
while [ ! -S "$SIG_SOCK" ] && [ "$i" -lt 100 ]; do i=$((i + 1)); sleep 0.05; done
if [ ! -S "$SIG_SOCK" ]; then
  echo "ci: durable datalog_serve socket never appeared" >&2
  exit 1
fi
if ! dune exec bin/datalog_cli.exe -- --connect "unix:$SIG_SOCK" \
    -F "$SIG_TMP/facts" examples/programs/distances.dl > /dev/null
then
  echo "ci: LOAD before the signal failed" >&2
  exit 1
fi
kill -TERM "$SIG_PID"
i=0
while kill -0 "$SIG_PID" 2>/dev/null && [ "$i" -lt 30 ]; do i=$((i + 1)); sleep 0.1; done
if kill -0 "$SIG_PID" 2>/dev/null; then
  echo "ci: datalog_serve still running 3 s after SIGTERM" >&2
  exit 1
fi
wait "$SIG_PID" 2>/dev/null || true
SIG_PID=""
if ! grep -q "datalog_serve: stopped" "$SIG_TMP/serve.log"; then
  echo "ci: datalog_serve did not print its stopped line after SIGTERM" >&2
  exit 1
fi
dune exec bin/datalog_serve.exe -- --listen "unix:$SIG_SOCK" -j 2 \
  --data-dir "$SIG_TMP/data" > /dev/null &
SIG_PID=$!
i=0
while [ ! -S "$SIG_SOCK" ] && [ "$i" -lt 100 ]; do i=$((i + 1)); sleep 0.05; done
if [ ! -S "$SIG_SOCK" ]; then
  echo "ci: restarted datalog_serve socket never appeared" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  if ! SOCK="$SIG_SOCK" python3 <<'PY'
import os, socket

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(5.0)
s.connect(os.environ["SOCK"])
f = s.makefile("rb")
f.readline()  # greeting
s.sendall(b"STATS\n")
head = f.readline().decode()
if not head.startswith("DATA "):
    raise SystemExit(f"ci: STATS answered {head!r}")
lines = [f.readline().decode().rstrip("\n") for _ in range(int(head.split()[1]))]
s.close()
if "recovered_torn_tail=false" not in lines:
    raise SystemExit("ci: restart after SIGTERM found a torn log tail")
PY
  then
    exit 1
  fi
else
  echo "ci: python3 not available; skipping the recovered_torn_tail check"
fi
if ! dune exec bin/datalog_cli.exe -- --connect "unix:$SIG_SOCK" \
    -D "$SIG_TMP/served" examples/programs/distances.dl
then
  echo "ci: query after the SIGTERM restart failed" >&2
  exit 1
fi
dune exec bin/datalog_cli.exe -- -j 2 -F "$SIG_TMP/facts" \
  -D "$SIG_TMP/local" examples/programs/distances.dl
for f in "$SIG_TMP/local"/*.csv; do
  rel="$(basename "$f")"
  sort "$f" > "$SIG_TMP/local.sorted"
  sort "$SIG_TMP/served/$rel" > "$SIG_TMP/served.sorted"
  if ! cmp -s "$SIG_TMP/local.sorted" "$SIG_TMP/served.sorted"; then
    echo "ci: $rel after the SIGTERM restart differs from local evaluation" >&2
    exit 1
  fi
done
dune exec bin/datalog_cli.exe -- --connect "unix:$SIG_SOCK" --shutdown
SIG_STATUS=0
wait "$SIG_PID" || SIG_STATUS=$?
SIG_PID=""
if [ "$SIG_STATUS" -ne 0 ]; then
  echo "ci: restarted datalog_serve exited nonzero after SHUTDOWN" >&2
  exit 1
fi
rm -rf "$SIG_TMP"
echo "ci: SIGTERM stop and recovery ok"

echo "== durability kill-recover selftest (WAL crash recovery) =="
# Start a durable server (--data-dir, --durability strict), ingest two
# fact batches through datalog_cli --connect, kill -9 the server between
# acked sessions, restart it on the same data dir, and require the
# recovered query results to be byte-identical to a purely local
# evaluation of the acked facts.  Strict durability means an acked LOAD
# was fsynced before its OK, so the kill point cannot lose it.
WAL_SOCK="$(mktemp -u /tmp/repro_dlwal_XXXXXX.sock)"
WAL_TMP="$(mktemp -d /tmp/repro_dlwal_XXXXXX)"
CLEANUP_PATHS="$CLEANUP_PATHS $WAL_SOCK $WAL_TMP"
mkdir -p "$WAL_TMP/facts_a" "$WAL_TMP/facts_b" "$WAL_TMP/acked" \
  "$WAL_TMP/served" "$WAL_TMP/local" "$WAL_TMP/data"
i=0
while [ "$i" -lt 6 ]; do
  printf '%d\t%d\n' "$i" "$((i + 1))"
  i=$((i + 1))
done > "$WAL_TMP/facts_a/edge.facts"
while [ "$i" -lt 12 ]; do
  printf '%d\t%d\n' "$i" "$((i + 1))"
  i=$((i + 1))
done > "$WAL_TMP/facts_b/edge.facts"
printf '0\t5\n3\t9\n' >> "$WAL_TMP/facts_b/edge.facts"
dune exec bin/datalog_serve.exe -- --listen "unix:$WAL_SOCK" -j 2 \
  --flip-pending 64 --flip-interval 5 \
  --data-dir "$WAL_TMP/data" --durability strict &
WAL_PID=$!
i=0
while [ ! -S "$WAL_SOCK" ] && [ "$i" -lt 100 ]; do i=$((i + 1)); sleep 0.05; done
if [ ! -S "$WAL_SOCK" ]; then
  echo "ci: durable datalog_serve socket never appeared" >&2
  exit 1
fi
for batch in facts_a facts_b; do
  if ! dune exec bin/datalog_cli.exe -- --connect "unix:$WAL_SOCK" \
      -F "$WAL_TMP/$batch" examples/programs/distances.dl > /dev/null
  then
    echo "ci: durable ingest ($batch) failed" >&2
    exit 1
  fi
done
# the crash: no drain, no flush beyond what strict acks already forced
kill -9 "$WAL_PID" 2>/dev/null || true
wait "$WAL_PID" 2>/dev/null || true
WAL_PID=""
rm -f "$WAL_SOCK" # a SIGKILLed server cannot unlink its socket
dune exec bin/datalog_serve.exe -- --listen "unix:$WAL_SOCK" -j 2 \
  --data-dir "$WAL_TMP/data" --durability strict &
WAL_PID=$!
i=0
while [ ! -S "$WAL_SOCK" ] && [ "$i" -lt 100 ]; do i=$((i + 1)); sleep 0.05; done
if [ ! -S "$WAL_SOCK" ]; then
  echo "ci: recovered datalog_serve socket never appeared" >&2
  exit 1
fi
if ! dune exec bin/datalog_cli.exe -- --connect "unix:$WAL_SOCK" \
    -D "$WAL_TMP/served" examples/programs/distances.dl
then
  echo "ci: query against recovered server failed" >&2
  exit 1
fi
cat "$WAL_TMP/facts_a/edge.facts" "$WAL_TMP/facts_b/edge.facts" \
  > "$WAL_TMP/acked/edge.facts"
dune exec bin/datalog_cli.exe -- -j 2 -F "$WAL_TMP/acked" \
  -D "$WAL_TMP/local" examples/programs/distances.dl
for f in "$WAL_TMP/local"/*.csv; do
  rel="$(basename "$f")"
  sort "$f" > "$WAL_TMP/local.sorted"
  sort "$WAL_TMP/served/$rel" > "$WAL_TMP/served.sorted"
  if ! cmp -s "$WAL_TMP/local.sorted" "$WAL_TMP/served.sorted"; then
    echo "ci: recovered $rel differs from local evaluation of acked facts" >&2
    exit 1
  fi
done
echo "ci: recovered results match local evaluation of acked facts"
dune exec bin/datalog_cli.exe -- --connect "unix:$WAL_SOCK" --shutdown
WAL_STATUS=0
wait "$WAL_PID" || WAL_STATUS=$?
WAL_PID=""
if [ "$WAL_STATUS" -ne 0 ]; then
  echo "ci: recovered datalog_serve exited nonzero after SHUTDOWN" >&2
  exit 1
fi
rm -rf "$WAL_TMP"
echo "ci: durability kill-recover ok"

echo "== ci passed =="
