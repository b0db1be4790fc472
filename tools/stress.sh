#!/bin/sh
# Chaos stress harness wrapper: randomized multi-domain schedules under
# active failpoints, full invariant audit after every run, per-run seeds
# printed for deterministic replay.  Runs cycle through six scenarios:
# optimistic tree, all-pessimistic tree, pool faults and tuple tree — one
# scenario body over both tree instances: a seeded tree, per-key session
# inserts racing batch merges cut at the tree's separators exactly as the
# engine's parallel merge cuts them — then the resident query server
# (client domains under connection drops, forced admission busy and
# failed flips that force an engine rebuild, audited against the
# exactly-acked fact set through the whole relation, each client's slice
# and sampled keys), and WAL durability
# (torn-tail appends under wal.write.short, then a kill -9 of a
# strict-durability server child whose restart must serve exactly the
# acked rows).
#
#   sh tools/stress.sh --seed 42 --domains 4 --runs 100
#   sh tools/stress.sh --seed 42 --domains 4 --replay 17   # rerun one seed
#   sh tools/stress.sh --crashdump-selftest                # post-mortem path
#
# --crashdump-selftest exercises the flight-recorder post-mortem path end
# to end: it induces an uncontained Pool_failure (stress --crash-demo),
# asserts that the crash dump file appears, and validates the dump by
# feeding it back through the flightrec inspector (which exits non-zero
# on malformed or non-dump JSON).
#
# See `dune exec bin/stress.exe -- --help` for the full option list.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--crashdump-selftest" ]; then
  shift
  SEED="${1:-4242}"
  DUMP="crashdump-$SEED.json"
  rm -f "$DUMP"
  echo "crashdump-selftest: inducing Pool_failure (seed $SEED)"
  if dune exec bin/stress.exe -- --crash-demo --seed "$SEED" --domains 4; then
    echo "crashdump-selftest: FAIL — crash demo exited zero (no failure induced)" >&2
    exit 1
  fi
  if [ ! -s "$DUMP" ]; then
    echo "crashdump-selftest: FAIL — $DUMP missing or empty" >&2
    exit 1
  fi
  echo "crashdump-selftest: $DUMP written; validating with flightrec"
  if ! dune exec bin/flightrec.exe -- "$DUMP" --last 5 > /dev/null; then
    echo "crashdump-selftest: FAIL — flightrec rejected $DUMP" >&2
    exit 1
  fi
  rm -f "$DUMP"
  echo "crashdump-selftest: OK (dump produced, parsed, and inspected)"
  exit 0
fi

exec dune exec bin/stress.exe -- "$@"
