#!/bin/sh
# crash_recovery.sh — end-to-end durability check for the observation
# store (DESIGN.md §11). It runs the same campaign three times:
#
#   1. uninterrupted, persisting into $WORK/full
#   2. with the store's crash failpoint armed, so the process dies
#      mid-append in round N (expected exit code 3)
#   3. resumed over the crashed store with -resume
#
# Between 2 and 3 it checks that `storedump` of (a copy of) the crashed
# store counts only what its checkpoint commits: the same records and
# rounds as the checkpoint line, and 0 and 0 under `checkpoint: none` (a
# crash in round 1). It then asserts the resumed run rendered
# byte-identical figures to the uninterrupted one. Wall-clock-dependent lines (the "[...]" timing lines
# and the engine stats line with real scan latencies) are filtered before
# diffing; everything derived from observations must match exactly. The
# resumed store must also hold byte-identical observation segments, and
# `storedump -keys` must list the same keys over both stores.
set -eu

GO=${GO:-go}
EXP=${EXP:-fig3}
CRASH_AFTER=${CRASH_AFTER:-5}
ARGS="-exp $EXP -responders 80 -certs 1"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "crash-recovery: building repro"
$GO build -o "$WORK/repro" ./cmd/repro

filter() {
    grep -v '^\[' "$1" | grep -v 'round-latency-mean'
}

echo "crash-recovery: uninterrupted run"
"$WORK/repro" $ARGS -store "$WORK/full" > "$WORK/full.out"

echo "crash-recovery: crashing run (failpoint in round $CRASH_AFTER)"
set +e
"$WORK/repro" $ARGS -store "$WORK/crashed" -crash-after-rounds "$CRASH_AFTER" \
    > "$WORK/crash.out" 2> "$WORK/crash.err"
status=$?
set -e
if [ "$status" -ne 3 ]; then
    echo "crash-recovery: FAIL — crash run exited $status, want 3 (simulated crash)" >&2
    cat "$WORK/crash.err" >&2
    exit 1
fi

$GO build -o "$WORK/storedump" ./cmd/storedump
# storedump opens a copy: Open cuts the log back to its checkpoint, and
# the resume below must start from the store exactly as the crash left it.
cp -R "$WORK/crashed" "$WORK/inspect"
for store in "$WORK/inspect"/*/; do
    name=$(basename "$store")
    echo "crash-recovery: checking $name's summary after the crash"
    "$WORK/storedump" "$store" > "$WORK/summary.out"
    counts=$(sed -n 's/^store: \([0-9]*\) record(s) across \([0-9]*\) round(s).*/\1 \2/p' "$WORK/summary.out")
    committed=$(sed -n 's/^checkpoint: seq [0-9]* at round [^ ]* (\([0-9]*\) round(s), \([0-9]*\) scan(s).*/\2 \1/p' "$WORK/summary.out")
    if grep -q '^checkpoint: none$' "$WORK/summary.out"; then
        committed="0 0"
    fi
    if [ -z "$counts" ] || [ "$counts" != "$committed" ]; then
        echo "crash-recovery: FAIL — $name summary counts '$counts' (records rounds), its checkpoint commits '$committed'" >&2
        cat "$WORK/summary.out" >&2
        exit 1
    fi
done

echo "crash-recovery: resuming"
"$WORK/repro" $ARGS -store "$WORK/crashed" -resume > "$WORK/resumed.out"

filter "$WORK/full.out" > "$WORK/full.flt"
filter "$WORK/resumed.out" > "$WORK/resumed.flt"
if ! diff -u "$WORK/full.flt" "$WORK/resumed.flt"; then
    echo "crash-recovery: FAIL — resumed figures differ from uninterrupted run" >&2
    exit 1
fi

keys() {
    "$WORK/storedump" -keys "$1" | grep '^  [0-9]'
}
for full in "$WORK/full"/*/; do
    name=$(basename "$full")
    resumed="$WORK/crashed/$name"
    echo "crash-recovery: comparing $name segments"
    nfull=0
    for seg in "$full"seg-*.log; do
        if ! cmp "$seg" "$resumed/$(basename "$seg")"; then
            echo "crash-recovery: FAIL — $name/$(basename "$seg") differs from the uninterrupted run" >&2
            exit 1
        fi
        nfull=$((nfull + 1))
    done
    nresumed=$(ls "$resumed"/seg-*.log | wc -l)
    if [ "$nresumed" -ne "$nfull" ]; then
        echo "crash-recovery: FAIL — $name holds $nresumed segment(s) after resume, want $nfull" >&2
        exit 1
    fi
    keys "$full" > "$WORK/full.keys"
    keys "$resumed" > "$WORK/resumed.keys"
    if [ ! -s "$WORK/full.keys" ] || ! diff -u "$WORK/full.keys" "$WORK/resumed.keys"; then
        echo "crash-recovery: FAIL — storedump -keys differs (or is empty) for $name" >&2
        exit 1
    fi
done
echo "crash-recovery: OK — resumed run reproduced the uninterrupted figures, segments and keys"
