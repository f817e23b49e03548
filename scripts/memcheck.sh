#!/bin/sh
# memcheck.sh — fixed-memory guards, each comparing the heap high-water
# marks (-memstats) of two cmd/repro runs.
#
# World size (DESIGN.md §13): the same quick pipeline at -world-scale 1
# and -world-scale 10. The 10× world carries 10× the census records and
# Alexa domains, so if the corpus were ever materialized the peak would
# grow roughly 10×. The corpus streams one record at a time on the
# caller's goroutine, so nothing but that record is in flight and the
# peak stays flat: 1.02–1.06× over 3 runs on 2 vCPUs (1× peaks ~3.8 MB),
# and 1.26–1.29× while every world also built the consistency study (1×
# peaks ~8 MB); the shard pipeline the stream replaced held a
# 64Ki-record shard per worker and read 1.28–2.49×. Fails when the ratio
# exceeds MAX_RATIO (default 1.5).
#
# Campaign length (DESIGN.md §23): the fig3 campaign at -stride 24h and
# at -stride 3h, which scans 8× the rounds. A scanner that kept every
# response body it had seen grew the peak ~4.5×; responder caches that
# kept every past epoch's response, and a latency CDF that kept every
# sample, still grew it ~2.1–2.4×. With one body per target, one cached
# response per request and a CDF of distinct values, it grew 1.16–1.29×,
# with a map of labels per time-series bucket and a slice of every
# update-interval gap. Those are counters now, and the campaign's world
# no longer carries the consistency study, so the peak grows 0.96–1.29×
# (11 runs on 2 vCPUs, 9 of them at most 1.04×; 24h peaks ~8.5 MB, ~20 MB
# before). Without the study but with the maps it read 1.82–1.86×. Fails
# when the ratio exceeds CAMPAIGN_MAX_RATIO.
set -eu

GO=${GO:-go}
MAX_RATIO=${MAX_RATIO:-1.5}
FLAGS="-exp sec4,fig2,fig11 -seed 1 -responders 120 -certs 1 -stride 48h -memstats"
CAMPAIGN_MAX_RATIO=1.6
CAMPAIGN_FLAGS="-exp fig3 -seed 1 -responders 120 -certs 1 -memstats"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "memcheck: building repro"
$GO build -o "$WORK/repro" ./cmd/repro

peak() {
    # Extract heap_alloc_peak_bytes=N from the [memstats] line.
    sed -n 's/.*heap_alloc_peak_bytes=\([0-9]*\).*/\1/p' "$1"
}

# check NAME SMALL LARGE LIMIT: fail unless both peaks were reported and
# LARGE is at most LIMIT times SMALL.
check() {
    if [ -z "$2" ] || [ -z "$3" ] || [ "$2" -eq 0 ]; then
        echo "memcheck: FAIL — missing [memstats] output ($1: '$2' '$3')" >&2
        exit 1
    fi
    RATIO=$(awk "BEGIN { printf \"%.2f\", $3 / $2 }")
    echo "memcheck: $1 heap peaks ${2}B -> ${3}B ratio=${RATIO} (max ${4})"
    if awk "BEGIN { exit !($3 > $2 * $4) }"; then
        return 1
    fi
}

echo "memcheck: 1x world"
"$WORK/repro" $FLAGS -world-scale 1 > "$WORK/scale1.out"
P1=$(peak "$WORK/scale1.out")

echo "memcheck: 10x world"
"$WORK/repro" $FLAGS -world-scale 10 > "$WORK/scale10.out"
P10=$(peak "$WORK/scale10.out")

if ! check "1x -> 10x world" "$P1" "$P10" "$MAX_RATIO"; then
    echo "memcheck: FAIL — 10x world grew the heap high-water mark ${RATIO}x (limit ${MAX_RATIO}x); is more than one corpus record in flight (a slice or a queue of records, a goroutine generating ahead)?" >&2
    exit 1
fi
echo "memcheck: OK — streaming construction held the heap flat across a 10x world"

echo "memcheck: fig3 campaign at -stride 24h"
"$WORK/repro" $CAMPAIGN_FLAGS -stride 24h > "$WORK/stride24h.out"
P24=$(peak "$WORK/stride24h.out")

echo "memcheck: fig3 campaign at -stride 3h (8x the rounds)"
"$WORK/repro" $CAMPAIGN_FLAGS -stride 3h > "$WORK/stride3h.out"
P3=$(peak "$WORK/stride3h.out")

if ! check "24h -> 3h stride" "$P24" "$P3" "$CAMPAIGN_MAX_RATIO"; then
    echo "memcheck: FAIL — 8x the campaign rounds grew the heap high-water mark ${RATIO}x (limit ${CAMPAIGN_MAX_RATIO}x); is something keeping state per round (response bodies, past epochs' signed responses, latency samples, a map per time-series bucket)?" >&2
    exit 1
fi
echo "memcheck: OK — the campaign's heap grew ${RATIO}x over 8x the rounds"
