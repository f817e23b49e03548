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
# response body it had seen grew the peak ~4.5× (5.69× with the scanner
# and responders of today); responder caches that kept every past epoch's
# response, and a latency CDF that kept every sample, still grew it
# ~2.1–2.4×. With one body per target, one cached response per request
# and a CDF of distinct values, it grew 1.16–1.29×, with a map of labels
# per time-series bucket and a slice of every update-interval gap. Those
# are counters now, and the campaign's world no longer carries the
# consistency study. The peaks are sampled by a ticker, so one run's 3h
# peak varied 8.1–11.0 MB; each stride therefore runs CAMPAIGN_RUNS times
# and the gate compares the median peaks. Five whole gate runs on 2 vCPUs
# read 1.18–1.32× (24h medians 6.9–7.6 MB, 3h medians 8.98–9.13 MB); one
# run per stride read 0.99–1.34× over five gate runs at the parent (24h
# peaks 8.4–8.6 MB, 3h peaks 8.4–11.3 MB). Without the study but with the
# maps it read 1.82–1.86×. Fails when the ratio of the medians exceeds
# CAMPAIGN_MAX_RATIO.
set -eu

GO=${GO:-go}
MAX_RATIO=${MAX_RATIO:-1.5}
FLAGS="-exp sec4,fig2,fig11 -seed 1 -responders 120 -certs 1 -stride 48h -memstats"
CAMPAIGN_MAX_RATIO=1.6
CAMPAIGN_RUNS=3
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

# median_peak STRIDE: run the fig3 campaign CAMPAIGN_RUNS times at STRIDE
# and print the median heap peak, or nothing unless every run reported one.
median_peak() {
    : > "$WORK/peaks.$1"
    i=0
    while [ "$i" -lt "$CAMPAIGN_RUNS" ]; do
        "$WORK/repro" $CAMPAIGN_FLAGS -stride "$1" > "$WORK/stride$1.out" || true
        peak "$WORK/stride$1.out" >> "$WORK/peaks.$1"
        i=$((i + 1))
    done
    if [ "$(grep -c . "$WORK/peaks.$1")" -eq "$CAMPAIGN_RUNS" ]; then
        sort -n "$WORK/peaks.$1" | sed -n "$(((CAMPAIGN_RUNS + 1) / 2))p"
    fi
}

echo "memcheck: fig3 campaign at -stride 24h, $CAMPAIGN_RUNS runs"
P24=$(median_peak 24h)
echo "memcheck: 24h peaks $(tr '\n' ' ' < "$WORK/peaks.24h")"

echo "memcheck: fig3 campaign at -stride 3h (8x the rounds), $CAMPAIGN_RUNS runs"
P3=$(median_peak 3h)
echo "memcheck: 3h peaks $(tr '\n' ' ' < "$WORK/peaks.3h")"

if ! check "24h -> 3h stride (medians)" "$P24" "$P3" "$CAMPAIGN_MAX_RATIO"; then
    echo "memcheck: FAIL — 8x the campaign rounds grew the heap high-water mark ${RATIO}x (limit ${CAMPAIGN_MAX_RATIO}x); is something keeping state per round (response bodies, past epochs' signed responses, latency samples, a map per time-series bucket)?" >&2
    exit 1
fi
echo "memcheck: OK — the campaign's heap grew ${RATIO}x over 8x the rounds"
