# Test tiers for the muststaple reproduction.
#
#   tier1       — the seed gate: vet + gofmt + repolint (the determinism/
#                 concurrency analyzers in internal/lint), everything
#                 builds, and the unit/integration suite passes.
#   tier2       — static analysis (vet + repolint) plus the full suite
#                 under the race detector (the campaign engine scans each
#                 round on several goroutines; this is the tier that
#                 guards it).
#   benchcheck  — builds and tests the repository benchmark (bench/, a
#                 module of its own that `go test ./...` at the root does
#                 not reach): its short run of every workload plus its
#                 lint, so an API change the harness compiles against
#                 fails here rather than at benchmark time.
#   bench-guard — asserts the parallel world build is not slower than the
#                 serial reference (skipped below 2 CPUs; it reports a
#                 "speedup" metric, and the redesign targets >= 1.5x on
#                 >= 4 cores), and the responder signed-response cache hot
#                 path beats per-scan signing by >= 3x ns/op and >= 5x
#                 allocs/op (no core gate; the win is eliminated work).
#   loadcheck   — tier-2 serving-tier smoke: boots the OCSP serving tier
#                 on a loopback socket and fires a short open-loop
#                 ocspload burst at it, failing on zero throughput, any
#                 non-2xx status, or any transport error.
#   capacitycheck — tier-2 closed-loop capacity gate: ocspload -capacity
#                 probes the loopback tier (double then bisect the
#                 offered rate until the p99 SLO breaks) and fails when
#                 the discovered ceiling is below -min-capacity — 2× the
#                 PR 6 fixed-rate 2000 req/s baseline.
#   staplecheck — tier-2 telemetry-ingestion gate: staplereport
#                 -ingestcheck floods the Expect-Staple report collector
#                 in-process (decode, then persist + aggregate under
#                 one lock) and fails on any status but 202, below 20k
#                 reports/s or above a 16 MiB post-GC heap, then an
#                 ocspload -stapleserve burst exercises the same
#                 path over a real loopback socket.
#   memcheck    — tier-2 fixed-memory guards (scripts/memcheck.sh): runs
#                 the same quick cmd/repro pipeline at -world-scale 1 and
#                 10 and fails if the 10× world's heap high-water mark
#                 exceeds ~1.5× the 1× run's (DESIGN.md §13); then runs the
#                 fig3 campaign three times at -stride 24h and at 3h and
#                 fails if 8× the rounds' median peak is above 1.6× the
#                 24h median (DESIGN.md §23).
#   fuzzcheck   — tier-2 fuzzing pass: runs each fuzz target with the
#                 fuzzing engine for FUZZTIME (default 10s) instead of
#                 only its seed corpus — the GET-path decoder, the
#                 Expect-Staple report decoder, the store record codec,
#                 the store's frame scan over every segment kind,
#                 CreateResponse against its encoding/asn1 reference, and
#                 ParseResponse and ParseRequest against theirs.
#   racecheck   — focused race-detector pass over the concurrent
#                 packages (serving tier, load generator, responder,
#                 scanner, store, engine core, memo table, metrics
#                 timers, the bounded parallel loop, the stapling engine
#                 and the browser harness) under -short, so the data-race
#                 gate runs in minutes, not the full-suite tier-2 budget.
#   crash-recovery — end-to-end durability check: runs a campaign, kills
#                 a second run mid-round via the store failpoint (in
#                 round 1, before any checkpoint, and in round 5),
#                 checks that `storedump` of the crashed store counts
#                 only its checkpoint's rounds, resumes it, and asserts
#                 the resumed figures, segment bytes and `storedump -keys`
#                 listing match (scripts/crash_recovery.sh).

GO ?= go

# The concurrent packages: every package that serves the request path,
# drives load at it or feeds it, and the stapling engine and browser
# harness, whose handshakes fetch through netsim and ocspserver from a
# second goroutine.
RACE_PKGS = ./internal/ocspserver ./internal/loadgen ./internal/responder \
	./internal/scanner ./internal/store ./internal/core ./internal/expectstaple \
	./internal/memo ./internal/metrics ./internal/par ./internal/webserver \
	./internal/browser

.PHONY: all tier1 tier2 benchcheck loadcheck capacitycheck staplecheck memcheck racecheck fuzzcheck bench-guard bench crash-recovery vet fmt fmt-check lint

all: tier1

tier1: vet fmt-check lint
	$(GO) build ./...
	$(GO) test ./...

tier2: vet lint racecheck fuzzcheck loadcheck capacitycheck staplecheck memcheck benchcheck
	$(GO) test -race ./...

# benchcheck runs the benchmark module's own tests (~17s): bench/ builds
# against the scanner, netsim, serving and store APIs, and no other target
# compiles it.
benchcheck:
	cd bench && $(GO) test ./...

# racecheck is the quick race gate: -short keeps each package's suite to
# its fast paths, so the whole pass stays well under the full -race run.
racecheck:
	$(GO) test -race -short $(RACE_PKGS)

# fuzzcheck runs the fuzzing engine on every fuzz target for FUZZTIME
# each; `go test ./...` runs only their seed corpora. The engine takes
# one target per invocation.
FUZZTIME ?= 10s
fuzzcheck:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeGETPath$$' -fuzztime $(FUZZTIME) ./internal/ocsp
	$(GO) test -run '^$$' -fuzz '^FuzzCreateResponse$$' -fuzztime $(FUZZTIME) ./internal/ocsp
	$(GO) test -run '^$$' -fuzz '^FuzzParseResponse$$' -fuzztime $(FUZZTIME) ./internal/ocsp
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime $(FUZZTIME) ./internal/ocsp
	$(GO) test -run '^$$' -fuzz '^FuzzParseCRL$$' -fuzztime $(FUZZTIME) ./internal/crl
	$(GO) test -run '^$$' -fuzz '^FuzzReportDecode$$' -fuzztime $(FUZZTIME) ./internal/expectstaple
	$(GO) test -run '^$$' -fuzz '^FuzzRecordRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentScan$$' -fuzztime $(FUZZTIME) ./internal/store

# loadcheck boots a self-contained serving tier (own CA, loopback
# listener) and drives a 2s open-loop burst; -check fails the run on
# zero completed requests, any non-2xx status, or any transport error.
loadcheck:
	$(GO) run ./cmd/ocspload -selfserve -rate 500 -duration 2s -check

# capacitycheck closes the loop: search for the highest rate the
# loopback tier sustains at p99 <= 25ms and fail below 4000 req/s (2x
# the PR 6 fixed-rate baseline). Short probes keep the gate under ~30s.
capacitycheck:
	$(GO) run ./cmd/ocspload -selfserve -capacity -slo 25ms -probe-duration 2s \
		-start-rate 1000 -max-rate 65536 -check -min-capacity 4000

# staplecheck gates the violation-report ingestion tier: every report of
# the in-process flood (decode, persist, aggregate) must get 202, at
# >= 20k reports/s, inside a 16 MiB post-GC heap; and the socket path
# must absorb a short open-loop burst with no errors.
staplecheck:
	$(GO) run ./cmd/staplereport -ingestcheck -reports 200000 -workers 8 \
		-min-rate 20000 -max-heap-mb 16
	$(GO) run ./cmd/ocspload -stapleserve -rate 2000 -duration 2s -check

# memcheck asserts two fixed-memory properties: a 10× world must not grow
# the heap high-water mark past MAX_RATIO (default 1.5) times the 1× run's,
# and a campaign with 8× the rounds must not grow the median of three
# runs' high-water marks past 1.6× (a constant in the script).
memcheck:
	./scripts/memcheck.sh

vet:
	$(GO) vet ./...

# fmt fails when any file needs formatting, listing the offenders; run
# `gofmt -w .` to fix.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "$$out"; \
		echo "gofmt: the files above need formatting (run: gofmt -w .)"; \
		exit 1; \
	fi

fmt-check: fmt

# lint runs the repo's determinism/concurrency analyzers (internal/lint,
# cmd/repolint). See DESIGN.md §10 and §15. Add -json for machine-readable
# findings or -timing for per-analyzer wall time.
lint:
	$(GO) run ./cmd/repolint ./...

bench-guard:
	$(GO) test -run - -bench 'BenchmarkWorldBuildGuard|BenchmarkResponderRespondGuard' -benchtime 1x .

bench:
	$(GO) test -run - -bench . -benchtime 1x .

crash-recovery:
	CRASH_AFTER=1 ./scripts/crash_recovery.sh
	CRASH_AFTER=5 ./scripts/crash_recovery.sh
