GO ?= go

.PHONY: all build test test-short race bench bench-alloc vet lint lint-concurrency lint-schema fmt tables cover fault-sweep reliable-sweep adaptive-sweep fuzz serve sweep-resume chaos-sweep

all: build vet lint lint-schema test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bflint is the repo's own analyzer suite (determinism, conservation,
# facade, flush/close contracts). It runs standalone here; CI also
# exercises the `go vet -vettool` path.
lint:
	$(GO) build -o bin/bflint ./cmd/bflint
	bin/bflint ./...

# The concurrency gate: lockcheck, the interprocedural guarded-field
# analyzer, over the daemon and farm packages, alongside the race
# detector on those packages and on internal/par, the fan-out every
# sweep runs on. lockcheck proves the //bflint:guardedby discipline on
# every CFG path; the race detector catches whatever slips outside the
# annotations' reach, including a shared write from a sweep worker.
lint-concurrency:
	$(GO) build -o bin/bflint ./cmd/bflint
	bin/bflint ./internal/dispatch ./internal/serve ./internal/sweepfarm ./cmd/bffarm
	$(GO) test -race -count=1 ./internal/dispatch/... ./internal/serve/... ./internal/par/... ./internal/sweepfarm/...

# The v4 serialization gate: the schema-drift analyzers (wirecover,
# statecover, schemalock) over the wire/snapshot/state packages, plus a
# byte-compare of a freshly regenerated manifest against the committed
# internal/wire/schema.lock — manifest drift fails even if no analyzer
# fires.
lint-schema:
	$(GO) build -o bin/bflint ./cmd/bflint
	bin/bflint ./internal/wire ./internal/snapshot ./internal/routing ./internal/reliable ./internal/adaptive
	bin/bflint -writeschema -o bin/schema.lock.generated
	cmp internal/wire/schema.lock bin/schema.lock.generated

fmt:
	gofmt -l .

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench . -benchmem ./...

# The simulator hot-loop budget (EXPERIMENTS.md E24): ns/cycle from the
# benchmark at n=8, 9 and 10, serial (s1) and on two shards (s2), five
# samples per row so a before/after comparison is a median with its
# spread, and the steady-state zero-allocation guard on the simulator
# cycle loop at both shard counts.
bench-alloc:
	$(GO) test -run '^$$' -bench BenchmarkStepAllocs -benchtime 3x -count 5 ./internal/routing
	$(GO) test -run TestStepAllocsZero -count=1 ./internal/routing

# The layout-and-routing query daemon (see README "bfserve").
serve:
	$(GO) run ./cmd/bfserve

# Distributed sweep-farm chaos smoke (EXPERIMENTS.md E26): the dispatch
# coordinator against three in-process bfserve workers behind a mixed
# chaos proxy (drops, delays, 500s, truncated and duplicated bodies),
# with hedging and per-worker journals, under the race detector. The
# test asserts the merged report is byte-identical to a serial farm.
chaos-sweep:
	$(GO) test -race -count=1 -run TestChaosSweepSmoke -v ./internal/dispatch

# Resumable sweep-farm smoke: run a small farm twice over one journal;
# the second invocation must replay every point from disk (header says
# "N from journal") and print the identical table.
sweep-resume:
	rm -f /tmp/bfsweep-smoke.journal
	$(GO) run ./cmd/bfsweep -n 4 -lambda 0.2 -warmup 30 -cycles 90 \
		-rates 0.02,0.05 -faultseeds 1,2 -journal /tmp/bfsweep-smoke.journal
	$(GO) run ./cmd/bfsweep -n 4 -lambda 0.2 -warmup 30 -cycles 90 \
		-rates 0.02,0.05 -faultseeds 1,2 -journal /tmp/bfsweep-smoke.journal

tables:
	$(GO) run ./cmd/bftables

cover:
	$(GO) test -cover ./...

fault-sweep:
	$(GO) run ./cmd/bffault -n 6 -lambda 0.1 -sweep 0,0.01,0.02,0.05,0.1
	$(GO) run ./cmd/bffault -n 6 -lambda 0.1 -compare -kills 0,1,2,4

reliable-sweep:
	$(GO) run ./cmd/bffault -n 6 -lambda 0.1 -reliable -sweep 0,0.05,0.1 -outage 50
	$(GO) run ./cmd/bffault -n 6 -lambda 0.1 -reliable -compare -kills 0,1,2

adaptive-sweep:
	$(GO) run ./cmd/bffault -n 6 -lambda 0.06 -adaptive -sweep 0,0.02,0.05,0.1
	$(GO) run ./cmd/bffault -n 6 -lambda 0.06 -adaptive -compare -kills 0,2,4

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzPlanComposition -fuzztime=30s ./internal/faults
	$(GO) test -run='^$$' -fuzz=FuzzAdaptiveConservation -fuzztime=30s ./internal/adaptive
	$(GO) test -run='^$$' -fuzz=FuzzShardIdentity -fuzztime=30s ./internal/routing
	$(GO) test -run='^$$' -fuzz=FuzzStreamTransparent -fuzztime=30s ./internal/detrng
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=30s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzRouteSpecRoundTrip -fuzztime=15s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzLayoutSpecRoundTrip -fuzztime=15s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=30s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzJournalDecode -fuzztime=30s ./internal/sweepfarm
