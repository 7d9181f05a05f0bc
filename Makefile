# Development targets. Everything is stdlib-only; `go` >= 1.22 suffices.

.PHONY: all build vet test race bench lab lab-quick examples cover fuzz chaos

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Microbenchmarks, for local profiling. The repo's benchmark — the
# numbers a perf claim is judged by — is `go run ./bench` (bench/README.md).
bench:
	go test -bench=. -benchmem ./...

# Regenerate the paper's evaluation (see EXPERIMENTS.md).
lab:
	go run ./cmd/batcherlab all

lab-quick:
	go run ./cmd/batcherlab -quick all

examples:
	go run ./examples/quickstart
	go run ./examples/dijkstra
	go run ./examples/indexer
	go run ./examples/racedetect
	go run ./examples/goroutines
	go run ./examples/boruvka
	go run ./examples/simscaling
	go run ./examples/netclient

# Coverage over the whole module (root facade, cmd/, and internals —
# the old target silently skipped everything outside ./internal/...).
cover:
	go test -coverprofile=cover.out ./...
	go tool cover -func=cover.out | tail -1

# Short fuzzing passes over the property-based fuzz targets.
fuzz:
	go test -fuzz=FuzzTreeAgainstMap -fuzztime=30s ./internal/ds/tree23/
	go test -fuzz=FuzzSeqAgainstMap -fuzztime=30s ./internal/ds/skiplist/
	go test -run '^$$' -fuzz=FuzzDecodeRequest -fuzztime=20s ./internal/server/
	go test -run '^$$' -fuzz=FuzzDecodeResponse -fuzztime=20s ./internal/server/

# The failure-containment suite: contained batch panics, pump floods and
# close-during-flood, fault-injected structures, the wire-level chaos
# tests and the sharded shutdown drain, under the race detector. This
# target is the one definition of the suite — CI's chaos steps call it.
# Set BATCHERD_POLICY=size-cap or =deadline to rerun it under an
# alternative batch-formation policy (CI runs all three).
chaos:
	go test -race -run 'TestContain|TestPanickerContained|TestFlakyEveryN|TestPumpServesThroughBatchPanic|TestPumpFlood|TestPumpCloseDuringFlood|TestChaos|TestStatsBooks|TestShardedShutdownDrain' \
		-count=1 -v ./internal/sched/ ./internal/faultinject/ ./internal/server/
