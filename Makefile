GO ?= go

.PHONY: all build test race vet metrics-check serve-smoke repl-smoke bench bench-compare

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# metrics-check pins the observability layer: the golden snapshot of
# the quickstart program under a replayed schedule (byte-identical
# across runs), the detsched determinism proof, and the -race hammer
# on live snapshots. Regenerate the golden file after an intentional
# metrics change with:
#   go test -run TestGoldenMetrics -update .
metrics-check:
	$(GO) test -run 'TestGoldenMetrics|TestExportedAPIDocumented|TestMetricCatalogCovers' .
	$(GO) test -run 'TestMetricsDeterministic|TestMetricsConflictCounters' ./internal/detsched
	$(GO) test -race -run 'TestSnapshotDuringParallelRun|TestSerialEngineMetrics' ./internal/engine
	$(GO) test -race ./internal/obs

# serve-smoke drives the multi-tenant rule service end to end over
# loopback sockets: 32 tenant sessions, 10k events, every streamed
# commit trace re-checked against the single-thread semantics. This is
# the CI smoke step for cmd/psserver (docs/SERVER.md).
serve-smoke:
	$(GO) build ./cmd/psserver ./cmd/psload
	$(GO) run ./cmd/psload -loopback -sessions 32 -events 10000 -check \
		-metrics-out metrics-artifacts/psload-metrics.json

# repl-smoke exercises schedule-shipping replication end to end over
# loopback: a primary streams a 1000-commit run to two replay
# followers that must verify byte-identical (store hash, metrics
# snapshot, admissible trace), then a late apply-mode follower
# bootstraps from a checkpoint. The -race suite double-covers the same
# paths; this is the CI smoke step for cmd/psrepl (docs/REPLICATION.md).
repl-smoke:
	$(GO) build ./cmd/psrepl ./cmd/psload
	$(GO) run ./cmd/psload -repl -events 500 -followers 2 -readers 1 \
		-metrics-out metrics-artifacts/psrepl-metrics.json

# bench is the CI guard: one iteration of every benchmark, so a bench
# that breaks (bad firing count, matcher divergence, a paper figure's
# number off, panic) fails the build even though no timing is collected.
bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-compare runs the firing ledger (bench/, see bench/README.md) on
# BASE (default: merge-base with main) and on the working tree, three
# sets each, and prints bench -compare's regression table. BASE is
# exported into bench-artifacts/base, built from its own sources and
# removed once measured.
# The target exits non-zero exactly when bench -compare does: a "worse"
# row or a failed run. bench-artifacts/ keeps base.json, head.json and
# compare.txt.
BASE ?= $(shell git merge-base HEAD main 2>/dev/null || echo HEAD~1)
bench-compare:
	rm -rf bench-artifacts/base
	mkdir -p bench-artifacts/base
	git archive $(BASE) | tar -x -C bench-artifacts/base
	cd bench-artifacts/base && bash bench/run.sh -repeat 3 -out ../base.json
	rm -rf bench-artifacts/base
	bash bench/run.sh -repeat 3 -out bench-artifacts/head.json
	$(GO) run ./bench -compare bench-artifacts/base.json bench-artifacts/head.json \
		> bench-artifacts/compare.txt; status=$$?; \
		cat bench-artifacts/compare.txt; exit $$status
