GO ?= go

.PHONY: all build test race vet metrics-check serve-smoke repl-smoke chaos bench bench-compare

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
# across runs), the facade guards (every pdps.go export documented and
# used by a caller, every pdps.X in the docs an export), the
# determinism proofs (metrics, a run as a function of its choice
# sequence, and Rete's alpha scans in program order), and the -race
# hammer on live snapshots. Regenerate the golden file after an
# intentional metrics change with:
#   go test -run TestGoldenMetrics -update .
metrics-check:
	$(GO) test -run 'TestGoldenMetrics|TestExportedAPIDocumented|TestExportedAPIReferenced|TestDocsNameFacadeExports|TestMetricCatalogCovers' .
	$(GO) test -run 'TestMetricsDeterministic|TestMetricsConflictCounters|TestRunIsFunctionOfChoices|TestAlphaScanOrder' ./internal/detsched ./internal/rete
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

# chaos is the durability fault suite, run without -race because the
# SIGKILL child harness skips under it: the fault-injecting backend
# (internal/storage/storagetest) driven through durable server sessions
# and the serial engines — nothing unsynced is streamed, a failed
# session refuses every later request, no fsync is retried, reopen
# recovers every acked record, a refused append commits nothing — the
# file backend's sticky failure, and the kill-and-recover harness over
# single, both parallel schemes, static and a session synced at its
# ack boundary.
chaos:
	$(GO) test -count=1 -run 'TestNoStreamAfterFailedSync|TestDurableSessionFailStop|TestDurableRunFsyncsPerPush|TestStorageRestart' ./internal/server
	$(GO) test -count=1 -run 'TestFaulty|TestFileBackendFailedSyncIsSticky' ./internal/storage/...
	$(GO) test -count=1 -run 'TestSessionFailStopsOnSyncError|TestStorageGroupCommitSerial|TestKillAndRecover|TestStorageRecoveryAllEngines|TestAppendFailureCommitsNothing' ./internal/engine

# bench is the CI guard: one iteration of every benchmark, so a bench
# that breaks (bad firing count, matcher divergence, a paper figure's
# number off, panic) fails the build even though no timing is collected.
bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-compare runs the firing ledger (bench/, see bench/README.md) on
# BASE (default: merge-base with main) and on the working tree, three
# rounds of one set each, alternating which side goes first so drift of
# the host between rounds lands on both sides. It then prints bench
# -compare's regression table over the pooled rounds. BASE is exported
# into bench-artifacts/base, built from its own sources and removed
# once the last round is measured.
# The target exits non-zero exactly when bench -compare does: a "worse"
# row or a failed run. bench-artifacts/ keeps base.{1,2,3}.json,
# head.{1,2,3}.json and compare.txt.
BASE ?= $(shell git merge-base HEAD main 2>/dev/null || echo HEAD~1)
bench_base = (cd bench-artifacts/base && bash bench/run.sh -repeat 1 -out ../base.$(1).json)
bench_head = bash bench/run.sh -repeat 1 -out bench-artifacts/head.$(1).json
bench-compare:
	rm -rf bench-artifacts/base
	mkdir -p bench-artifacts/base
	git archive $(BASE) | tar -x -C bench-artifacts/base
	$(call bench_base,1) && $(call bench_head,1)
	$(call bench_head,2) && $(call bench_base,2)
	$(call bench_base,3) && $(call bench_head,3)
	rm -rf bench-artifacts/base
	$(GO) run ./bench -compare \
		bench-artifacts/base.1.json,bench-artifacts/base.2.json,bench-artifacts/base.3.json \
		bench-artifacts/head.1.json,bench-artifacts/head.2.json,bench-artifacts/head.3.json \
		> bench-artifacts/compare.txt; status=$$?; \
		cat bench-artifacts/compare.txt; exit $$status
