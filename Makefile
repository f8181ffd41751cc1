# Developer checks. `make check` is the gate a change must pass: static
# analysis, a full build, the race-enabled test suite, a schedule-
# perturbation pass over the serve suites, a crash-consistency smoke
# sweep over every file system plus the raw store, fsck exit-code pins,
# schema-validated bench runs, and the benchmark module's own tests.

GO ?= go

.PHONY: check vet build test race crashtest scrub repair bench-json serve servebench perturb aging shard perfbench

check: vet build race crashtest scrub repair serve servebench perturb aging shard bench-json perfbench

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-enabled suite is the one `make check` gates on, and the only
# -race run per package: the concurrent-mode stress tests
# (internal/betree/concurrent_test.go, the parallel bench runner tests),
# the multi-client fault and write-death sweeps (internal/faulttest), the
# pipelined wire path and its takeover races (internal/fsrpc,
# internal/fsserve) and the seeded wire-cut torture sweep
# (internal/nettest) are only meaningful under the race detector.
race:
	$(GO) test -race -count=1 ./...

# Short crash sweep: prefix/torn/subset crash points on ext4, f2fs,
# btrfs, betrfs-v0.6 and the SFL-backed store, checked against the
# legal-states oracle.
crashtest:
	$(GO) test -race -short -v -run 'Crash|Reorder' ./internal/crashtest/ ./internal/extfs/ ./internal/logfs/ ./internal/cowfs/

# Corruption detection end to end, with fsck-style exit codes: a clean
# image passes (0), injected bit flips are reported as checksum
# corruption (2), a grown media defect as a media error (3), and a mix
# reports the stronger media class (3).
# (`go run` collapses any nonzero child exit to 1, so the exact-code
# assertions need a real binary.)
scrub:
	mkdir -p bin && $(GO) build -o bin/betrfsck ./cmd/betrfsck
	./bin/betrfsck -mode=scrub > /dev/null
	./bin/betrfsck -mode=scrub -corrupt=2 > /dev/null 2>&1; test $$? -eq 2
	./bin/betrfsck -mode=scrub -badsector=1 > /dev/null 2>&1; test $$? -eq 3
	./bin/betrfsck -mode=scrub -corrupt=1 -badsector=1 > /dev/null 2>&1; test $$? -eq 3

# Self-healing storage end to end (DESIGN.md §10.6), with fsck-style
# exit codes pinned through a real binary: a -repair run over
# recoverable damage (bad sectors under cached nodes, checksum flips)
# relocates every image and exits 0, while the same damage without
# -repair keeps the historical exit 3.
repair:
	mkdir -p bin && $(GO) build -o bin/betrfsck ./cmd/betrfsck
	./bin/betrfsck -mode=scrub -badsector=2 -seed=7 -repair > /dev/null
	./bin/betrfsck -mode=scrub -corrupt=2 -seed=9 -repair > /dev/null
	./bin/betrfsck -mode=scrub -badsector=2 -seed=7 > /dev/null 2>&1; test $$? -eq 3

# Network file-service layer: a deterministic serve-mode bench whose
# JSON must validate.
serve:
	$(GO) run ./cmd/betrbench -serve -clients 4 -scale 256 -o BENCH_serve.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_serve.json

# Async pipelined wire path (DESIGN.md §13): a concurrent serve run with
# the pipelined-vs-serialized comparison pass whose schema-v4 JSON must
# validate.
servebench:
	$(GO) run ./cmd/betrbench -serve -workers 8 -clients 4 -scale 256 \
		-o BENCH_serve_pipe.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_serve_pipe.json
	rm -f BENCH_serve_pipe.json

# Schedule perturbation: the serve, pipeline and wire-fault suites, and
# the serve write-death sweep, without -race at -count=20 under one, two
# and eight scheduler threads. The race detector's extra
# timing can hide an ordering bug (a pipelined CREATE overtaking the
# MKDIR of its directory passed every -race run and failed a third of
# plain runs); varying GOMAXPROCS over repeated runs makes such a bug
# fail most passes instead. `make race` still runs these suites under
# -race.
perturb:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test -count=20 ./internal/fsserve/ ./internal/nettest/ && \
		GOMAXPROCS=$$p $(GO) test -count=20 -run 'ServerWriteDeath' ./internal/faulttest/ || exit 1; \
	done

# FTL aging rung (DESIGN.md §12): a fast two-system aging run whose
# schema-v3 JSON must validate.
aging:
	$(GO) run ./cmd/betrbench -aging -scale 4096 -systems f2fs,btrfs \
		-o BENCH_aging_smoke.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_aging_smoke.json
	rm -f BENCH_aging_smoke.json

# Scale-out sharded service (DESIGN.md §14): a 3-shard bench run whose
# schema-v6 JSON must validate.
shard:
	$(GO) run ./cmd/betrbench -shard -shards 3 -scale 2048 \
		-o BENCH_shard_smoke.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_shard_smoke.json
	rm -f BENCH_shard_smoke.json

# Scaled microbenchmark run with machine-readable output: writes
# BENCH_micro.json and fails unless the document round-trips the schema
# documented in EXPERIMENTS.md.
bench-json:
	$(GO) run ./cmd/betrbench -table 1 -scale 1024 \
		-systems ext4,betrfs-v0.4,betrfs-v0.6 -o BENCH_micro.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_micro.json

# The benchmark module (perfbench/, its own go.mod over this one): vet
# and its tests, without -race. Tier-1 never builds that module, so this
# is what catches an API change that breaks the benchmark.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...
