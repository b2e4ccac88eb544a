GO ?= go
FUZZTIME ?= 10s
SERVE_ADDR ?= 127.0.0.1:6380
SUITE ?= list

LOC_DIR ?= .

.PHONY: build test test-race alloc-pins alloc-profile cpu-profile profile-bins bench-smoke vet fmt-check benchmark-module stats-golden golden-check loc loc-diff fuzz-short stress serve netbench ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The AllocsPerRun pins: the point-lookup path (block, cache, sstable, lsm,
# core, memtable.Get of a present and an absent key), the write path (core above the engine, lsm.Write, wal.Append,
# memtable.Add, sstable.Writer.Add), a healthy engine's Health and the
# write-admission gate (guard, core), a 100,000-argument RESP command
# (server), the pipelined read path (lsm.MultiGet, core.MultiGetCtx, a warm
# server window). They skip under the race detector (internal/raceflag), so
# the test-race run does not check them; this one does.
alloc-pins:
	$(GO) test -count=1 -run 'Allocs' ./internal/...

# Where the write path allocates, by object count: the two write benchmarks
# of bench_test.go under a memory profile sampled every 4 KiB. Under it, where
# the read path allocates, by bytes: a point lookup's cost to the heap is the
# size of what a block-cache miss takes, not how many objects (-focus keeps the
# benchmark's own set-up, a bulk load, out of the table). Then the wire path,
# by object count: server BenchmarkServerPipeline (two in-memory connections
# pipelining 16 commands, 90/10 GET/SET; -ignore keeps its preload out). The
# next diet starts from these tables, not from a patched benchmark/.
PROFILE_DIR ?= /tmp/p2kvs-alloc-profile
alloc-profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'PutAsync|LSMWriteBatch' -benchmem -benchtime 1000000x \
		-memprofile $(PROFILE_DIR)/mem.prof -memprofilerate 4096 -o $(PROFILE_DIR)/p2kvs.test .
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 $(PROFILE_DIR)/p2kvs.test $(PROFILE_DIR)/mem.prof
	$(GO) test -run '^$$' -bench 'GetMiss' -benchmem -benchtime 1000000x \
		-memprofile $(PROFILE_DIR)/read.prof -memprofilerate 4096 -o $(PROFILE_DIR)/lsm.test ./internal/lsm
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 15 -focus='\(\*DB\)\.Get$$' $(PROFILE_DIR)/lsm.test $(PROFILE_DIR)/read.prof
	$(GO) test -run '^$$' -bench 'ServerPipeline' -benchmem -benchtime 100000x \
		-memprofile $(PROFILE_DIR)/wire.prof -memprofilerate 4096 -o $(PROFILE_DIR)/server.test ./internal/server
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 -ignore='lsmStore' $(PROFILE_DIR)/server.test $(PROFILE_DIR)/wire.prof

# Where the time goes, from the same benchmarks plus one client's synchronous
# Get, 16-key MultiGet, Put and 16-op WriteEachCtx (internal/core's
# BenchmarkGet, BenchmarkMultiGet, BenchmarkPut, BenchmarkWriteEach), each under a CPU profile of its own,
# printed cumulatively for the whole process — the scheduler's share of a
# thread handoff (schedule, findRunnable, futex) sits under no product
# function, so a -focus would hide it. The write path; the memtable under it
# on its own (three key shapes in; present keys out, and absent ones its
# filter answers); a Get its caller runs
# (direct=true) and one handed to the worker (direct=false, the paper's
# form), and the same two for a 16-key MultiGet (MultiGet: each idle
# worker's leg run by the caller, or every leg queued), for a Put (Put:
# led by its caller, handed to its worker, or led over a PutAsync stream on
# its worker) and for a 16-op WriteEachCtx
# (WriteEach: as MultiGet, for writes); the engine lookup
# under them; the MemFS device under all of
# them (a 2 MiB append, a block read). The engine lookup runs with the block
# cache too small (GetMiss) and holding every block (GetHit, where the
# table's index search shows most). A ten-entry scan of settled tables,
# which crosses more blocks the smaller they are (ShortScan). The two
# callers of the k-way merge:
# compaction (CompactionMerge) and a store's SCAN on both of its paths
# (StoreScan). A minor compaction: one 4 MiB memtable written to L0, of
# unique keys and of zipfian overwrites whose shadowed versions it skips
# (Flush). The wire path: pipelined RESP windows over an in-process
# store (ServerPipeline). A time claim starts from these tables as a count
# claim starts from alloc-profile's.
cpu-profile: profile-bins
	cd $(PROFILE_DIR) && for run in $(PROFILE_RUNS); do \
		set -- $$run; \
		./$$1.test -test.run '^$$' -test.bench "$$3" -test.benchtime 3s -test.cpuprofile $$2.prof && \
		$(GO) tool pprof -top -cum -nodecount 25 $$1.test $$2.prof || exit 1; \
	done

# cpu-profile's rows: test binary, profile name, -test.bench pattern.
PROFILE_RUNS = 'p2kvs write PutAsync|LSMWriteBatch' 'p2kvs memtable MemtableAdd|MemtableGet' \
	'core get-direct ^BenchmarkGet$$/direct=true' 'core get-queued ^BenchmarkGet$$/direct=false' \
	'core mget-direct MultiGet$$/direct=true' 'core mget-queued MultiGet$$/direct=false' \
	'core put-direct ^BenchmarkPut$$/direct=true' 'core put-queued ^BenchmarkPut$$/direct=false' \
	'core put-led ^BenchmarkPut$$/led' \
	'core mset-direct WriteEach$$/direct=true' 'core mset-queued WriteEach$$/direct=false' \
	'lsm get-engine GetMiss' 'lsm get-hit GetHit' 'lsm scan-short ShortScan' 'vfs memfs MemFSAppend|MemFSReadAt' \
	'lsm compaction CompactionMerge' 'core scan StoreScan' 'lsm flush Flush' 'server wire ServerPipeline'

profile-bins:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -c -o $(PROFILE_DIR)/p2kvs.test .
	$(GO) test -c -o $(PROFILE_DIR)/core.test ./internal/core
	$(GO) test -c -o $(PROFILE_DIR)/lsm.test ./internal/lsm
	$(GO) test -c -o $(PROFILE_DIR)/vfs.test ./internal/vfs
	$(GO) test -c -o $(PROFILE_DIR)/server.test ./internal/server

# Every benchmark cpu-profile names, run once: one that fails or fatals in
# its set-up fails here (make ci, CI), not under someone's profiler.
bench-smoke: profile-bins
	cd $(PROFILE_DIR) && for run in $(PROFILE_RUNS); do \
		set -- $$run; \
		./$$1.test -test.run '^$$' -test.bench "$$3" -test.benchtime 1x || exit 1; \
	done

vet:
	$(GO) vet ./...

# gofmt over every Go file, benchmark/ included: fails listing any file
# whose formatting gofmt would change.
fmt-check:
	@out=$$(gofmt -l .) && test -z "$$out" || { echo "fmt-check: gofmt -w these files:" >&2; echo "$$out" >&2; exit 1; }

# The frozen benchmark/ directory is its own module (replace p2kvs => ../):
# root ./... neither builds nor tests it, so a refactor of internal/* could
# break it unnoticed without this.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Regenerate the goldens that pin the stats schema (StatsJSON field names,
# INFO keys) and the shared store flag set after a deliberate change to a
# tagged stats struct or to loadgen.StoreFlags; golden-check reruns it and
# fails on a diff.
stats-golden:
	$(GO) test ./internal/core ./internal/server ./internal/loadgen -run 'Golden' -update

# The goldens are current: regenerated, they match what git has (staged or
# committed). make ci and CI both run it.
golden-check: stats-golden
	git diff --exit-code -- '*.golden'

# Non-test and test Go lines (wc -l) per package outside benchmark/, then
# the total: the numbers ROADMAP re-anchors and "net-negative" PR claims
# quote. CI prints it, so a claim is read from the log, not recounted. The
# test-support package kvtest (no _test suffix, because other packages'
# tests import it) counts as test lines.
loc:
	@cd $(LOC_DIR) && find . -name '*.go' -not -path './benchmark/*' -not -path './.*' -print0 | xargs -0 wc -l | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); if ($$2 ~ /_test\.go$$/ || d ~ /\/kvtest$$/) t[d] += $$1; else n[d] += $$1; dirs[d] = 1 } \
	     END { for (d in dirs) { printf "%-30s %7d non-test %7d test\n", d, n[d], t[d]; N += n[d]; T += t[d] } \
	           printf "%-30s %7d non-test %7d test\n", "total", N, T }' | sort

# make loc-diff BASE=<ref>: the same count on <ref> (git archive into a
# temporary directory) and on the working tree, as per-package and total
# deltas. CI prints it into the pull request's step summary.
loc-diff:
	@test -n "$(BASE)" || { echo "usage: make loc-diff BASE=<ref>" >&2; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && git archive $(BASE) | tar -x -C "$$tmp" && \
	{ $(MAKE) -s loc LOC_DIR="$$tmp" | sed 's/^/base /'; $(MAKE) -s loc | sed 's/^/head /'; } | \
	awk '{ n[$$1,$$2] = $$3; t[$$1,$$2] = $$5; dirs[$$2] = 1 } \
	     END { for (d in dirs) { dn = n["head",d] - n["base",d]; dt = t["head",d] - t["base",d]; \
	           if (dn || dt || d == "total") printf "%-30s %+7d non-test %+7d test\n", d, dn, dt } }' | sort

# Short fuzzing pass over every fuzz target (Go runs one -fuzz target per
# invocation, so each gets its own line).
fuzz-short:
	$(GO) test -fuzz=FuzzDecodeEdit -fuzztime=$(FUZZTIME) ./internal/manifest
	$(GO) test -fuzz=FuzzReadAll -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -fuzz=FuzzIterParse -fuzztime=$(FUZZTIME) ./internal/block
	$(GO) test -fuzz=FuzzBuilderRoundTrip -fuzztime=$(FUZZTIME) ./internal/block
	$(GO) test -fuzz=FuzzBlockRead -fuzztime=$(FUZZTIME) ./internal/block
	$(GO) test -fuzz=FuzzAbbrevOrder -fuzztime=$(FUZZTIME) ./internal/memtable
	$(GO) test -fuzz=FuzzIndexSeek -fuzztime=$(FUZZTIME) ./internal/sstable
	$(GO) test -fuzz=FuzzDecodeBatchPayload -fuzztime=$(FUZZTIME) ./internal/lsm
	$(GO) test -fuzz=FuzzBatchPayloadRoundTrip -fuzztime=$(FUZZTIME) ./internal/lsm
	$(GO) test -fuzz=FuzzRESPParse -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -fuzz=FuzzMemFile -fuzztime=$(FUZZTIME) ./internal/vfs
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -fuzz=FuzzMergeIterators -fuzztime=$(FUZZTIME) ./internal/kv
	$(GO) test -fuzz=FuzzReplStream -fuzztime=$(FUZZTIME) ./internal/repl

# make stress SUITE=<name>|all|list — every race/torture/end-to-end battery
# is a suite: a few rows of the table in scripts/stress.sh (go test -run
# regexes, dbbench/netbench invocations, the server smoke). CI runs the
# same table as a matrix. Suites, and the targets and scripts they replace
# (each suite runs every command its predecessors ran, plus the fuzz or
# torture step the matching CI job used to carry on the side):
#
#   overload    <- make torture-short
#   compaction  <- make compaction-stress
#   backup      <- make backup-stress            (+ CI's FuzzParse smoke)
#   scrub       <- make scrub-stress             (+ CI's FuzzBlockRead smoke)
#   crash       <- make crash-stress, scripts/crash-stress.sh, cmd/crashkv
#                  (+ CI's DiskFull torture): netbench -crash, commit x25 +
#                  interval/never/wiredtiger x5, zero acked-write loss
#   repl        <- make repl-stress, scripts/repl-stress.sh, crashkv -replica
#                  (+ CI's FuzzReplStream smoke): netbench -crash -crash_replica
#   cache       <- make cache-stress; the hotcache BENCH line must show >= 1.5x
#               (+ the long form of the direct read's history stress, 2 s a cell)
#   reshard     <- make reshard-stress (minus the deleted MigrateMatchesReshard)
#   engines     the conformance suite (internal/kv/kvtest) x3 on the five engine
#               configurations; scrub and crash run its bit-flip and guard cases,
#               which replaced BitFlipAtRestTorture and the per-engine DiskFull tests
#   serve       <- make serve-smoke, scripts/serve-smoke.sh (+ CI's FuzzRESPParse
#                  smoke, + netbench -cluster 3 must scale GETs >= 2.2x)
stress:
	./scripts/stress.sh $(SUITE)

# Run the RESP server in-memory on SERVE_ADDR (redis-cli compatible).
serve:
	$(GO) run ./cmd/p2kvs-server -addr $(SERVE_ADDR) -inmemory -workers 8

# Drive a running server with the pipelined load generator.
netbench:
	$(GO) run ./cmd/netbench -addr $(SERVE_ADDR) -conns 8 -pipeline 16 -num 20000

ci: vet fmt-check build test-race alloc-pins benchmark-module bench-smoke golden-check

clean:
	$(GO) clean ./...
