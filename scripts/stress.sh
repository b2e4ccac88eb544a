#!/usr/bin/env bash
# The one stress entry point: `make stress SUITE=<name>` runs the rows of
# the table below that carry that name, in order; SUITE=all runs every
# suite; SUITE=list prints the names. CI is a matrix over the same names.
#
# Knobs (environment): GO, CYCLES / ASYNC_CYCLES (crash-suite kill cycles,
# 25 / 5), REPL_CYCLES / REPL_ASYNC_CYCLES (repl-suite, 9 / 3), RESHARD_RUNS
# (reshard-suite repeats of TestReshardTorture, 200), FUZZTIME (per fuzz
# smoke, 30s).
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
FUZZTIME="${FUZZTIME:-30s}"
BIN=$(mktemp -d)
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; rm -rf "$BIN"' EXIT

# ---------------------------------------------------------------------------
# The table: "<suite> <command>". Commands are go invocations or the
# helper functions defined further down.
# ---------------------------------------------------------------------------
table() { cat <<'EOF'
overload   $GO test -race -short -timeout 5m -run 'Torture|Admit|Expired|Deadline|Drain|Close|Queue' ./internal/torture ./internal/core
compaction $GO test -race -timeout 10m -run 'Compaction|Slowdown|JobsConflict|RangesOverlap|MergeFiles' ./internal/lsm
compaction $GO test -race -short -timeout 5m -run 'Torture/lsm-parallel' ./internal/torture
backup     $GO test -fuzz=FuzzParse -fuzztime=$FUZZTIME ./internal/checkpoint
backup     $GO test -race -timeout 10m -run 'RestoreEquivalence' ./internal/torture
backup     $GO test -race -timeout 5m -run 'Checkpoint|Restore|Barrier' ./internal/core
backup     $GO test -race -timeout 5m -run 'Conformance.*/checkpoint' ./internal/lsm ./internal/btreekv ./internal/kvell
backup     $GO test -race -timeout 5m -run 'Manifest|ParseMutations|ParseRejects' ./internal/checkpoint
backup     $GO test -race -timeout 5m -run 'Backup|Restore' .
backup     $GO run ./examples/txn-recovery
scrub      $GO test -fuzz=FuzzBlockRead -fuzztime=$FUZZTIME ./internal/block
scrub      $GO test -race -timeout 10m -run 'Conformance.*/bit-flip' ./internal/lsm ./internal/btreekv ./internal/kvell
scrub      $GO test -race -timeout 5m -run 'Corrupt|Scrub|Quarantine|Repair|Flip|Rot|Checksum|Limiter|Runner' ./internal/kv ./internal/block ./internal/sstable ./internal/wal ./internal/lsm ./internal/btreekv ./internal/kvell ./internal/scrub ./internal/vfs ./internal/server
crash      $GO test -race -short -timeout 5m -run 'DiskFull' ./internal/torture
crash      $GO test -race -timeout 5m -run 'Conformance.*/guard' ./internal/lsm ./internal/btreekv ./internal/kvell
crash      crash commit ${CYCLES:-25}
crash      crash interval ${ASYNC_CYCLES:-5}
crash      crash never ${ASYNC_CYCLES:-5}
crash      crash commit ${ASYNC_CYCLES:-5} -server_args '-engine wiredtiger'
repl       $GO test -fuzz=FuzzReplStream -fuzztime=$FUZZTIME ./internal/repl
repl       $GO test -race -timeout 5m ./internal/repl ./internal/cluster
repl       $GO test -race -timeout 10m -run 'Repl|Replica' ./internal/server
repl       crash commit ${REPL_CYCLES:-9} -crash_replica
repl       crash interval ${REPL_ASYNC_CYCLES:-3} -crash_replica
repl       crash never ${REPL_ASYNC_CYCLES:-3} -crash_replica
cache      $GO test -race -timeout 5m ./internal/hotcache
cache      $GO test -race -short -timeout 5m -run 'HotCache|MultiGetAdmit|ShardDistribution|OversizedInsert' ./internal/core ./internal/cache ./internal/torture
cache      $GO test -race -timeout 10m -run 'DirectReadHistory' ./internal/core -direct.window 2s
cache      repeat 50 $GO test -race -count=1 -run 'TestDirectReadHistory/.*/direct=true/hotcache=true' ./internal/core
cache      bench_line hotcache ycsbc_speedup 1.5 $GO run ./cmd/dbbench -hotcache_bench -num 20000 -threads 4 -p2 -workers 4 -devscale 0.2
reshard    $GO test -race -short -timeout 10m -run 'ReshardTorture' ./internal/torture
reshard    repeat ${RESHARD_RUNS:-200} $GO test -count=1 -timeout 5m -run 'ReshardTorture' ./internal/torture
reshard    $GO test -race -timeout 5m ./internal/reshard ./internal/keyspace
reshard    $GO test -race -timeout 10m -run 'Reshard' ./internal/core ./internal/server
reshard    $GO test -race -timeout 5m -run 'FacadeElastic' .
reshard    $GO run ./cmd/dbbench -p2 -workers 4 -elastic -num 60000 -threads 4 -benchmarks fillrandom,updatezipfian -reshard_at 30000 -reshard_to 5 -verify
engines    $GO test -race -count=3 -run Conformance ./internal/lsm ./internal/btreekv ./internal/kvell
serve      $GO test -fuzz=FuzzRESPParse -fuzztime=$FUZZTIME ./internal/server
serve      serve_smoke
serve      bench_line cluster_get_scaling scaling 2.2 $GO run ./cmd/netbench -cluster 3
EOF
}

suites() { table | awk '{print $1}' | uniq; }

run_suite() {
    local suite=$1 name cmd found=0
    while read -r name cmd <&3; do # fd 3: the rows' commands keep their stdin
        [ "$name" = "$suite" ] || continue
        found=1
        echo "== stress[$suite]: $cmd"
        eval "$cmd"
    done 3< <(table)
    [ "$found" = 1 ] || { echo "stress: unknown SUITE '$suite' (valid: $(suites | tr '\n' ' ')all)" >&2; exit 2; }
    echo "stress[$suite]: passed"
}

# ---------------------------------------------------------------------------
# Helpers the table's rows call.
# ---------------------------------------------------------------------------

build_bins() { # once per invocation
    [ -x "$BIN/netbench" ] && return
    $GO build -o "$BIN/p2kvs-server" ./cmd/p2kvs-server
    $GO build -o "$BIN/netbench" ./cmd/netbench
}

# crash <mode> <cycles> [netbench flags]: SIGKILL torture of a real server
# (netbench -crash) under the regime the zero-acked-loss claim was
# established with: 4 connections x 8 pipelined SETs.
crash() {
    local mode=$1 cycles=$2
    shift 2
    build_bins
    "$BIN/netbench" -crash "$BIN/p2kvs-server" -crash_mode "$mode" -crash_cycles "$cycles" \
        -conns 4 -pipeline 8 -seed 0 "$@"
}

# repeat <n> <command…>: run the command n times, each a process of its own
# (go test -count=n stops at the first failure and would hide the rate),
# and require every run to pass — how a 1-in-450 shape is seen before merge.
repeat() {
    local n=$1 i fails=0
    shift
    for i in $(seq 1 "$n"); do
        "$@" >/dev/null 2>&1 || { fails=$((fails+1)); echo "stress: run $i/$n failed: $*" >&2; }
    done
    echo "stress: $((n-fails))/$n passed: $*"
    [ "$fails" -eq 0 ]
}

# bench_line <benchmark> <field> <min> <command…>: run the command, echo its
# output, and require its BENCH json line to report field >= min.
bench_line() {
    local bench=$1 field=$2 min=$3 out val
    shift 3
    out=$("$@")
    echo "$out"
    val=$(echo "$out" | grep "^BENCH {\"benchmark\":\"$bench\"" | grep -o "\"$field\":[0-9.]*" | cut -d: -f2)
    awk -v v="${val:-0}" -v m="$min" 'BEGIN { exit !(v >= m) }' || {
        echo "stress: $bench: $field=${val:-missing}, want >= $min" >&2
        exit 1
    }
}

resp_cmd() { # resp_cmd host:port CMD [ARG...] -> reply payload on stdout
    local hp=$1 req='' a hdr
    shift
    req="*$#\r\n"
    for a in "$@"; do req+="\$${#a}\r\n${a}\r\n"; done
    exec 4<>"/dev/tcp/${hp%:*}/${hp#*:}"
    printf '%b' "$req" >&4
    IFS= read -r hdr <&4
    hdr=${hdr%$'\r'}
    case "$hdr" in
    '$-1') ;;
    '$'*) dd bs=1 count=$(( ${hdr#\$} + 2 )) <&4 2>/dev/null ;;
    *)    printf '%s\n' "$hdr" ;;
    esac
    exec 4<&- 4>&-
}

info_field() { # info_field host:port field -> value (empty if missing)
    resp_cmd "$1" INFO 2>/dev/null | tr -d '\r' | grep "^$2:" | head -1 | cut -d: -f2
}

smoke_fail() {
    echo "serve-smoke: $1" >&2
    [ -n "${2:-}" ] && cat "$BIN/$2.log" >&2
    exit 1
}

# boot <name> <addr> [server flags]: start a server in the background, wait
# for PONG; its pid lands in $PID and its log in $BIN/<name>.log.
boot() {
    local name=$1 addr=$2
    shift 2
    "$BIN/p2kvs-server" -addr "$addr" "$@" >"$BIN/$name.log" 2>&1 &
    PID=$!
    PIDS+=("$PID")
    for _ in $(seq 1 100); do
        if resp_cmd "$addr" PING 2>/dev/null | grep -q PONG; then return 0; fi
        kill -0 "$PID" 2>/dev/null || smoke_fail "$name died during startup" "$name"
        sleep 0.1
    done
    smoke_fail "$name not reachable at $addr" "$name"
}

# drain <name> <pid>: SIGTERM, require exit 0 within 10s and the
# clean-shutdown log line.
drain() {
    kill -TERM "$2"
    for _ in $(seq 1 100); do kill -0 "$2" 2>/dev/null || break; sleep 0.1; done
    kill -0 "$2" 2>/dev/null && smoke_fail "$1 did not exit within 10s of SIGTERM" "$1"
    wait "$2" || smoke_fail "$1 exited uncleanly" "$1"
    grep -q "clean shutdown" "$BIN/$1.log" || smoke_fail "$1 logged no clean shutdown" "$1"
}

await_sync() { # await_sync replica-addr
    for _ in $(seq 1 300); do
        if [ "$(info_field "$1" master_link_status)" = "up" ] &&
           [ "$(info_field "$1" replica_lag_gsn)" = "0" ]; then return 0; fi
        sleep 0.1
    done
    smoke_fail "replica never converged (link=$(info_field "$1" master_link_status) lag=$(info_field "$1" replica_lag_gsn))" replica
}

# counters <output> <positive|present> <name…>: netbench prints INFO
# counters as name=value; require each to be > 0, or merely present.
counters() {
    local out=$1 how=$2 c n
    shift 2
    for c in "$@"; do
        n=$(echo "$out" | grep -o "${c}=[0-9]*" | head -1 | cut -d= -f2)
        [ -n "${n:-}" ] || smoke_fail "counter $c missing from server INFO"
        [ "$how" = present ] || [ "$n" -gt 0 ] || smoke_fail "expected $c > 0 (got $n)"
    done
}

# serve_smoke: end-to-end over the real binaries. Boot p2kvs-server
# in-memory, drive it with netbench's pipelined load in paranoid -verify
# mode, check the pipelined runs reached the engines through the batch
# entry points, BGSAVE, hot-cache hits under zipfian load, SCRUB over the
# wire; then a 2-node replication leg (full sync, verified replica reads,
# partial resync across a replica restart) and a live RESHARD 3 -> 4 on an
# elastic server; every server must drain cleanly on SIGTERM.
serve_smoke() {
    build_bins
    local ADDR=${SERVE_SMOKE_ADDR:-127.0.0.1:16380}
    local PADDR=${SERVE_SMOKE_PRIMARY:-127.0.0.1:16381}
    local RADDR=${SERVE_SMOKE_REPLICA:-127.0.0.1:16382}
    local EADDR=${SERVE_SMOKE_ELASTIC:-127.0.0.1:16383}
    local nb="$BIN/netbench -conns 4 -pipeline 16"
    local OUT SRV_PID PRI_PID REP_PID ELA_PID STATUS GOT N

    boot server "$ADDR" -inmemory -workers 8 -cmd_timeout 5s -hot_cache -1 -checkpoint_dir "$BIN/backup"
    SRV_PID=$PID
    OUT=$($nb -addr "$ADDR" -benchmarks set,get -num 8000 -bgsave -verify)
    echo "$OUT"
    # netbench exits non-zero on a mismatch, but require the tally line so
    # a silently disabled verifier can't pass.
    echo "$OUT" | grep -q "silent mismatches" || smoke_fail "netbench -verify did not report its corruption tally"
    echo "$OUT" | grep -q "bgsave: Background saving started" || smoke_fail "BGSAVE was not accepted"
    [ -f "$BIN/backup/CHECKPOINT" ] || smoke_fail "BGSAVE committed but no CHECKPOINT manifest on disk"
    [ "$(resp_cmd "$ADDR" LASTSAVE | tr -d ':\r\n')" -gt 0 ] || smoke_fail "LASTSAVE still 0 after BGSAVE committed"
    counters "$OUT" positive store_checkpoints store_last_checkpoint_unix \
        coalesced_set_ops coalesced_get_ops store_batch_write_ops store_multiget_ops
    # Values may legitimately be zero on a short in-memory run; only
    # absence is a bug.
    counters "$OUT" present store_checkpoint_barrier_ns store_checkpoint_files_linked \
        store_checkpoint_files_copied store_checkpoint_files_reused store_checkpoint_bytes_copied \
        store_compactions store_concurrent_compactions_hw \
        store_compaction_stall_us store_compaction_slowdown_us store_compaction_slowdowns

    # A skewed GET run against the cache-enabled server must serve hits.
    OUT=$($nb -addr "$ADDR" -benchmarks get -num 8000 -dist zipfian -verify)
    echo "$OUT"
    echo "$OUT" | grep -q "silent mismatches" || smoke_fail "zipfian netbench -verify did not report its corruption tally"
    counters "$OUT" positive cache_hits
    counters "$OUT" present cache_misses cache_fills cache_invalidations cache_updates cache_bytes cache_entries
    echo "serve-smoke: pipelines batched, BGSAVE committed, hot cache hit: $(echo "$OUT" | grep -o 'cache_hits=[0-9]*')"

    OUT=$(resp_cmd "$ADDR" SCRUB)
    for N in scrub_files_scanned scrub_bytes_scanned "scrub_corruptions_found:0"; do
        echo "$OUT" | grep -q "$N" || smoke_fail "SCRUB reply lacks $N: $OUT"
    done
    # This server was started without -elastic: RESHARD must refuse loudly.
    resp_cmd "$ADDR" RESHARD 16 | grep -q unsupported || smoke_fail "RESHARD on the non-elastic server was not refused"

    # --- replication: full sync, replica reads, partial resync ---
    boot primary "$PADDR" -dir "$BIN/primary" -workers 4 -wal_sync never -repl_backlog -1
    PRI_PID=$PID
    $nb -addr "$PADDR" -benchmarks set -num 4000 >/dev/null
    resp_cmd "$PADDR" SET smoke:epoch one >/dev/null
    boot replica "$RADDR" -dir "$BIN/replica" -workers 4 -wal_sync never -replicaof "$PADDR"
    REP_PID=$PID
    await_sync "$RADDR"
    [ "$(info_field "$RADDR" role)" = replica ] || smoke_fail "replica INFO does not report role:replica"
    [ "$(info_field "$RADDR" replica_full_syncs)" -ge 1 ] || smoke_fail "replica bootstrap was not a full sync"
    [ "$(resp_cmd "$RADDR" GET smoke:epoch | tr -d '\r\n')" = one ] || smoke_fail "replica does not serve the replicated key"
    # The replica must serve the keys netbench wrote to the primary, and
    # every hit must match the pattern.
    OUT=$($nb -addr "$RADDR" -benchmarks get -num 4000 -verify)
    echo "$OUT" | grep -q "hits=[1-9]" || smoke_fail "replica served no netbench key"
    # Restart the replica; write to the primary while it is down (well
    # inside the backlog window) so the reconnect must partial-resync.
    drain replica "$REP_PID"
    resp_cmd "$PADDR" SET smoke:epoch two >/dev/null
    $nb -addr "$PADDR" -benchmarks set -conns 2 -pipeline 8 -num 500 >/dev/null
    boot replica "$RADDR" -dir "$BIN/replica" -workers 4 -wal_sync never -replicaof "$PADDR"
    REP_PID=$PID
    await_sync "$RADDR"
    [ "$(info_field "$RADDR" replica_partial_syncs)" -ge 1 ] && [ "$(info_field "$RADDR" replica_full_syncs)" -eq 0 ] ||
        smoke_fail "replica restart was not a partial resync"
    [ "$(resp_cmd "$RADDR" GET smoke:epoch | tr -d '\r\n')" = two ] || smoke_fail "replica missing the post-restart write"
    echo "serve-smoke: replica full sync, verified reads and partial resync OK"
    drain replica "$REP_PID"
    drain primary "$PRI_PID"

    # --- online reshard: live RESHARD on an elastic server ---
    boot elastic "$EADDR" -dir "$BIN/elastic" -workers 3 -elastic -wal_sync never
    ELA_PID=$PID
    $nb -addr "$EADDR" -benchmarks set -num 4000 >/dev/null
    resp_cmd "$EADDR" SET smoke:reshard before >/dev/null
    [ "$(info_field "$EADDR" workers)" = 3 ] || smoke_fail "elastic server did not start at 3 workers"
    resp_cmd "$EADDR" RESHARD 4 | grep -q started || smoke_fail "RESHARD 4 was not accepted"
    for _ in $(seq 1 300); do
        STATUS=$(resp_cmd "$EADDR" RESHARD STATUS | tr -d '\r')
        echo "$STATUS" | grep -q "reshard_aborted:1" && smoke_fail "reshard aborted: $STATUS" elastic
        if echo "$STATUS" | grep -q "reshard_completed:1" &&
           echo "$STATUS" | grep -q "reshard_in_progress:0"; then break; fi
        sleep 0.1
    done
    for N in reshard_completed:1 reshard_state:done reshard_epoch:1 reshard_from:3 reshard_to:4; do
        echo "$STATUS" | grep -q "$N" || smoke_fail "RESHARD STATUS lacks $N: $STATUS"
    done
    [ "$(info_field "$EADDR" workers)" = 4 ] || smoke_fail "INFO does not report 4 workers after RESHARD"
    N=$(echo "$STATUS" | grep "^reshard_moved_keys:" | cut -d: -f2)
    [ "${N:-0}" -gt 0 ] || smoke_fail "reshard committed but moved no keys"
    [ "$(resp_cmd "$EADDR" GET smoke:reshard | tr -d '\r\n')" = before ] || smoke_fail "pre-reshard key lost across the cutover"
    # The same key sequence the pre-reshard set phase wrote must read back
    # its pattern values through the new ring: all hits, none wrong.
    OUT=$($nb -addr "$EADDR" -benchmarks get -num 4000 -verify)
    echo "$OUT" | grep -q "hits=4000" || smoke_fail "keys written before the reshard did not all read back"
    echo "serve-smoke: online reshard 3->4 OK (moved_keys=$N, verified reads)"
    drain elastic "$ELA_PID"

    drain server "$SRV_PID"
    echo "serve-smoke: OK (every server drained cleanly on SIGTERM)"
}

case "${1:-}" in
"")   echo "usage: $0 <suite>|all|list   (suites: $(suites | tr '\n' ' '))" >&2; exit 2 ;;
list) suites ;;
all)  for s in $(suites); do run_suite "$s"; done ;;
*)    run_suite "$1" ;;
esac
