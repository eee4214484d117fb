# Priority Random Linear Codes — build and reproduction targets.

GO ?= go

.PHONY: all build vet test race bench benchmark heal-smoke bench-kernels bench-decode bench-repair bench-metrics bench-sparse bench-disk check fuzz-smoke loadtest loadtest-smoke daemon-demo repair-demo migrate-demo figures examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full suite under the race detector (the store, repair and mover loops
# and the parallel experiment harness are the interesting targets).
race:
	$(GO) test -race ./...

# One testing.B per paper table/figure plus the extension benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# The repository's benchmark (BENCHMARK.json, benchmark/README.md): four
# workloads against in-process fleets, end-to-end and per-layer metrics on
# stdout as JSON. ARGS passes flags through, e.g.
#   make benchmark ARGS="-workload mixed-steady -seed 7 -seconds 25 -trace 0"
#   make benchmark ARGS="-repeat 5 -out /tmp/a.json"
benchmark:
	bash benchmark/run.sh $(ARGS)

# Three seconds of the one workload where repair, the mover and
# Recombine run together end to end (publish, lose nodes, decode from
# survivors, heal, grow, migrate): the run must be correct with no
# failed operation. CI's check job runs the same line.
heal-smoke:
	bash benchmark/run.sh -workload heal-after-loss -seconds 3 -trace 0 | tail -1 \
	| python3 -c "import json, sys; r = json.load(sys.stdin); assert r['correct'] is True and r['failed'] == 0, r"

# Kernel-layer perf baseline: GF(2^8) vector kernels (fast vs scalar
# reference, 4 B to 64 KiB plus the 288-source 4 KiB fold of the
# publish-recover workload) and the encode/decode pipeline at
# N=64/256/1024, captured as BENCH_kernels.json (which records the kernel
# tier and CPU count of the box) so later perf PRs have numbers to diff
# against. benchjson is built first: `go run` would compile and link it
# on the same two CPUs while the first (nanosecond-scale) benchmarks run.
bench-kernels:
	@mkdir -p .bench_build
	$(GO) build -o .bench_build/benchjson ./cmd/benchjson
	{ $(GO) test -run='^$$' -bench 'Benchmark(Add)?MulSlice' -benchtime=500ms ./internal/gf256 && \
	  $(GO) test -run='^$$' -bench 'Benchmark(Encode|Decode)N' -benchtime=5x ./internal/core ; } \
	| tee /dev/stderr | .bench_build/benchjson -out BENCH_kernels.json \
	    -note "Ref benchmarks are the pre-kernel scalar baseline; WorkersK pair against the 1-worker pipeline and are bounded by num_cpu"

# Decode-path perf baseline: structure-aware progressive decoding (level
# truncation + per-level SLC sub-decoders) against the dense structure-blind
# elimination (Ref), the payload-striping pipeline, and the publish-recover
# workload's decode (PLCN512x4KiB: 512 × 4 KiB, 8 levels, every source
# read), captured as BENCH_decode.json.
bench-decode:
	$(GO) test -run='^$$' -bench 'BenchmarkDecode(PLC|SLC|Striped)N' -benchtime=10x ./internal/core \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_decode.json -by "make bench-decode" \
	    -note "DecodeXXXNk vs DecodeXXXNkRef is structured (level-truncated, per-level) vs dense RefDecoder decode of the same block stream; 64 B payloads keep elimination dominant except PLCN512x4KiB (the publish-recover decode: 4 KiB payloads, 84 blocks per level, every source read); StripedNk WorkersK pair against the 1-worker pipeline and are bounded by num_cpu"

# Repair-layer economics: regenerating one block by recombining an
# 8-survivor sample vs the decode-then-re-encode baseline (the whole
# code), captured as BENCH_repair.json. MB/s numbers are bytes *moved*
# per regenerated block, so the Ref line's denominator is every block.
bench-repair:
	$(GO) test -run='^$$' -bench 'Benchmark(Regenerate|AuditRank)' -benchtime=100x ./internal/repair \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_repair.json -by "make bench-repair" \
	    -note "Regenerate recombines one fresh block from an 8-survivor sample; RegenerateRef decodes all 96 blocks and re-encodes; B/op-style MB/s are bytes moved per regenerated block"

# Observability overhead: each Metered benchmark runs the hot path with a
# live registry attached, its Ref twin with metrics detached, so the paired
# "speedup" in BENCH_metrics.json is the inverse of the instrumentation
# overhead (0.95 = metrics cost 5%; the budget is ≤5% on every pair).
bench-metrics:
	{ $(GO) test -run='^$$' -bench 'BenchmarkMetered(Encode|Decode)' -benchtime=500ms ./internal/core && \
	  $(GO) test -run='^$$' -bench 'BenchmarkMeteredRoundtrip' -benchtime=500ms ./internal/store ; } \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_metrics.json -by "make bench-metrics" \
	    -note "MeteredX runs with a live metrics registry, MeteredXRef with metrics detached; speedup = ref/metered is the inverse instrumentation overhead, budget >= 0.95 (5%) per pair"

# Sparse-coding perf baseline: sparse (O(ln N) nonzeros) and
# expander-chunked decode against the structure-blind dense elimination
# (Ref) of the identical block stream, coefficient wire bytes per block
# (v3 sparse frames vs the dense v1 encoding), and the three codings
# core.AutoCoding picks between on one PLC file (DecodeFile: encode and
# decode time and coded blocks consumed), captured as BENCH_sparse.json.
bench-sparse:
	$(GO) test -run='^$$' -bench 'BenchmarkDecode(Sparse|Chunked)N|BenchmarkDecodeFile|BenchmarkWire(Sparse|Chunked)N' -benchtime=5x ./internal/core \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_sparse.json -by "make bench-sparse" \
	    -note "DecodeXN vs DecodeXNRef is the sparse-aware elimination vs dense RefDecoder over the same densified stream; 64 B payloads keep elimination dominant; wire-B/block metrics are coefficient wire bytes per block, WireSparseN1024Ref being the dense v1 frames of the same vectors; ChunkedN4096 has no Ref (dense baseline impractical at that N); DecodeFile{Dense,Sparse,Chunked}Nk encode a PLC 0.1/0.2/0.7 file of N x 1 KiB into 3N blocks and decode until complete (enc-ms, dec-ms, blocks consumed)"

# Disk-engine perf baseline: group-commit puts against the fsync-per-put
# durability baseline (Ref) under the identical 32-connection load, the
# beyond-RAM capacity run (10x an in-memory cap per iteration, heap
# growth reported), and the frame buffer-reuse pairs (-benchmem so the
# B/op delta of the pool and read-scratch paths lands in the snapshot),
# captured as BENCH_disk.json.
bench-disk:
	{ $(GO) test -run='^$$' -bench 'BenchmarkDiskPutGroupCommit' -benchtime=2000x ./internal/diskstore && \
	  $(GO) test -run='^$$' -bench 'BenchmarkDiskPutBeyondRAM' -benchtime=1x ./internal/diskstore && \
	  $(GO) test -run='^$$' -bench 'BenchmarkFrame(Write|Read)' -benchtime=1000x -benchmem ./internal/store ; } \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_disk.json -by "make bench-disk" \
	    -note "DiskPutGroupCommit vs Ref is one fsync per coalesced batch vs one per put, same 32 concurrent putters; DiskPutBeyondRAM ingests 10x a 1024-block RAM cap per iteration (capacity-x = stored blocks / cap, heap-MB = heap growth vs stored-MB on disk); FrameWrite/Read vs Ref are the pooled build buffer and caller-owned read scratch vs fresh allocations per frame"

# Fast correctness gate: formatting (any file gofmt -l lists fails it),
# vet everything, race-test the packages with concurrent hot paths (the word-parallel kernels, the row arenas, the
# parallel encoder, the networked store, the placement ring and its
# failure detector, the disk engine's group-commit writer, the repair
# daemon, the ring rebalancer, the shared metrics registry they all
# write to, the load-and-chaos harness that exercises all of them at
# once, and the collector the Monte-Carlo trials drive on GOMAXPROCS
# goroutines), then build and test the coding stack with -tags purego: the
# pure-Go kernel path every non-amd64 platform runs, which an amd64 CI
# box otherwise never compiles.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./internal/gf256 ./internal/gfmat ./internal/core ./internal/chord ./internal/gossip ./internal/store ./internal/diskstore ./internal/repair ./internal/mover ./internal/metrics ./internal/loadgen ./internal/collect ./internal/exper
	$(GO) test -tags purego ./internal/gf256 ./internal/gfmat ./internal/core

# Every builtin scenario against real prlcd daemons: steady-state,
# flash-crowd, churn-storm, repair-under-load and grow-fleet, each an
# open-loop run with live chaos (kill -9 + re-exec, partitions,
# corruption, a ring join). The harness is a pass/fail chaos gate, not a
# latency record: any SLO violation (a level-0 decode of some object not
# bit-exact, client errors where the scenario promises zero, an
# inconsistent metrics cross-check) fails the target.
loadtest: build
	@$(GO) build -o /tmp/prlcd ./cmd/prlcd
	$(GO) run ./cmd/prlcload run -nodes 3 -prlcd /tmp/prlcd

# CI-sized slice: steady-state, churn-storm and grow-fleet at 5s each
# against 4 real daemons. Churn-storm and grow-fleet both promise zero
# client-visible errors, and every scenario gates on a bit-exact
# level-0 decode of every object, so this smoke run proves the fleet
# survives kill/restart, partition/heal and a mid-run ring join with
# live migration under load.
loadtest-smoke: build
	@$(GO) build -o /tmp/prlcd ./cmd/prlcd
	$(GO) run ./cmd/prlcload run -scenario steady-state,churn-storm,grow-fleet -duration 5s \
	    -nodes 4 -prlcd /tmp/prlcd

# Short fuzz pass over every fuzz target: the block-file parser, the wire
# format, the store's frame decoders, the decoder equivalence oracle and
# the GF(2^8) kernels. ~20s per target; CI runs this on every push.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz FuzzReadBlock -fuzztime $(FUZZTIME) ./cmd/prlcfile
	$(GO) test -run='^$$' -fuzz FuzzUnmarshalBinary -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz FuzzDecoderEquivBatch -fuzztime $(FUZZTIME) ./internal/gfmat
	$(GO) test -run='^$$' -fuzz FuzzAddMulSliceEquiv -fuzztime $(FUZZTIME) ./internal/gf256
	$(GO) test -run='^$$' -fuzz FuzzRecombineEquiv -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz FuzzSparseDenseEquiv -fuzztime $(FUZZTIME) ./internal/gfmat
	$(GO) test -run='^$$' -fuzz FuzzChunkedDecodeEquiv -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz FuzzParseObjectID -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz FuzzObjectFrame -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz FuzzStoreFrames -fuzztime $(FUZZTIME) ./internal/store

# Three prlcd daemons on loopback ports, the tcpstore demo against them
# (it shuts daemon 1 down over the wire), then kill the rest.
daemon-demo: build
	@$(GO) build -o /tmp/prlcd ./cmd/prlcd
	@/tmp/prlcd serve -addr 127.0.0.1:7071 & echo $$! > /tmp/prlcd1.pid
	@/tmp/prlcd serve -addr 127.0.0.1:7072 & echo $$! > /tmp/prlcd2.pid
	@/tmp/prlcd serve -addr 127.0.0.1:7073 & echo $$! > /tmp/prlcd3.pid
	@sleep 1
	$(GO) run ./examples/tcpstore -addrs 127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073
	@for f in /tmp/prlcd1.pid /tmp/prlcd2.pid /tmp/prlcd3.pid; do \
		kill `cat $$f` 2>/dev/null || true; rm -f $$f; done

# The repair story end to end: provision a file across three daemons
# (bulk level weighted so it has decoding headroom), kill one and
# replace it with a blank node (churn), regenerate its redundancy by
# decode-free recombination, then prove the regenerated blocks carry
# real information by killing an *original* replica and recovering the
# full file from the repaired node plus the last survivor — a loss
# pattern the fleet does NOT survive without the repair step.
repair-demo: build
	@$(GO) build -o /tmp/prlcd ./cmd/prlcd
	@head -c 16384 /dev/urandom > /tmp/repair_demo.bin
	@/tmp/prlcd serve -addr 127.0.0.1:7181 & echo $$! > /tmp/prlcd_r1.pid
	@/tmp/prlcd serve -addr 127.0.0.1:7182 & echo $$! > /tmp/prlcd_r2.pid
	@/tmp/prlcd serve -addr 127.0.0.1:7183 & echo $$! > /tmp/prlcd_r3.pid
	@sleep 1
	/tmp/prlcd store put -addrs 127.0.0.1:7181,127.0.0.1:7182,127.0.0.1:7183 \
	    -in /tmp/repair_demo.bin -blocks 100 -coded 160 -levels 0.1,0.9 \
	    -dist 0.2,0.8 -scheme plc
	/tmp/prlcd store shutdown -addr 127.0.0.1:7182
	@sleep 1
	@/tmp/prlcd serve -addr 127.0.0.1:7182 & echo $$! > /tmp/prlcd_r2.pid
	@sleep 1
	/tmp/prlcd repair -addrs 127.0.0.1:7181,127.0.0.1:7182,127.0.0.1:7183 \
	    -scheme plc -sizes 10,90 -dist 0.2,0.8 -total 160 -budget 128
	/tmp/prlcd store shutdown -addr 127.0.0.1:7181
	/tmp/prlcd store get -addrs 127.0.0.1:7182,127.0.0.1:7183 \
	    -scheme plc -sizes 10,90 -size 16384 -out /tmp/repair_demo_out.bin
	cmp /tmp/repair_demo.bin /tmp/repair_demo_out.bin && echo "repair-demo: file survived churn bit-exact"
	@for f in /tmp/prlcd_r1.pid /tmp/prlcd_r2.pid /tmp/prlcd_r3.pid; do \
		kill `cat $$f` 2>/dev/null || true; rm -f $$f; done
	@rm -f /tmp/repair_demo.bin /tmp/repair_demo_out.bin

# The fleet-growth story end to end: a file is provisioned across a
# two-daemon ring, two fresh daemons widen the ring, and `prlcd
# migrate` re-homes every displaced object (regenerating blocks on the
# new owners, wiping the stale holders). A second round proves the
# placement is settled, then an *original* daemon goes away and the
# file still recovers bit-exactly from the grown fleet — the migrated
# copies carry the data now, not the wiped originals.
migrate-demo: build
	@$(GO) build -o /tmp/prlcd ./cmd/prlcd
	@head -c 16384 /dev/urandom > /tmp/migrate_demo.bin
	@/tmp/prlcd serve -addr 127.0.0.1:7191 & echo $$! > /tmp/prlcd_m1.pid
	@/tmp/prlcd serve -addr 127.0.0.1:7192 & echo $$! > /tmp/prlcd_m2.pid
	@/tmp/prlcd serve -addr 127.0.0.1:7193 & echo $$! > /tmp/prlcd_m3.pid
	@/tmp/prlcd serve -addr 127.0.0.1:7194 & echo $$! > /tmp/prlcd_m4.pid
	@sleep 1
	/tmp/prlcd store put -addrs 127.0.0.1:7191,127.0.0.1:7192 \
	    -in /tmp/migrate_demo.bin -object demo-grow -blocks 100 -coded 160 \
	    -levels 0.1,0.9 -dist 0.2,0.8 -scheme plc -replicas 2
	/tmp/prlcd migrate -addrs 127.0.0.1:7191,127.0.0.1:7192,127.0.0.1:7193,127.0.0.1:7194 \
	    -replicas 2 -scheme plc -sizes 10,90 -dist 0.2,0.8 -total 160
	/tmp/prlcd migrate -addrs 127.0.0.1:7191,127.0.0.1:7192,127.0.0.1:7193,127.0.0.1:7194 \
	    -replicas 2 -scheme plc -sizes 10,90 -dist 0.2,0.8 -total 160
	/tmp/prlcd store shutdown -addr 127.0.0.1:7191
	/tmp/prlcd store get -addrs 127.0.0.1:7191,127.0.0.1:7192,127.0.0.1:7193,127.0.0.1:7194 \
	    -object demo-grow -replicas 2 -scheme plc -sizes 10,90 -size 16384 \
	    -out /tmp/migrate_demo_out.bin
	cmp /tmp/migrate_demo.bin /tmp/migrate_demo_out.bin && echo "migrate-demo: file survived fleet growth bit-exact"
	@for f in /tmp/prlcd_m1.pid /tmp/prlcd_m2.pid /tmp/prlcd_m3.pid /tmp/prlcd_m4.pid; do \
		kill `cat $$f` 2>/dev/null || true; rm -f $$f; done
	@rm -f /tmp/migrate_demo.bin /tmp/migrate_demo_out.bin

# Regenerate every figure and table of the paper at full scale
# (N = 1000, 100 trials; several minutes on one core). CSVs land in
# results/.
figures:
	$(GO) run ./cmd/prlcbench -all -csv results

# Run every example program once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sensornet
	$(GO) run ./examples/p2pmonitor
	$(GO) run ./examples/feasibility
	$(GO) run ./examples/churntimeline
	$(GO) run ./examples/multires
	$(GO) run ./examples/tcpstore

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
