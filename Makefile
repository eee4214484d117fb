# Priority Random Linear Codes — build and reproduction targets.

GO ?= go

.PHONY: all build vet test race bench benchmark heal-smoke check fuzz-smoke loadtest loadtest-smoke daemon-demo repair-demo migrate-demo figures examples unreached clean

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

# One testing.B per paper table/figure plus the extension benches. One
# family alone is `go test -run='^$' -bench REGEX ./PKG`; each bench
# file's header names its regex and the X-against-XRef pairs it forms.
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
	$(GO) test -run='^$$' -fuzz FuzzAddMulSlicesEquiv -fuzztime $(FUZZTIME) ./internal/gf256
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
# decode-free recombination (one `prlcd heal` round: the file is short
# on its owners, not displaced), then prove the regenerated blocks carry
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
	/tmp/prlcd heal -addrs 127.0.0.1:7181,127.0.0.1:7182,127.0.0.1:7183 \
	    -scheme plc -sizes 10,90 -dist 0.2,0.8 -total 160
	/tmp/prlcd store shutdown -addr 127.0.0.1:7181
	/tmp/prlcd store get -addrs 127.0.0.1:7182,127.0.0.1:7183 \
	    -scheme plc -sizes 10,90 -size 16384 -out /tmp/repair_demo_out.bin
	cmp /tmp/repair_demo.bin /tmp/repair_demo_out.bin && echo "repair-demo: file survived churn bit-exact"
	@for f in /tmp/prlcd_r1.pid /tmp/prlcd_r2.pid /tmp/prlcd_r3.pid; do \
		kill `cat $$f` 2>/dev/null || true; rm -f $$f; done
	@rm -f /tmp/repair_demo.bin /tmp/repair_demo_out.bin

# The fleet-growth story end to end: a file is provisioned across a
# two-daemon ring, two fresh daemons widen the ring, and `prlcd heal`
# re-homes every displaced object (regenerating blocks on the new
# owners, wiping the stale holders). A second round proves the
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
	/tmp/prlcd heal -addrs 127.0.0.1:7191,127.0.0.1:7192,127.0.0.1:7193,127.0.0.1:7194 \
	    -replicas 2 -scheme plc -sizes 10,90 -dist 0.2,0.8 -total 160
	/tmp/prlcd heal -addrs 127.0.0.1:7191,127.0.0.1:7192,127.0.0.1:7193,127.0.0.1:7194 \
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

# Run every example program once and diff its stdout against
# examples/testdata/<name>.out; a failed run or any changed byte fails
# the target. Every example is seeded. tcpstore's daemons listen on
# ephemeral ports, so its "storage daemon i at 127.0.0.1:<port>" lines
# are compared with the port masked as PORT.
examples:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; set -e; \
	for e in quickstart sensornet p2pmonitor feasibility churntimeline multires tcpstore; do \
		$(GO) run ./examples/$$e >"$$out"; \
		sed -E 's/^(storage daemon [0-9]+ at 127\.0\.0\.1):[0-9]+$$/\1:PORT/' "$$out" \
		| diff -u examples/testdata/$$e.out -; \
		echo "examples: $$e matches examples/testdata/$$e.out"; \
	done

# The module's functions that no program links (cmd/*, examples/*,
# benchmark, built without inlining): a report for ROADMAP item 8's
# sweep, not a gate.
unreached:
	bash scripts/unreached.sh

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
