GO ?= go

.PHONY: all build test race vet fmt check alloc-budget bench bench-smoke chaos stream-chaos gw-chaos load-smoke soak fuzz-smoke benchmark-test benchmark

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: fmt vet race alloc-budget

# What an exchange may allocate: the ceiling tests (one bulk session;
# one exchange of each point_mix class, in bytes and in allocations) and
# one iteration of the point-exchange benchmark with its B/op printed.
# Not under -race, whose allocation figures are not the program's — the
# race run skips these tests, so check runs them here. CI runs this.
alloc-budget:
	$(GO) test -count=1 -run 'AllocCeiling' -v .
	$(GO) test -run NONE -bench 'PointExchange' -benchtime 1x -benchmem .

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bitrot in bench code
# without paying for a real measurement run. CI runs this.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# Fault-injection suite under the race detector: chaos byte-identity,
# breaker recovery, admission shedding, vector scans beside DML plus the
# three-seed planned-vs-walked DML differential (with its COUNT-vs-DELETE
# check of every generated WHERE) and the three-seed
# vector/row/interpreter SELECT differential, lifetime churn (100k
# registry cycles + 10k full-stack cycles racing the reaper) and the
# short soak, then 20 s each of FuzzSelectPaths and FuzzDMLPaths: new
# seeds for the SELECT and DML differentials on every run. CI runs this.
# Scale the churn with DAIS_CHURN_CYCLES.
chaos:
	$(GO) test -race -shuffle=on -count=1 -run 'TestChaos|TestAdmission' ./internal/service/
	$(GO) test -race -shuffle=on -count=1 -run 'TestChaosVector|TestChaosDML|TestChaosSelect' ./internal/sqlengine/
	$(GO) test -race -shuffle=on -count=1 -run 'TestChurn' ./internal/wsrf/ ./internal/loadgen/
	$(GO) test -run '^$$' -fuzz '^FuzzSelectPaths$$' -fuzztime 20s ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz '^FuzzDMLPaths$$' -fuzztime 20s ./internal/sqlengine/

# Streaming-pipeline chaos: chunked fetch of a spilled 100k-row
# resource through a fault-injecting transport, asserting byte-identical
# reassembly and retries visible in dais_retries_total; windows of one
# resource rendered concurrently into their replies' pooled buffers, and
# faults decided before a reply byte is written. CI runs this.
stream-chaos:
	$(GO) test -race -shuffle=on -count=1 -run 'TestStreamChaos|TestGetTuplesEdgeCasesOverHTTP|TestConcurrentGetTuplesShareNothing|TestGetTuplesFaultsBeforeTheReply' ./internal/service/

# Federation gateway chaos: kill one of three backends mid-flight
# under concurrent federated load with the race detector. Surviving
# shards must keep answering, scatters must never return partial
# rowsets, and the health board must converge. Relays cancelled
# mid-flight beside completing ones must never send or answer with
# another exchange's bytes. CI runs this.
gw-chaos:
	$(GO) test -race -shuffle=on -count=1 -run 'TestGWChaos|TestRelayCancelledMidFlight' ./internal/gateway/

# Open-loop load harness smoke: a short fixed-seed E17 sweep against
# both targets (single daisd + 3-backend daisgw) asserting every
# scenario class completes work, the churn invariants hold, and the
# report round-trips through the BENCH_E17.json schema. CI runs this.
load-smoke:
	$(GO) test -count=1 -run 'TestE17Smoke' -v ./cmd/daisbench/

# Long-form soak: 10k injected-failure exchanges with goroutine
# hygiene asserted afterwards. Not run in CI on every push.
soak:
	DAIS_SOAK=1 $(GO) test -race -count=1 -run TestChaosSoakGoroutineHygiene -v ./internal/service/

# Short fuzz pass over each parser target, the bulk path's cell kernels
# against their byte-loop and strconv models, the LIKE kernel's prefix
# words against the row matcher, the ordered index, the one
# comparison order, the exact sum against math/big, the SELECT and
# DML executors against their oracle and the gateway's spliced scatter
# merge against the decoded one; scheduled CI runs this.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseEnvelope -fuzztime $(FUZZTIME) ./internal/soap/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/xmlutil/
	$(GO) test -run '^$$' -fuzz FuzzScanText -fuzztime $(FUZZTIME) ./internal/xmlutil/
	$(GO) test -run '^$$' -fuzz FuzzAppendEscaped -fuzztime $(FUZZTIME) ./internal/xmlutil/
	$(GO) test -run '^$$' -fuzz FuzzPlainFloat -fuzztime $(FUZZTIME) ./internal/rowset/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSQLRowset -fuzztime $(FUZZTIME) ./internal/rowset/
	$(GO) test -run '^$$' -fuzz FuzzDecodeWebRowSet -fuzztime $(FUZZTIME) ./internal/rowset/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSQLRowsetInEnvelope -fuzztime $(FUZZTIME) ./internal/client/
	$(GO) test -run '^$$' -fuzz FuzzDecodeWebRowSetInEnvelope -fuzztime $(FUZZTIME) ./internal/client/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz FuzzLikeMatch -fuzztime $(FUZZTIME) ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz FuzzLikeKernel -fuzztime $(FUZZTIME) ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz FuzzAppendFloat -fuzztime $(FUZZTIME) ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz FuzzAppendInt -fuzztime $(FUZZTIME) ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz FuzzRowsetRoundTrip -fuzztime $(FUZZTIME) ./internal/rowset/
	$(GO) test -run '^$$' -fuzz FuzzBufferWindow -fuzztime $(FUZZTIME) ./internal/rowset/
	$(GO) test -run '^$$' -fuzz FuzzOrderedIndex -fuzztime $(FUZZTIME) ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz FuzzCompareOrder -fuzztime $(FUZZTIME) ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz FuzzExactSum -fuzztime $(FUZZTIME) ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz FuzzSelectPaths -fuzztime $(FUZZTIME) ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz FuzzDMLPaths -fuzztime $(FUZZTIME) ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz FuzzParsePrometheus -fuzztime $(FUZZTIME) ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz FuzzParseEPR -fuzztime $(FUZZTIME) ./internal/wsaddr/
	$(GO) test -run '^$$' -fuzz FuzzXPath -fuzztime $(FUZZTIME) ./internal/xmldb/
	$(GO) test -run '^$$' -fuzz FuzzXUpdate -fuzztime $(FUZZTIME) ./internal/xmldb/
	$(GO) test -run '^$$' -fuzz FuzzScatterSplice -fuzztime $(FUZZTIME) ./internal/gateway/

# The benchmark is its own module (benchmark/go.mod), which ./... does
# not reach: its tests — seed discipline, a smoke run of every workload,
# process hygiene — run here. CI runs this.
benchmark-test:
	cd benchmark && $(GO) test -race ./...

# The whole benchmark as the driver runs it: all five workloads,
# spawned servers, 15 s windows. Prints every end-to-end metric.
benchmark:
	bash benchmark/run.sh --seed 7
