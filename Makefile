GO ?= go
FUZZTIME ?= 5s
BIN ?= bin

.PHONY: check build vet lint pragmas test race racestress fuzz surveybench bench conformance

# Tier-1 verification: build + vet + determinism lint + full tests +
# race detector over the parallel sharded engine + the concurrency
# cross-validation harness + a short fuzz smoke over the wire parsers +
# the benchmark module's vet and tests.
check: build vet lint test race racestress fuzz surveybench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism lint: the doorsvet analyzer suite (internal/lint) run as
# a vet tool, so findings come through the same unit-at-a-time cached
# pipeline as go vet. The -vettool path must be absolute — vet runs
# the tool with the package directory as its working directory.
lint: $(BIN)/doorsvet
	$(GO) vet -vettool=$(abspath $(BIN)/doorsvet) ./...

# Suppression audit: list every //lint:allow pragma (file:line, check,
# reason); fails when a pragma lacks its reason or names an unknown
# check.
pragmas: $(BIN)/doorsvet
	$(BIN)/doorsvet -pragmas .

# Rebuild only when the suite's sources change, so a cached binary
# (CI restores bin/doorsvet keyed on these files) is reused as-is.
DOORSVET_SRCS := $(shell find cmd/doorsvet internal/lint -name '*.go' -not -path '*/testdata/*')

$(BIN)/doorsvet: $(DOORSVET_SRCS)
	$(GO) build -o $@ ./cmd/doorsvet

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Concurrency cross-validation: two campaigns race through a shared
# campaign.Runner at MaxParallel 4, once per plan mode (8 shards: count
# pass; 4 shards: in-pool planning), under the race detector, and
# the concurrency-bearing packages must come back clean from lockguard
# and golifetime — the dynamic and static halves of the same claim.
racestress:
	$(GO) test -race -run 'TestRaceStress' -v .

# Short native-fuzz smoke over the wire parsers, the fold engine's
# run-file reader and detrand's lazily seeded source against math/rand
# (one -fuzz target per invocation is a go tool limitation). Raise
# FUZZTIME for a real hunt.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzUnpack -fuzztime=$(FUZZTIME) ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/packet
	$(GO) test -run='^$$' -fuzz=FuzzRunFile -fuzztime=$(FUZZTIME) ./internal/scanner
	$(GO) test -run='^$$' -fuzz=FuzzSource -fuzztime=$(FUZZTIME) ./internal/detrand

# The survey benchmark is a separate module (surveybench/go.mod), so
# `go build ./...` here never compiles it; vet and test it explicitly so
# an internal API change cannot break the benchmark unnoticed.
surveybench:
	$(GO) -C surveybench vet ./...
	$(GO) -C surveybench test ./...

# Resolver conformance: the differential suite proving the layered
# resolver (a fixed layer set derived from its Config) event-for-event
# identical to the frozen pre-refactor monolith (internal/resolver/monolith) across the query × config ×
# fault matrix, plus the forwarder-chain loop-detection property tests,
# all under the race detector.
conformance:
	$(GO) test -race -run 'TestConformance|TestLoopDetection|TestSelfForwarding|TestTwoNodeForwardCycle|TestForwardChain|TestCrashWith' -v ./internal/resolver

# Headline performance numbers (event-queue allocations, survey
# wall-clock single-shard vs sharded), recorded as BENCH_1.json.
bench:
	./scripts/bench.sh
