GO ?= go
FUZZTIME ?= 10s

.PHONY: check build vet lint fmtcheck test race bench benchsmoke benchcheck fuzzsmoke loadsmoke replicasmoke replicabench auditsmoke auditbench settlesmoke

check: build vet lint fmtcheck test race benchsmoke benchcheck fuzzsmoke loadsmoke replicasmoke auditsmoke settlesmoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint builds and runs itreevet, the project-specific static-analysis
# suite (run `bin/itreevet -list` for the analyzer roster). Findings
# fail the build unless waived: either an inline
#   //itreevet:ignore <analyzer> <reason>
# annotation, or an entry in the committed vet.baseline.json (for
# findings that are accepted as-is, like the best-effort directory
# fsync). Every waiver is counted in the output; a stale baseline
# entry is reported so the file can be regenerated with
# `bin/itreevet -write-baseline vet.baseline.json` and the shrink
# reviewed.
#
# bin/itreevet is rebuilt unconditionally: `go build` is cached, so
# this costs ~nothing when sources are unchanged, and a $(shell find)
# prerequisite list would go stale on file deletions.
lint: bin/itreevet
	bin/itreevet -baseline vet.baseline.json

.PHONY: bin/itreevet
bin/itreevet:
	$(GO) build -o bin/itreevet ./cmd/itreevet

# fmtcheck fails if any tracked Go file is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# benchsmoke compiles and runs every benchmark in the module for one
# iteration, so benchmarks (store scaling, mechanism throughput) cannot
# silently rot.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# benchcheck vets and tests the itreebench module. It is its own Go
# module, so `go build/vet/test ./...` at the root skip it; without this
# target a change to an API it imports could break the benchmark while
# every other check stays green.
benchcheck:
	$(GO) -C itreebench vet ./...
	$(GO) -C itreebench test ./...

# fuzzsmoke runs each native fuzz target for FUZZTIME: the journal
# record decoder and the snapshot codec must reject arbitrary
# corruption cleanly and round-trip accepted input byte-identically,
# applying and undoing any event batch must restore the journal state
# bit for bit, and the served rewards must equal full evaluation bit
# for bit under arbitrary op streams, journal failures and recovery. Corpus finds are
# kept under testdata/fuzz/ by go test; commit any that reproduce bugs.
fuzzsmoke:
	$(GO) test -run=^$$ -fuzz=FuzzJournalRecordDecode -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run=^$$ -fuzz=FuzzEventConstructive -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run=^$$ -fuzz=FuzzSettleRecordDecode -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run=^$$ -fuzz=FuzzClaimRecordDecode -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run=^$$ -fuzz=FuzzApplyUndo -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run=^$$ -fuzz=FuzzSnapshotRoundTrip -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run=^$$ -fuzz=FuzzServedRewardsMatchEvaluation -fuzztime=$(FUZZTIME) ./internal/server/

# loadsmoke boots a real itreed on a temp data dir, runs a short
# itreeload burst through group commit, and verifies zero failed
# requests, a drained write queue with no drain goroutine left, and a
# clean graceful shutdown.
loadsmoke:
	GO=$(GO) sh scripts/loadsmoke.sh

# replicasmoke boots a race-built primary plus a follower replicating
# from it, pushes a write burst, and verifies convergence to
# byte-identical reads, the X-Itree-Staleness header, the 307 write
# redirect, replica lag metrics, and clean shutdown of both daemons.
replicasmoke:
	GO=$(GO) RACE=1 sh scripts/replicasmoke.sh

# auditsmoke boots a race-built itreed with the audit service on,
# runs an adversarial itreeload mix (injected Sybil arrangements with
# ground truth) plus an honest-only mix, and verifies that every
# planted arrangement is matched, zero quarantined honest participants,
# a skipped scan once the honest campaign is idle, and byte-identical
# quarantine state across kill -9 + restart.
auditsmoke:
	GO=$(GO) RACE=1 sh scripts/auditsmoke.sh

# settlesmoke boots a race-built itreed with epoch settlement on, runs
# an itreeload settlement storm (settles racing contributes, every
# settled share double-claimed), then checks a deterministic
# settle/claim/duplicate-claim sequence, the R(epoch) <= pool(epoch)
# ledger invariant, and byte-identical epoch tables plus refused
# duplicate claims across kill -9 + restart.
settlesmoke:
	GO=$(GO) RACE=1 sh scripts/settlesmoke.sh

# auditbench measures contribute throughput with the audit service off
# vs scanning every 250ms, writes the next free BENCH_<n>.json point,
# and fails if the auditor costs more than 5% (see
# scripts/auditbench.sh).
auditbench:
	GO=$(GO) sh scripts/auditbench.sh

# replicabench measures read throughput under write load on a single
# node vs fanned out across two followers, and writes the next free
# BENCH_<n>.json point (see scripts/replicabench.sh).
replicabench:
	GO=$(GO) sh scripts/replicabench.sh
