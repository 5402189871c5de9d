# Restartable Atomic Sequences — reproduction of Bershad, Redell & Ellis,
# "Fast Mutual Exclusion for Uniprocessors" (ASPLOS 1992).

GO ?= go

.PHONY: all build test race cover bench tables pin examples check fuzz fmt lint vet clean tier1

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Everything CI gates on: compile, static checks, tests, race detector.
tier1: build vet test race

cover:
	$(GO) test -cover ./internal/...

# One Go benchmark per paper table plus the extension studies.
bench:
	$(GO) test -bench=. -benchmem .

# The same tables as human-readable output (see EXPERIMENTS.md).
tables:
	$(GO) run ./cmd/rasbench -iters 50000

# Rewrite every pinned BENCH_*.json from the current code (`rasbench
# -list` shows which table lands in which file); CI's pin job runs this
# and fails on any diff.
pin:
	$(GO) run ./cmd/rasbench -pin

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mechanisms
	$(GO) run ./examples/guestasm
	$(GO) run ./examples/producer_consumer
	$(GO) run ./examples/parthenon
	$(GO) run ./examples/waitfree
	$(GO) run ./examples/rseq

# Schedule-space model checking: the canned rascheck suite exhaustively
# verifies the paper's sequences (and catches the planted defects) across
# all three substrates. Counterexamples land in mcheck-out/ as replayable
# .sched files (rasvm -replay-sched, rascheck -replay).
check:
	$(GO) run ./cmd/rascheck -suite -out mcheck-out

fuzz:
	$(GO) test -fuzz=FuzzAssemble -fuzztime=30s ./internal/asm/
	$(GO) test -fuzz=FuzzAsm -fuzztime=30s ./internal/asm/
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/asm/
	$(GO) test -fuzz=FuzzStepLockstep -fuzztime=30s ./internal/vmach/
	$(GO) test -fuzz=FuzzRecognizer -fuzztime=30s ./internal/vmach/kernel/
	$(GO) test -fuzz=FuzzCheckpoint -fuzztime=30s ./internal/vmach/kernel/
	$(GO) test -fuzz=FuzzSMPCheckpoint -fuzztime=30s ./internal/vmach/smp/
	$(GO) test -fuzz=FuzzChaosPlan -fuzztime=30s ./internal/chaos/

fmt:
	gofmt -w .

# What CI's lint job runs: formatting check (fails on diff) + vet.
lint:
	@diff=$$(gofmt -l .); if [ -n "$$diff" ]; then \
		echo "files need gofmt:" >&2; echo "$$diff" >&2; exit 1; fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
