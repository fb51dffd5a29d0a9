# Tier-1 verification in one command: `make ci` (or ./ci.sh).
GO ?= go

.PHONY: build vet test bench ci clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# One pass over every benchmark (the full suite regenerates the paper's
# tables and figures; -benchtime=1x keeps it bounded). Results stream to
# the terminal and are folded into BENCH.json under the "after" label —
# with -benchmem, so the ledger also carries the B/op and allocs/op the
# ci.sh bench gate compares against (pipe the output of a pre-change run
# through `go run ./cmd/benchjson -o BENCH.json -label before` to build
# the comparison side).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... | $(GO) run ./cmd/benchjson -o BENCH.json -label after

ci:
	./ci.sh

clean:
	$(GO) clean ./...
