GO ?= go

# Pinned staticcheck release; the staticcheck target resolves it from
# the local module cache (or an installed binary) and skips cleanly on
# offline machines with a cold cache.
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build vet fmt-check inline-check alloc-check surface-check test race race-fast fuzz-smoke chaos-smoke trace-smoke fleet-smoke link-smoke governor-smoke examples-smoke soak-reorder staticcheck check bench-spine clean

all: check

# Every target that compiles or runs code goes through vet first — a
# vet finding should stop the build the same way a compile error does.
build: vet
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails if gofmt would change any Go file outside bench/ (the
# benchmark module keeps its own layout).
fmt-check:
	@out=$$(gofmt -l $$(git ls-files -co --exclude-standard '*.go' | grep -v '^bench/')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test: vet
	$(GO) test ./...

# race-fast covers the packages with genuine concurrency (the obs
# registry under concurrent observe/serve, the UDP transport and the
# planck-collector command on it, the vantagelink wire endpoints, and
# with ./internal/agg/ the link's receiver-stall test and the
# link-level in-order oracle) plus the hot-path packages and their
# serial-equivalence oracles. The lab package's fleet-over-transport
# suites push it past go test's default 10-minute ceiling on small
# machines, hence the explicit timeout.
race-fast: vet
	$(GO) test -race -timeout 25m ./internal/obs/ ./internal/core/ ./internal/sim/ ./internal/packet/ ./internal/lab/ ./internal/routing/ ./internal/governor/ ./internal/agg/ ./internal/vantagelink/ ./cmd/planck-collector/ .

# The experiments suite runs ~5.5 min uninstrumented (2 vCPUs); give the race
# build room beyond go test's 10-minute default.
race: vet
	$(GO) build ./...
	$(GO) test -race -count=1 -timeout 60m ./...

# fuzz-smoke gives each native fuzz target a short budget — enough to
# replay the corpus and shake the mutator — without tying up CI.
fuzz-smoke: vet
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 10s ./internal/packet/
	$(GO) test -run xxx -fuzz FuzzIngest -fuzztime 10s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzLinkLoad -fuzztime 10s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzFlowTable -fuzztime 10s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzMouseEquivalence -fuzztime 10s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzParseSpec -fuzztime 10s ./internal/faults/
	$(GO) test -run xxx -fuzz FuzzTreeOfMAC -fuzztime 10s ./internal/topo/
	$(GO) test -run xxx -fuzz FuzzLabelPort -fuzztime 10s ./internal/routing/
	$(GO) test -run xxx -fuzz FuzzPlaneFold -fuzztime 10s ./internal/agg/
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/vantagelink/

# chaos-smoke runs the fault-injection suite and the supervised
# control-loop chaos scenario (loss blackout + crash + partition)
# under the race detector, plus a short fuzz of the fault-spec parser.
chaos-smoke: vet
	$(GO) test -race ./internal/faults/ ./internal/controller/
	$(GO) test -race -run 'TestChaos|TestHeartbeat' -timeout 15m ./internal/lab/ ./internal/core/
	$(GO) test -run xxx -fuzz FuzzParseSpec -fuzztime 5s ./internal/faults/

# trace-smoke runs the TE workload with control-loop tracing on and
# fails unless at least one trace converged — a converged span has every
# stage populated (detection, queue, delivery, decision, actuation,
# convergence) and its stage durations sum to its wall time.
trace-smoke: vet
	$(GO) run ./cmd/planck-sim -size 20MiB -seed 1 -trace-min 1 > /dev/null

# fleet-smoke runs the k=8 fat tree (128 hosts, 80 switches) as a
# collector fleet behind the federated aggregation plane — vantage
# reports crossing the vantagelink wire protocol over channels dropping
# 5% of frames — with PlanckTE consuming the plane's merged view. It
# fails unless every flow completes, every pod closes at least one full
# detection→convergence control loop, every sender clock-syncs, and no
# two emitted events violate a link's cooldown (duplicate suppression
# holds under loss and retransmit).
fleet-smoke: vet
	$(GO) run ./cmd/planck-scale -run -k 8 -seed 7 -transport link -link-loss 0.05 > /dev/null

# link-smoke runs a 4-vantage fleet over real UDP loopback sockets —
# one sender goroutine per vantage with a skewed wall clock and 5%
# injected loss — and fails unless every record is delivered exactly
# once, every sender clock-syncs, event cooldown spacing holds, and
# events leave the plane as soon as the receiver releases them: the
# printed median merge hold (report delivered -> event emitted) must be
# under 500 µs.
link-smoke: vet
	$(GO) run ./cmd/planck-scale -run -k 4 -seed 7 -transport udp -link-loss 0.05 > /dev/null

# governor-smoke runs the TE workload with a sampling-rate governor on
# every monitored switch — the mirror taps oversubscribe their monitor
# ports, so each governor must detect saturation from its estimator,
# commit at least one shed/tune episode through the snapshot plane, and
# close at least one loop (estimator-confirmed recovery past the
# threshold); planck-sim exits nonzero otherwise.
governor-smoke: vet
	$(GO) run ./cmd/planck-sim -size 20MiB -seed 1 -govern-min 1 > /dev/null

# examples-smoke builds and runs each examples/ program from a scratch
# directory (vantagepoint writes vantage.pcap into its working
# directory) and fails on a nonzero exit or an empty stdout. trafficeng
# takes about 70 s, the others a few seconds each.
examples-smoke: vet
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for dir in examples/*/; do \
		ex=$$(basename "$$dir"); \
		$(GO) build -o "$$tmp/$$ex" "./$$dir" || exit 1; \
		out=$$(cd "$$tmp" && "./$$ex") || { echo "$$out"; echo "examples-smoke: $$ex exited nonzero"; exit 1; }; \
		[ -n "$$out" ] || { echo "examples-smoke: $$ex printed nothing"; exit 1; }; \
		echo "examples-smoke: $$ex ok"; \
	done

# soak-reorder replays the fleet capture through the transport with
# per-vantage clock skew of several ms either way and checks the merged
# stream stays bit-identical to the unskewed in-process oracle (plus a
# negative control with sync disabled).
soak-reorder: vet
	$(GO) test -run 'TestSoakReorderWindow|TestFleetMatchesGlobalOracleOverTransport' -count=1 ./internal/agg/

# staticcheck runs the pinned honnef.co/go/tools linter. Preference
# order: an installed binary, then `go run` against the local module
# cache. On an offline machine with neither it prints a skip notice and
# succeeds, so `make check` never fails for lack of network.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./... (installed binary)"; \
		staticcheck ./...; \
	elif [ -d "$$($(GO) env GOMODCACHE)/honnef.co" ]; then \
		echo "go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./..."; \
		GOFLAGS=-mod=mod $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck: skipped (no binary on PATH, module cache cold; pin honnef.co/go/tools@$(STATICCHECK_VERSION))"; \
	fi

# inline-check fails unless the compiler still inlines the per-sample
# flow-table steps: the recency-list move (Collector.touch), the ref
# resolver (FlowTable.record) and the link accounting
# (Collector.account). Each sits close to the inlining budget, and a
# field or branch more turns it into a call on every sample.
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/core 2>&1) || { echo "$$out"; exit 1; }; \
	for fn in '(*Collector).touch' '(*FlowTable).record' '(*Collector).account'; do \
		echo "$$out" | sed -n 's/.*: can inline //p' | grep -qxF "$$fn" || { echo "inline-check: $$fn is not inlinable"; exit 1; }; \
	done; \
	echo "inline-check: touch, record and account inline"

# alloc-check runs the zero-allocation pins by name, so that a new
# per-sample or per-event allocation fails fast and under its own name
# rather than somewhere inside the full test run. The naming rule: a
# pin's name says Alloc (DoesNotAllocate, NoAlloc, AllocatesOnly…), and
# no other test's does. Each pin counts its whole window in one run.
alloc-check: vet
	$(GO) test -count=1 -run Alloc ./internal/core ./internal/agg ./internal/routing ./internal/governor ./internal/obs/trace ./internal/vantagelink .

# surface-check runs both ratchets by name (exports_test.go): an
# exported name under internal/ that no non-test code uses, or a config
# field nothing outside its package sets, fails here under its own name
# rather than somewhere inside the full test run.
surface-check: vet
	$(GO) test -count=1 -run Ratchet .

# check is the tier-1 gate: everything must compile, vet clean, lint
# clean (where staticcheck is available), pass, and run every gated
# spine workload with its oracles.
check: vet fmt-check inline-check alloc-check surface-check build test race-fast staticcheck trace-smoke fleet-smoke link-smoke governor-smoke examples-smoke soak-reorder bench-spine

# bench-spine runs the benchmark spine (bench/README.md): its own tests
# (metric names against BENCHMARK.json, a smoke of all four workloads),
# then each gated workload once at the declared run length. Each run
# checks its outputs against the workload's oracle and exits nonzero on
# a violation; comparing the printed figures with another commit's is
# the paired-run procedure in bench/README.md, not this target's job.
bench-spine: vet
	$(GO) -C bench test ./...
	for w in steady-1k churn loop; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 30 --trace 0 || exit 1; \
	done

clean:
	$(GO) clean ./...
