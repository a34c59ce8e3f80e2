# Developer entry points. CI runs the same three checks as `make check`.

.PHONY: build vet test race check bench-test bench-baseline bench-cores clean

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

check: build vet race

# The repo benchmark under bench/ is a nested module importing internal/*;
# the root targets above do not cover it.
bench-test:
	cd bench && go vet ./... && go test ./...

# Emit BENCH_core.json from the root benchmark suite (bench_test.go).
# Override BENCHTIME for a stable baseline, e.g. `make bench-baseline BENCHTIME=2s`.
BENCHTIME ?= 1x
bench-baseline:
	sh scripts/bench_baseline.sh $(BENCHTIME)

# Cores-scaling series: the worker-pool sweeps (IA, install/relax, Figure 4)
# at 1/2/4/8 workers. Interpret against the num_cpu/gomaxprocs fields the
# baseline records — on a single-core host the curve is flat by construction.
bench-cores:
	go test -run '^$$' -bench 'BenchmarkIAParallel|BenchmarkInstallRelaxParallel|BenchmarkFig4Workers' -benchmem -benchtime $(BENCHTIME) .

clean:
	rm -f BENCH_core.json
