# Developer entry points. CI runs the same three checks as `make check`.

.PHONY: build vet test race check bench-test

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
