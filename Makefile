# Development targets. The repo is plain `go build ./...`-able; this file
# only packages the multi-step invocations.

GO ?= go

.PHONY: all build test race vet fmt-check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
