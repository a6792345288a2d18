# Convenience wrappers around dune. `make test` runs every suite: the
# unit/property tests, the tier-DP kernel grid (test/test_dp_grid.ml),
# the registry goldens and the example goldens. Wall time, throughput
# and per-layer costs are measured, with repeats, by benchmark/ (see
# benchmark/README.md). `make golden-regen` re-renders every registry
# experiment and example and promotes the result into test/golden/ and
# examples/*.expected -- run it (and commit the diff) after an
# intentional output change. `make test` also runs the lint (the
# runtest alias depends on @lint); `make lint` writes its reports.

.PHONY: all build test test-segdp golden-regen smoke smoke-procs lint effects-regen clean

all: build

build:
	dune build

test:
	dune runtest

# Just the tier-DP kernel suites (unit + hostile corpus + properties):
# the fast loop while working on lib/numerics/segdp.ml.
test-segdp:
	dune build test/test_main.exe
	./_build/default/test/test_main.exe test 'numerics.segdp'

# Rewrite test/golden/*.expected and examples/*.expected from the
# current code. The second pass re-checks the diffs so a failed
# promote cannot pass silently.
golden-regen:
	dune build @golden --auto-promote || true
	dune build @golden

# tiered-lint: the determinism/hygiene static-analysis pass (rule
# catalog: `dune exec bin/lint.exe -- --list-rules`; DESIGN.md §10).
# Every rule reads the typed trees (.cmt files) of lib/ bin/ examples/
# test/, so `dune build @check` compiles them first (executables' main
# modules included); `make lint` fails on any finding that no inline
# `lint: allow` comment accepts. It leaves the JSON report at
# lint-report.json and a SARIF 2.1.0 twin at lint-report.sarif; `dune
# build @lint` is the dune-tracked equivalent (it also diffs the
# effects golden). `make effects-regen` re-derives
# lint/effects.golden.json after an intentional interface change (the
# second pass re-checks the diff).
lint:
	dune build @check bin/lint.exe
	./_build/default/bin/lint.exe --root . \
	  --json lint-report.json --sarif lint-report.sarif lib bin examples test

effects-regen:
	dune build @lint --auto-promote || true
	dune build @lint

smoke:
	dune exec bin/tiered_cli.exe -- run table1 --jobs 2 --metrics

smoke-procs:
	dune exec bin/tiered_cli.exe -- run table1 --backend procs --jobs 2 --metrics

clean:
	dune clean
	rm -rf _cache _cas
