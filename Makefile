# Convenience targets; everything is plain dune underneath.
#
# Formatting: the project is hand-formatted in the default ocamlformat
# style, but no `.ocamlformat` file is committed because the toolchain
# this repo pins does not ship ocamlformat. If you have it installed,
# `ocamlformat --enable-outside-detected-project` matches the style.

.PHONY: all build test check record bench-check bench-loads bench-parallel \
	bench-micro pairs loc clean

all: build

build:
	dune build

test:
	dune runtest

# The one-stop gate: what CI (and reviewers) run. `dune runtest` holds
# every check: the unit, property and CLI tests, the case matrices'
# contracts and their diff against the committed BENCH_*.json baselines,
# and the smoke runs (see bench/dune and test/dune).
check:
	dune build && dune runtest

# Re-record the case-matrix baselines BENCH_pipeline.json,
# BENCH_faults.json, BENCH_async.json, BENCH_monitor.json and
# BENCH_serve.json (bench/record.exe refuses to write a matrix whose
# contract fails).
record:
	dune exec bench/record.exe -- pipeline faults async monitor serve

# Fails (exit 1) if a matrix contract breaks or the deterministic fields
# of a fresh run diverge from the committed BENCH_*.json baselines,
# naming each divergent field by its path. Wall times and the meta
# header are ignored. Also part of `dune runtest`.
bench-check:
	dune exec bench/check.exe

# Bechamel timings of the Tree.Flat primitive kernels (path folds,
# batched LCA, Steiner scans with a reused and a fresh scratch). No JSON
# written; ns/run estimates print as a table.
bench-micro:
	dune exec bench/micro_main.exe

# Scratch vs incremental hill-climb throughput; writes BENCH_loads.json.
bench-loads:
	dune exec bench/loads.exe

# Domain-scaling of the per-object pipeline at --jobs 1/2/4; writes
# BENCH_parallel.json (speedups are only meaningful on a multicore host;
# the JSON records the detected core count).
bench-parallel:
	dune exec bench/parallel.exe

# Alternating parent/change pairs of the end-to-end benchmark
# (bench/pairs.sh): PAIRS runs of PAIR_SECONDS each per side on one
# workload, then each metric's medians and win count, e.g.
#   make pairs PARENT=../parent WORKLOAD=place-deep
PARENT ?= ../parent
CHANGE ?= .
WORKLOAD ?= place-deep
PAIRS ?= 10
PAIR_SECONDS ?= 20
pairs:
	bench/pairs.sh $(PARENT) $(CHANGE) $(WORKLOAD) $(PAIRS) $(PAIR_SECONDS)

# Lines of OCaml (.ml and .mli) per top-level source directory and in
# total, each with its net change against HEAD (`git diff --numstat`,
# renames counted as a deletion and an addition, so moved code shows
# where it went; a new file counts once it is staged with `git add`).
LOC_DIRS = lib bin bench test examples
loc:
	@total=0; net_total=0; for d in $(LOC_DIRS); do \
	  n=$$(find $$d -path '*/_build' -prune -o \( -name '*.ml' -o -name '*.mli' \) \
	    -type f -print | xargs cat | wc -l); \
	  net=$$(git diff --no-renames --numstat HEAD -- "$$d/*.ml" "$$d/*.mli" \
	    | awk '{ s += $$1 - $$2 } END { print s + 0 }'); \
	  printf '%-9s %6d %+6d\n' $$d $$n $$net; \
	  total=$$((total + n)); net_total=$$((net_total + net)); \
	done; printf '%-9s %6d %+6d\n' total $$total $$net_total

clean:
	dune clean
