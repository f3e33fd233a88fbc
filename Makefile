# Convenience targets; everything is plain dune underneath.
#
# Formatting: the project is hand-formatted in the default ocamlformat
# style, but no `.ocamlformat` file is committed because the toolchain
# this repo pins does not ship ocamlformat. If you have it installed,
# `ocamlformat --enable-outside-detected-project` matches the style.

.PHONY: all build test check record bench-check bench-loads bench-parallel \
	bench-micro pairs loc exports clean

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

# The export audit of lib/: for every `val` in lib/**/*.mli (one inside
# a nested `module M : sig` as `M.value`), how many files outside the
# value's own module name `Module.value` in lib/, bin/ and examples/
# (the product), in bench/e2e, in the rest of bench/ and in test/. A
# grep, so module aliases and opens can hide a use: confirm a zero with
# a build before deleting. Ends with totals and the number of optional
# arguments in lib's interfaces.
EXPORT_DIRS = lib bin examples bench test
exports:
	@{ find lib -path '*/_build' -prune -o -name '*.mli' -type f -print | sort \
	  | xargs awk 'FNR == 1 { f = FILENAME; sub(/.*\//, "", f); sub(/\.mli$$/, "", f); \
	      top = toupper(substr(f, 1, 1)) substr(f, 2) "."; nested = "" } \
	    /^module [A-Z][A-Za-z0-9_]* : sig/ { nested = $$2 "." } \
	    /^end/ { nested = "" } \
	    /^ *val [a-z_]/ { v = $$2; sub(/:.*/, "", v); \
	      print f, (/^val/ ? top : nested) v }'; \
	  echo '--'; \
	  grep -rEo --exclude-dir=_build --include='*.ml' --include='*.mli' \
	    '[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_]*' $(EXPORT_DIRS) | sort -u \
	  | awk -F: '{ f = $$1; sub(/.*\//, "", f); sub(/\.mli?$$/, "", f); \
	      d = $$1 ~ /^bench\/e2e\// ? "e2e" : $$1 ~ /^bench\// ? "bench" \
	        : $$1 ~ /^test\// ? "test" : "product"; print d, f, $$2 }'; } \
	| awk '$$0 == "--" { refs = 1; next } \
	  !refs { if (!($$2 in own)) { own[$$2] = $$1; keys[++n] = $$2 }; next } \
	  ($$3 in own) && own[$$3] != $$2 { c[$$3, $$1]++ } \
	  END { printf "%-34s %7s %5s %5s %5s\n", "value", "product", "e2e", "bench", "test"; \
	    for (i = 1; i <= n; i++) { k = keys[i]; \
	      p = c[k, "product"] + 0; e = c[k, "e2e"] + 0; b = c[k, "bench"] + 0; t = c[k, "test"] + 0; \
	      printf "%-34s %7d %5d %5d %5d\n", k, p, e, b, t; \
	      if (p + e + b + t == 0) none++; else if (p + e == 0) side++ } \
	    printf "%d values: %d named by no other file, %d only by bench/ or test/\n", \
	      n, none, side }'
	@printf 'optional arguments in lib/**/*.mli: %d\n' \
	  $$(grep -rhoE '\?[a-z_0-9]+:' lib --include=*.mli | wc -l)

clean:
	dune clean
