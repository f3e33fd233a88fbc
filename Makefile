# Convenience targets; everything is plain dune underneath.
#
# Formatting: the project is hand-formatted in the default ocamlformat
# style, but no `.ocamlformat` file is committed because the toolchain
# this repo pins does not ship ocamlformat. If you have it installed,
# `ocamlformat --enable-outside-detected-project` matches the style.

.PHONY: all build test check bench bench-check bench-loads bench-parallel \
	bench-faults bench-async bench-monitor bench-serve bench-micro \
	bench-quick report-smoke serve-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# The one-stop gate: what CI (and reviewers) run. The parallel smoke run
# checks that the strategy is bit-identical at 1, 2 and 4 domains; the
# faults smoke runs the hardened distributed protocol under a seeded
# drop/crash/cut plan and requires recovery (no JSON written by either);
# the async smoke simulates one topology synchronously and on a slow
# lower tier and requires completion to rise while the traffic stays
# pinned; the
# simulate --faults/--link line exercises the same machinery end to end
# through the CLI; bench-quick cross-checks the Tree.Flat kernels against
# each other; the monitor smoke replays the synthetic drift matrix and
# requires steady traffic to stay silent while every drift shape fires;
# report-smoke drives --trace/--telemetry recording,
# the report command's three renderers, and a --diff of a trace against
# itself (which must come back clean); the serve smoke replays the
# adaptive-serving matrix contract (steady silent, hotspot recovered
# within budget) and serve-smoke drives `hbn_cli serve` --record/--replay
# end to end. The bench-check diff of the pipeline, fault, async,
# monitor and serve case matrices against the committed BENCH_*.json
# baselines needs no step of its own: `dune runtest` runs it (see
# bench/dune), together with the mutated-baseline rules proving the diff
# is neither vacuous nor over-strict, and the loads smoke run that
# cross-checks the incremental engine against the from-scratch climb.
check:
	dune build && dune runtest \
	  && dune exec bench/parallel.exe -- --smoke \
	  && $(MAKE) bench-quick \
	  && dune exec bench/faults.exe -- --smoke \
	  && dune exec bench/async.exe -- --smoke \
	  && dune exec bench/monitor.exe -- --smoke \
	  && dune exec bench/serve.exe -- --smoke \
	  && dune exec bin/hbn_cli.exe -- simulate --kind balanced --arity 3 \
	       --height 3 --workload zipf --objects 8 --seed 7 \
	       --faults "drop=0.15,until=60,crash=2:10-30" --link "1:64,1:32" \
	  && dune exec test/test_main.exe -- test exec \
	  && $(MAKE) report-smoke \
	  && $(MAKE) serve-smoke

bench:
	dune exec bench/pipeline.exe

# Fails (exit 1) if the deterministic fields of a fresh pipeline,
# fault-recovery, async, drift-detection or serving run diverge from the
# committed BENCH_*.json baselines, naming each divergent field by its
# path. Wall times and the meta header are ignored. Also part of
# `dune runtest`.
bench-check:
	dune exec bench/check.exe

# Fault-injection recovery profile of the hardened distributed nibble
# under seeded drop/crash/cut plans; writes BENCH_faults.json.
bench-faults:
	dune exec bench/faults.exe

# Asynchronous-simulation profile: the same traffic per topology,
# simulated under each per-level delay/bandwidth link model; writes
# BENCH_async.json (completion varies with the link, congestion does
# not).
bench-async:
	dune exec bench/async.exe

# Streaming-monitor detection profile: synthetic drift workloads through
# the folding telemetry collector and the default detectors; writes
# BENCH_monitor.json (refuses to write if the hit/miss contract fails).
bench-monitor:
	dune exec bench/monitor.exe

# Trace-analytics smoke: trace a pipeline run plus a telemetry-recording
# fault run, then feed both files to `report` in all three formats
# (table to the terminal, json/chrome parse-checked by the command
# itself — any malformed line or analysis crash fails the target), and
# diff the telemetry trace against itself — monitors recomputed on both
# sides must agree exactly, so the verdict has to be "identical".
report-smoke:
	dune build bin/hbn_cli.exe
	dune exec --no-build bin/hbn_cli.exe -- place --kind balanced --arity 3 \
	  --height 3 --workload zipf --objects 8 --seed 7 \
	  --trace /tmp/hbn_report_smoke_trace.jsonl > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- simulate --kind balanced \
	  --arity 3 --height 2 --workload zipf --seed 7 \
	  --faults "drop=0.1,until=50" \
	  --telemetry /tmp/hbn_report_smoke_tel.jsonl > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_trace.jsonl
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_trace.jsonl \
	  --format json > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_trace.jsonl \
	  --format chrome > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_tel.jsonl
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_tel.jsonl \
	  --format json > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_tel.jsonl \
	  --format chrome > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_tel.jsonl \
	  --diff /tmp/hbn_report_smoke_tel.jsonl | grep -q "verdict: identical"
	rm -f /tmp/hbn_report_smoke_trace.jsonl /tmp/hbn_report_smoke_tel.jsonl
	@echo "report-smoke: table/json/chrome renderers + self-diff ok"

# Adaptive-serving profile: the four drift generators through the
# epoch-based serving tier (alert-triggered top-k re-optimization under
# a migration byte budget); writes BENCH_serve.json (refuses to write if
# the steady-silent / hotspot-recovery contract fails).
bench-serve:
	dune exec bench/serve.exe

# Serving-tier CLI smoke: run `serve` under hotspot-migration drift while
# recording the generated request tables, replay the recording (which
# must re-optimize the same epochs and migrate the same bytes — the
# summary lines are compared verbatim), and feed the recorded telemetry
# to `report` to prove the serving trace round-trips through the
# analytics pipeline.
serve-smoke:
	dune build bin/hbn_cli.exe
	dune exec --no-build bin/hbn_cli.exe -- serve --kind balanced --arity 3 \
	  --height 3 --objects 8 --drift hotspot_migration --epochs 16 \
	  --serve-seed 11 --record /tmp/hbn_serve_smoke_tables.txt \
	  --telemetry /tmp/hbn_serve_smoke_tel.jsonl > /tmp/hbn_serve_smoke_a.txt
	dune exec --no-build bin/hbn_cli.exe -- serve --kind balanced --arity 3 \
	  --height 3 --objects 8 --serve-seed 11 \
	  --replay /tmp/hbn_serve_smoke_tables.txt > /tmp/hbn_serve_smoke_b.txt
	diff /tmp/hbn_serve_smoke_a.txt /tmp/hbn_serve_smoke_b.txt
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_serve_smoke_tel.jsonl \
	  --format json > /dev/null
	rm -f /tmp/hbn_serve_smoke_tables.txt /tmp/hbn_serve_smoke_tel.jsonl \
	  /tmp/hbn_serve_smoke_a.txt /tmp/hbn_serve_smoke_b.txt
	@echo "serve-smoke: record/replay identical + telemetry round-trip ok"

# Bechamel timings of the Tree.Flat primitive kernels (path folds,
# batched LCA, Steiner scans with a reused and a fresh scratch). No JSON
# written; ns/run estimates print as a table.
bench-micro:
	dune exec bench/micro_main.exe

# Fast self-consistency pass over the same kernels — no timing, exit 1 on
# any divergence. Part of `make check`.
bench-quick:
	dune exec bench/micro_main.exe -- --smoke

# Scratch vs incremental hill-climb throughput; writes BENCH_loads.json.
bench-loads:
	dune exec bench/loads.exe

# Domain-scaling of the per-object pipeline at --jobs 1/2/4; writes
# BENCH_parallel.json (speedups are only meaningful on a multicore host;
# the JSON records the detected core count).
bench-parallel:
	dune exec bench/parallel.exe

clean:
	dune clean
