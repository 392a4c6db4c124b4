# CI entry points. `make check` is the gate: build everything, run the
# test suites, then smoke-test the CLI's machine-readable output.

DUNE ?= dune

.PHONY: all build test smoke smoke-parallel smoke-parallel-jobs smoke-prune smoke-check smoke-minifun smoke-supa smoke-incr smoke-serve check bench bench-smoke bench-prune-smoke bench-taint-smoke bench-taint bench-minifun bench-incr bench-serve bench-e2e bench-compare bench-ab verify clean

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

# A real end-to-end run: generated benchmark -> pipeline -> DYNSUM ->
# metrics JSON on stdout. The python step fails the target if the blob
# is not valid JSON or lacks the per-engine counters.
smoke:
	$(DUNE) exec bin/ptsto.exe -- client --bench jack -c safecast -e dynsum --metrics-json \
	  | tail -n 1 \
	  | python3 -c 'import json,sys; m=json.load(sys.stdin); e=m["engines"][0]; \
	    assert m["schema"].startswith("ptsto.metrics/"), m; \
	    assert {"engine","steps","queries","summary_hits","summary_misses"} <= set(e), e; \
	    print("smoke ok:", e["engine"], e["steps"], "steps")'

# The same client through the parallel batch scheduler: two worker
# domains over the shared frozen PAG, validated via the parallel metrics
# blob (per-domain reports must cover every query).
smoke-parallel:
	$(DUNE) exec bin/ptsto.exe -- client --bench jack -c safecast -e dynsum --jobs 2 --metrics-json \
	  | tail -n 1 \
	  | python3 -c 'import json,sys; m=json.load(sys.stdin); \
	    assert m["schema"].startswith("ptsto.parallel-metrics/"), m; \
	    assert m["jobs"] == 2 and len(m["domains"]) == 2, m; \
	    assert sum(d["queries"] for d in m["domains"]) == m["queries"], m; \
	    print("parallel smoke ok:", m["queries"], "queries on", m["jobs"], "domains")'

# Scheduling equivalence end to end: the same checker batch on one
# domain and on two work-stealing domains must produce byte-identical
# report JSON — steals may change who answers a query, never what the
# answer is.
smoke-parallel-jobs:
	$(DUNE) exec bin/ptsto.exe -- check --bench jack --jobs 1 --fail-on never --report-json \
	  | tail -n 1 > /tmp/ptsto_jobs1_report.json
	$(DUNE) exec bin/ptsto.exe -- check --bench jack --jobs 2 --fail-on never --report-json \
	  | tail -n 1 > /tmp/ptsto_jobs2_report.json
	cmp /tmp/ptsto_jobs1_report.json /tmp/ptsto_jobs2_report.json
	python3 -c 'import json; r=json.load(open("/tmp/ptsto_jobs2_report.json")); \
	  assert r["schema"].startswith("ptsto.check-report/"), r; \
	  print("parallel-jobs smoke ok:", r["counts"]["total"], "findings, jobs 1 == jobs 2 bytes")'

# Andersen-guided pruning end to end: the pruner must be consulted
# (prune_checks > 0), must actually cut match-edge work on refinepts
# (pruned_states > 0), and the flag must leave verdict counts unchanged.
smoke-prune:
	$(DUNE) exec bin/ptsto.exe -- client --bench jython -c nullderef -e refinepts --prune --metrics-json \
	  | tail -n 1 \
	  | python3 -c 'import json,sys; e=json.load(sys.stdin)["engines"][0]; c=e["counters"]; \
	    assert c.get("prune_checks", 0) > 0, c; \
	    assert c.get("pruned_states", 0) > 0, c; \
	    print("prune smoke ok:", c["pruned_states"], "states pruned in", c["prune_checks"], "checks")'

# The checker driver end to end on a clean benchmark. The unseeded suite
# deliberately contains bad casts and null flows for the other clients,
# so the error-free run uses the checkers it cannot trigger: taint (no
# sources/sinks without seeding) and the deadcode lint (warnings/info
# only). --fail-on error must exit 0 and the report must be valid JSON.
smoke-check:
	$(DUNE) exec bin/ptsto.exe -- check --bench jack --checker taint,deadcode --fail-on error --report-json \
	  | tail -n 1 \
	  | python3 -c 'import json,sys; r=json.load(sys.stdin); \
	    assert r["schema"].startswith("ptsto.check-report/"), r; \
	    assert r["counts"]["error"] == 0, r; \
	    assert r["counts"]["total"] == len(r["findings"]), r; \
	    print("check smoke ok:", r["counts"]["total"], "findings, 0 errors")'

# The second surface language end to end: lex/parse/closure-convert the
# committed MiniFun example, run every client over it, and let Devirtopt
# monomorphize the provably-single-target closure calls. The python step
# validates the metrics blob and that at least one site was rewritten.
smoke-minifun:
	$(DUNE) exec bin/ptsto.exe -- run --lang minifun examples/programs/closures.mf -e dynsum --metrics-json \
	  | python3 -c 'import json,sys; out=sys.stdin.read().splitlines(); \
	    m=json.loads(out[-1]); \
	    assert m["schema"].startswith("ptsto.metrics/"), m; \
	    dv=[l for l in out if l.startswith("devirtopt:")][0]; \
	    n=int(dv.split()[1].split("/")[0]); assert n >= 1, dv; \
	    print("minifun smoke ok:", n, "closure calls monomorphized")'

# The overwrite-kill micro-suite end to end: a seeded benchmark with 3
# kill shapes and 2 weak-update controls, checked under every flow-
# insensitive engine and under supa. The old engines must flag every
# kill shape (a false positive each), supa must flag none of them, and
# supa's findings must be a subset of dynsum's (report-level soundness).
smoke-supa:
	for e in norefine refinepts dynsum stasum supa; do \
	  $(DUNE) exec bin/ptsto.exe -- check --bench jack --taint-flows 2 --taint-clean 1 --taint-kill 3 --taint-weak 2 \
	    -e $$e --checker taint --fail-on never --report-json \
	    | tail -n 1 > /tmp/ptsto_supa_$$e.json || exit 1; \
	done
	python3 -c 'import json; \
	  r={e: json.load(open("/tmp/ptsto_supa_%s.json" % e)) for e in ["norefine","refinepts","dynsum","stasum","supa"]}; \
	  keys=lambda e: {(f["method"], f["line"], f["message"]) for f in r[e]["findings"]}; \
	  old=["norefine","refinepts","dynsum","stasum"]; \
	  assert all(keys(e) == keys("dynsum") for e in old), "flow-insensitive engines disagree"; \
	  killed=keys("dynsum") - keys("supa"); \
	  assert len(killed) == 3 and all("TaintKill" in m for (m, _, _) in killed), killed; \
	  assert keys("supa") <= keys("dynsum"), "supa found something dynsum did not"; \
	  assert all(any("TaintWeak%d" % i in m for (m, _, _) in keys("supa")) for i in range(2)), keys("supa"); \
	  print("supa smoke ok:", len(keys("dynsum")), "findings flow-insensitive,", len(keys("supa")), "under supa; 3 kill FPs removed, weak controls kept")'

# Incremental editing end to end: seeded edit bursts applied in place,
# each burst's query verdicts and check reports compared against a
# from-scratch rebuild (byte-identity across engines x prune x jobs),
# with summary retention > 0 proving the invalidation is targeted
# rather than a cache wipe. A non-zero exit from `ptsto edit` already
# means an equivalence failure; the python step re-asserts the blob.
smoke-incr:
	$(DUNE) exec bin/ptsto.exe -- edit --bench jack --bursts 2 --edits 6 --seed 7 --report-jobs 1,2 --json \
	  | tail -n 1 \
	  | python3 -c 'import json,sys; r=json.load(sys.stdin); \
	    assert r["schema"].startswith("ptsto.edit/"), r; \
	    assert r["ok"], r; \
	    assert all(b["hash_equal"] and b["verdicts_equal"] and b["reports_equal"] for b in r["bursts"]), r; \
	    assert r["retained"] > 0, r; \
	    print("incr smoke ok:", len(r["bursts"]), "bursts,", r["retained"], "summaries retained, reports byte-equal")'

# The daemon end to end: a scripted request mix (query, full check, an
# edit burst, the query again post-edit, stats, shutdown) piped through
# `ptsto serve` on stdin. The embedded verdicts/report objects must
# equal the one-shot CLI's --verdicts-json / --report-json outputs, and
# the edit must bump the epoch every later response carries.
smoke-serve:
	printf '{"op":"query","client":"safecast","id":1}\n{"op":"check","id":2}\n{"op":"edit","edits":4,"seed":7,"id":3}\n{"op":"query","client":"safecast","id":4}\n{"op":"stats","id":5}\n{"op":"shutdown","id":6}\n' \
	  | $(DUNE) exec bin/ptsto.exe -- serve --bench jack > /tmp/ptsto_serve_out.jsonl
	$(DUNE) exec bin/ptsto.exe -- client --bench jack -c safecast -e dynsum --verdicts-json \
	  | tail -n 1 > /tmp/ptsto_serve_ref_verdicts.json
	$(DUNE) exec bin/ptsto.exe -- check --bench jack --fail-on never --report-json \
	  | tail -n 1 > /tmp/ptsto_serve_ref_report.json
	python3 -c 'import json; \
	  resp={r["id"]: r for r in (json.loads(l) for l in open("/tmp/ptsto_serve_out.jsonl") if l.strip())}; \
	  v=json.load(open("/tmp/ptsto_serve_ref_verdicts.json")); \
	  r=json.load(open("/tmp/ptsto_serve_ref_report.json")); \
	  assert resp[1]["ok"] and resp[1]["verdicts"] == v, "verdicts differ from one-shot CLI"; \
	  assert resp[2]["ok"] and resp[2]["report"] == r, "report differs from one-shot CLI"; \
	  assert resp[3]["ok"] and resp[3]["epoch"] == 1, resp[3]; \
	  assert resp[4]["ok"] and resp[4]["epoch"] == 1, resp[4]; \
	  assert resp[5]["ok"] and resp[6]["ok"], (resp[5], resp[6]); \
	  assert resp[5]["base"]["size"] > 0, resp[5]; \
	  print("serve smoke ok: verdicts+report match one-shot CLI, epoch", resp[4]["epoch"], "after edit")'

check: build test smoke smoke-parallel smoke-parallel-jobs smoke-prune smoke-check smoke-minifun smoke-supa smoke-incr smoke-serve

bench:
	$(DUNE) exec bench/main.exe

# Fast parallel-scheduler benchmark (jack, jobs 1/2); writes the
# machine-readable artefact next to the repo root. Only the
# deterministic columns are asserted — set-equality across job
# counts — because wall-clock ratios are noise on
# shared CI runners (the committed artefact carries the measured ones).
bench-smoke:
	$(DUNE) exec bench/main.exe -- parallel_smoke \
	  | grep '^BENCH_parallel_smoke.json ' \
	  | sed 's/^BENCH_parallel_smoke.json //' > BENCH_parallel_smoke.json
	python3 -c 'import json; \
	  rows=json.load(open("BENCH_parallel_smoke.json"))["rows"]; \
	  assert all(r["set_equal_vs_first"] for r in rows), rows; \
	  print("bench-smoke ok:", len(rows), "rows, all job counts set-equal")'

# Pruning-on/off ratios on one benchmark (jython, NullDeref + alias
# pairs); writes the machine-readable artefact next to the repo root.
bench-prune-smoke:
	$(DUNE) exec bench/main.exe -- prune_smoke \
	  | grep '^BENCH_prune_smoke.json ' \
	  | sed 's/^BENCH_prune_smoke.json //' > BENCH_prune_smoke.json
	python3 -c 'import json; \
	  rows=json.load(open("BENCH_prune_smoke.json"))["rows"]; \
	  assert all(r["verdicts_equal"] for r in rows), rows; \
	  assert any(r["steps_on"] < r["steps_off"] for r in rows), rows; \
	  print("bench-prune-smoke ok:", len(rows), "rows, verdicts equal, steps reduced")'

# Taint checker precision/recall on one seeded benchmark with kill/weak
# shapes; recall must be 1.0 everywhere, the flow-insensitive engines
# must report exactly the kill shapes as false positives, supa must
# report none, and the report JSON must be byte-identical within each
# verdict family across job counts.
bench-taint-smoke:
	$(DUNE) exec bench/main.exe -- taint_smoke \
	  | grep '^BENCH_taint_smoke.json ' \
	  | sed 's/^BENCH_taint_smoke.json //' > BENCH_taint_smoke.json
	python3 -c 'import json; \
	  rows=json.load(open("BENCH_taint_smoke.json"))["rows"]; \
	  assert all(r["recall"] == 1.0 for r in rows), rows; \
	  assert all(r["report_equal_in_family"] for r in rows), rows; \
	  supa=[r for r in rows if r["engine"] == "supa"]; rest=[r for r in rows if r["engine"] != "supa"]; \
	  assert supa and all(r["fp"] == 0 for r in supa), supa; \
	  assert rest and all(r["fp"] == r["kill"] > 0 for r in rest), rest; \
	  assert all(r["precision"] > max(x["precision"] for x in rest) for r in supa), rows; \
	  print("bench-taint-smoke ok:", len(rows), "rows, recall 1.0, supa kills all", rest[0]["kill"], "kill-shape FPs")'

# The full three-benchmark taint precision study (the committed
# BENCH_taint.json); same bars as the smoke, at flows 8 / clean 8 /
# kill 4 / weak 3 across jobs 1/2/4.
bench-taint:
	$(DUNE) exec bench/main.exe -- taint \
	  | grep '^BENCH_taint.json ' \
	  | sed 's/^BENCH_taint.json //' > BENCH_taint.json
	python3 -c 'import json; \
	  rows=json.load(open("BENCH_taint.json"))["rows"]; \
	  assert all(r["recall"] == 1.0 for r in rows), rows; \
	  assert all(r["report_equal_in_family"] for r in rows), rows; \
	  supa=[r for r in rows if r["engine"] == "supa"]; rest=[r for r in rows if r["engine"] != "supa"]; \
	  assert supa and all(r["fp"] == 0 for r in supa), supa; \
	  assert rest and all(r["fp"] == r["kill"] > 0 for r in rest), rest; \
	  assert all(r["precision"] > max(x["precision"] for x in rest) for r in supa), rows; \
	  print("bench-taint ok:", len(rows), "rows, recall 1.0, supa strictly more precise on kill shapes")'

# Cross-frontend parity and Devirtopt rewrite counts per engine on the
# matched MiniJava/MiniFun pair suite; writes the committed artefact.
bench-minifun:
	$(DUNE) exec bench/main.exe -- minifun \
	  | grep '^BENCH_minifun.json ' \
	  | sed 's/^BENCH_minifun.json //' > BENCH_minifun.json
	python3 -c 'import json; \
	  rows=json.load(open("BENCH_minifun.json"))["rows"]; \
	  assert all(r["verdicts_unchanged"] for r in rows), rows; \
	  assert all(r["beyond_cha"] >= 1 for r in rows), rows; \
	  assert all(r["fix_converged"] and 1 <= r["fix_iterations"] <= 5 for r in rows), rows; \
	  assert all(e == sorted(e, reverse=True) for e in (r["fix_pag_edges"] for r in rows)), rows; \
	  print("bench-minifun ok:", len(rows), "rows, verdicts stable, fixpoint converged, PAG never grows")'

# Incremental-vs-rebuild ratios per edit-script size (jack); writes the
# committed artefact. Asserted: every burst's equivalence booleans, a
# positive retention fraction on the small edit scripts, and at least
# one burst where the incremental path beat the full rebuild.
bench-incr:
	$(DUNE) exec bench/main.exe -- incr \
	  | grep '^BENCH_incr.json ' \
	  | sed 's/^BENCH_incr.json //' > BENCH_incr.json
	python3 -c 'import json; \
	  rows=json.load(open("BENCH_incr.json"))["rows"]; \
	  assert all(r["hash_equal"] and r["verdicts_equal"] and r["reports_equal"] for r in rows), rows; \
	  small=[r for r in rows if r["edits_per_burst"] <= 8]; \
	  assert all(r["retention_fraction"] > 0 for r in small), small; \
	  assert any(r["wall_ratio_incr_vs_rebuild"] < 1.0 for r in rows), rows; \
	  print("bench-incr ok:", len(rows), "rows, equivalence holds, retention > 0 on small scripts")'

# Daemon equivalence matrix + sustained-throughput phases (jack and
# soot-c); writes the committed artefact. Asserted: every equivalence
# cell byte-equal (engines x prune x pre/post-edit), qps and latency
# percentiles in every row, and the cross-request tier buying at least
# 1.5x warm-over-cold throughput on one suite (wall-clock, so only the
# committed artefact's measured ratio is held to the bar; CI re-asserts
# the deterministic columns and a ratio > 1 sanity floor).
bench-serve:
	$(DUNE) exec bench/main.exe -- serve \
	  | grep '^BENCH_serve.json ' \
	  | sed 's/^BENCH_serve.json //' > BENCH_serve.json
	python3 -c 'import json; \
	  rows=json.load(open("BENCH_serve.json"))["rows"]; \
	  eq=[r for r in rows if r["phase"] == "equivalence"]; \
	  assert eq and all(r["query_equal"] and r["check_equal"] for r in eq), eq; \
	  assert all("qps" in r and "p50_ms" in r and "p99_ms" in r for r in rows), rows; \
	  ratios=[r["warm_vs_cold_qps"] for r in rows if "warm_vs_cold_qps" in r]; \
	  assert ratios and max(ratios) > 1.0, ratios; \
	  print("bench-serve ok:", len(eq), "equivalence cells byte-equal, warm/cold", round(max(ratios), 2))'

# The end-to-end benchmark (benchmark/README.md): all four workloads at
# seed 0, untraced, each in a child process of its own. The last stdout
# line is the ptsto.benchmark/1 summary; every workload's record line
# before it is what bench-compare reads, so append runs to a file:
#   make bench-e2e >> change.jsonl
bench-e2e:
	$(DUNE) exec ./benchmark/ptsto_bench.exe -- --seed 0 --trace 0

# A/B verdict of two run files against BENCHMARK.json's bounds, one row
# per workload and end-to-end metric; exits 1 when a metric got worse.
# Record PARENT and CHANGE alternately (see the compare.py docstring).
#   make bench-compare PARENT=parent.jsonl CHANGE=change.jsonl
bench-compare:
	@test -n "$(PARENT)" -a -n "$(CHANGE)" || { echo "usage: make bench-compare PARENT=a.jsonl CHANGE=b.jsonl"; exit 2; }
	python3 benchmark/compare.py $(PARENT) $(CHANGE)

# Paired A/B of a parent checkout against this one on one workload:
# PAIRS pairs on seeds SEED0.., alternating which side runs first, records
# appended to bench-ab/parent.jsonl and change.jsonl, then compare.py.
# Make the parent checkout with git archive (not git worktree), e.g.
#   git archive HEAD~1 | tar -x -C ../parent
#   make bench-ab PARENT_DIR=../parent WORKLOAD=oneshot-suite PAIRS=10 SEED0=101
PAIRS ?= 10
SEED0 ?= 0
bench-ab:
	@test -n "$(PARENT_DIR)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-ab PARENT_DIR=dir WORKLOAD=name [PAIRS=10] [SEED0=0]"; exit 2; }
	sh scripts/bench_ab.sh $(PARENT_DIR) $(WORKLOAD) $(PAIRS) $(SEED0)

# Tier-1 plus the smokes in one command. bench-taint is the full
# three-benchmark precision study — it regenerates the committed
# BENCH_taint.json so the supa precision gap is re-measured, not stale.
verify: check bench-smoke bench-prune-smoke bench-taint-smoke bench-taint bench-minifun bench-incr bench-serve

clean:
	$(DUNE) clean
