#!/usr/bin/env python3
"""Steadiness and determinism proof for the benchmark.

For every workload in BENCHMARK.json it makes two sets of untraced runs,
each over seeds 1-10, and reports for each end-to-end metric:

- each set's median and its interquartile spread as a share of the median
  (quartiles as statistics.quantiles(values, n=4) gives them);
- how much worse the second set's median is than the first's;
- the same-seed noise: the median over seeds of |second / first - 1|,
  which is host noise alone, as both runs of a seed do the same work.

A spread (setup_s included) or a shift above the metric's bound fails
the proof; a spread above a third of the bound is flagged. plan_cost
must then match exactly between the two runs of every seed, and two
traced runs at the default seed must give identical per-layer counts: a
difference means the work of a run depends on the clock.

Run from the root of the repository:

    python3 dsppbench/prove.py
"""

import json
import statistics
import subprocess
import sys
import time

RUNS = 10
DEFAULT_SEED = 2012
# Per-layer metrics that are counts of work, which must not vary between
# runs of the same code and seed.
COUNTS = [
    "daemon.checkpoints_per_decision",
    "core.degraded_steps",
    "decomp.rounds_per_decision",
    "decomp.shard_solves_per_decision",
    "decomp.skipped_frac",
    "decomp.fast_resolve_frac",
    "qp.solves_per_decision",
    "qp.iterations_per_solve",
    "qp.warm_frac",
    "qp.corrector_skip_frac",
    "qp.numerical_failures",
    "linalg.factorizations_per_solve",
    "linalg.reuse_frac",
    "linalg.rankk_updates_per_decision",
    "game.rounds_per_equilibrium",
    "game.converged_frac",
    "game.qp_solves_per_round",
]


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.time() - t0
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)} failed its checks: {res}")
    values = {k: v["value"] for k, v in res["metrics"].items()}
    shown = "" if trace else " " + " ".join(
        f"{m['name']}={values[m['name']]:.5g}" for m in bench["end_to_end"])
    print(f"  {workload} seed {seed} trace {trace}: {took:.1f} s{shown}", flush=True)
    return values


def spread(vals):
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)


def worse(m, first, second):
    """How much worse second is than first, as a share of first."""
    change = second / first - 1
    return change if m["better"] == "lower" else -change


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = list(range(1, RUNS + 1))
    ok, wide = True, 0
    for w in bench["workloads"]:
        name = w["name"]
        print(f"{name}:", flush=True)
        sets = [[run(bench, name, s, 0) for s in seeds] for _ in range(2)]
        print(f"  {'metric':20} {'median 1':>12} {'spread 1':>8} {'median 2':>12} {'spread 2':>8}"
              f" {'worse':>7} {'noise':>7} {'bound':>6}")
        for m in bench["end_to_end"]:
            a = [r[m["name"]] for r in sets[0]]
            b = [r[m["name"]] for r in sets[1]]
            s1, s2 = spread(a), spread(b)
            shift = worse(m, statistics.median(a), statistics.median(b))
            noise = statistics.median(abs(y / x - 1) for x, y in zip(a, b))
            if max(s1, s2, shift) > m["bound"]:
                flag = "OVER"
                ok = False
            elif max(s1, s2) > m["bound"] / 3:
                flag = "WIDE"  # within the bound, above the third aimed for
                wide += 1
            else:
                flag = "ok"
            print(f"  {m['name']:20} {statistics.median(a):12.6g} {s1:8.4f} {statistics.median(b):12.6g}"
                  f" {s2:8.4f} {shift:7.4f} {noise:7.4f} {m['bound']:6.3g} {flag}")
        differ = [s for s, x, y in zip(seeds, *sets) if x["plan_cost"] != y["plan_cost"]]
        ok = ok and not differ
        print(f"  plan_cost per seed: {'identical' if not differ else f'DIFFERENT on seeds {differ}'}")
        t1, t2 = run(bench, name, DEFAULT_SEED, 1), run(bench, name, DEFAULT_SEED, 1)
        for c in COUNTS:
            same = t1[c] == t2[c]
            ok = ok and same
            print(f"  {c:34} {t1[c]!r:>22} {'identical' if same else 'DIFFERENT ' + repr(t2[c])}")
        print(f"  {'telemetry.overhead_frac':34} {t1['telemetry.overhead_frac']:.4f} "
              f"{t2['telemetry.overhead_frac']:.4f}")
    print(("PASS" if ok else "FAIL") + f" ({wide} spreads above a third of their bound)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
