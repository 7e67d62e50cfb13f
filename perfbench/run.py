"""The repository benchmark: one workload, measured end to end or by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-elastic --seed 0 \\
        --seconds 20 --trace 0

Each round runs in a fresh interpreter (``worker.py``): one client, one
process, a closed loop, ``jobs=1``.  Rounds repeat until ``--seconds``
have passed (at least five), and every time is reported at a reference
host speed (see ``run_round``).  ``--trace 0`` reports the end-to-end
metrics listed in ``BENCHMARK.json`` as medians over the rounds;
``--trace 1`` alternates untraced and traced rounds, adds the import
probe and the complexity witnesses, and reports the per-layer metrics.
Every round's output is checked; the digests of the pinned seeds in
``digests.json`` must match.  The last stdout line is one JSON object;
the layer table is also written to ``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 90
MIN_ROUNDS = 5


class WorkerFailed(Exception):
    """A worker process crashed or printed no result."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(job):
    """Run one worker job; returns ``(result, monotonic spawn time)``."""
    job = dict(job, workdir=str(WORKDIR))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{job['mode']} worker timed out") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{job['mode']} worker exited with {proc.returncode}"
        )
    return json.loads(lines[-1]), spawned


def run_round(workload, seed, first, mode="round"):
    """One round; the worker reports its times at the reference speed.

    The host is shared, and its speed moves by tens of percent within
    seconds.  The worker times a fixed reference loop next to the body
    and scales by it (``worker.timed``); the set-up time is scaled here
    by the same factor.
    """
    result, spawned = spawn(
        {"mode": mode, "workload": workload, "seed": seed, "first": first}
    )
    result["setup_s"] = (result["ready"] - spawned) * result["scale"]
    return result


def fit_exponent(xs, ys):
    """Least-squares slope of log(y) over log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def import_probe(samples=3):
    """``import repro.cli`` in fresh interpreters, with ``-X importtime``."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    totals, packages = [], {"networkx": [], "numpy": []}
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise WorkerFailed("import repro.cli failed:\n" + proc.stderr)
        totals.append(float(proc.stdout.split()[-1]))
        seen = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)$", line)
            if match and match.group(2) in packages:
                seen.setdefault(match.group(2), int(match.group(1)) / 1e6)
        for name in packages:
            packages[name].append(seen.get(name, 0.0))
    return {
        "cli.import_s": statistics.median(totals),
        "cli.import_networkx_s": statistics.median(packages["networkx"]),
        "cli.import_numpy_s": statistics.median(packages["numpy"]),
    }


# -- checks ------------------------------------------------------------------


def check_digests(workload, seed, rounds):
    """Every round agrees byte for byte, and pinned seeds match."""
    digests = {r["digest"] for r in rounds if "digest" in r}
    problems = []
    if len(digests) > 1:
        problems.append(f"rounds disagree: {sorted(digests)}")
    pinned = json.loads((HERE / "digests.json").read_text())["digests"]
    expected = pinned.get(workload, {}).get(str(seed))
    if expected is not None and digests and digests != {expected}:
        problems.append(
            f"digest {sorted(digests)} != pinned {expected} for seed {seed}"
        )
    return problems


# -- metrics -------------------------------------------------------------------


def end_to_end(rounds):
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["body_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "work_per_s": statistics.median(
            r["work"] / r["body_s"] for r in rounds
        ),
    }


def _layer(layers, name, field="total_s"):
    return layers.get(name, {}).get(field, 0.0)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def tail(values, min_beyond=10):
    """Highest listed percentile with >= ``min_beyond`` samples above it."""
    n = len(values)
    for pct in (99, 95, 90, 80, 75, 50):
        if n * (100 - pct) / 100 >= min_beyond:
            return pct, values[min(n - 1, math.ceil(n * pct / 100) - 1)]
    return 0, 0.0


def layer_metrics(traced):
    """Per-layer metrics of one traced round."""
    layers, counts = traced["layers"], traced["counts"]
    setup_layers = traced["setup_layers"]
    trials = traced["trial_s"]
    tail_pct, tail_s = tail(trials)
    validated = counts.get("workload.queries_validated", 0)
    shares = counts.get("attribution.shares", 0)
    records = traced.get("records", 0)
    return {
        "presets.build_s": _layer(setup_layers, "presets.build")
        + _layer(layers, "presets.build"),
        "events.apply_s": _layer(layers, "events.apply"),
        "events.apply_calls": counts.get("events.apply_calls", 0),
        "workload.init_s": _layer(layers, "workload.init"),
        "workload.init_calls": counts.get("workload.init_calls", 0),
        "workload.queries_validated": validated,
        "workload.queries_per_churn_event": _ratio(
            validated, counts.get("events.churn_events", 0)
        ),
        "problems.problem_for_s": _layer(layers, "problems.problem_for"),
        "problems.problem_for_calls": counts.get(
            "problems.problem_for_calls", 0
        ),
        "problems.queries_priced": counts.get("problems.queries_priced", 0),
        "estimator.plan_for_s": _layer(layers, "estimator.plan_for"),
        "kernel.build_s": _layer(layers, "kernel.build"),
        "kernel.build_calls": counts.get("kernel.build_calls", 0),
        "kernel.price_s": _layer(layers, "kernel.price"),
        "kernel.priced_subsets": counts.get("kernel.priced_subsets", 0),
        "optimizer.solve_s": _layer(layers, "optimizer.solve"),
        "optimizer.solve_calls": counts.get("optimizer.solve_calls", 0),
        "optimizer.evaluations": counts.get("optimizer.evaluations", 0),
        "optimizer.cache_hit_ratio": _ratio(
            counts.get("optimizer.cache_hits", 0),
            counts.get("optimizer.evaluations", 0),
        ),
        "optimizer.greedy_s": _layer(layers, "optimizer.greedy"),
        "optimizer.beam_s": _layer(layers, "optimizer.beam"),
        "optimizer.local_s": _layer(layers, "optimizer.local"),
        "optimizer.knapsack_s": _layer(layers, "optimizer.knapsack"),
        "knapsack.dp_s": _layer(layers, "knapsack.dp"),
        "knapsack.cells": counts.get("knapsack.cells", 0),
        "policy.decide_s": _layer(layers, "policy.decide"),
        "policy.decide_calls": counts.get("policy.decide_calls", 0),
        "policy.reselect_ratio": _ratio(
            counts.get("policy.reoptimized", 0),
            counts.get("policy.decide_calls", 0),
        ),
        "simulator.self_s": _layer(layers, "simulator.run", "self_s"),
        "fleet.self_s": _layer(layers, "fleet.run", "self_s"),
        "attribution.stream_s": _layer(
            layers, "attribution.stream", "self_s"
        ),
        "attribution.shares": shares,
        "attribution.plan_s": _layer(layers, "attribution.plan"),
        "ledger.fold_s": _layer(layers, "ledger.fold"),
        "ledger.verify_s": _layer(layers, "ledger.verify"),
        "money.adds_per_share": _ratio(
            counts.get("money.stream_adds", 0), shares
        ),
        "montecarlo.trials": len(trials),
        "montecarlo.trial_p50_s": statistics.median(trials) if trials else 0.0,
        "montecarlo.trial_tail_pct": tail_pct,
        "montecarlo.trial_tail_s": tail_s,
        "explain.materialize_s": _layer(layers, "explain.materialize"),
        "explain.export_s": _layer(layers, "explain.export"),
        "explain.records": records,
        "explain.bytes_per_record": _ratio(
            traced.get("export_bytes", 0), records
        ),
        "explain.load_s": _layer(layers, "explain.load"),
        "explain.query_s": _layer(layers, "explain.query"),
        "plan_cost_usd": float(traced.get("plan_cost", 0)),
        "export_kb": traced.get("export_bytes", 0) / 1024.0,
        "trace.coverage": _ratio(
            sum(row["self_s"] for row in layers.values()), traced["body_s"]
        ),
    }


def median_metrics(samples):
    return {
        key: statistics.median(sample[key] for sample in samples)
        for key in samples[0]
    }


def witnesses(workload, seed):
    """Complexity exponents and the explain overhead (0 when not run)."""
    out = {
        "fleet.scaling_exp": 0.0,
        "workload.validate_exp": 0.0,
        "knapsack.budget_exp": 0.0,
        "explain.record_overhead": 0.0,
    }
    details = {}
    if workload == "fleet-elastic":
        points = spawn({"mode": "fleet-scaling", "seed": seed})[0]["points"]
        ns = [p["n"] for p in points]
        out["fleet.scaling_exp"] = fit_exponent(
            ns, [p["seconds"] for p in points]
        )
        out["workload.validate_exp"] = fit_exponent(
            ns, [p["validated"] for p in points]
        )
        details["fleet-scaling"] = points
    elif workload == "select-lattice":
        points = spawn({"mode": "knapsack-budget", "seed": seed})[0]["points"]
        out["knapsack.budget_exp"] = fit_exponent(
            [p["capacity_cents"] for p in points],
            [p["seconds"] for p in points],
        )
        details["knapsack-budget"] = points
    elif workload == "explain-fleet":
        ratios = spawn({"mode": "explain-overhead", "seed": seed})[0]["ratios"]
        out["explain.record_overhead"] = statistics.median(ratios)
        details["explain-overhead"] = ratios
    return out, details


# -- reporting -----------------------------------------------------------------


def layer_table_text(workload, traced, metrics):
    """The per-layer table of one traced round, widest self time first."""
    body = traced["body_s"]
    rows = sorted(
        traced["layers"].items(), key=lambda item: -item[1]["self_s"]
    )
    lines = [
        f"# {workload}: traced body {body:.3f} s, "
        f"coverage {metrics['trace.coverage']:.3f}, "
        f"overhead x{metrics['trace.overhead']:.3f}",
        f"{'span':<24}{'calls':>10}{'total_s':>11}{'self_s':>11}{'self%':>8}",
    ]
    for name, row in rows:
        lines.append(
            f"{name:<24}{row['calls']:>10}{row['total_s']:>11.4f}"
            f"{row['self_s']:>11.4f}{100 * row['self_s'] / body:>7.1f}%"
        )
    for name, row in sorted(traced["telemetry"].items()):
        lines.append(
            f"{'telemetry:' + name:<24}{row['calls']:>10}"
            f"{row['total_s']:>11.4f}"
        )
    for key in ("fleet.scaling_exp", "workload.validate_exp",
                "knapsack.budget_exp", "explain.record_overhead"):
        if metrics[key]:
            lines.append(f"{key:<24}{metrics[key]:>21.4f}")
    return "\n".join(lines)


def emit(spec, metrics, correct, attempted, failed):
    units = {m["name"]: m["unit"] for m in spec}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload; choose from {names}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)

    try:
        if args.trace:
            probe = import_probe()
            extra, details = witnesses(args.workload, args.seed)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + args.seconds
    untraced, traced = [], []
    try:
        while len(untraced) < (1 if args.trace else MIN_ROUNDS) or (
            time.monotonic() < deadline
        ):
            untraced.append(run_round(args.workload, args.seed, not untraced))
            if args.trace:
                traced.append(
                    run_round(args.workload, args.seed, False, "traced")
                )
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = untraced + traced
    attempted = sum(r["units"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = check_digests(args.workload, args.seed, rounds)
    for problem in problems:
        print(f"error: {args.workload} seed {args.seed}: {problem}",
              file=sys.stderr)
    correct = failed == 0 and not problems
    # A round whose checks failed has no outputs to measure.
    untraced = [r for r in untraced if not r["failed"]]
    traced = [r for r in traced if not r["failed"]]
    if not untraced or (args.trace and not traced):
        print("error: every round failed its checks", file=sys.stderr)
        return 1

    if args.trace:
        samples = []
        for round_ in traced:
            sample = layer_metrics(round_)
            sample.update(probe)
            sample.update(extra)
            samples.append(sample)
        metrics = median_metrics(samples)
        metrics["trace.overhead"] = statistics.median(
            r["body_s"] for r in traced
        ) / statistics.median(r["body_s"] for r in untraced)
        report = layer_table_text(args.workload, traced[0], metrics)
        print(report)
        out = WORKDIR / f"{args.workload}-seed{args.seed}-layers.json"
        out.write_text(
            json.dumps(
                {
                    "metrics": metrics,
                    "layers": traced[0]["layers"],
                    "telemetry": traced[0]["telemetry"],
                    "witnesses": details,
                },
                indent=1,
                sort_keys=True,
            )
        )
        emit(benchmark["per_layer"], metrics, correct, attempted, failed)
    else:
        metrics = end_to_end(untraced)
        emit(benchmark["end_to_end"], metrics, correct, attempted, failed)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
