"""One benchmark round in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json job>'``
with ``src`` on ``PYTHONPATH``; prints one JSON object as its last
line.  Modes:

``round``
    Set up the workload, time one body call untraced, check it.
``traced``
    The same with every layer wrapped (see ``tracer.py``) and
    ``repro.telemetry`` active; reports the layer table and counters.
``fleet-scaling``
    Complexity witness: elastic fleets at 1k/2k/4k tenants, timing
    each run and counting the queries ``Workload`` validates.
``knapsack-budget``
    Complexity witness: cold knapsack solves at three budget sizes.
``explain-overhead``
    Interleaved plain and recorded fleet runs (untraced).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback

from tracer import Tracer, instrument
from workloads import (
    WORKLOADS,
    CheckFailed,
    ExplainFleet,
    FleetElastic,
    SelectLattice,
    run_fleet,
)

_clock = time.perf_counter

#: Nominal seconds of :func:`reference_s`.  Times are reported at the
#: host speed where the loop takes this long: each measured time is
#: multiplied by REFERENCE_S / (the loop's time next to it).
REFERENCE_S = 0.1


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def checked(workload, job, world, output):
    """Run the output checks; a failure fails the whole round."""
    try:
        return workload.check(job["seed"], world, output, job["first"])
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception:  # a check that raises is a failed check
        traceback.print_exc()
    return {"failed": workload.units_per_round}


def reference_s(n=200):
    """Seconds for a fixed pure-Python loop (dicts, tuples, strings).

    Run next to the body in the same process, it measures the host's
    speed at that moment.  It allocates and frees like the program but
    keeps little alive, so it leaves the peak RSS to the program; the
    collector is off so that the program's own settings cannot change
    it.
    """
    gc.disable()
    try:
        start = _clock()
        seen = {}
        for block in range(n):
            rows = [(str(i), (i % 97, block)) for i in range(1_000)]
            rows.sort()
            for name, key in rows:
                seen[key] = seen.get(key, 0) + len(name)
        return _clock() - start
    finally:
        gc.enable()


def host_scale():
    """Factor from this moment's host speed to the reference speed."""
    return REFERENCE_S / reference_s()


def timed(fn):
    """``fn()`` and its wall time at the reference speed.

    The reference loop runs just before and just after, so the scale
    brackets the call.
    """
    before = host_scale()
    start = _clock()
    result = fn()
    elapsed = _clock() - start
    scale = (before + host_scale()) / 2
    return result, elapsed * scale, scale


def round_job(job, tracer=None):
    workload = WORKLOADS[job["workload"]]
    if tracer is not None:
        instrument(tracer)
    world = workload.setup(job["seed"], job["workdir"])
    ready = time.monotonic()
    before = dict(tracer.counts) if tracer else {}
    marks = []

    def body():
        marks.append(_clock())
        output = workload.body(world)
        marks.append(_clock())
        return output

    if tracer is None:
        output, body_s, scale = timed(body)
    else:
        from repro.telemetry import Telemetry, activate

        telemetry = Telemetry()
        with activate(telemetry):
            output, body_s, scale = timed(body)
    result = {
        "ready": ready,
        "scale": scale,
        "body_s": body_s,
        "rss_mb": peak_rss_mb(),
        "units": workload.units_per_round,
    }
    if tracer is not None:
        start, end = marks
        result["layers"] = scaled_table(tracer.layer_table(start, end), scale)
        result["setup_layers"] = scaled_table(
            tracer.layer_table(end=start), scale
        )
        result["counts"] = {
            key: value - before.get(key, 0)
            for key, value in tracer.counts.items()
        }
        result["telemetry"] = {
            name: {"calls": stats.count, "total_s": stats.seconds * scale}
            for name, stats in telemetry.registry.spans.items()
        }
        result["trial_s"] = sorted(
            (e - s) * scale
            for name, s, e, _ in tracer.spans
            if name == "montecarlo.trial"
        )
        write_spans(job, tracer, start)
    result.update(checked(workload, job, world, output))
    return result


def scaled_table(table, scale):
    return {
        name: dict(row, total_s=row["total_s"] * scale,
                   self_s=row["self_s"] * scale)
        for name, row in table.items()
    }


def write_spans(job, tracer, body_start):
    """The traced round's spans, one JSON list per line."""
    path = os.path.join(
        job["workdir"], f"{job['workload']}-seed{job['seed']}.spans.jsonl"
    )
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent in tracer.spans:
            handle.write(
                json.dumps([name, start - body_start, end - body_start, parent])
                + "\n"
            )


def fleet_scaling(job):
    """Run time and validated queries of fleets at three sizes."""
    from repro.workload.workload import Workload

    validated = [0]
    init = Workload.__init__

    def counting_init(self, schema, queries):
        init(self, schema, queries)
        validated[0] += len(self)

    Workload.__init__ = counting_init
    workload = FleetElastic()
    points = []
    for n in (1_000, 2_000, 4_000):
        simulator = workload.simulator(job["seed"], n)
        validated[0] = 0
        _, seconds, _ = timed(lambda: workload.body(simulator))
        points.append({"n": n, "seconds": seconds, "validated": validated[0]})
    return {"points": points}


def knapsack_budget(job):
    """Cold knapsack solve time at three budgets (DP capacities)."""
    from repro.optimizer import SelectionProblem, mv1, select_views

    workload = SelectLattice()
    world = workload.knapsack_world(job["seed"])
    capacity = world.capacity(workload.knapsack_cells)
    points = []
    for scaled in (capacity // 2, capacity, capacity * 2):
        scenario = mv1(world.budget(scaled))
        _, seconds, _ = timed(
            lambda: select_views(
                SelectionProblem(world.inputs), scenario, "knapsack"
            )
        )
        points.append(
            {"capacity_cents": scaled + world.freed, "seconds": seconds}
        )
    return {"points": points}


def explain_overhead(job, pairs=3):
    """Recorded/plain wall-time ratios of interleaved fleet runs."""
    from repro.explain import ExplainLog, activate

    workload = ExplainFleet()
    ratios = []
    for _ in range(pairs):
        times = []
        for record in (False, True):
            simulator = workload.simulator(job["seed"])
            gc.collect()
            if record:
                with activate(ExplainLog()) as log:
                    _, seconds, _ = timed(lambda: run_fleet(simulator))
                log.records  # resolve outside the timer, as export does
            else:
                _, seconds, _ = timed(lambda: run_fleet(simulator))
            times.append(seconds)
        ratios.append(times[1] / times[0])
    return {"ratios": ratios}


MODES = {
    "round": round_job,
    "traced": lambda job: round_job(job, Tracer()),
    "fleet-scaling": fleet_scaling,
    "knapsack-budget": knapsack_budget,
    "explain-overhead": explain_overhead,
}


def main():
    job = json.loads(sys.argv[1])
    result = MODES[job["mode"]](job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
