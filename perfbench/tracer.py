"""Outside-in layer tracing for the benchmark.

Nothing under ``src/`` knows about this module.  :func:`instrument`
wraps the public functions and methods listed there (by
replacing them at module or class level) so each call records a span
``[name, start, end, parent]`` in an in-memory :class:`Tracer`, plus
the counters the per-layer metrics need.  A layer's self time is its
span's duration minus the duration of its direct child spans.

Only the traced run installs these wrappers; end-to-end numbers come
from untraced runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    """Spans and counters, kept in memory until the run ends."""

    def __init__(self):
        #: ``[name, start, end, parent_index]`` per span, in open order.
        self.spans = []
        self._stack = []
        self._open = Counter()
        self.counts = Counter()

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent])
        self._stack.append(index)
        self._open[name] += 1
        return index

    def close(self, index):
        span = self.spans[index]
        span[2] = _clock()
        self._open[span[0]] -= 1
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        else:  # a span closed out of order: drop it and anything above
            del self._stack[self._stack.index(index):]

    def inside(self, name):
        """Whether a span called ``name`` is currently open."""
        return self._open[name] > 0

    def layer_table(self, start=float("-inf"), end=float("inf")):
        """Per span name: calls, inclusive seconds and self seconds.

        Only spans inside ``[start, end]`` count.  Inclusive time sums
        the outermost span of each name, so recursion is not counted
        twice; self time sums every span's duration minus its direct
        children's.
        """
        children = defaultdict(float)
        for name, s, e, parent in self.spans:
            if parent >= 0:
                children[parent] += e - s
        table = {}
        for index, (name, s, e, parent) in enumerate(self.spans):
            if s < start or e > end:
                continue
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += (e - s) - children[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row[1] += e - s
        return {
            name: {"calls": c, "total_s": t, "self_s": own}
            for name, (c, t, own) in table.items()
        }


def _wrap_call(tracer, name, fn, before=None, after=None):
    """``fn`` recording a span ``name``; optional counting hooks."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = before(tracer, args, kwargs) if before else None
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after:
            after(tracer, args, kwargs, result, token)
        return result

    return traced


def _wrap_generator(tracer, name, fn, per_item):
    """A generator function whose span stays open until it is drained.

    The consumer's work between items (folding shares, feeding the
    explain fold) nests inside the span as child spans, so the
    generator's self time is its own work only.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            for item in fn(*args, **kwargs):
                per_item(tracer)
                yield item
        finally:
            tracer.close(index)

    return traced


def _replace_everywhere(original, replacement):
    """Rebind every ``repro`` module attribute that is ``original``.

    Modules that did ``from .x import f`` hold their own reference, so
    the defining module alone is not enough.
    """
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(tracer, module, attr, name, before=None, after=None):
    original = getattr(module, attr)
    _replace_everywhere(
        original, _wrap_call(tracer, name, original, before, after)
    )


def _patch_method(tracer, cls, attr, name, before=None, after=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapped = classmethod(
            _wrap_call(tracer, name, raw.__func__, before, after)
        )
    elif isinstance(raw, property):
        wrapped = property(_wrap_call(tracer, name, raw.fget, before, after))
    else:
        wrapped = _wrap_call(tracer, name, raw, before, after)
    setattr(cls, attr, wrapped)


def _subclasses(root):
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


# -- counting hooks -----------------------------------------------------


def _count(key):
    def after(tracer, args, kwargs, result, token):
        tracer.counts[key] += 1

    return after


def _event_applied(tracer, args, kwargs, result, token):
    tracer.counts["events.apply_calls"] += 1
    if type(args[0]).__name__ in ("TenantArrival", "TenantDeparture"):
        tracer.counts["events.churn_events"] += 1


def _workload_built(tracer, args, kwargs, result, token):
    tracer.counts["workload.init_calls"] += 1
    tracer.counts["workload.queries_validated"] += len(args[0])


def _queries_before(tracer, args, kwargs):
    return args[0].queries_priced


def _problem_built(tracer, args, kwargs, result, token):
    tracer.counts["problems.problem_for_calls"] += 1
    tracer.counts["problems.queries_priced"] += args[0].queries_priced - token


def _stats_before(tracer, args, kwargs):
    stats = args[0].stats
    return stats.calls, stats.hits


def _solved(tracer, args, kwargs, result, token):
    stats = args[0].stats
    tracer.counts["optimizer.solve_calls"] += 1
    tracer.counts["optimizer.evaluations"] += stats.calls - token[0]
    tracer.counts["optimizer.cache_hits"] += stats.hits - token[1]


def _cells(tracer, args, kwargs, result, token):
    # Items x (capacity + 1): the size of the DP table over cents
    # (max_value_knapsack) or seconds of saving (min_weight_cover).
    tracer.counts["knapsack.cells"] += len(args[0]) * (max(args[2], 0) + 1)


def _batch_priced(tracer, args, kwargs, result, token):
    tracer.counts["kernel.priced_subsets"] += len(args[1])


def _decided(tracer, args, kwargs, result, token):
    if not tracer.inside("policy.decide"):  # outermost decision only
        tracer.counts["policy.decide_calls"] += 1
        tracer.counts["policy.reoptimized"] += bool(result.reoptimized)


def _share_streamed(tracer):
    tracer.counts["attribution.shares"] += 1


# -- the layer map --------------------------------------------------------


def instrument(tracer):
    """Wrap every traced layer so its calls record spans in ``tracer``.

    Imports the modules first, so the patched references are the ones
    the program will call.
    """
    import repro.cli  # noqa: F401  (loads every layer the CLI reaches)
    from repro.cube import generate as cube_generate
    from repro.costmodel import estimator
    from repro.explain import core as explain_core
    from repro.explain import export as explain_export
    from repro.explain import queries as explain_queries
    from repro.kernel import world as kernel_world
    from repro.money import Money
    from repro.optimizer import knapsack, registry, selector
    from repro.simulate import (
        attribution,
        events,
        ledger,
        montecarlo,
        policy,
        presets,
        problems,
        sharding,
        simulator,
        tenants,
    )
    from repro.workload import workload

    for attr, value in vars(presets).items():
        if attr.endswith("_simulator") and inspect.isfunction(value):
            _patch_function(tracer, presets, attr, "presets.build")
    _patch_function(
        tracer, cube_generate, "generate_lattice_inputs", "presets.build"
    )

    for cls in _subclasses(events.SimulationEvent):
        if "apply" in cls.__dict__:
            _patch_method(
                tracer, cls, "apply", "events.apply", after=_event_applied
            )
    _patch_method(
        tracer, workload.Workload, "__init__", "workload.init",
        after=_workload_built,
    )

    _patch_method(
        tracer, problems.EpochProblemBuilder, "problem_for",
        "problems.problem_for", before=_queries_before, after=_problem_built,
    )
    _patch_method(
        tracer, estimator.PlanningInputs, "plan_for", "estimator.plan_for"
    )

    _patch_method(
        tracer, kernel_world.KernelWorld, "build", "kernel.build",
        after=_count("kernel.build_calls"),
    )
    for attr in ("evaluate", "total_cents"):
        _patch_method(
            tracer, kernel_world.KernelWorld, attr, "kernel.price",
            after=_count("kernel.priced_subsets"),
        )
    _patch_method(
        tracer, kernel_world.KernelWorld, "total_cents_batch",
        "kernel.price", after=_batch_priced,
    )

    _patch_function(
        tracer, selector, "select_views", "optimizer.solve",
        before=_stats_before, after=_solved,
    )
    for name in registry.registered_algorithms():
        spec = registry.resolve(name)
        _patch_method(tracer, type(spec), "solve", f"optimizer.{name}")
    for attr in ("max_value_knapsack", "min_weight_cover"):
        _patch_function(
            tracer, knapsack, attr, "knapsack.dp", after=_cells
        )

    for cls in _subclasses(policy.ReselectionPolicy):
        if "decide_in_context" in cls.__dict__:
            _patch_method(
                tracer, cls, "decide_in_context", "policy.decide",
                after=_decided,
            )

    _patch_method(
        tracer, simulator.LifecycleSimulator, "run", "simulator.run"
    )
    _patch_method(
        tracer, tenants.MultiTenantSimulator, "run_sharded", "fleet.run"
    )

    attribute_streaming = sharding.ShardedAttribution.attribute_streaming
    sharding.ShardedAttribution.attribute_streaming = _wrap_generator(
        tracer, "attribution.stream", attribute_streaming, _share_streamed
    )
    _patch_method(
        tracer, attribution.SharedCostAttributor, "component_plan",
        "attribution.plan",
    )
    _patch_method(tracer, ledger.TenantTotals, "fold", "ledger.fold")
    _patch_method(
        tracer, ledger.FleetSummary, "verify_totals", "ledger.verify"
    )

    money_add = Money.__add__

    def counted_add(self, other):
        if tracer.inside("attribution.stream"):
            tracer.counts["money.stream_adds"] += 1
        return money_add(self, other)

    Money.__add__ = counted_add

    _patch_function(
        tracer, montecarlo, "run_monte_carlo", "montecarlo.run"
    )
    _patch_function(tracer, montecarlo, "run_trial", "montecarlo.trial")

    _patch_method(
        tracer, explain_core.ExplainLog, "records", "explain.materialize"
    )
    _patch_function(
        tracer, explain_export, "write_explain", "explain.export"
    )
    _patch_function(tracer, explain_queries, "load_explain", "explain.load")
    for attr in ("why_bill", "why_reselect", "why_view", "diff_epochs"):
        _patch_function(tracer, explain_queries, attr, "explain.query")
