"""Golden explain exports: pinned digests of the ``--explain-out`` bytes.

Each epoch-delta record splits the epoch's operating delta into one
term per event by re-pricing the chain of intermediate states — the
carry-over baseline, every state an event produced, and the final
state — at the subset live at epoch start.  These digests pin that
chain pricing byte for byte, whatever path computes it:

* sync drifting under never and regret;
* drifting plus a market under arbitrage, so provider migrations and
  price changes fall inside chains;
* slow asynchronous builds, for the carry-over terms;
* the elastic multi-tenant preset (alone and with a market), for
  churn chains and the tenant records;
* one world whose deployment cascades materialization, so every
  chain plan goes through the cascaded build schedule.

To re-derive a digest, run the case under a live
:class:`~repro.explain.ExplainLog` and hash ``explain_lines(log)``
joined line by line, exactly as ``write_explain`` writes them; a
mismatch means the provenance changed, which this suite exists to
forbid.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.explain import ExplainLog, activate, explain_lines
from repro.simulate import (
    ArbitrageAware,
    LifecycleSimulator,
    default_market,
    drifting_sales_simulator,
    make_policy,
    stochastic_sales_simulator,
)
from repro.simulate.presets import (
    async_sales_simulator,
    elastic_multi_tenant_simulator,
)

ROWS = 4_000


def _policy(name):
    if name == "arbitrage":
        return ArbitrageAware(make_policy("regret"), horizon=4, hysteresis=1)
    return make_policy(name)


def _with_cascade(simulator):
    """``simulator``'s timeline on a deployment that cascades builds."""
    initial = simulator._initial
    deployment = replace(initial.deployment, cascade_materialization=True)
    return LifecycleSimulator(
        initial=replace(initial, deployment=deployment),
        clock=simulator.clock,
        timeline=simulator.timeline,
    )


def _elastic(market=None):
    return elastic_multi_tenant_simulator(
        n_tenants=3, n_epochs=10, n_rows=ROWS, seed=5, market=market
    )


CASES = {
    "drifting": lambda: drifting_sales_simulator(n_epochs=19, n_rows=ROWS),
    "drifting+market": lambda: drifting_sales_simulator(
        n_epochs=19, n_rows=ROWS, market=default_market()
    ),
    "async-slow": lambda: async_sales_simulator(
        n_epochs=19, n_rows=ROWS, hours_per_month=0.5
    ),
    "elastic": _elastic,
    "elastic+market": lambda: _elastic(default_market()),
    "cascade": lambda: _with_cascade(
        stochastic_sales_simulator(
            generator="mixed", n_epochs=12, n_rows=ROWS, seed=7
        )
    ),
}


def export_digest(simulator, policy) -> str:
    """SHA-256 of the JSON-lines export of one recorded run."""
    with activate(ExplainLog()) as log:
        simulator.run(policy)
    text = "".join(line + "\n" for line in explain_lines(log))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: (case, policy) -> sha256 of the export.
GOLDEN = {
    ("drifting", "never"): (
        "87c3f80e19acc29e87bae28e687dafd55a37cb5a53451710e9d8d358aaafda9c"
    ),
    ("drifting", "regret"): (
        "b0ff3a0a7b596582f5e5f941de741f2a360d08a73ae00f224fe1adefa1898337"
    ),
    ("drifting+market", "arbitrage"): (
        "1bfed5e349c828143ea9b5e04e9c872fd6c0a346d4a31cac52ceacc12af637b4"
    ),
    ("async-slow", "regret"): (
        "151b56ba9fe8ad36ca4e5a58747f17d4d2b150b657044d48dc811d9207573e1d"
    ),
    ("elastic", "regret"): (
        "f267d32e301a9d2dca7aeaad476e7653d145611ac9d99d16e1f5f9b61ba83b25"
    ),
    ("elastic+market", "arbitrage"): (
        "5bbf8ae6847604a59d9091bc4e4962512d94421ada16f17fd918fd9a3ec1340f"
    ),
    ("cascade", "regret"): (
        "2d428c1f71eff77b2687fc39af9e4eda2b81b36614f6a5a0770808cd00930c44"
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="/".join)
def test_explain_exports_match_the_pinned_digests(case):
    preset, policy = case
    assert export_digest(CASES[preset](), _policy(policy)) == GOLDEN[case]


def test_the_cascade_world_really_cascades():
    simulator = CASES["cascade"]()
    assert simulator.builder.problem_for(
        simulator._initial
    ).inputs.deployment.cascade_materialization
