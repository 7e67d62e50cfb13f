"""Online warehouse lifecycle simulation with incremental re-selection.

The paper prices materialized views for a static workload at one
planning instant.  This package runs the same machinery *through
time*: a :class:`SimulationClock` steps epochs (billing periods), an
:class:`EventTimeline` applies drift (queries arriving/leaving/
re-weighting, data growth, provider repricing, fleet changes), and a
re-selection policy (``never`` / ``periodic`` / ``regret``) decides
each epoch whether the materialized set is kept or rebuilt — with
build and teardown charged through the existing cost model and every
epoch recorded in a :class:`SimulationLedger`.

Fast multi-epoch x multi-policy sweeps come from two caches: the
cross-problem :class:`~repro.optimizer.problem.SubsetEvaluationCache`
(epochs whose world did not change never re-price a subset) and the
:class:`EpochProblemBuilder`'s incremental per-query pricing (drift
that adds one query prices one query).

Multi-tenant lifecycles layer on top (see
:mod:`repro.simulate.tenants` and :mod:`repro.simulate.attribution`):
a :class:`TenantFleet` merges several tenants' workloads onto one
shared warehouse, a :class:`MultiTenantSimulator` runs the merged
fleet through the same epoch loop, and a
:class:`SharedCostAttributor` splits every epoch's charges into
per-tenant ledgers that sum exactly to the fleet bill.  One plan
(:meth:`SharedCostAttributor.component_plan`) decides each epoch's
splits; in-memory ledgers evaluate it as one in-process shard, and
population-scale runs evaluate it across tenant shards and worker
processes through the same merge — with an
optional fairness-aware selection mode
(:class:`~repro.optimizer.fairness.FairShareScenario`) capping each
tenant's attributed cost.

Online pricing arbitrage makes the provider itself a decision (see
:mod:`repro.simulate.arbitrage` and :mod:`repro.pricing.migration`):
a :class:`WarehouseState` can quote a *market* of candidate price
books, and an :class:`ArbitrageAware` policy wrapper prices the
holdings + workload against every quoted book each epoch (cheap —
counterfactual problems flow through the shared evaluation cache),
migrating via a billed :class:`ProviderMigration` (dataset + view
egress, re-materialization on the target) when the amortized savings
over ``--migration-horizon`` epochs beat the switch cost, with
hold-N hysteresis against spot-price thrash.

There is one epoch loop, and every decided build goes through its
build queue (see :mod:`repro.simulate.builds`): a :class:`BuildQueue`
with bounded ``build_slots`` and a FIFO / shortest-build-first
discipline admits :class:`BuildJob`\\ s whose durations come from the
cost model's ``materialization_hours``, so a rebuild decided in epoch
*k* lands **mid-epoch** — queries are answered from the previous
holdings until the view lands, epochs split into prorated
:class:`EpochSegment`\\ s at the landing instants, and an abandoned
build bills only its sunk compute.  The synchronous regime is the
instant-build case of the same loop: ``builds=None`` (the CLI's
default, or ``--sync``) lands every build at its own epoch's start,
so each epoch bills one full period of the decided subset.

Stochastic drift and Monte Carlo evaluation close the loop (see
:mod:`repro.simulate.stochastic` and
:mod:`repro.simulate.montecarlo`): seeded generators — Poisson query
churn, seasonal frequency waves, lognormal growth shocks, spot-price
random walks — compile sampled futures into deterministic
:class:`EventTimeline`\\ s, and :func:`run_monte_carlo` compares
policies on cost *distributions* over many such futures (parallel
across processes, byte-identical results for any worker count).

Quick start (see ``examples/lifecycle_simulation.py``,
``examples/multi_tenant_simulation.py`` and
``examples/monte_carlo_simulation.py``)::

    from repro.simulate import drifting_sales_simulator, make_policy

    sim = drifting_sales_simulator(n_epochs=24)
    ledgers = sim.compare([make_policy(n) for n in ("never", "regret")])
    for ledger in ledgers.values():
        print(ledger.summary())

    from repro.simulate import multi_tenant_sales_simulator

    fleet_sim = multi_tenant_sales_simulator(n_tenants=3)
    fleet_ledger = fleet_sim.run(make_policy("regret"))
    print(fleet_ledger.summary())   # fleet line + one line per tenant
"""

from .builds import (
    BUILD_DISCIPLINES,
    BuildCancellation,
    BuildCompletion,
    BuildConfig,
    BuildJob,
    BuildQueue,
    prorate,
    tile_fractions,
)
from .arbitrage import (
    ArbitrageAware,
    MigrationAssessment,
    assess_migration,
    operating_cost,
)
from .attribution import (
    ATTRIBUTION_MODES,
    SharedCostAttributor,
    allocate_exactly,
    tenant_of_query,
)
from .clock import Epoch, SimulationClock
from .events import (
    AddQueries,
    BuildCancelled,
    BuildCompleted,
    BuildStarted,
    DropQueries,
    EventTimeline,
    FleetChange,
    GrowFactTable,
    MarketReprice,
    PriceChange,
    ProviderMigration,
    ReweightQueries,
    SimulationEvent,
)
from .ledger import (
    EpochRecord,
    EpochSegment,
    FleetLedger,
    SimulationLedger,
    TenantEpochRecord,
    TenantLedger,
)
from .montecarlo import (
    CLAIRVOYANT,
    DistributionSummary,
    MonteCarloConfig,
    MonteCarloResult,
    PolicySpec,
    TrialOutcome,
    run_monte_carlo,
    run_trial,
)
from .policy import (
    POLICY_NAMES,
    NeverReselect,
    PeriodicReselect,
    PolicyDecision,
    RegretTriggered,
    ReselectionPolicy,
    ScenarioFactory,
    make_policy,
)
from .presets import (
    DRIFT_MIN_EPOCHS,
    async_sales_simulator,
    default_market,
    drifting_sales_simulator,
    multi_tenant_min_epochs,
    multi_tenant_sales_simulator,
    sales_deployment,
    stochastic_multi_tenant_simulator,
    stochastic_sales_simulator,
)
from .problems import EpochContext, EpochProblemBuilder
from .simulator import (
    EpochObserver,
    LifecycleSimulator,
    compose_observers,
    full_catalogue,
)
from .state import Holdings, WarehouseState, provider_family
from .stochastic import (
    GENERATOR_PRESETS,
    DriftGenerator,
    GeneratorContext,
    GeometricGrowth,
    PoissonQueryChurn,
    SeasonalWave,
    SpotPriceWalk,
    compile_timeline,
    derive_seed,
    generator_preset,
    split_by_scope,
    spot_repriced,
)
from .tenants import MultiTenantSimulator, Tenant, TenantFleet, qualify

__all__ = [
    "ATTRIBUTION_MODES",
    "AddQueries",
    "ArbitrageAware",
    "BUILD_DISCIPLINES",
    "BuildCancellation",
    "BuildCancelled",
    "BuildCompleted",
    "BuildCompletion",
    "BuildConfig",
    "BuildJob",
    "BuildQueue",
    "BuildStarted",
    "CLAIRVOYANT",
    "DRIFT_MIN_EPOCHS",
    "DistributionSummary",
    "DriftGenerator",
    "DropQueries",
    "Epoch",
    "EpochContext",
    "EpochObserver",
    "EpochProblemBuilder",
    "EpochRecord",
    "EpochSegment",
    "EventTimeline",
    "FleetChange",
    "FleetLedger",
    "GENERATOR_PRESETS",
    "GeneratorContext",
    "GeometricGrowth",
    "GrowFactTable",
    "Holdings",
    "LifecycleSimulator",
    "MarketReprice",
    "MigrationAssessment",
    "MonteCarloConfig",
    "MonteCarloResult",
    "MultiTenantSimulator",
    "NeverReselect",
    "POLICY_NAMES",
    "PeriodicReselect",
    "PoissonQueryChurn",
    "PolicyDecision",
    "PolicySpec",
    "PriceChange",
    "ProviderMigration",
    "RegretTriggered",
    "ReselectionPolicy",
    "ReweightQueries",
    "ScenarioFactory",
    "SeasonalWave",
    "SharedCostAttributor",
    "SimulationClock",
    "SimulationEvent",
    "SimulationLedger",
    "SpotPriceWalk",
    "Tenant",
    "TenantEpochRecord",
    "TenantFleet",
    "TenantLedger",
    "TrialOutcome",
    "WarehouseState",
    "allocate_exactly",
    "assess_migration",
    "async_sales_simulator",
    "compile_timeline",
    "compose_observers",
    "default_market",
    "derive_seed",
    "drifting_sales_simulator",
    "full_catalogue",
    "generator_preset",
    "make_policy",
    "multi_tenant_min_epochs",
    "multi_tenant_sales_simulator",
    "operating_cost",
    "prorate",
    "provider_family",
    "qualify",
    "run_monte_carlo",
    "run_trial",
    "sales_deployment",
    "split_by_scope",
    "spot_repriced",
    "stochastic_multi_tenant_simulator",
    "stochastic_sales_simulator",
    "tenant_of_query",
    "tile_fractions",
]
