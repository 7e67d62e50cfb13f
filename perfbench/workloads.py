"""The benchmark's four workloads: inputs, timed body, output checks.

Each workload is built from its seed alone and runs in a fresh worker
interpreter.  ``setup`` builds the world (counted in ``setup_s``),
``body`` is the timed call, and ``check`` verifies the output outside
the timer.  Every import of ``repro`` happens inside these functions,
so a traced worker that has already wrapped the layers hands the
wrapped functions to the workload.
"""

from __future__ import annotations

import hashlib
import json
import os

#: One shard count and one process throughout (``jobs=1``).
SHARDS = 8
#: A second shard count for the byte-identity check.
CHECK_SHARDS = 3
FLEET_EPOCHS = 4


def child_seed(seed, label):
    """A stable integer seed for ``label`` under the benchmark seed."""
    digest = hashlib.sha256(f"perfbench/{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class CheckFailed(Exception):
    """An output check failed; the unit counts as failed."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- fleet-elastic ----------------------------------------------------------


class FleetElastic:
    """Elastic population fleet, sharded streaming attribution.

    Churn (events rebuilding the workload) and streaming attribution do
    nearly all the work; the optimizer solves once.
    """

    name = "fleet-elastic"
    n_tenants = 2_000
    units_per_round = 1  # one fleet run

    def simulator(self, seed, n_tenants=None):
        from repro.simulate.presets import population_fleet_simulator

        return population_fleet_simulator(
            n_tenants=n_tenants or self.n_tenants,
            elastic=True,
            n_epochs=FLEET_EPOCHS,
            seed=seed,
        )

    def setup(self, seed, workdir):
        return self.simulator(seed)

    def body(self, simulator):
        return run_fleet(simulator)

    def check(self, seed, world, summary, first):
        csv = check_fleet(summary)
        if first:
            again = run_fleet(self.simulator(seed), shards=CHECK_SHARDS)
            require(
                again.to_csv() == csv,
                f"tenant CSV differs between {SHARDS} and {CHECK_SHARDS} shards",
            )
        return {
            "digest": sha256(csv.encode()),
            "work": shares(summary),
            "export_bytes": len(csv.encode()),
            "plan_cost": str(summary.fleet.total_cost.amount),
            "failed": 0,
        }


def run_fleet(simulator, shards=SHARDS):
    """One fleet run: select once, attribute every epoch in shards."""
    from repro.simulate import NeverReselect

    return simulator.run_sharded(NeverReselect(), shards=shards)


def shares(summary):
    """Attributed tenant-epoch shares folded into the summary."""
    return sum(totals.n_records for totals in summary.tenants.values())


def check_fleet(summary):
    """Books balance and tenant sums equal the fleet total; the CSV."""
    from repro.money import ZERO

    summary.verify_totals()
    tenant_sum = sum(
        (totals.total_cost for totals in summary.tenants.values()), ZERO
    )
    require(
        tenant_sum == summary.fleet.total_cost,
        f"tenant sum {tenant_sum!r} != fleet total "
        f"{summary.fleet.total_cost!r}",
    )
    require(summary.fleet.arrival_count > 0, "no arrival was billed")
    require(summary.fleet.departure_count > 0, "no departure was settled")
    return summary.to_csv()


# -- mc-sweep -----------------------------------------------------------------


class MonteCarloSweep:
    """Serial Monte Carlo sweep: default policies plus clairvoyant.

    Decide/solve and warm pricing caches do the work; attribution idles.
    """

    name = "mc-sweep"
    #: Enough trials that the tail percentile has ten beyond it (p75).
    n_trials = 48

    @property
    def units_per_round(self):
        return self.n_trials  # one unit per trial

    def setup(self, seed, workdir):
        from repro.simulate import MonteCarloConfig

        return MonteCarloConfig(
            generator="mixed",
            n_trials=self.n_trials,
            n_epochs=12,
            n_rows=5_000,
            seed=seed,
        )

    def body(self, config):
        from repro.simulate import run_monte_carlo

        return run_monte_carlo(config, jobs=1)

    def check(self, seed, config, result, first):
        from repro.money import ZERO

        labels = set(result.policies)
        by_trial = {}
        for outcome in result.outcomes:
            by_trial.setdefault(outcome.trial, []).append(outcome)
        failed = 0
        for trial in range(config.n_trials):
            outcomes = by_trial.get(trial, [])
            ok = {o.policy for o in outcomes} == labels and all(
                o.total_cost > ZERO
                and o.regret == o.regret  # not NaN
                and (o.policy != "clairvoyant" or o.regret == 0.0)
                for o in outcomes
            )
            failed += not ok
        csv = "\n".join(",".join(row) for row in result.rows()) + "\n"
        # Summed over policies: each policy's mean lifetime bill.
        plan_cost = sum((o.total_cost for o in result.outcomes), ZERO)
        return {
            "digest": sha256(csv.encode()),
            "work": config.n_trials,
            "export_bytes": len(csv.encode()),
            "plan_cost": str(plan_cost.amount / config.n_trials),
            "failed": failed,
        }


# -- explain-fleet ------------------------------------------------------------


class ExplainFleet:
    """A recorded elastic fleet, exported, reloaded and queried."""

    name = "explain-fleet"
    n_tenants = 1_000
    units_per_round = 2  # one fleet run, one export+read cycle

    def simulator(self, seed):
        return FleetElastic().simulator(seed, self.n_tenants)

    def setup(self, seed, workdir):
        path = os.path.join(workdir, f"explain-{os.getpid()}.jsonl")
        return self.simulator(seed), path

    def body(self, world):
        from repro.explain import (
            ExplainLog,
            activate,
            diff_epochs,
            load_explain,
            why_bill,
            why_view,
            write_explain,
        )

        simulator, path = world
        with activate(ExplainLog()) as log:
            summary = run_fleet(simulator)
        records = log.records  # the first read materializes them
        with open(path, "w", encoding="utf-8") as handle:
            write_explain(log, handle)
        entries = load_explain(path)
        last = FLEET_EPOCHS - 1
        view = next(
            e["subset"][0]
            for e in entries
            if e.get("kind") == "optimizer-solve" and e.get("subset")
        )
        reports = (
            why_bill(entries, epoch=last),
            why_bill(entries, epoch=last, tenant="p0"),
            diff_epochs(entries, 0, last),
            why_view(entries, view),
        )
        return summary, len(records), len(entries), reports

    def check(self, seed, world, output, first):
        simulator, path = world
        summary, n_records, n_entries, reports = output
        with open(path, "rb") as handle:
            exported = handle.read()
        os.remove(path)
        csv = check_fleet(summary)
        require(n_records > 0 and n_entries == n_records, "explain log empty")
        require(all(reports), "an explain query returned nothing")
        if first:
            plain = run_fleet(self.simulator(seed))
            require(
                plain.to_csv() == csv,
                "recording explain changed the tenant CSV",
            )
        return {
            "digest": sha256(exported),
            "work": shares(summary),
            "export_bytes": len(exported),
            "plan_cost": str(summary.fleet.total_cost.amount),
            "failed": 0,
            "records": n_records,
        }


# -- select-lattice -----------------------------------------------------------


class SelectLattice:
    """Cold MV1 solves on generated lattices; no simulate layer runs.

    Greedy, beam and local search on the 1,000-view acceptance lattice
    (``generate_lattice_inputs(1000, seed=0, target_gb=1000)``), and the
    budget-in-cents knapsack DP on a 50-view 10 GB world.  The seed
    draws the lattice budget (1.5-2.5x the no-view bill), the beam and
    local search seeds, and the knapsack world; the lattice itself is
    fixed, so every seed asks for the same amount of search.
    """

    name = "select-lattice"
    units_per_round = 4  # four select_views solves
    big_views = 1_000
    small_views = 50
    #: Size of the knapsack DP table (budget-bound items x capacity in
    #: cents).  The DP's cost scales with the budget in cents, so the
    #: budget is set to give every seed's world a table of this size.
    knapsack_cells = 8_000_000
    #: Budget-bound items a knapsack world must have: enough for a real
    #: DP, and a narrow band so the table's shape is alike across seeds.
    core_items = range(8, 13)

    def setup(self, seed, workdir):
        from repro.cube import generate_lattice_inputs
        from repro.optimizer import SelectionProblem, mv1
        from repro.optimizer.search import BeamSearchSpec, LocalSearchSpec

        big = generate_lattice_inputs(
            n_views=self.big_views, seed=0, target_gb=1_000.0
        )
        baseline = SelectionProblem(big.inputs).baseline()
        factor = 1.5 + child_seed(seed, "budget") % 1001 / 1000
        search_seed = child_seed(seed, "search")
        small = self.knapsack_world(seed)
        return (
            big.inputs,
            mv1(baseline.total_cost * factor),
            (
                "greedy",
                BeamSearchSpec(seed=search_seed),
                LocalSearchSpec(seed=search_seed),
            ),
            small,
            mv1(small.budget(small.capacity(self.knapsack_cells))),
        )

    def knapsack_world(self, seed):
        """The first seeded 50-view world with the DP shape wanted."""
        for attempt in range(1_000):
            world = KnapsackWorld(
                child_seed(seed, f"knapsack/{attempt}"), self.small_views
            )
            if world.core in self.core_items and world.capacity(
                self.knapsack_cells
            ) >= world.base_cents // 4:
                return world
        raise CheckFailed("no knapsack world found in 1000 draws")

    def body(self, world):
        from repro.optimizer import SelectionProblem, select_views

        big, scenario, algorithms, small, budget = world
        results = [
            select_views(SelectionProblem(big), scenario, algorithm)
            for algorithm in algorithms
        ]
        results.append(
            select_views(SelectionProblem(small.inputs), budget, "knapsack")
        )
        return results

    def check(self, seed, world, results, first):
        from repro.money import ZERO

        big, scenario, algorithms, small, budget = world
        scenarios = (scenario, scenario, scenario, budget)
        failed = sum(
            not s.feasible(r.outcome) for s, r in zip(scenarios, results)
        )
        chosen = json.dumps(
            {r.algorithm: sorted(r.outcome.subset) for r in results},
            sort_keys=True,
        )
        plan_cost = sum((r.outcome.total_cost for r in results), ZERO)
        return {
            "digest": sha256(chosen.encode()),
            "work": len(results),
            "export_bytes": len(chosen.encode()),
            "plan_cost": str(plan_cost.amount),
            "failed": failed,
        }


class KnapsackWorld:
    """A 50-view 10 GB world and the knapsack's view of its items.

    Uses only public pricing (the baseline and each one-view subset) to
    count the items the DP must weigh against the budget: views that
    save time and add cost.  Views that save money widen the DP's
    capacity by what they save (``freed`` cents), which the budget
    absorbs.
    """

    def __init__(self, seed, n_views):
        from repro.cube import generate_lattice_inputs
        from repro.optimizer import SelectionProblem

        self.inputs = generate_lattice_inputs(
            n_views=n_views, seed=seed, target_gb=10.0
        ).inputs
        problem = SelectionProblem(self.inputs)
        base = problem.baseline()
        self.base_cents = base.total_cost.to_cents()
        self.core, self.freed = 0, 0
        for name in problem.candidate_names:
            single = problem.singleton(name)
            if single.processing_hours >= base.processing_hours:
                continue
            weight = single.total_cost.to_cents() - self.base_cents
            if weight > 0:
                self.core += 1
            else:
                self.freed -= weight

    def capacity(self, cells):
        """Budget above the baseline, in cents, for a DP of ``cells``."""
        return cells // self.core - self.freed

    def budget(self, capacity):
        """The MV1 budget ``capacity`` cents above the no-view bill."""
        from repro.money import cents

        return cents(self.base_cents + capacity)


WORKLOADS = {
    w.name: w
    for w in (FleetElastic(), MonteCarloSweep(), ExplainFleet(), SelectLattice())
}
