"""Workloads: ordered query sets with result-size accounting.

The paper's experiment (Section 6.1) runs "10 queries that calculate
the total profit per day, month, year and per country, department, and
region", in sub-workloads of 3, 5 and 10 queries.
:func:`paper_sales_workload` reconstructs that family: the nine
(time level x geography level) combinations plus the yearly total,
ordered coarse-to-fine so the 3- and 5-query workloads are prefixes —
consistent with the paper's per-query time limits growing from 0.19 h
(m=3) to 0.22 h (m=10) as finer queries join.
"""

from __future__ import annotations

from dataclasses import replace
from operator import indexOf
from typing import (
    Collection,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .query import AggregateQuery
from ..errors import SchemaError
from ..schema.hierarchy import ALL
from ..schema.star import StarSchema

__all__ = [
    "NAMESPACE_SEPARATOR",
    "Workload",
    "paper_sales_workload",
    "cross_workload",
]

#: Separates a query name's namespace from the rest ("acme/Q1" is in
#: namespace "acme"); tenant fleets namespace each tenant's queries.
NAMESPACE_SEPARATOR = "/"


class Workload:
    """An ordered, duplicate-free set of aggregate queries.

    ``Workload(schema, queries)`` is the one validating constructor:
    it checks every query's grain and filters against the schema and
    rejects duplicate names.  The drift operations (:meth:`with_queries`,
    :meth:`without`, :meth:`reweighted`, :meth:`prefix`) validate only
    what they add and splice the resident queries, already checked,
    through the private trusted constructor — so a churn event costs
    the validation of its own queries, not of the whole workload.
    """

    def __init__(self, schema: StarSchema, queries: Iterable[AggregateQuery]) -> None:
        queries = tuple(queries)
        if not queries:
            raise SchemaError("a workload needs at least one query")
        names = tuple(q.name for q in queries)
        if len(set(names)) != len(names):
            raise SchemaError("workload query names must be unique")
        for query in queries:
            query.validate_against(schema)
        self._schema = schema
        self._queries: Tuple[AggregateQuery, ...] = queries
        # Aligned with ``_queries``: each query's name and namespace.
        self._names: Tuple[str, ...] = names
        self._spaces: Tuple[Optional[str], ...] = tuple(map(_namespace, names))

    @classmethod
    def _trusted(
        cls,
        schema: StarSchema,
        queries: Tuple[AggregateQuery, ...],
        names: Tuple[str, ...],
        spaces: Tuple[Optional[str], ...],
    ) -> "Workload":
        """A workload from already-validated, aligned parts; checks nothing.

        Only the drift operations call this, with queries that all
        passed through ``Workload.__init__`` on this ``schema``.
        """
        workload = cls.__new__(cls)
        workload._schema = schema
        workload._queries = queries
        workload._names = names
        workload._spaces = spaces
        return workload

    @property
    def schema(self) -> StarSchema:
        """The star schema the queries run against."""
        return self._schema

    @property
    def queries(self) -> Sequence[AggregateQuery]:
        """The queries, in workload order."""
        return self._queries

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[AggregateQuery]:
        return iter(self._queries)

    def fingerprint(self) -> Tuple:
        """Hashable value identity of the workload.

        Everything pricing-relevant per query, in workload order.  This
        is *the* workload component of every cross-problem cache key
        (:meth:`repro.costmodel.PlanningInputs.fingerprint` and the
        lifecycle simulator's state keys), so any new pricing-relevant
        query field must be added here once, not at each call site.
        """
        return tuple(
            (q.name, q.grain, q.frequency, q.filters) for q in self._queries
        )

    def prefix(self, m: int) -> "Workload":
        """The first ``m`` queries as a workload (paper's m=3/5/10)."""
        if not 1 <= m <= len(self._queries):
            raise SchemaError(
                f"prefix size {m} outside [1, {len(self._queries)}]"
            )
        return Workload._trusted(
            self._schema,
            self._queries[:m],
            self._names[:m],
            self._spaces[:m],
        )

    # -- drift operations (used by the lifecycle simulator) ------------

    def with_queries(
        self,
        queries: Iterable[AggregateQuery],
        before: Collection[str] = (),
    ) -> "Workload":
        """This workload plus ``queries``, as a new workload.

        Only the arriving queries are validated (at least one, unique,
        valid against the schema, no name already resident).

        Parameters
        ----------
        queries:
            The arriving queries, in the order they join.
        before:
            Namespaces (the part of a name before its first ``/``:
            ``acme`` for ``acme/Q1``).  The arrivals are inserted
            before the first resident query in any of them; with none
            resident, or ``before`` empty, they are appended.
        """
        added = Workload(self._schema, queries)
        clash = set(added._names).intersection(self._names)
        if clash:
            raise SchemaError(
                f"workload query names must be unique; {sorted(clash)} "
                f"already in the workload"
            )
        at = len(self._queries)
        laters = frozenset(before)
        if laters:
            try:
                at = indexOf(map(laters.__contains__, self._spaces), True)
            except ValueError:  # no resident query in those namespaces
                pass
        return Workload._trusted(
            self._schema,
            self._queries[:at] + added._queries + self._queries[at:],
            self._names[:at] + added._names + self._names[at:],
            self._spaces[:at] + added._spaces + self._spaces[at:],
        )

    def without(self, names: Iterable[str]) -> "Workload":
        """This workload minus the named queries, as a new workload.

        Every name must exist, and at least one query must survive —
        both enforced so a drift event that mistypes a query name fails
        loudly instead of silently dropping nothing.
        """
        drop = frozenset(names)
        unknown = drop.difference(self._names)
        if unknown:
            raise SchemaError(
                f"cannot drop unknown queries: {sorted(unknown)}"
            )
        if len(drop) == len(self._queries):
            raise SchemaError("cannot drop every query from a workload")
        queries = list(self._queries)
        kept = list(self._names)
        spaces = list(self._spaces)
        for at in sorted(map(self._names.index, drop), reverse=True):
            del queries[at], kept[at], spaces[at]
        return Workload._trusted(
            self._schema,
            tuple(queries),
            tuple(kept),
            tuple(spaces),
        )

    def reweighted(self, frequencies: "dict[str, float]") -> "Workload":
        """A workload with the named queries' frequencies replaced."""
        unknown = set(frequencies).difference(self._names)
        if unknown:
            raise SchemaError(
                f"cannot reweight unknown queries: {sorted(unknown)}"
            )
        queries = list(self._queries)
        for name, frequency in frequencies.items():
            at = self._names.index(name)
            queries[at] = replace(queries[at], frequency=frequency)
        return Workload._trusted(
            self._schema, tuple(queries), self._names, self._spaces
        )

    def __repr__(self) -> str:
        return f"Workload({self._schema.name!r}, {list(self._names)})"


def _namespace(name: str) -> Optional[str]:
    """The namespace of a query name (``acme/Q1`` -> ``acme``), if any.

    Names without ``/``, or with nothing after it, have none.
    """
    space, _, rest = name.partition(NAMESPACE_SEPARATOR)
    return space if rest else None


#: The reconstructed 10-query paper workload, as (time, geography) grains,
#: coarse-to-fine.  Prefixes of 3 and 5 form the smaller workloads.
_PAPER_GRAINS: List[Tuple[str, str]] = [
    ("year", "country"),      # Q1, quoted verbatim in Section 2.1
    ("month", "country"),
    ("year", "region"),       # --- 3-query workload ends here
    ("month", "region"),
    ("year", "department"),   # --- 5-query workload ends here
    ("day", "country"),
    ("month", "department"),
    ("day", "region"),
    ("day", "department"),
    ("year", ALL),            # the yearly total: the 10th "per year" query
]


def paper_sales_workload(schema: StarSchema, m: int = 10) -> Workload:
    """The paper's experimental workload family over the sales schema.

    ``m`` selects the 3-, 5- or 10-query sub-workload (any prefix size
    in [1, 10] is allowed; the paper uses 3, 5 and 10).
    """
    queries = [
        AggregateQuery(f"Q{i + 1}", schema.validate_grain(grain))
        for i, grain in enumerate(_PAPER_GRAINS)
    ]
    return Workload(schema, queries).prefix(m)


def cross_workload(schema: StarSchema, frequency: float = 1.0) -> Workload:
    """Every non-apex grain combination as a workload.

    For wider schemas (SSB) this enumerates the full cross product of
    named levels — the "dice every way" analyst workload used by the
    SSB experiments.
    """
    grains: List[Tuple[str, ...]] = [()]
    for dim in schema.dimensions:
        grains = [
            g + (level,)
            for g in grains
            for level in dim.hierarchy.levels_with_all
        ]
    queries = [
        AggregateQuery(f"Q{i + 1}", schema.validate_grain(grain), frequency)
        for i, grain in enumerate(g for g in grains if g != schema.apex_grain)
    ]
    return Workload(schema, queries)
