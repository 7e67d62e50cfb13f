"""The optimizer registry: algorithms as named, typed spec objects.

A bare algorithm name cannot carry configuration — a beam width, an
evaluation budget, a search seed, a warm-start tolerance — so every
knob would become another kwarg threaded through
:func:`~repro.optimizer.selector.select_views`, the re-selection
policies and the CLI.  This module is instead a registry of
:class:`OptimizerSpec` subclasses:

* every algorithm is a frozen dataclass carrying its own configuration
  (so specs pickle into Monte Carlo workers and *are* their identity);
* algorithms register by name via :func:`register`, and
  :func:`resolve` turns either a name or a spec instance into a spec,
  so a plain name works wherever a spec does;
* unknown names raise :class:`~repro.errors.OptimizationError` listing
  every registered name, and scenario/algorithm mismatches raise the
  typed :class:`~repro.errors.ScenarioMismatchError` naming both sides
  *before* the algorithm runs.

Built-in specs live next to their algorithms —
:mod:`~repro.optimizer.selector` registers the classic trio,
:mod:`~repro.optimizer.search` the anytime search family — and are
imported lazily on first resolution so this module stays import-cycle
free.

Examples
--------
>>> from repro.optimizer.registry import resolve, registered_algorithms
>>> sorted(registered_algorithms())
['beam', 'exhaustive', 'greedy', 'knapsack', 'local']
>>> resolve("greedy")
GreedySpec()
>>> resolve("simplex")
Traceback (most recent call last):
    ...
repro.errors.OptimizationError: unknown algorithm 'simplex'; registered algorithms: beam, exhaustive, greedy, knapsack, local
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, FrozenSet, Optional, Tuple, Type, Union

from ..errors import OptimizationError, ScenarioMismatchError

if TYPE_CHECKING:  # pragma: no cover — annotations only
    from .problem import SelectionOutcome, SelectionProblem
    from .scenarios import Scenario

__all__ = [
    "OptimizerSpec",
    "register",
    "registered_algorithms",
    "resolve",
]


@dataclass(frozen=True)
class OptimizerSpec:
    """One algorithm plus its configuration, as a frozen value object.

    Subclasses set the class attribute ``name`` (the registry key and
    the label reported on :class:`~repro.optimizer.selector.
    SelectionResult.algorithm`) and implement :meth:`solve`.  A spec
    carries *all* of its algorithm's knobs as dataclass fields, so two
    equal specs run identically and a spec pickles cleanly into worker
    processes.

    ``supported_scenarios`` declares which scenario types the
    algorithm can optimize; ``None`` (the default) means "any object
    implementing the :class:`~repro.optimizer.scenarios.Scenario`
    protocol".  :meth:`check_scenario` turns a mismatch into a typed
    :class:`~repro.errors.ScenarioMismatchError` naming both sides.
    """

    name: ClassVar[str] = "abstract"
    #: Scenario types the algorithm understands; ``None`` = any.
    supported_scenarios: ClassVar[Optional[Tuple[type, ...]]] = None

    def solve(
        self,
        problem: "SelectionProblem",
        scenario: "Scenario",
        warm_start: Optional[FrozenSet[str]] = None,
    ) -> "SelectionOutcome":
        """The scenario-best subset this algorithm finds, exactly priced.

        ``warm_start`` is a previously held subset the algorithm may
        start from; algorithms without a warm-start notion ignore it
        (the classic trio does — their answers cannot depend on it, or
        legacy results would drift).
        """
        raise NotImplementedError

    def check_scenario(self, scenario: "Scenario") -> None:
        """Raise :class:`ScenarioMismatchError` unless supported."""
        supported = type(self).supported_scenarios
        if supported is None:
            return
        if not isinstance(scenario, supported):
            names = ", ".join(sorted(t.__name__ for t in supported))
            raise ScenarioMismatchError(
                self.name, scenario, f"supported scenario types: {names}"
            )

    def describe(self) -> str:
        """Display name (subclasses may append their knobs)."""
        return self.name


_REGISTRY: Dict[str, Type[OptimizerSpec]] = {}


def register(cls: Type[OptimizerSpec]) -> Type[OptimizerSpec]:
    """Class decorator: make ``cls`` resolvable by its ``name``.

    Re-registering a name maps it to the newer class (idempotent for
    the same class; deliberate shadowing is allowed for tests).
    """
    if not isinstance(getattr(cls, "name", None), str) or cls.name in (
        "",
        "abstract",
    ):
        raise OptimizationError(
            f"{cls.__name__} must define a non-empty registry name"
        )
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_builtins() -> None:
    """Import the modules whose import registers the built-in specs.

    Lazy so ``repro.optimizer.registry`` has no import cycle with the
    algorithm modules (which import :func:`register` from here).
    """
    from . import selector as _selector  # noqa: F401  (registers trio)
    from . import search as _search  # noqa: F401  (registers beam/local)


def registered_algorithms() -> Tuple[str, ...]:
    """Every registered algorithm name, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def resolve(algorithm: Union[str, OptimizerSpec]) -> OptimizerSpec:
    """``algorithm`` as a spec: names default-construct, specs pass through.

    Every call site that accepts an algorithm funnels through here,
    so a registered name means the same spec everywhere and unknown
    names fail with the full registered list.
    """
    if isinstance(algorithm, OptimizerSpec):
        return algorithm
    _ensure_builtins()
    spec_class = _REGISTRY.get(algorithm)
    if spec_class is None:
        known = ", ".join(sorted(_REGISTRY))
        raise OptimizationError(
            f"unknown algorithm {algorithm!r}; registered algorithms: {known}"
        )
    return spec_class()
