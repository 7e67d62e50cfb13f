"""Asynchronous view builds: a queue between deciding and existing.

The paper prices a materialized view as if it exists the instant it is
selected, yet its own timing model computes how many hours the build
takes.  This module closes that gap: a :class:`BuildQueue` admits
:class:`BuildJob`\\ s whose durations come from the cost model's
``materialization_hours``, runs them on a bounded number of concurrent
``slots`` under a scheduling ``discipline`` (FIFO or
shortest-build-first), and reports exactly *when* each view lands —
so a rebuild decided in epoch *k* can go live mid-epoch, with the
simulator billing the view's storage and maintenance only for the
fraction of the period it actually existed.  The simulator bills each
segment as ``full-period charge x fraction``, with the fractions
coming from :func:`tile_fractions` (whose residual last fraction is
what makes the segments of one epoch tile to exactly 1);
:func:`prorate` is the standalone splitter for dividing one
full-period amount across such fractions — the reference form of the
conservation invariant the tests and docs exercise.

Wall-clock conversion: a job of ``hours`` compute-hours occupies one
slot for ``hours / hours_per_month`` months (the default is
:data:`repro.units.HOURS_PER_MONTH`).  ``hours_per_month = inf``
makes every build instantaneous — the configuration behind the
simulator's ``builds=None``, under which every epoch bills one full
period of its decided subset (pinned by the golden-ledger tests).

Everything here is deterministic: jobs are sequenced at submission,
ties (equal finish times, equal durations) break by submission order,
and the queue never consults a clock of its own — the simulator
drives it with explicit months.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from ..errors import SimulationError
from ..money import Money, ZERO
from ..telemetry import current as current_telemetry
from ..units import HOURS_PER_MONTH

__all__ = [
    "BUILD_DISCIPLINES",
    "BuildCancellation",
    "BuildCompletion",
    "BuildConfig",
    "BuildJob",
    "BuildQueue",
    "prorate",
    "tile_fractions",
]

#: Scheduling disciplines a :class:`BuildQueue` accepts: ``"fifo"``
#: starts jobs in submission order; ``"shortest"`` always starts the
#: shortest queued build first (ties break by submission order).
BUILD_DISCIPLINES = ("fifo", "shortest")


@dataclass(frozen=True)
class BuildJob:
    """One view build waiting for (or occupying) a build slot.

    Parameters
    ----------
    view:
        Name of the candidate view being materialized.
    hours:
        Compute-hours the build takes — the cost model's
        ``materialization_hours`` for the view, frozen at submission
        (the world the build was priced in is the world it is billed
        from, even if the dataset grows while it waits).
    submitted_month:
        Simulation month the job entered the queue (an epoch start).
    """

    view: str
    hours: float
    submitted_month: float

    def __post_init__(self) -> None:
        if not self.view:
            raise SimulationError("a build job needs a view name")
        if self.hours < 0:
            raise SimulationError(
                f"build hours cannot be negative: {self.hours}"
            )
        if self.submitted_month < 0:
            raise SimulationError(
                f"jobs are submitted at month >= 0, got {self.submitted_month}"
            )


@dataclass(frozen=True)
class BuildCompletion:
    """A build that finished: the view is live from ``completed_month``."""

    job: BuildJob
    started_month: float
    completed_month: float

    @property
    def latency_months(self) -> float:
        """Wall-clock months from submission to landing (queue + build)."""
        return self.completed_month - self.job.submitted_month


@dataclass(frozen=True)
class BuildCancellation:
    """A build abandoned before landing; only ``sunk_hours`` were burned.

    A job cancelled while still queued has ``sunk_hours == 0`` (nothing
    ran); a job cancelled mid-build sinks the compute-hours elapsed
    since it started, capped at the job's full duration.
    """

    job: BuildJob
    cancelled_month: float
    sunk_hours: float


class _Running:
    """One job occupying a slot (internal)."""

    __slots__ = ("job", "seq", "started_month", "finish_month")

    def __init__(
        self, job: BuildJob, seq: int, started: float, finish: float
    ) -> None:
        self.job = job
        self.seq = seq
        self.started_month = started
        self.finish_month = finish


class BuildQueue:
    """Bounded-concurrency build execution over simulated months.

    Parameters
    ----------
    slots:
        Concurrent builds the warehouse sustains (>= 1).
    discipline:
        One of :data:`BUILD_DISCIPLINES`.
    hours_per_month:
        Wall-clock conversion for job durations; ``inf`` makes every
        build land the instant it is submitted.
    """

    def __init__(
        self,
        slots: int = 1,
        discipline: str = "fifo",
        hours_per_month: float = HOURS_PER_MONTH,
    ) -> None:
        if slots < 1:
            raise SimulationError(
                f"a build queue needs at least one slot, got {slots}"
            )
        if discipline not in BUILD_DISCIPLINES:
            raise SimulationError(
                f"unknown build discipline {discipline!r}; "
                f"choose from {BUILD_DISCIPLINES}"
            )
        if not hours_per_month > 0:
            raise SimulationError(
                f"hours_per_month must be positive, got {hours_per_month}"
            )
        self._slots = slots
        self._discipline = discipline
        self._hpm = hours_per_month
        self._queued: List[Tuple[int, BuildJob]] = []
        self._running: List[_Running] = []
        self._seq = 0
        self._now = 0.0
        self._delayed_starts: List[Tuple[BuildJob, float]] = []
        # Queues are created per run, inside whatever telemetry scope
        # the run executes under: capture the ambient handle once so
        # the per-job hot paths never take a global lookup.
        self._telemetry = current_telemetry()

    # -- accessors ------------------------------------------------------

    @property
    def slots(self) -> int:
        """Concurrent builds the queue sustains."""
        return self._slots

    @property
    def discipline(self) -> str:
        """The scheduling discipline (``fifo`` / ``shortest``)."""
        return self._discipline

    @property
    def depth(self) -> int:
        """In-flight builds: queued plus running."""
        return len(self._queued) + len(self._running)

    def pending_views(self) -> FrozenSet[str]:
        """Views currently queued or building (decided but not live)."""
        return frozenset(
            [job.view for _, job in self._queued]
            + [r.job.view for r in self._running]
        )

    def duration_months(self, job: BuildJob) -> float:
        """Wall-clock months ``job`` occupies a slot for.

        Returns
        -------
        float
            ``hours / hours_per_month``; exactly ``0.0`` for zero-hour
            jobs or an infinite ``hours_per_month`` (instant builds).
        """
        if job.hours == 0 or math.isinf(self._hpm):
            return 0.0
        return job.hours / self._hpm

    # -- the lifecycle --------------------------------------------------

    def submit(self, job: BuildJob) -> None:
        """Enqueue ``job``; it starts as soon as a slot frees.

        Raises
        ------
        SimulationError
            If a build for the same view is already in flight.
        """
        if job.view in self.pending_views():
            raise SimulationError(
                f"a build for view {job.view!r} is already in flight"
            )
        self._now = max(self._now, job.submitted_month)
        self._queued.append((self._seq, job))
        self._seq += 1
        self._start_idle(self._now)
        if self._telemetry.enabled:
            self._telemetry.inc("builds.submitted")
            self._telemetry.gauge_max("builds.queue_depth", self.depth)

    def _pick_next(self) -> int:
        """Index into ``_queued`` of the next job to start."""
        if self._discipline == "fifo":
            return 0
        return min(
            range(len(self._queued)),
            key=lambda i: (
                self.duration_months(self._queued[i][1]),
                self._queued[i][0],
            ),
        )

    def _start_idle(self, month: float) -> None:
        """Fill free slots from the queue at ``month``."""
        while self._queued and len(self._running) < self._slots:
            seq, job = self._queued.pop(self._pick_next())
            start = max(month, job.submitted_month)
            if start > job.submitted_month:
                self._delayed_starts.append((job, start))
            self._running.append(
                _Running(job, seq, start, start + self.duration_months(job))
            )

    def advance_to(self, month: float) -> Tuple[BuildCompletion, ...]:
        """Run the queue forward; return builds landing by ``month``.

        Completions are returned in landing order (ties by submission
        order); each landing frees a slot and immediately starts the
        next queued job at the landing instant, so a chain of
        zero-duration jobs all lands at its submission month even on a
        single slot.
        """
        completions: List[BuildCompletion] = []
        while True:
            due = [r for r in self._running if r.finish_month <= month]
            if not due:
                break
            first = min(due, key=lambda r: (r.finish_month, r.seq))
            self._running.remove(first)
            completions.append(
                BuildCompletion(
                    job=first.job,
                    started_month=first.started_month,
                    completed_month=first.finish_month,
                )
            )
            self._now = max(self._now, first.finish_month)
            self._start_idle(first.finish_month)
        self._now = max(self._now, month)
        if completions and self._telemetry.enabled:
            self._telemetry.inc("builds.completed", len(completions))
            for completion in completions:
                self._telemetry.observe(
                    "builds.latency_months", completion.latency_months
                )
        return tuple(completions)

    def cancel(
        self, views: Iterable[str], month: float
    ) -> Tuple[BuildCancellation, ...]:
        """Abandon the in-flight builds of ``views`` at ``month``.

        Queued jobs sink nothing; running jobs sink the compute-hours
        elapsed since they started (capped at the job's duration).
        Freed slots start the next queued jobs immediately.  Views with
        no build in flight are ignored — cancelling is idempotent.
        """
        wanted = set(views)
        if not wanted:
            return ()
        cancelled: List[Tuple[int, BuildCancellation]] = []
        kept_queued: List[Tuple[int, BuildJob]] = []
        for seq, job in self._queued:
            if job.view in wanted:
                cancelled.append(
                    (seq, BuildCancellation(job, month, 0.0))
                )
            else:
                kept_queued.append((seq, job))
        self._queued = kept_queued
        kept_running: List[_Running] = []
        for run in self._running:
            if run.job.view in wanted:
                elapsed = month - run.started_month
                sunk = (
                    0.0
                    if elapsed <= 0
                    else min(run.job.hours, elapsed * self._hpm)
                )
                cancelled.append(
                    (run.seq, BuildCancellation(run.job, month, sunk))
                )
            else:
                kept_running.append(run)
        self._running = kept_running
        self._start_idle(month)
        cancelled.sort(key=lambda pair: pair[0])
        if cancelled and self._telemetry.enabled:
            self._telemetry.inc("builds.cancelled", len(cancelled))
            for _, entry in cancelled:
                self._telemetry.observe(
                    "builds.sunk_hours", entry.sunk_hours
                )
        return tuple(entry for _, entry in cancelled)

    def drain_delayed_starts(self) -> Tuple[Tuple[BuildJob, float], ...]:
        """Jobs that started *after* their submission month, since the
        last drain — the queueing delays worth surfacing as
        :class:`~repro.simulate.events.BuildStarted` markers (an
        immediate start carries no information beyond the submission).
        """
        drained = tuple(self._delayed_starts)
        self._delayed_starts.clear()
        return drained

    def __repr__(self) -> str:
        return (
            f"BuildQueue(slots={self._slots}, "
            f"discipline={self._discipline!r}, depth={self.depth})"
        )


@dataclass(frozen=True)
class BuildConfig:
    """How a simulator runs builds: concurrency, discipline, clock.

    Parameters
    ----------
    slots:
        Concurrent build slots (the CLI's ``--build-slots``).
    discipline:
        One of :data:`BUILD_DISCIPLINES` (``--build-discipline``).
    hours_per_month:
        Wall-clock conversion; ``inf`` gives instant builds — what
        the simulator's ``builds=None`` means — so every slot count
        and discipline yields the same ledgers (the parity
        invariant).
    """

    slots: int = 1
    discipline: str = "fifo"
    hours_per_month: float = HOURS_PER_MONTH

    def __post_init__(self) -> None:
        # Validate eagerly by building a throwaway queue: the config
        # and the queue must never disagree about what is legal.
        BuildQueue(self.slots, self.discipline, self.hours_per_month)

    def queue(self) -> BuildQueue:
        """A fresh queue for one simulation run (queues are stateful)."""
        return BuildQueue(self.slots, self.discipline, self.hours_per_month)

    @property
    def instant(self) -> bool:
        """Whether every build lands the moment it is submitted."""
        return math.isinf(self.hours_per_month)

    def describe(self) -> str:
        """Short display form for ledgers and logs."""
        clock = "instant" if self.instant else f"{self.hours_per_month:g}h/mo"
        return f"builds[{self.slots}x {self.discipline}, {clock}]"


def tile_fractions(
    months: Sequence[float], total_months: float
) -> Tuple[float, ...]:
    """Period fractions for sub-interval lengths, tiling exactly to 1.

    Every fraction but the last is ``length / total_months``; the last
    is the residual ``1 - sum(others)``, so the fractions always sum to
    exactly ``1.0`` despite float division — the property partial-period
    billing rests on.  The residual is clamped at zero so accumulated
    float noise can never produce a (meaninglessly) negative fraction.
    """
    if not months:
        raise SimulationError("cannot tile an epoch into zero segments")
    if total_months <= 0:
        raise SimulationError("total_months must be positive")
    head = [max(0.0, m) / total_months for m in months[:-1]]
    return (*head, max(0.0, 1.0 - sum(head)))


def prorate(amount: Money, fractions: Sequence[float]) -> Tuple[Money, ...]:
    """Split a full-period charge across period fractions, exactly.

    Every share but the last is ``amount * fraction``; the last share
    is the exact residual, absorbing any rounding of the products — so
    the prorated segments of one period always sum to the full-period
    charge to the last decimal digit (the billing-conservation
    invariant; same construction as
    :func:`repro.simulate.attribution.allocate_exactly`).

    This is the *standalone* splitter for one amount over many
    fractions.  The simulator itself never splits one amount — each
    epoch segment prices a different holdings set — so its billing is
    ``full_i * fraction_i`` per segment, with conservation carried by
    :func:`tile_fractions`' residual fraction instead; use this helper
    when dividing a single full-period charge (an invoice line, a
    budget) across sub-period intervals.

    >>> from repro.money import Money
    >>> shares = prorate(Money("30.00"), [0.25, 0.25, 0.5])
    >>> shares[0] + shares[1] + shares[2] == Money("30.00")
    True
    """
    if not fractions:
        raise SimulationError("cannot prorate over zero segments")
    for fraction in fractions:
        if fraction < 0:
            raise SimulationError(
                f"period fractions cannot be negative: {fraction}"
            )
    shares: List[Money] = []
    running = ZERO
    for fraction in fractions[:-1]:
        share = amount * fraction
        shares.append(share)
        running = running + share
    shares.append(amount - running)
    return tuple(shares)
