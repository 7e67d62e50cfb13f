"""The ambient slot both instrumentation layers share.

:mod:`repro.telemetry` and :mod:`repro.explain` each keep one
process-wide object that instrumented code reads instead of threading
a collector through every signature.  Both need the same four things —
a no-op default, a reader, a replacer, and a scoped form that restores
what it replaced even when the block raises — so both bind their
public ``current``/``install``/``activate`` to one :class:`AmbientSlot`
each::

    _SLOT = AmbientSlot(NULL, Telemetry)
    current, install, activate = _SLOT.current, _SLOT.install, _SLOT.activate

:data:`NULL_CONTEXT` is the shared reusable do-nothing context manager
the no-op singletons hand out from ``span()`` and ``scope()``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Generic, Iterator, Optional, TypeVar

__all__ = ["NULL_CONTEXT", "AmbientSlot"]

T = TypeVar("T")


class _NullContext:
    """A reusable context manager that does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


#: The one no-op context every null sink returns.
NULL_CONTEXT = _NullContext()


class AmbientSlot(Generic[T]):
    """One process-wide object with a no-op default.

    Args:
        null: The default object — active until something is
            installed, and restored by ``install(None)``.
        fresh: Builds the live object ``activate()`` uses when called
            without an argument.
    """

    __slots__ = ("_null", "_fresh", "_active")

    def __init__(self, null: T, fresh: Callable[[], T]) -> None:
        self._null = null
        self._fresh = fresh
        self._active = null

    def current(self) -> T:
        """The ambient object (the null default unless installed)."""
        return self._active

    def install(self, obj: Optional[T]) -> T:
        """Replace the ambient object; ``None`` restores the default.

        Prefer :meth:`activate` in tests — it restores the previous
        object on exit.

        Returns:
            The previously ambient object, for later reinstallation.
        """
        previous = self._active
        self._active = obj if obj is not None else self._null
        return previous

    @contextmanager
    def activate(self, obj: Optional[T] = None) -> Iterator[T]:
        """Scoped :meth:`install`: ambient inside the block, restored after.

        Args:
            obj: The object to activate; ``None`` activates a fresh
                live one.

        Yields:
            The activated object (handy for reading it afterwards).
        """
        active = obj if obj is not None else self._fresh()
        previous = self.install(active)
        try:
            yield active
        finally:
            self.install(previous)
