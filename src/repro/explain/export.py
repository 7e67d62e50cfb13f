"""Deterministic JSON-lines export of an :class:`ExplainLog`.

The ``--explain-out`` artifact follows the repo's determinism
contract: one JSON object per line, keys sorted, compact separators,
no wall-clock or process-identity fields — so the bytes are a pure
function of (config, seed) and ``cmp`` across ``--jobs`` /
``--shards`` combinations passes in CI, exactly like the metrics and
CSV artifacts.
"""

from __future__ import annotations

import json
from typing import IO, Union

from .core import ExplainLog

__all__ = ["explain_lines", "write_explain"]


#: The one serializer: compact, key-sorted, ``Infinity`` for inf.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def explain_lines(log: ExplainLog) -> "list[str]":
    """The log's entries serialized, one JSON text per entry.

    Args:
        log: A live :class:`~repro.explain.core.ExplainLog`.

    Returns:
        One compact, key-sorted JSON string per entry, in emission
        order.  Non-finite floats (an infeasible decision's infinite
        regret) serialize as JavaScript-style ``Infinity`` tokens —
        deterministic, and read back by :func:`json.loads`.
    """
    return [_ENCODER.encode(entry) for entry in log.iter_json()]


def write_explain(log: ExplainLog, stream: Union[IO[str], object]) -> int:
    """Write the log as JSON lines; returns the entry count.

    Streams: each entry is rendered, serialized and written before the
    next is touched, so the export never holds every line (or every
    rendered dict) at once.  The bytes are exactly
    :func:`explain_lines`, each line followed by a newline.

    Args:
        log: A live :class:`~repro.explain.core.ExplainLog`.
        stream: Any object with ``write(str)``.

    Returns:
        The number of lines written.
    """
    count = 0
    for entry in log.iter_json():
        stream.write(_ENCODER.encode(entry) + "\n")
        count += 1
    return count
