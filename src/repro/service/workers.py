"""The boxed ``A_i``-list scan behind the daemon's hard path.

Queries that miss the database (size > k) fall through to Algorithm 1's
``A_i``-list scan.  The daemon runs each one under its request's cancel
token on its dispatcher thread (see :meth:`SynthesisService._scan`); more
cores come from ``repro serve --shards N``, where every shard maps the
same ``.rdb`` store and scans its own slice of the keyspace.

:func:`solve_with_engine` boxes the scan's outcome -- an exact circuit
or a proven lower bound -- as a :class:`HardResult`, so the dispatcher
answers both from one value instead of an exception path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SizeLimitExceededError


@dataclass(frozen=True)
class HardResult:
    """Outcome of one hard query.

    Either ``size``/``circuit`` are set (success) or ``lower_bound`` is
    (the scan exhausted and proved size > L).
    """

    word: int
    size: "int | None" = None
    circuit: "str | None" = None
    lists_scanned: int = 0
    candidates_tested: int = 0
    lower_bound: "int | None" = None
    message: str = ""


def solve_with_engine(engine, word: int, cancel=None) -> HardResult:
    """Search ``word`` on ``engine`` and box the outcome.

    ``cancel`` is a cooperative checkpoint threaded into the list scan
    (see :meth:`repro.synth.search.MeetInTheMiddleSearch.search`);
    whatever it raises propagates untouched so the dispatcher can
    classify the abort.
    """
    try:
        outcome = engine.search(word, cancel=cancel)
    except SizeLimitExceededError as exc:
        return HardResult(
            word=word, lower_bound=exc.lower_bound, message=str(exc)
        )
    return HardResult(
        word=word,
        size=outcome.size,
        circuit=str(outcome.circuit),
        lists_scanned=outcome.lists_scanned,
        candidates_tested=outcome.candidates_tested,
    )


__all__ = ["HardResult", "solve_with_engine"]
