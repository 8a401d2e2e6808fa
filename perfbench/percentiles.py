"""Order statistics for the benchmark's timings."""

from __future__ import annotations

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer would make the tail a handful of outliers.
MIN_BEYOND = 10


def percentile(values, q: float, weights=None) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100) of a sample.

    With ``weights``, sample ``i`` counts ``weights[i]`` times.  Raises
    ValueError when less than :data:`MIN_BEYOND` samples' weight lies
    beyond the percentile, e.g. an unweighted p98 needs 500 samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    if weights is None:
        weights = [1.0] * len(values)
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    rank = q / 100 * total
    seen = 0.0
    for value, weight in pairs:
        seen += weight
        if seen >= rank - 1e-9 * total:
            beyond = total - seen
            if beyond < MIN_BEYOND - 1e-9 * total:
                raise ValueError(
                    f"p{q:g} of {total:g} samples has only {beyond:g} "
                    f"beyond it; at least {MIN_BEYOND} are required"
                )
            return value
    raise ValueError("percentile of an empty sample")
