"""Deterministic derivation of independent random streams.

Every stochastic routine in the package receives a ``numpy.random.Generator``
derived from a single master seed plus a structured integer path (experiment
tag, draw group index, chunk index, ...).  Two properties follow:

* reruns with the same seed reproduce results bit for bit, regardless of how
  many worker processes execute the chunks, and
* streams for different paths are statistically independent, so chunks may be
  computed in any order or in parallel.
"""

from __future__ import annotations

import numpy as np

# Fixed tags naming the top-level consumers of randomness.  Each experiment
# draws only from streams rooted at its own tag, so adding a new experiment
# never perturbs the draws of an existing one; retired tags (5) stay unused.
STREAM_CALIBRATION = 1
STREAM_EFFICIENCY = 2
STREAM_BIAS_GRID = 3
STREAM_THEOREM = 4
STREAM_POOL = 6


def derive_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return a Generator for ``path`` rooted at ``master_seed``.

    Parameters
    ----------
    master_seed:
        Non-negative integer chosen by the user.
    *path:
        Non-negative integers identifying the consumer, e.g.
        ``(STREAM_BIAS_GRID, group_index, chunk_index)``.

    The stream depends only on ``(master_seed, path)``, never on process
    layout or call order.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be a non-negative integer")
    for part in path:
        if part < 0:
            raise ValueError("path components must be non-negative integers")
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(seq)
