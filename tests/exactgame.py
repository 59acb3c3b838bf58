"""The chaos game in exact rational arithmetic, a reference for the float
game: one chain with the default burn-in, drawing the moves a one-chain
float game draws.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from rauzygasket.markov import _BURN_IN


def chaos_game_exact(count: int, seed: int = 0) -> list[tuple[Fraction, Fraction, Fraction]]:
    """``chaos_game_exact(1, seed)`` is ``chaos_game(1, seed=seed)`` in
    exact arithmetic."""
    draws = np.random.default_rng(seed).integers(0, 3, size=_BURN_IN + count, dtype=np.uint8)
    lam = [Fraction(1, 3)] * 3
    points = []
    for step, w in enumerate(draws):
        lam = list(lam)
        lam[int(w)] = Fraction(1)
        total = sum(lam)
        lam = [x / total for x in lam]
        if step >= _BURN_IN:
            points.append(tuple(lam))
    return points
