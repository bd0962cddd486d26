"""``certified`` settles a leverage far above the band without the table.

When max_i delta_i > (d + 2^d tol)(1 + 1e-9), a positive-mass point fails
its band delta_i <= d + 2^d tol, and a point of mass at most MASS_ATOL
fails its f_i(1/2) bound, since a + f_i(0)/f >= delta_i (1 - p_i) + 1.
So the early verdict must match the full table of ``_conditions`` on
every input, and most of all on leverages at the band and at that bound.
"""

import numpy as np

from glmdopt.certify import _conditions, certified
from glmdopt.objective import MASS_ATOL

CASES = 20_000
TOLS = (1e-12, 1e-7, 1e-3)


def masses(rng, d, m):
    """Exact zeros, masses in (0, MASS_ATOL], masses in (MASS_ATOL, 1/d] and
    above it, and p_i = 1 at d = 1."""
    kind = rng.integers(0, 5, m)
    return np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [0.0, rng.uniform(0.0, 1.0, m) * MASS_ATOL, rng.uniform(MASS_ATOL, 1.0 / d, m),
         rng.uniform(1.0 / d, 1.0, m)],
        1.0 if d == 1 else 1.0 / d,
    )


def leverages_near_the_band(rng, d, tol, m):
    """delta at the band d + 2^d tol and at the exit bound, each to a few
    ulps, at band x (1 +- 1e-9), and far above and below."""
    band = d + 2.0**d * tol
    bound = band * (1.0 + 1e-9)
    ulps = rng.integers(-4, 5, m)
    centre = rng.choice([band, bound, band * (1.0 - 1e-9), float(d)], m)
    delta = centre + ulps * np.spacing(centre)
    far = rng.random(m) < 0.25
    delta[far] = np.where(rng.random(far.sum()) < 0.5, rng.uniform(0.0, d, far.sum()),
                          band * rng.uniform(1.5, 100.0, far.sum()))
    return delta


def test_early_exit_agrees_with_the_full_table():
    rng = np.random.default_rng(27)
    exits = full = 0
    for _ in range(CASES):
        d, tol, m = int(rng.integers(1, 13)), TOLS[int(rng.integers(3))], int(rng.integers(1, 6))
        p, delta = masses(rng, d, m), leverages_near_the_band(rng, d, tol, m)
        verdict = bool(_conditions(p, delta, d, tol)[-1].all())
        assert certified(p, delta, d, tol) == verdict, (p, delta, d, tol)
        above = delta.max() > (d + 2.0**d * tol) * (1.0 + 1e-9)
        exits += above
        full += verdict
    assert exits > CASES // 4 and full > CASES // 20, (exits, full)
