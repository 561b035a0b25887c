"""Deterministic weight grids on the objective simplex."""

from __future__ import annotations

import numpy as np

__all__ = ["simplex_grid", "unit_weight_grid"]

# seed of the random sample used for m > 3, so every call draws the same rows
SAMPLE_SEED = 0


def simplex_grid(m: int, resolution: int) -> np.ndarray:
    """Rows of nonnegative weights summing to one.

    m = 2 uses an even 1-D grid with ``resolution`` points, m = 3 the coarsest
    barycentric refinement with at least ``resolution`` points, and m > 3 a
    random sample of ``resolution`` points drawn with SAMPLE_SEED.
    """
    if m < 1 or resolution < 1:
        raise ValueError("m and resolution must be positive")
    if m == 1:
        return np.array([[1.0]])
    if m == 2:
        t = np.linspace(0.0, 1.0, resolution)
        return np.stack([1.0 - t, t], axis=1)
    if m == 3:
        depth = 1
        while (depth + 1) * (depth + 2) // 2 < resolution:
            depth += 1
        rows = [
            (i / depth, j / depth, (depth - i - j) / depth)
            for i in range(depth + 1)
            for j in range(depth + 1 - i)
        ]
        return np.array(rows)
    rng = np.random.default_rng(SAMPLE_SEED)
    raw = rng.exponential(size=(resolution, m))
    return raw / raw.sum(axis=1, keepdims=True)


def unit_weight_grid(m: int, resolution: int) -> np.ndarray:
    """Simplex grid renormalized to Euclidean norm one per row."""
    grid = simplex_grid(m, resolution)
    return grid / np.linalg.norm(grid, axis=1, keepdims=True)
