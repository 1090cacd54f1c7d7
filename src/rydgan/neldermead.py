"""Box-constrained Nelder-Mead simplex minimizer.

Standard reflect/expand/contract/shrink moves with coefficients
1, 2, 0.5, 0.5; every proposed vertex is clamped into the bounds box
before evaluation, so the returned best vertex always satisfies the
bounds. Terminates when the simplex function-value spread drops below
tol AND its diameter below sqrt(tol), or after max_iters iterations;
the diameter condition prevents premature stops when vertices straddle
a minimum symmetrically (tiny f-spread, wide simplex).
`nelder_mead_steps` is the ask/tell form (after CMA-ES, Hansen,
arXiv:1604.00772), so callers can evaluate many minimizations together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError


@dataclass(frozen=True)
class NMResult:
    x: np.ndarray
    fun: float
    iterations: int
    evaluations: int
    converged: bool  # stopped on tol, not on max_iters


def _as_box(bounds, n):
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    if bounds is not None:
        pairs = list(bounds)
        if len(pairs) != n:
            raise ValidationError(f"bounds cover {len(pairs)} dims, x0 has {n}")
        for i, (a, b) in enumerate(pairs):
            lo[i], hi[i] = float(a), float(b)
    if np.any(lo > hi):
        raise ValidationError("empty bounds box: lo > hi")
    return lo, hi


def nelder_mead_steps(x0, bounds=None, max_iters: int = 200,
                      tol: float = 1e-8):
    """Generator: yields lists of points (d + 1 for the initial simplex, d
    per shrink, else 1), is sent their values, returns the NMResult."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n = x0.size
    if n == 0:
        raise ValidationError("x0 must have at least one dimension")
    lo, hi = _as_box(bounds, n)
    clamp = lambda x: np.minimum(hi, np.maximum(lo, x))
    x0 = clamp(x0)

    span = hi - lo
    step = np.where(np.isfinite(span), 0.05 * span,
                    0.1 * np.maximum(1.0, np.abs(x0)))
    step = np.where(step == 0.0, 0.1, step)

    verts = [x0]
    for i in range(n):
        v = x0.copy()
        # step away from the nearer bound so the vertex actually moves
        v[i] = v[i] - step[i] if v[i] + step[i] > hi[i] else v[i] + step[i]
        verts.append(clamp(v))
    fvals = np.array((yield verts), dtype=float)
    if not np.isfinite(fvals[0]):
        raise NumericError(f"objective is not finite at x0: {fvals[0]}")
    verts = np.array(verts)
    evals = n + 1

    x_tol = np.sqrt(tol) if tol > 0 else 0.0
    iterations = 0
    while iterations < max_iters:
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        diameter = np.abs(verts[1:] - verts[0]).max() if len(verts) > 1 else 0.0
        if fvals[-1] - fvals[0] < tol and diameter <= x_tol:
            break
        iterations += 1
        centroid = verts[:-1].mean(axis=0)
        worst = verts[-1]

        reflected = clamp(centroid + (centroid - worst))
        (fr,) = yield [reflected]
        evals += 1
        if fr < fvals[0]:
            expanded = clamp(centroid + 2.0 * (centroid - worst))
            (fe,) = yield [expanded]
            evals += 1
            if fe < fr:
                verts[-1], fvals[-1] = expanded, fe
            else:
                verts[-1], fvals[-1] = reflected, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = reflected, fr
        else:
            if fr < fvals[-1]:
                contracted = clamp(centroid + 0.5 * (centroid - worst))
                (fc,) = yield [contracted]
                accept = fc <= fr
            else:
                contracted = clamp(centroid - 0.5 * (centroid - worst))
                (fc,) = yield [contracted]
                accept = fc < fvals[-1]
            evals += 1
            if accept:
                verts[-1], fvals[-1] = contracted, fc
            else:
                # the shrunk vertices depend only on the best and the old ones
                verts[1:] = clamp(verts[0] + 0.5 * (verts[1:] - verts[0]))
                fvals[1:] = yield list(verts[1:].copy())
                evals += n

    best = int(np.argmin(fvals))
    return NMResult(verts[best].copy(), float(fvals[best]), iterations, evals,
                    iterations < max_iters)


def nelder_mead(objective, x0, bounds=None, max_iters: int = 200,
                tol: float = 1e-8) -> NMResult:
    """Minimize objective(x) over the bounds box starting from x0."""
    steps = nelder_mead_steps(x0, bounds, max_iters, tol)
    try:
        points = next(steps)
        while True:
            points = steps.send([float(objective(x)) for x in points])
    except StopIteration as stop:
        return stop.value
