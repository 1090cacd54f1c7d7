import numpy as np
import pytest

from rydgan.errors import NumericError, ValidationError
from rydgan.neldermead import nelder_mead, nelder_mead_steps


class TestUnconstrained:
    def test_1d_quadratic(self):
        result = nelder_mead(lambda x: (x[0] - 3.0) ** 2, [0.0],
                             max_iters=500, tol=1e-12)
        assert result.x[0] == pytest.approx(3.0, abs=1e-4)

    def test_2d_quadratic_reaches_global_minimum(self):
        result = nelder_mead(lambda x: x[0] ** 2 + x[1] ** 2, [1.0, 1.0],
                             max_iters=500, tol=1e-12)
        assert result.fun < 1e-8

    def test_rosenbrock_improves(self):
        rosen = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        result = nelder_mead(rosen, [-1.2, 1.0], max_iters=600, tol=1e-14)
        assert result.fun < 1e-4

    def test_returns_best_vertex_value(self):
        f = lambda x: float(np.sum(x ** 2))
        result = nelder_mead(f, [2.0, -1.0], max_iters=300, tol=1e-12)
        assert result.fun == pytest.approx(f(result.x))


class TestBounds:
    def test_clamped_boundary_optimum(self):
        result = nelder_mead(lambda x: (x[0] - 3.0) ** 2, [0.5],
                             bounds=[(0.0, 1.0)], max_iters=300, tol=1e-12)
        assert result.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_iterates_never_leave_box(self):
        seen = []
        def f(x):
            seen.append(x.copy())
            return (x[0] + 5.0) ** 2 + (x[1] - 5.0) ** 2
        nelder_mead(f, [0.0, 0.0], bounds=[(-1.0, 1.0), (-1.0, 1.0)],
                    max_iters=100)
        pts = np.array(seen)
        assert pts.min() >= -1.0 and pts.max() <= 1.0

    def test_interior_optimum_with_bounds(self):
        result = nelder_mead(lambda x: (x[0] - 0.3) ** 2, [0.9],
                             bounds=[(0.0, 1.0)], max_iters=300, tol=1e-14)
        assert result.x[0] == pytest.approx(0.3, abs=1e-5)

    def test_empty_box_rejected(self):
        with pytest.raises(ValidationError):
            nelder_mead(lambda x: 0.0, [0.0], bounds=[(1.0, -1.0)])

    def test_x0_clamped_into_box(self):
        result = nelder_mead(lambda x: x[0] ** 2, [5.0],
                             bounds=[(1.0, 2.0)], max_iters=100)
        assert result.x[0] == pytest.approx(1.0, abs=1e-9)


class TestContract:
    def test_non_finite_objective_at_x0(self):
        with pytest.raises(NumericError):
            nelder_mead(lambda x: float("nan"), [0.0])

    def test_terminates_on_collapsed_simplex(self):
        result = nelder_mead(lambda x: 7.0, [0.0, 0.0], max_iters=1000,
                             tol=1e-10)
        assert result.iterations < 100  # shrinks to the diameter tolerance
        assert result.fun == 7.0

    def test_max_iters_respected(self):
        result = nelder_mead(lambda x: np.sum(np.abs(x)), [10.0] * 3,
                             max_iters=7, tol=0.0)
        assert result.iterations <= 7

    def test_deterministic(self):
        f = lambda x: np.cos(x[0]) + x[1] ** 2
        a = nelder_mead(f, [1.0, 1.0], max_iters=100)
        b = nelder_mead(f, [1.0, 1.0], max_iters=100)
        assert np.array_equal(a.x, b.x) and a.fun == b.fun


def closed_loop_nelder_mead(objective, x0, bounds=None, max_iters=200,
                            tol=1e-8):
    """Reference oracle: the closed-loop minimizer the ask/tell form replaced.

    Returns (x, fun, iterations, evaluations).
    """
    from rydgan.neldermead import _as_box
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n = x0.size
    lo, hi = _as_box(bounds, n)
    clamp = lambda x: np.minimum(hi, np.maximum(lo, x))
    x0 = clamp(x0)
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return float(objective(x))

    f0 = f(x0)
    if not np.isfinite(f0):
        raise NumericError(f"objective is not finite at x0: {f0}")
    span = hi - lo
    step = np.where(np.isfinite(span), 0.05 * span,
                    0.1 * np.maximum(1.0, np.abs(x0)))
    step = np.where(step == 0.0, 0.1, step)
    verts = [x0]
    for i in range(n):
        v = x0.copy()
        v[i] = v[i] - step[i] if v[i] + step[i] > hi[i] else v[i] + step[i]
        verts.append(clamp(v))
    fvals = [f0] + [f(v) for v in verts[1:]]
    verts = np.array(verts)
    fvals = np.array(fvals)
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
        fr = f(reflected)
        if fr < fvals[0]:
            expanded = clamp(centroid + 2.0 * (centroid - worst))
            fe = f(expanded)
            if fe < fr:
                verts[-1], fvals[-1] = expanded, fe
            else:
                verts[-1], fvals[-1] = reflected, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = reflected, fr
        else:
            if fr < fvals[-1]:
                contracted = clamp(centroid + 0.5 * (centroid - worst))
                fc = f(contracted)
                accept = fc <= fr
            else:
                contracted = clamp(centroid - 0.5 * (centroid - worst))
                fc = f(contracted)
                accept = fc < fvals[-1]
            if accept:
                verts[-1], fvals[-1] = contracted, fc
            else:
                best = verts[0]
                for i in range(1, len(verts)):
                    verts[i] = clamp(best + 0.5 * (verts[i] - best))
                    fvals[i] = f(verts[i])
    best = int(np.argmin(fvals))
    return verts[best].copy(), float(fvals[best]), iterations, evals


def rosenbrock(x):
    return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2


def spiky(x):
    """Ridged bowl: contractions keep failing, so the simplex shrinks."""
    return float(np.sum(x ** 2) + np.sum(np.abs(np.sin(40.0 * x))))


# (objective, x0, keyword arguments): each one exercises another stop or move
CASES = {
    "quadratic": (lambda x: float(np.sum((x - 0.7) ** 2)), [2.0, -1.0, 0.5],
                  dict(max_iters=400, tol=1e-12)),
    "rosenbrock": (rosenbrock, [-1.2, 1.0], dict(max_iters=600, tol=1e-14)),
    "box-edge": (lambda x: (x[0] - 3.0) ** 2 + (x[1] + 2.0) ** 2, [0.2, 0.3],
                 dict(bounds=[(-1.0, 1.0), (-1.0, 1.0)], max_iters=300,
                      tol=1e-12)),
    "collapsed-constant": (lambda x: 7.0, [0.0, 0.0, 0.0],
                           dict(max_iters=1000, tol=1e-10)),
    "shrinks": (spiky, [0.9, -0.8, 0.7], dict(max_iters=150, tol=0.0)),
}


def ask_tell(objective, x0, **kwargs):
    """Drive nelder_mead_steps by hand: (NMResult, request sizes)."""
    steps = nelder_mead_steps(x0, **kwargs)
    sizes = []
    try:
        points = next(steps)
        while True:
            sizes.append(len(points))
            points = steps.send([float(objective(x)) for x in points])
    except StopIteration as stop:
        return stop.value, sizes


class TestAskTellEquivalence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal_to_closed_loop(self, case):
        objective, x0, kwargs = CASES[case]
        x, fun, iterations, evaluations = closed_loop_nelder_mead(
            objective, x0, **kwargs)
        for result in (nelder_mead(objective, x0, **kwargs),
                       ask_tell(objective, x0, **kwargs)[0]):
            assert result.x.tobytes() == x.tobytes()
            assert result.fun == fun
            assert (result.iterations, result.evaluations) == (iterations,
                                                               evaluations)
            assert result.converged == (iterations < kwargs["max_iters"])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_request_sizes(self, case):
        objective, x0, kwargs = CASES[case]
        result, sizes = ask_tell(objective, x0, **kwargs)
        d = len(x0)
        assert sizes[0] == d + 1
        assert set(sizes[1:]) <= {1, d}
        assert sum(sizes) == result.evaluations

    def test_cases_cover_both_stops_and_shrinks(self):
        runs = {case: ask_tell(objective, x0, **kwargs)
                for case, (objective, x0, kwargs) in CASES.items()}
        assert {result.converged for result, _ in runs.values()} == {True, False}
        # a constant never accepts a move: reflect, contract, then shrink
        result, sizes = runs["collapsed-constant"]
        assert sizes[1:] == [1, 1, 3] * result.iterations
        assert runs["shrinks"][1][1:].count(3) >= 1

    def test_non_finite_x0_checked_after_the_first_reply(self):
        steps = nelder_mead_steps([0.0, 0.0])
        assert len(next(steps)) == 3
        with pytest.raises(NumericError):
            steps.send([float("nan"), 1.0, 2.0])
