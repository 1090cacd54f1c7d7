"""Rydberg-atom Hamiltonian assembly and batched time evolution.

The system Hamiltonian over n atoms (hbar = 1, angular frequencies in
rad/us, distances in um) is

    H(t) = Omega(t)/2 * sum_i (|g><r|_i + |r><g|_i)
           - Delta_global * sum_i n_i
           - Delta_local(t) * sum_i h_i n_i
           + sum_{i<j} C6 / |s_i - s_j|^6 n_i n_j

with the drive phase fixed to zero, a time-constant trainable global
detuning, and a shared local-detuning waveform weighted per atom by the
couplings h_i.

Basis convention: basis index k encodes the qubit states through its
binary expansion with qubit 0 as the most significant bit, so for n = 2
the order is |gg>, |gr>, |rg>, |rr>.

Time evolution is a fourth-order commutator-free Magnus integrator: two
exponential factors per step, on a step grid aligned to the pulse
breakpoints. `evolve`, the one evolution function, advances many runs at
once as the columns of one state block; states are plain (B, 2^n) complex
arrays, and measurement is the generator's readout. Each factor
exp(-i dt (a X + diag d)) is its Chebyshev expansion truncated at unit
roundoff, summed in monomial weights like a Taylor series and applied
through real GEMMs with the flip operator X = 1/2 sum_i sigma^x_i
plus elementwise diagonal products, on the block in the real layout
(2^h, 2B, 2^(n-h)): X = X_hi (x) I + I (x) X_lo is one GEMM from the left
and one from the right, O(2^n (2^h + 2^(n-h))) per term instead of O(4^n)
(up to five qubits h = n and X_hi = X). No eigendecomposition is taken.
A block's factor data, the diagonal and drive coefficient of every factor,
is built once per chunk of factors straight into the kernel's layout, and
the results do not depend on the chunk size.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .pulses import PulseProgram, breakpoint_times, evaluate

C6_DEFAULT = 5_420_503.0  # rad/us * um^6
MAX_QUBITS = 10
STEPS_PER_US = 1000         # default step rate of a run

NORM_TOL = 1e-9             # allowed |sum_k |a_k|^2 - 1| of a state
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class AtomArrangement:
    """Atom positions s_i = (x_i, y_i) in um plus local-detuning couplings h_i.

    The hardware geometry is checked by `GeneratorParams.validate`, so the
    hardware-error model can carry perturbed copies.
    """

    positions: tuple
    couplings: tuple

    def __post_init__(self):
        pos = tuple((float(x), float(y)) for x, y in self.positions)
        coup = tuple(float(h) for h in self.couplings)
        if len(pos) != len(coup):
            raise ValidationError(
                f"{len(pos)} positions but {len(coup)} couplings")
        if not pos:
            raise ValidationError("arrangement needs at least one atom")
        if any(not (math.isfinite(x) and math.isfinite(y)) for x, y in pos):
            raise ValidationError("atom positions must be finite")
        if any(not 0.0 <= h <= 1.0 for h in coup):
            raise ValidationError("couplings h_i must lie in [0, 1]")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "couplings", coup)

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def position_array(self) -> np.ndarray:
        return np.array(self.positions, dtype=float)

    def coupling_array(self) -> np.ndarray:
        return np.array(self.couplings, dtype=float)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Complete description of one analog evolution.

    The drive phase is always zero, so the spec has no phase field.
    rabi_scale and local_detuning_shift default to the identity; the
    hardware-error model (`generator.perturb_params`) draws them, scaling
    the Rabi waveform multiplicatively and shifting the local-detuning
    waveform additively (before the per-atom coupling weight is applied).
    """

    arrangement: AtomArrangement
    rabi: PulseProgram
    local_detuning: PulseProgram
    global_detuning_offset: float
    c6: float = C6_DEFAULT
    rabi_scale: float = 1.0
    local_detuning_shift: float = 0.0

    def __post_init__(self):
        if not self.c6 > 0:
            raise ValidationError(f"c6 must be positive, got {self.c6}")
        if self.rabi.duration != self.local_detuning.duration:
            raise ValidationError(
                "rabi and local-detuning pulses must share one duration")

    @property
    def n_qubits(self) -> int:
        return self.arrangement.n_atoms

    @property
    def duration(self) -> float:
        return self.rabi.duration


def interaction_strength(s_i, s_j, c6: float = C6_DEFAULT) -> float:
    """Pairwise van der Waals interaction C6 / |s_i - s_j|^6 in rad/us."""
    dx = float(s_i[0]) - float(s_j[0])
    dy = float(s_i[1]) - float(s_j[1])
    dist_sq = dx * dx + dy * dy
    if dist_sq < 1e-24:
        raise ValidationError(
            f"coincident atoms at {tuple(s_i)}: interaction diverges")
    return c6 / dist_sq ** 3


def _occupations(n: int) -> np.ndarray:
    """(2^n, n) 0/1 occupations of every basis state, qubit 0 most significant."""
    idx = np.arange(1 << n)
    return ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)


@functools.lru_cache(maxsize=MAX_QUBITS + 1)
def _flip_matrix(n: int) -> np.ndarray:
    """Dense real X = 1/2 sum_i sigma^x_i, read-only; its spectral norm is n/2."""
    idx = np.arange(1 << n)
    x = np.zeros((1 << n, 1 << n))
    for i in range(n):
        x[idx, idx ^ (1 << (n - 1 - i))] = 0.5
    x.flags.writeable = False
    return x


def _diagonals(specs, occ: np.ndarray):
    """(static, sumh), each (B, 2^n): the time-independent diagonal of each
    run's H and its coupling weights sum_i h_i n_i, so that
    H(t) = omega(t) * X + diag(static - dlocal(t) * sumh).
    """
    pairs = list(itertools.combinations(range(occ.shape[1]), 2))

    # the runs of one learner point share an arrangement
    @functools.cache
    def per_arrangement(arrangement, c6):
        pos = arrangement.positions
        return ([interaction_strength(pos[i], pos[j], c6) for i, j in pairs],
                occ @ arrangement.coupling_array())

    strength, sumh = zip(*(per_arrangement(s.arrangement, s.c6) for s in specs))
    strength = np.array(strength).reshape(len(specs), len(pairs))
    inter = np.zeros((len(specs), len(occ)))
    for k, (i, j) in enumerate(pairs):
        inter += strength[:, k, None] * occ[:, i] * occ[:, j]
    offset = np.array([s.global_detuning_offset for s in specs])
    return inter - offset[:, None] * occ.sum(axis=1), np.array(sumh)


def _drive_values(spec: HamiltonianSpec, t):
    omega = spec.rabi_scale * np.asarray(evaluate(spec.rabi, t), dtype=float)
    dlocal = (np.asarray(evaluate(spec.local_detuning, t), dtype=float)
              + spec.local_detuning_shift)
    return omega, dlocal


def default_steps(duration: float, steps_per_us: int = STEPS_PER_US) -> int:
    """Step budget of a run; also `TrainConfig.steps`, so there is one rule."""
    return max(1, int(round(steps_per_us * duration)))


def _step_grid(cuts: tuple, duration: float, steps: int):
    """(start, dt) per integration step, aligned to the pulse breakpoints cuts.

    The step budget sets a target dt; each smooth segment between pulse
    kinks is covered by uniform steps no wider than the target, so every
    step integrates an analytic drive and the propagator keeps its full
    fourth-order accuracy for every pulse shape.
    """
    bounds = sorted({0.0, duration} | {t for t in cuts if 0.0 < t < duration})
    dt_target = duration / steps
    starts, dts = [np.empty(0)], [np.empty(0)]
    for a, b in zip(bounds, bounds[1:]):
        span = b - a
        if span <= 1e-12:
            continue
        m = max(1, math.ceil(span / dt_target - 1e-9))
        dt = span / m
        starts.append(a + np.arange(m) * dt)
        dts.append(np.full(m, dt))
    return np.concatenate(starts), np.concatenate(dts)


def _chebyshev_table(top: int):
    """(theta, rows): theta[m] is the norm at which the Chebyshev expansion
    of exp(-i lam) on [-theta, theta], J_0 + 2 sum_k (-i)^k J_k(theta)
    T_k(lam / theta) (Tal-Ezer & Kosloff 1984), cut at degree m, errs by
    2 J_(m+1)(theta) ~ 2 (theta/2)^(m+1) / (m+1)! = 2^-53; rows[m] holds the
    cut's monomial weights, (-i)^j / j! less 2 J_k(theta) |[t^j] T_k| /
    theta^j over the omitted k, which share one sign, so no digit cancels.
    Row 0 weights the even powers (cos), row 1 the odd ones (sin); the
    constant is exactly 1, so a zero factor is exactly the identity.
    """
    size = top + 21             # omitted terms past k = top + 20 move no weight
    cheb = np.eye(size)         # |[t^j] T_k|, by T_k = 2t T_(k-1) - T_(k-2)
    for k in range(2, size):
        cheb[k] = cheb[k - 2]
        cheb[k, 1:] += 2.0 * cheb[k - 1, :-1]
    fact = np.array([math.factorial(i) for i in range(size + 20)], dtype=float)
    theta = 2.0 * np.array([(2.0 ** -54 * fact[m + 1]) ** (1.0 / (m + 1))
                            for m in range(top + 1)])
    s, rows = np.arange(20), []
    for m, x in enumerate(theta):
        k, j = np.arange(m + 1, size), np.arange(m + 1)
        # J_k(x) for k > x by 20 terms of its power series, ample for x < 4
        bessel = (0.5 * x) ** k * ((-0.25 * x * x) ** s
                                   / (fact[s] * fact[k[:, None] + s])).sum(axis=1)
        weights = 1.0 / fact[j] - 2.0 * bessel @ cheb[m + 1:, j] / x ** j
        weights[0] = 1.0
        rows.append(np.where(j % 2 == [[0], [1]], (-1.0) ** (j // 2) * weights,
                             0.0))
    return theta, rows


# Gauss-Legendre nodes of one step, and the weights of the two Magnus
# factors on the node samples: the first (right) factor weights the
# earlier node more, the second the later.
_NODES = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)
_WEIGHTS = np.array([[0.25 + _SQRT3 / 6.0, 0.25 - _SQRT3 / 6.0],
                     [0.25 - _SQRT3 / 6.0, 0.25 + _SQRT3 / 6.0]])
# exp(-iM) v ~ sum_j w_j M^j v = even - i odd, w the _CHEBYSHEV row of the
# least degree m with ||M|| <= _THETA[m], at most 22: a larger norm bound is
# split into equal substeps, so no weighted power tops 9 and the weights
# stay within 11 unit roundoffs of exp. A factor whose norm bound x width
# exceeds _MAX_STIFFNESS (non-finite or near-coincident atoms) is a
# numeric failure rather than an endless run.
_THETA, _CHEBYSHEV = _chebyshev_table(22)
_MAX_NORM = _THETA[-1]
_MAX_STIFFNESS = 30_000.0
# from this qubit count on, X acts on the state block through its Kronecker
# factors (see _apply_vectors): scripts/flip_sweep.py times both paths, and
# the split is the faster from six qubits on blocks of a few runs or more
_SPLIT_QUBITS = 6
_CHUNK_BYTES = 1 << 20      # precomputed factor data held at once
_MAX_BLOCK = 1 << 14        # amplitudes per block: bounds the series powers
# factor rows x runs per block: bounds _propagate's four (rows, B) float
# arrays (coef, dlocal, width, mid), 32 bytes per entry, to 128 MiB
_MAX_FACTORS = 1 << 22


def _empty(shape) -> np.ndarray:
    """np.empty(shape) of floats starting on a 64-byte boundary. numpy's own
    arrays are only 16-byte aligned, so a full-width vector load may split a
    cache line; on aligned work arrays the series' elementwise products and
    sums run up to twice as fast, with the same arithmetic."""
    size = math.prod(shape)
    buffer = np.empty(size + 7)
    start = -buffer.ctypes.data % 64 // 8
    return buffer[start:start + size].reshape(shape)


def _high_qubits(n: int) -> int:
    """h, the qubits of the state block's first axis (see _apply_vectors):
    all n up to five qubits, ceil(n/2) from _SPLIT_QUBITS on."""
    return (n + 1) // 2 if n >= _SPLIT_QUBITS else n


def _apply_vectors(psi, chunks):
    """Apply exp(-i (a X + diag d))^subs[f] to psi, factor by factor, for
    each (pairs, terms, subs) of chunks in turn.

    The series acts on the (2^n, B) block in the real layout (2^h, 2B,
    2^(n-h)): high qubits, the real and imaginary column of every run, low
    qubits. Each power M^j v costs X_hi (x) I, one GEMM from the left on the
    (2^h, 2B 2^(n-h)) view, I (x) X_lo, one from the right on the
    (2^h 2B, 2^(n-h)) view, and elementwise products with full-shape factor
    data. From _SPLIT_QUBITS (six) qubits on h = ceil(n/2) and X_hi, X_lo
    are the flip matrices of h and n - h qubits; up to five qubits h = n and
    the first GEMM is all of X.
    The chunk producer builds each factor's data once, in that layout:
    pairs[f] is (2, 2^h, B, 2, 2^(n-h)), d in [0] and a in [1], each
    repeated over the real and imaginary columns (and a over the states).
    One GEMM with the _CHEBYSHEV weights sums the powers into the next
    factor's first power. All chunks share the work arrays, grown on demand,
    and a chunk's factors act one after another, so the result does not
    depend on where the chunks are cut.
    """
    dim, batch = psi.shape
    n = dim.bit_length() - 1
    h = _high_qubits(n)
    split = h < n
    flip, low = _flip_matrix(h), _flip_matrix(n - h) if split else None
    high = len(flip)
    shape = (high, batch, 2, dim // high)
    powers, views = _empty((1,) + shape), None
    powers[0] = psi.view(float).reshape(high, -1, batch, 2).transpose(0, 2, 3, 1)
    # one multiply forms a term's d M^j v and a X M^j v: the factor's (d, a)
    # pair times the adjacent powers (M^j v, X M^j v); on the split path the
    # first row holds the I (x) X_lo GEMM before that
    scaled = _empty((2,) + shape)
    first, second = scaled
    low_part = first.reshape(-1, shape[-1])
    sums = _empty((2, first.size))
    # exp(-iM) v = even - i odd: re = even_re + odd_im, im = even_im - odd_re
    even, odd = sums.reshape((2,) + shape)
    parts = even[:, :, 0], odd[:, :, 1], even[:, :, 1], odd[:, :, 0]
    # bound once, GEMMs through ndarray.dot, which skips np.dot's dispatch,
    # and every out array passed by position, which skips keyword parsing:
    # on a one-run block the cost per numpy call is the whole cost
    flip_dot, multiply, add, subtract = flip.dot, np.multiply, np.add, np.subtract
    for pairs, terms, subs in chunks:
        if views is None or len(powers) <= max(terms):
            grown = _empty((max(terms) + 1,) + shape)
            grown[0] = powers[0]
            powers = grown
            rows, flat = list(powers), powers.reshape(len(powers), -1)
            wide = [row.reshape(high, -1) for row in rows]
            # per term j: (M^j v, M^(j+1) v), M^(j+1) v, wide M^j v and
            # M^(j+1) v, the GEMM of tall M^j v
            views = list(zip([powers[j:j + 2] for j in range(len(rows) - 1)],
                             rows[1:], wide, wide[1:],
                             [row.reshape(-1, shape[-1]).dot for row in rows]))
            heads = [(views[:count], _CHEBYSHEV[count].dot, flat[:count + 1])
                     for count in range(len(powers))]
            state = rows[0][:, :, 0], rows[0][:, :, 1]
        for count, repeat, pair in zip(terms, subs, pairs):
            steps, weigh, series = heads[count]
            for _ in range(repeat):
                for both, power, source, target, tall_dot in steps:
                    flip_dot(source, target)
                    if split:
                        tall_dot(low, low_part)
                        add(power, first, power)
                    multiply(pair, both, scaled)
                    add(first, second, power)
                weigh(series, sums)
                add(parts[0], parts[1], state[0])
                subtract(parts[2], parts[3], state[1])
    return powers[0].transpose(0, 3, 1, 2).copy().view(complex).reshape(dim, batch)


def _propagate(specs, steps, initial, first) -> np.ndarray:
    """evolve on one block of runs, sized by evolve, from row first."""
    n = specs[0].n_qubits
    dim, batch = 1 << n, len(specs)
    high = 1 << _high_qubits(n)
    # a step grid is built once per distinct input: the runs of one seed
    # share it
    grid = functools.cache(_step_grid)
    # a factor's diagonal is a (rows, B, 2^n) array. Up to five qubits, where
    # runs are the kernel's inner axis, its states are outermost in memory,
    # so its max and min over states and its products with per-run values
    # run one long loop per state; from six qubits on, with the low qubits
    # inner, runs are outermost and states contiguous.
    split = high < dim

    def work(shape):
        if split:
            return _empty(shape)
        return np.moveaxis(_empty(shape[-1:] + shape[:-1]), 0, -1)

    half, sumh = work((batch, dim)), work((batch, dim))
    half[:], sumh[:] = _diagonals(specs, _occupations(n))
    half *= 0.5
    grids = [grid(tuple(breakpoint_times(s.rabi)
                        + breakpoint_times(s.local_detuning)),
                  s.duration, steps or default_steps(s.duration)) for s in specs]
    # one row per Magnus factor, two per step in application order; columns
    # with fewer steps are padded with zero-width steps, which are identities
    rows = 2 * max(len(starts) for starts, _ in grids)
    coef, dlocal, width = (np.zeros((rows, batch)) for _ in range(3))
    for b, (spec, (starts, dts)) in enumerate(zip(specs, grids)):
        omega, shift = (v.reshape(2, -1) for v in _drive_values(
            spec, np.concatenate([starts + c * dts for c in _NODES])))
        used = slice(0, 2 * len(starts))
        coef[used, b] = (_WEIGHTS @ omega).T.reshape(-1)
        dlocal[used, b] = (_WEIGHTS @ shift).T.reshape(-1)
        width[used, b] = np.repeat(dts, 2)

    # each factor is exp(-i dt (coef X + 0.5 static - dlocal sumh)); its
    # diagonal and its four copies in the kernel's pairs, five floats per
    # amplitude, are held per row of a chunk
    chunk = min(rows, max(1, _CHUNK_BYTES // (40 * batch * dim)))
    pairs = _empty((chunk, 2, high, batch, 2, dim // high))
    diags = work((chunk, batch, dim))
    # each factor's diagonal shift; the phase is summed once over all rows,
    # so no output depends on the chunk size
    mid = np.zeros((rows, batch))

    def chunks():
        for lo in range(0, rows, chunk):
            part = slice(lo, lo + chunk)
            block, diag = pairs[:len(coef[part])], diags[:len(coef[part])]
            np.multiply(dlocal[part, :, None], sumh, diag)
            np.subtract(half, diag, diag)
            top, bottom = diag.max(axis=2), diag.min(axis=2)
            # shifting the diagonal by its midpoint c, with the phase
            # exp(-i dt c) applied exactly at the end, halves the norm bound
            # of a stiff (blockaded) diagonal; a purely diagonal factor is
            # not shifted, so a run without dynamics keeps its amplitudes
            mid[part] = np.where(coef[part] != 0.0, 0.5 * (top + bottom), 0.0)
            centre = mid[part]
            norm = (np.abs(coef[part]) * (n / 2.0)
                    + np.maximum(top - centre, centre - bottom)) * width[part]
            stiff = np.flatnonzero(~(norm <= _MAX_STIFFNESS).all(axis=0))
            if stiff.size:
                run = first + int(stiff[0])
                raise NumericError(
                    f"run {run}: Hamiltonian norm bound x step width "
                    f"{norm[:, stiff[0]].max():.3g} exceeds {_MAX_STIFFNESS:.3g}"
                    "; raise the step count or check the atom spacing", run=run)
            worst = norm.max(axis=1)
            subs = np.maximum(1, np.ceil(worst / _MAX_NORM)).astype(int)
            # the top degree takes every norm above the one below it, so a
            # bound a rounding above _MAX_NORM stays on the table
            terms = np.searchsorted(_THETA[:-1], worst / subs)
            scale = width[part] / subs[:, None]
            np.subtract(diag, centre[:, :, None], diag)
            np.multiply(diag, scale[:, :, None], diag)
            # d and a into the real and imaginary slots of the kernel layout
            diag = diag.reshape(len(block), batch, high, -1).transpose(0, 2, 1, 3)
            block[:, 0, :, :, 0] = diag
            block[:, 0, :, :, 1] = diag
            block[:, 1] = np.repeat(coef[part] * scale, 2, axis=1).reshape(
                len(block), 1, batch, 2, 1)
            yield block, terms, subs

    psi = _apply_vectors(initial.T.copy(), chunks())
    # each run's phase is summed along its own contiguous column, so a run's
    # bits do not depend on how many runs share its block
    phase = np.ascontiguousarray((mid * width).T).sum(axis=1)
    return (psi * np.exp(-1j * phase)).T


def evolve(specs, steps: int | None = None, initial=None) -> np.ndarray:
    """Final amplitudes (B, 2^n) of one Schrodinger evolution per spec.

    Row b integrates specs[b] over its own duration, starting from the
    normalized initial[b] (default: the ground state). Every run keeps its
    own breakpoint-aligned step grid for the `steps` budget (default 1000
    per us) and fourth-order commutator-free Magnus factors (Alvermann &
    Fehske, J. Comput. Phys. 230 (2011) 5930), so a row does not depend on
    the rest of the batch beyond rounding. All specs share one qubit count
    in [1, MAX_QUBITS].

    Each factor exp(-i dt (a X + diag d)) is applied as its Chebyshev
    expansion truncated at unit roundoff (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81 (1984) 3967), summed in monomial weights like a Taylor series
    of degree fixed in advance from a norm bound (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33 (2011) 488), but with ~15% fewer terms. The norm is
    preserved to rounding, and doubling `steps` moves probabilities by well
    under 1e-6 at 1000 steps/us even for full-scale drives. A run no step
    budget resolves (near-coincident atoms) is a NumericError whose `run`
    is its row.
    """
    specs = list(specs)
    if not specs:
        raise ValidationError("evolve needs at least one spec")
    n = specs[0].n_qubits
    if any(spec.n_qubits != n for spec in specs):
        raise ValidationError("all specs in one batch must share one qubit count")
    if not 1 <= n <= MAX_QUBITS:
        raise ValidationError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n}")
    if steps is not None and steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    dim = 1 << n
    if initial is None:
        initial = np.zeros((len(specs), dim), dtype=complex)
        initial[:, 0] = 1.0
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (len(specs), dim):
        raise ValidationError(
            f"initial states have shape {initial.shape}, "
            f"expected {(len(specs), dim)}")
    norms = np.sum(np.abs(initial) ** 2, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if bad.size:
        raise ValidationError(f"initial state {bad[0]} not normalized: "
                              f"sum |a_k|^2 = {norms[bad[0]]!r}")
    # a run has two factor rows per step, and a few more at its breakpoints
    rows = 2 * (steps or max(default_steps(s.duration) for s in specs))
    block = max(1, min(_MAX_BLOCK // dim, _MAX_FACTORS // rows))
    return np.concatenate([
        _propagate(specs[i:i + block], steps, initial[i:i + block], i)
        for i in range(0, len(specs), block)])
