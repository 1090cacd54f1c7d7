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
breakpoints. `evolve(block, steps, initial)`, the one evolution function,
advances the runs of a `RunBlock`, the arrays that describe them, at once
as the columns of one (B, 2^n) complex state block; measurement is the
generator's readout. Each factor is applied through real GEMMs with the
flip operator X = 1/2 sum_i sigma^x_i, on the block in the real layout
(2^h, 2B, 2^(n-h)): X = X_hi (x) I + I (x) X_lo is one GEMM from the left
and one from the right, O(2^n (2^h + 2^(n-h))) per term instead of O(4^n)
(up to five qubits h = n and X_hi = X). No eigendecomposition is taken.
The step grids are tables of each run's segments between breakpoints;
from them the drive coefficients and step widths are built a slab of
factor rows at a time, with one `pulses.evaluate` call per drive at every
run's step nodes (a shorter run's zero-width pad steps among them), and
each chunk of a slab's factors straight into the kernel's layout. No
result depends on the chunk or slab size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericError, ValidationError
from .pulses import SHAPES, breakpoint_times, evaluate

C6_DEFAULT = 5_420_503.0  # rad/us * um^6
MAX_QUBITS = 10
STEPS_PER_US = 250          # default step rate of a run

NORM_TOL = 1e-9             # allowed |sum_k |a_k|^2 - 1| of a state
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class AtomArrangement:
    """Atom positions s_i = (x_i, y_i) in um plus local-detuning couplings h_i,
    checked by `GeneratorParams.validate` and, for every run evolved, by
    `RunBlock`."""

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
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "couplings", coup)


@dataclass(frozen=True, eq=False)
class RunBlock:
    """B analog evolutions, one row per run: positions (B, n, 2) in um,
    couplings h_i (B, n), global offset, C6, duration in us, the error
    model's Rabi gain and local-detuning shift, and per drive (Rabi, local
    detuning) the shape name, param, seed and full scale (B, 2) that
    `drive` hands `pulses`. A value without the run axis is every run's;
    the drive phase is zero. A broken rule names its field and first run.
    """

    positions: np.ndarray
    couplings: np.ndarray
    global_detuning_offset: np.ndarray
    duration: np.ndarray
    shapes: np.ndarray
    params: np.ndarray
    seeds: np.ndarray
    full_scales: np.ndarray
    c6: np.ndarray = C6_DEFAULT
    rabi_scale: np.ndarray = 1.0
    local_detuning_shift: np.ndarray = 0.0

    def __post_init__(self):
        shape = np.shape(self.positions)
        if len(shape) != 3 or not shape[0] or not 1 <= shape[1] <= MAX_QUBITS:
            raise ValidationError(f"positions must be (runs, n_qubits in "
                                  f"[1, {MAX_QUBITS}], 2), got {shape}")
        batch, n = shape[:2]
        tails = dict(positions=(n, 2), couplings=(n,), shapes=(2,), params=(2,),
                     seeds=(2,), full_scales=(2,))
        for name in [f.name for f in fields(self)]:
            value = np.asarray(getattr(self, name), None if name == "shapes" else float)
            want = (batch,) + tails.get(name, ())
            try:
                object.__setattr__(self, name, np.broadcast_to(value, want))
            except ValueError:
                raise ValidationError(f"{name} has shape {value.shape}, "
                                      f"expected {want}") from None
        for name, ok, rule in (
                ("shapes", (self.shapes[..., None] == SHAPES).any(-1),
                 f"must be pulse shapes {SHAPES}"),
                ("full_scales", np.isfinite(self.full_scales) & (self.full_scales != 0),
                 "must be finite and nonzero"),
                ("duration", np.isfinite(self.duration) & (self.duration > 0),
                 "must be finite and positive"),
                ("c6", self.c6 > 0, "must be positive"),
                *((name, np.isfinite(getattr(self, name)), "must be finite")
                  for name in ("params", "seeds", "positions")),
                ("couplings", (self.couplings >= 0) & (self.couplings <= 1),
                 "must lie in [0, 1]")):
            bad = np.flatnonzero(~ok.reshape(batch, -1).all(axis=1))
            if bad.size:
                raise ValidationError(f"run {bad[0]}: {name} {rule}, got "
                                      f"{getattr(self, name)[bad[0]].tolist()!r}")

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, rows) -> "RunBlock":
        """The block of the runs at rows (a slice or an index array)."""
        return RunBlock(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    @property
    def n_qubits(self) -> int:
        return self.positions.shape[1]

    def drive(self, k: int) -> tuple:
        """The Rabi (k = 0) or local-detuning (k = 1) drive of every run, as
        `pulses` reads it: (shape, duration, param, seed, full_scale)."""
        return (self.shapes[:, k], self.duration, self.params[:, k],
                self.seeds[:, k], self.full_scales[:, k])


def interaction_strength(s_i, s_j, c6=C6_DEFAULT):
    """Van der Waals interaction C6 / |s_i - s_j|^6 in rad/us, elementwise
    over the last (x, y) axis of broadcastable position arrays: inf for
    coincident atoms and 0 for atoms too far apart for a float."""
    with np.errstate(divide="ignore", over="ignore"):
        dx, dy = np.moveaxis(np.subtract(s_i, s_j, dtype=float), -1, 0)
        return c6 / (dx * dx + dy * dy) ** 3


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


def _diagonals(block: RunBlock, occ: np.ndarray):
    """(static, sumh), each (B, 2^n): the time-independent diagonal of each
    run's H and its coupling weights sum_i h_i n_i, so that
    H(t) = omega(t) * X + diag(static - dlocal(t) * sumh). A pair's strength
    is capped at 1e300, so coincident atoms leave a finite diagonal for
    _propagate's stiffness check; each row sums its own terms alone.
    """
    i, j = np.triu_indices(occ.shape[1], 1)
    pos = block.positions
    strength = np.minimum(
        interaction_strength(pos[:, i], pos[:, j], block.c6[:, None]), 1e300)
    static = (strength[:, :, None] * (occ.T[i] * occ.T[j])).sum(axis=1)
    return (static - block.global_detuning_offset[:, None] * occ.sum(axis=1),
            (occ @ block.couplings[:, :, None])[:, :, 0])


def default_steps(duration, steps_per_us: int = STEPS_PER_US):
    """Steps of runs `duration` us long, elementwise: `TrainConfig.steps`,
    which every generator run is evolved with, and `evolve`'s default."""
    return np.maximum(1, np.rint(np.multiply(steps_per_us, duration))).astype(int)


def _step_tables(durations, budgets, drives):
    """(starts, dts, firsts): each run's step grid for its step budget,
    aligned to the breakpoints of its drives, as (runs, segments) tables of
    each segment's start time, step width and first step index.

    The budget sets a target dt; each smooth segment between pulse kinks is
    covered by uniform steps no wider than the target, so every step
    integrates an analytic drive and the propagator keeps its full
    fourth-order accuracy for every pulse shape. Breakpoints that differ by
    rounding alone (1e-12 of the duration) bound a segment of no steps. The
    last segment is a zero-width pad at t = 0 from the run's last step on,
    so that runs with fewer steps share the block's rows.
    """
    ends = durations[:, None]
    # 0, the duration and every breakpoint between them, in order; the
    # others become copies of 0, which bound segments of no steps
    cuts = np.concatenate([np.zeros_like(ends), ends]
                          + [breakpoint_times(drive) for drive in drives], axis=1)
    bounds = np.sort(np.where((cuts > 0.0) & (cuts <= ends), cuts, 0.0), axis=1)
    spans = np.diff(bounds, axis=1)
    counts = np.ceil(spans / (durations / budgets)[:, None] - 1e-9)
    counts = np.where(spans > 1e-12 * ends, np.maximum(1.0, counts), 0.0)
    pad = np.zeros_like(ends)
    return (np.hstack([bounds[:, :-1], pad]),
            np.hstack([spans / np.maximum(counts, 1.0), pad]),
            np.hstack([pad.astype(int), np.cumsum(counts.astype(int), axis=1)]))


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
_SLAB_BYTES = 1 << 17       # each drive coefficient and step width array
_MAX_BLOCK = 1 << 14        # amplitudes per block: bounds the series powers
# factor rows x runs per block: bounds _propagate's one (B, rows) float
# array (the factors' phases), 8 bytes per entry, to 32 MiB
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
    """Apply exp(-i (a X + diag d))^subs[f] to the C-contiguous (B, 2^n)
    block psi, factor by factor, for each (pairs, terms, subs) of chunks in
    turn, and return the new (B, 2^n) block.

    The series acts on the block in the real layout (2^h, 2B,
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
    factor's first power. All chunks share the work arrays, sized once for
    the top degree, and a chunk's factors act one after another, so the
    result does not depend on where the chunks are cut.
    """
    batch, dim = psi.shape
    n = dim.bit_length() - 1
    h = _high_qubits(n)
    split = h < n
    flip, low = _flip_matrix(h), _flip_matrix(n - h) if split else None
    high = len(flip)
    shape = (high, batch, 2, dim // high)
    # every power to the top degree; pages of rows never written stay untouched
    powers = _empty((len(_CHEBYSHEV),) + shape)
    powers[0] = psi.view(float).reshape(batch, high, -1, 2).transpose(1, 0, 3, 2)
    rows, flat = list(powers), powers.reshape(len(powers), -1)
    wide = [row.reshape(high, -1) for row in rows]
    # per term j: (M^j v, M^(j+1) v), M^(j+1) v, wide M^j v and M^(j+1) v,
    # the GEMM of tall M^j v
    views = list(zip([powers[j:j + 2] for j in range(len(rows) - 1)],
                     rows[1:], wide, wide[1:],
                     [row.reshape(-1, shape[-1]).dot for row in rows]))
    heads = [(views[:count], _CHEBYSHEV[count].dot, flat[:count + 1])
             for count in range(len(powers))]
    state = rows[0][:, :, 0], rows[0][:, :, 1]
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
    return powers[0].transpose(1, 0, 3, 2).copy().view(complex).reshape(batch, dim)


def _propagate(block: RunBlock, steps, initial, first) -> np.ndarray:
    """evolve on one block of runs, sized by evolve, from row first."""
    n = block.n_qubits
    dim, batch = 1 << n, len(block)
    high = 1 << _high_qubits(n)
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
    half[:], sumh[:] = _diagonals(block, _occupations(n))
    half *= 0.5
    budgets = np.full(batch, steps) if steps else default_steps(block.duration)
    drives = block.drive(0), block.drive(1)
    starts, dts, firsts = _step_tables(block.duration, budgets, drives)
    # one row per Magnus factor, two per step in application order
    rows = 2 * int(firsts[:, -1].max())
    # the segment ends of each run, offset past every step index of the runs
    # before it, so that one search finds the segment of every (run, step)
    lanes = np.arange(batch)[:, None]
    keyed = (firsts[:, 1:] + lanes * (rows + 1)).ravel()

    # each factor is exp(-i dt (coef X + 0.5 static - dlocal sumh)); its
    # diagonal and its four copies in the kernel's pairs, five floats per
    # amplitude, are held per row of a chunk
    chunk = min(rows, max(1, _CHUNK_BYTES // (40 * batch * dim)))
    pairs = _empty((chunk, 2, high, batch, 2, dim // high))
    diags = work((chunk, batch, dim))
    # the drive coefficients and step widths of a slab of whole chunks and
    # whole steps, (rows, B) each
    slab = 2 * chunk * max(1, _SLAB_BYTES // (16 * batch * chunk))
    coef, dlocal, width = (np.empty((min(slab, rows), batch)) for _ in range(3))
    # each factor's phase dt c, c its diagonal shift, summed once over all
    # rows, so no output depends on the chunk or slab size
    phases = np.zeros((batch, rows))

    def fill(lo, hi):
        """The factor rows lo..hi, steps lo // 2 .. hi // 2, of every run
        into coef, dlocal and width, as array passes over the slab's steps:
        one `evaluate` call per drive, at the nodes of every run's steps. A
        pad step has zero width, so its factor is the identity whatever the
        drive reads at its t = 0."""
        step = np.arange(lo // 2, hi // 2)
        used = slice(0, hi - lo)
        at = np.searchsorted(keyed, step + lanes * (rows + 1), side="right")
        at += lanes
        dt = dts.ravel()[at]
        width[used].reshape(-1, 2, batch)[:] = dt.T[:, None]
        # the Gauss-Legendre node times (a + k dt) + c dt of each step
        start = (step - firsts.ravel()[at]) * dt
        start += starts.ravel()[at]
        times = np.empty((batch, 2, len(step)))
        for c, node in enumerate(_NODES):
            np.multiply(dt, node, times[:, c])
            times[:, c] += start
        for target, drive, noise, apply in (
                (coef, drives[0], block.rabi_scale, np.multiply),
                (dlocal, drives[1], block.local_detuning_shift, np.add)):
            values = apply(evaluate(drive, times), noise[:, None, None])
            target[used].reshape(-1, 2, batch)[:] = (
                _WEIGHTS @ values.transpose(1, 0, 2).reshape(2, -1)).reshape(
                    2, batch, -1).transpose(2, 0, 1)

    def chunks():
        for lo in range(0, rows, chunk):
            if lo % slab == 0:
                fill(lo, min(lo + slab, rows))
            hi = min(lo + chunk, rows)
            part = slice(lo % slab, hi - lo + lo % slab)
            data, diag = pairs[:hi - lo], diags[:hi - lo]
            np.multiply(dlocal[part, :, None], sumh, diag)
            np.subtract(half, diag, diag)
            top, bottom = diag.max(axis=2), diag.min(axis=2)
            # shifting the diagonal by its midpoint c, with the phase
            # exp(-i dt c) applied exactly at the end, halves the norm bound
            # of a stiff (blockaded) diagonal; a purely diagonal factor is
            # not shifted, so a run without dynamics keeps its amplitudes
            centre = np.where(coef[part] != 0.0, 0.5 * (top + bottom), 0.0)
            phases[:, lo:hi] = (centre * width[part]).T
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
            diag = diag.reshape(len(data), batch, high, -1).transpose(0, 2, 1, 3)
            data[:, 0, :, :, 0] = diag
            data[:, 0, :, :, 1] = diag
            data[:, 1] = np.repeat(coef[part] * scale, 2, axis=1).reshape(
                len(data), 1, batch, 2, 1)
            yield data, terms, subs

    psi = _apply_vectors(initial, chunks())
    # each run's phase is summed along its own contiguous row, so a run's
    # bits do not depend on how many runs share its block
    return psi * np.exp(-1j * phases.sum(axis=1))[:, None]


def evolve(block: RunBlock, steps: int | None = None, initial=None) -> np.ndarray:
    """Final amplitudes (B, 2^n) of one Schrodinger evolution per run of
    the block.

    Row b integrates run b over its own duration, starting from the
    normalized initial[b] (default: the ground state). Every run keeps its
    own breakpoint-aligned step grid for the `steps` budget (default 250
    per us) and fourth-order commutator-free Magnus factors (Alvermann &
    Fehske, J. Comput. Phys. 230 (2011) 5930), so a row does not depend on
    the rest of the batch beyond rounding.

    Each factor exp(-i dt (a X + diag d)) is applied as its Chebyshev
    expansion truncated at unit roundoff (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81 (1984) 3967), summed in monomial weights like a Taylor series
    of degree fixed in advance from a norm bound (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33 (2011) 488), but with ~15% fewer terms. The norm is
    preserved to rounding, and doubling `steps` moves probabilities by well
    under 1e-6 at the default 250 steps/us even for full-scale drives. A run no step
    budget resolves (coincident or near-coincident atoms) is a NumericError
    whose `run` is its row; atoms too far apart for C6 / r^6 to be a float
    do not interact.
    """
    if steps is not None and steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    # the one (B, 2^n) array: the initial states, each block evolved in place
    out = np.zeros((len(block), 1 << block.n_qubits), dtype=complex)
    if initial is None:
        out[:, 0] = 1.0
    else:
        initial = np.asarray(initial)
        if initial.shape != out.shape:
            raise ValidationError(
                f"initial states have shape {initial.shape}, "
                f"expected {out.shape}")
        out[:] = initial
        norms = np.sum(np.abs(out) ** 2, axis=1)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
        if bad.size:
            raise ValidationError(f"initial state {bad[0]} not normalized: "
                                  f"sum |a_k|^2 = {float(norms[bad[0]])!r}")
    # a run has two factor rows per step, and a few more at its breakpoints
    rows = 2 * int(steps or default_steps(block.duration.max()))
    size = max(1, min(_MAX_BLOCK // out.shape[1], _MAX_FACTORS // rows))
    for i in range(0, len(out), size):
        part = block if size >= len(out) else block[i:i + size]
        out[i:i + size] = _propagate(part, steps, out[i:i + size], i)
    return out
