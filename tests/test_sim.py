import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydgan import generator, sim
from rydgan.errors import NumericError, ValidationError
from rydgan.generator import EXACT, GeneratorParams, ShotsMode
from rydgan.pulses import breakpoint_times, evaluate
from rydgan.sim import (AtomArrangement, C6_DEFAULT, RunBlock, _diagonals,
                        _flip_matrix, _occupations, evolve,
                        interaction_strength)


def one_run(positions, couplings, offset, shapes, params, seeds,
            full_scales=(15.8, -125.0), duration=1.0, **kw):
    """A one-run block: one atom list, and one (Rabi, local) pair per drive
    field."""
    return RunBlock(positions=[positions], couplings=[couplings],
                    global_detuning_offset=offset, duration=duration,
                    shapes=[shapes], params=[params], seeds=[seeds],
                    full_scales=[full_scales], **kw)


def stack(blocks):
    """The blocks' runs, in order, as one block."""
    return RunBlock(**{f.name: np.concatenate([getattr(b, f.name) for b in blocks])
                       for f in dataclasses.fields(RunBlock)})


def ground(n):
    """Amplitudes of the ground state: all atoms in |g>."""
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return amps


def step_grid(spec, steps: int):
    """(start, dt) per integration step of one run, built segment by segment:
    the reference for the step tables that `evolve` builds per block. Each
    smooth segment between the pulses' breakpoints is covered by uniform
    steps no wider than duration / steps; breakpoints closer than 1e-12 of
    the duration merge."""
    duration = float(spec.duration[0])
    cuts = np.concatenate([breakpoint_times(spec.drive(0))[0],
                           breakpoint_times(spec.drive(1))[0]])
    bounds = sorted({0.0, duration} | {t for t in cuts if 0.0 < t < duration})
    dt_target = duration / steps
    starts, dts = [np.empty(0)], [np.empty(0)]
    for a, b in zip(bounds, bounds[1:]):
        span = b - a
        if span <= 1e-12 * duration:
            continue
        m = max(1, math.ceil(span / dt_target - 1e-9))
        dt = span / m
        starts.append(a + np.arange(m) * dt)
        dts.append(np.full(m, dt))
    return np.concatenate(starts), np.concatenate(dts)


def drive_values(spec, t):
    """(Omega, Delta_local) of one run at the times t, noise included."""
    return (spec.rabi_scale[0] * evaluate(spec.drive(0), t),
            evaluate(spec.drive(1), t) + spec.local_detuning_shift[0])


def build_hamiltonian(spec, t):
    """Dense Hermitian H(t) over the 2^n computational basis, assembled from
    the diagonals, drive values and flip matrix that `evolve` uses."""
    (static,), (sumh,) = _diagonals(spec, _occupations(spec.n_qubits))
    omega, dlocal = drive_values(spec, float(t))
    return omega * _flip_matrix(spec.n_qubits) + np.diag(static - dlocal * sumh)


def evolve_eigh(amplitudes, spec, steps):
    """Reference propagator: the step grid and Magnus factors of `evolve`,
    each factor exponentiated through a dense Hermitian eigendecomposition.
    """
    starts, dts = step_grid(spec, steps)
    lo, hi = 0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0
    w1, w2 = 0.25 + np.sqrt(3.0) / 6.0, 0.25 - np.sqrt(3.0) / 6.0
    psi = np.array(amplitudes, dtype=complex)
    for start, dt in zip(starts, dts):
        h1 = build_hamiltonian(spec, start + lo * dt)
        h2 = build_hamiltonian(spec, start + hi * dt)
        # the first factor weights the earlier node more, the second the later
        for h in (w1 * h1 + w2 * h2, w2 * h1 + w1 * h2):
            vals, vecs = np.linalg.eigh(h)
            psi = vecs @ (np.exp(-1j * vals * dt) * (vecs.conj().T @ psi))
    return psi


def constant_spec(positions, couplings, omega, dlocal, dglobal, duration=1.0):
    """A run with flat drives (constant shape ignores the endpoint rules)."""
    return one_run(positions, couplings, dglobal, ("constant", "constant"),
                   (omega, dlocal), (0.0, 0.0), duration=duration)


def random_spec(rng, n=4, duration=1.0):
    """Legal-range random run: seeded shaped pulses, spacing >= 4 um."""
    while True:
        pos = rng.uniform(0.0, 20.0, size=(n, 2))
        d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        if n == 1 or d[np.triu_indices(n, 1)].min() >= 4.0:
            break
    shapes = ("linear", "triangle", "trapezoid", "gaussian", "sine_bump")
    rabi = (shapes[rng.integers(len(shapes))], rng.uniform(0.0, 15.8),
            rng.uniform(1.58, 15.8) / 15.8)
    local = (shapes[rng.integers(len(shapes))], -rng.uniform(0.0, 125.0),
             rng.uniform(12.5, 125.0) / 125.0)
    couplings = rng.uniform(0, 1, n)
    return one_run(pos, couplings, rng.uniform(-125.0, 125.0), *zip(rabi, local),
                   duration=duration)


def assert_default_start_is_ground(n):
    spec = random_spec(np.random.default_rng(n), n)
    assert np.array_equal(evolve(spec, steps=20),
                          evolve(spec, steps=20, initial=[ground(n)]))


class TestGroundState:
    """`evolve` starts from the ground state unless given normalized
    initial states, for 1 to MAX_QUBITS qubits."""

    def test_four_qubits(self):
        assert_default_start_is_ground(4)

    def test_one_qubit(self):
        assert_default_start_is_ground(1)

    def test_cap(self):
        with pytest.raises(ValidationError, match="n_qubits"):
            evolve(constant_spec([(6.0 * i, 0.0) for i in range(11)], [0.5] * 11,
                                 omega=1.0, dlocal=0.0, dglobal=0.0))

    def test_non_normalized_state_rejected(self):
        spec = constant_spec([(0.0, 0.0)], [0.0], 1.0, 0.0, 0.0)
        with pytest.raises(ValidationError,
                           match=r"^initial state 1 not normalized: sum \|a_k\|\^2 = 2\.0$"):
            evolve(stack([spec, spec]), initial=np.array([[1.0, 0.0], [1.0, 1.0]]))


class TestInteractionStrength:
    def test_ten_micron_pair(self):
        v = interaction_strength((0, 0), (10, 0), C6_DEFAULT)
        assert v == pytest.approx(5.420503, rel=1e-12)

    def test_four_micron_pair(self):
        v = interaction_strength((0, 0), (4, 0), C6_DEFAULT)
        assert v == pytest.approx(5420503.0 / 4096.0, rel=1e-12)
        assert v == pytest.approx(1323.365, abs=5e-4)

    def test_strictly_decreasing_in_distance(self):
        values = [interaction_strength((0, 0), (r, 0)) for r in (4, 6, 9, 15, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_coincident_atoms(self):
        # infinite, not an error: _propagate's stiffness check names the run
        assert interaction_strength((0, 0), (0, 0)) == np.inf

    def test_atoms_beyond_float_range_do_not_interact(self):
        # r^6 overflows from about 1e51 um, r^2 from about 1e154 um
        for r in (1e60, 1e200, 1e308):
            assert interaction_strength((0.0, 0.0), (r, 0.0)) == 0.0
        assert interaction_strength((-1e308, 0.0), (1e308, 0.0)) == 0.0

    def test_elementwise_over_broadcast_positions(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(0, 20, (3, 5, 2)), rng.uniform(0, 20, (5, 2))
        c6 = rng.uniform(1e5, 1e7, (3, 1))
        got = interaction_strength(a, b, c6)
        assert got.shape == (3, 5)
        for r, k in np.ndindex(got.shape):
            want = c6[r, 0] / math.dist(a[r, k], b[k]) ** 6
            assert got[r, k] == pytest.approx(want, rel=1e-14)


def diagonal_oracle(spec):
    """(static, sumh, scale) of one run, basis state by basis state: C6 /
    r^6 over each excited pair less the offset per excitation, sum_i h_i
    n_i, and the sum of the magnitudes of static's terms."""
    n, positions = spec.n_qubits, spec.positions[0].tolist()
    c6, offset = float(spec.c6[0]), float(spec.global_detuning_offset[0])
    static, sumh, scale = (np.zeros(1 << n) for _ in range(3))
    for k in range(1 << n):
        up = [i for i in range(n) if k >> (n - 1 - i) & 1]
        pairs = [c6 / math.dist(positions[i], positions[j]) ** 6
                 for a, i in enumerate(up) for j in up[a + 1:]]
        static[k] = sum(pairs) - offset * len(up)
        scale[k] = sum(pairs) + abs(offset) * len(up)
        sumh[k] = sum(float(spec.couplings[0, i]) for i in up)
    return static, sumh, scale


def mixed_block(rng, n):
    """Runs of n atoms, spread over the field and packed on a 4 um grid,
    at three C6 values and offsets of both signs."""
    specs = []
    for c6, spacing in ((C6_DEFAULT, None), (862_690.0, 4.0), (1e3, None),
                        (C6_DEFAULT, 4.0)):
        base = (spread_full_range_spec(rng, n) if spacing is None
                else full_range_spec(rng, n, spacing))
        specs.append(dataclasses.replace(
            base, c6=c6, global_detuning_offset=rng.uniform(-125.0, 125.0)))
    return specs


class TestDiagonals:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_match_the_brute_force_oracle(self, n):
        specs = mixed_block(np.random.default_rng(40 + n), n)
        static, sumh = _diagonals(stack(specs), _occupations(n))
        for spec, row, weights in zip(specs, static, sumh):
            want, want_h, scale = diagonal_oracle(spec)
            assert np.all(np.abs(row - want) <= 1e-12 * scale)
            assert np.all(np.abs(weights - want_h) <= 1e-12 * want_h)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_rows_do_not_depend_on_the_block(self, n):
        specs = mixed_block(np.random.default_rng(50 + n), n) * 3
        static, sumh = _diagonals(stack(specs), _occupations(n))
        for b, spec in enumerate(specs):
            (alone,), (alone_h,) = _diagonals(spec, _occupations(n))
            assert np.array_equal(alone, static[b])
            assert np.array_equal(alone_h, sumh[b])

    def test_coincident_atoms_leave_a_finite_diagonal(self):
        spec = constant_spec([(1.0, 2.0), (1.0, 2.0), (9.0, 2.0)], [0.5] * 3,
                             omega=2.0, dlocal=0.0, dglobal=0.0)
        (static,), _ = _diagonals(spec, _occupations(3))
        assert np.isfinite(static).all() and static[-1] > 1e299


class TestBuildHamiltonian:
    def test_single_atom_drive(self):
        spec = constant_spec([(0.0, 0.0)], [0.0], omega=3.0, dlocal=0.0,
                             dglobal=0.0)
        h = build_hamiltonian(spec, 0.5)
        assert np.allclose(h, [[0.0, 1.5], [1.5, 0.0]])

    def test_two_atom_interaction_diagonal(self):
        spec = constant_spec([(0.0, 0.0), (10.0, 0.0)], [0.0, 0.0],
                             omega=0.0, dlocal=0.0, dglobal=0.0)
        h = build_hamiltonian(spec, 0.5)
        assert np.allclose(np.diag(h), [0.0, 0.0, 0.0, 5.420503])
        assert np.allclose(h, np.diag(np.diag(h)))

    def test_detuning_diagonal(self):
        spec = constant_spec([(0.0, 0.0)], [1.0], omega=0.0, dlocal=-1.0,
                             dglobal=2.0)
        h = build_hamiltonian(spec, 0.5)
        assert np.allclose(h, np.diag([0.0, -1.0]))

    def test_basis_order_is_qubit0_msb(self):
        # couple only qubit 1 (h = (0, 1)): the local detuning acts on
        # basis indices with the least significant bit set
        spec = constant_spec([(0.0, 0.0), (10.0, 0.0)], [0.0, 1.0],
                             omega=0.0, dlocal=-3.0, dglobal=0.0)
        h = build_hamiltonian(spec, 0.0)
        diag = np.diag(h).real
        assert diag[0] == 0.0
        assert diag[1] == pytest.approx(3.0)     # |gr>: qubit 1 excited
        assert diag[2] == pytest.approx(0.0)     # |rg>: qubit 0 excited
        assert diag[3] == pytest.approx(3.0 + 5.420503)

    def test_hermitian_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = random_spec(rng, n=int(rng.integers(1, 5)))
            t = rng.uniform(0.0, 1.0)
            h = build_hamiltonian(spec, t)
            assert np.abs(h - h.conj().T).max() == 0.0

    def test_time_outside_pulse_domain(self):
        spec = constant_spec([(0.0, 0.0)], [0.0], 1.0, 0.0, 0.0, duration=1.0)
        with pytest.raises(ValidationError):
            build_hamiltonian(spec, 1.5)

    def test_mismatched_durations_rejected(self):
        # a run has one duration, which both drives share: one per drive
        # is a misshapen field
        with pytest.raises(ValidationError, match="duration"):
            constant_spec([(0.0, 0.0)], [0.0], 1.0, 0.0, 0.0, duration=[[1.0, 2.0]])



class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        spec = constant_spec([(0.0, 0.0), (8.0, 37.0)], [0.5, 0.5],
                             omega=0.0, dlocal=0.0, dglobal=0.0)
        # far-separated atoms, no drive: only a tiny interaction term
        out = evolve(spec, steps=100)[0]
        assert np.allclose(out, ground(2), atol=1e-12)

    def test_rabi_oscillation_analytic(self):
        spec = constant_spec([(0.0, 0.0)], [0.0], omega=np.pi, dlocal=0.0,
                             dglobal=0.0)
        p = np.abs(evolve(spec)[0]) ** 2
        assert p[1] == pytest.approx(np.sin(np.pi * 1.0 / 2.0) ** 2, abs=1e-6)
        assert p[1] == pytest.approx(1.0, abs=1e-6)

    def test_ground_state_is_detuning_eigenstate(self):
        spec = constant_spec([(0.0, 0.0)], [0.0], omega=0.0, dlocal=0.0,
                             dglobal=5.0)
        out = evolve(spec)[0]
        assert np.allclose(np.abs(out) ** 2, [1.0, 0.0], atol=1e-12)

    def test_matches_direct_diagonalization_oracle(self):
        # constant two-atom Hamiltonian: exp(-iHt) computed independently
        spec = constant_spec([(0.0, 0.0), (6.0, 0.0)], [1.0, 0.3],
                             omega=2.2, dlocal=-1.7, dglobal=0.9)
        h = build_hamiltonian(spec, 0.0)
        w, v = np.linalg.eigh(h)
        expected = v @ (np.exp(-1j * w * 1.0) * (v.conj().T @ ground(2)))
        out = evolve(spec)[0]
        assert np.abs(out - expected).max() < 1e-8

    def test_unitarity_random_specs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            spec = random_spec(rng)
            out = evolve(spec, steps=400)[0]
            assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-9

    def test_step_halving_convergence(self):
        rng = np.random.default_rng(17)
        spec = random_spec(rng)
        p1 = np.abs(evolve(spec, steps=1000)[0]) ** 2
        p2 = np.abs(evolve(spec, steps=2000)[0]) ** 2
        assert np.abs(p1 - p2).max() < 1e-6

    def test_fourth_order_convergence_rate(self):
        rng = np.random.default_rng(23)
        spec = random_spec(rng)
        ref = np.abs(evolve(spec, steps=4000)[0]) ** 2
        errs = [np.abs(np.abs(evolve(spec, steps=s)[0]) ** 2 - ref).max()
                for s in (125, 250, 500)]
        # halving dt should cut the error by roughly 2^4
        assert errs[0] / errs[1] > 8.0
        assert errs[1] / errs[2] > 8.0

    @pytest.mark.parametrize("duration", [1e-13, 5e-12, 1.0, 4.0])
    def test_step_grid_covers_any_duration(self, duration):
        """Breakpoints closer than 1e-12 of the duration merge, as a run's
        two pulses' copies of one breakpoint do; every other segment is
        covered, however short the run, so it always has a step."""
        spec = random_spec(np.random.default_rng(7), n=2, duration=duration)
        def twinned(pulses):
            # each pulse's third breakpoint gains a twin a rounding away
            cuts = breakpoint_times(pulses)
            return np.concatenate([cuts, cuts[..., 2:3] * (1.0 + 1e-14)], axis=-1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "breakpoint_times", twinned)
            _, widths, firsts = sim._step_tables(
                np.array([duration]), np.array([1]), (spec.drive(0), spec.drive(1)))
        dts = np.repeat(widths[0, :-1], np.diff(firsts[0]))
        assert dts.sum() == pytest.approx(duration, rel=1e-12, abs=0.0)
        assert dts.min() > 1e-12 * duration
        out = evolve(spec)[0]
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-9
        if duration < 1e-9:
            assert abs(out[0]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_qubit_count_mismatch(self):
        spec = constant_spec([(0.0, 0.0)], [0.0], 1.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            evolve(spec, initial=[ground(2)])


def with_run(block, name, value, rows):
    """A copy of block whose field name holds value at the runs rows."""
    field = getattr(block, name).copy()
    field[rows] = value
    return dataclasses.replace(block, **{name: field})


# each rule a block keeps: the field and a value at one run that breaks it
BLOCK_RULES = [
    ("shapes", ("linear", "sawtooth")),
    ("full_scales", (15.8, 0.0)),
    ("full_scales", (np.inf, -125.0)),
    ("duration", 0.0),
    ("duration", -1.0),
    ("params", (np.nan, -3.0)),
    ("seeds", (0.5, np.inf)),
    ("c6", 0.0),
    ("c6", -5.0),
    ("positions", [(0.0, 0.0), (np.inf, 0.0)]),
    ("positions", [(np.nan, 0.0), (6.0, 0.0)]),
    ("couplings", (0.5, 1.5)),
    ("couplings", (-0.1, 0.5)),
]


class TestBlockRules:
    @pytest.mark.parametrize("name, value", BLOCK_RULES,
                             ids=[f"{name}-{i}" for i, (name, _) in enumerate(BLOCK_RULES)])
    def test_a_broken_run_names_its_field_and_row(self, name, value):
        rng = np.random.default_rng(8)
        block = stack([random_spec(rng, 2) for _ in range(4)])
        # the first broken run is named
        for rows in ([1], [2, 3], [0, 1, 2, 3]):
            with pytest.raises(ValidationError, match=rf"^run {rows[0]}: {name} "):
                evolve(with_run(block, name, value, rows))

    def test_every_field_is_one_row_per_run(self):
        # a field's rows are the runs; one value is shared by every run
        block = stack([random_spec(np.random.default_rng(9), 2)] * 3)
        assert dataclasses.replace(block, c6=1e6).c6.tolist() == [1e6] * 3
        with pytest.raises(ValidationError, match="c6 has shape"):
            dataclasses.replace(block, c6=[1e6, 2e6])


def full_range_spec(rng, n, spacing=4.0):
    """Strongest legal drives on a square grid of atoms, by default at the
    minimum 4 um spacing."""
    side = int(np.ceil(np.sqrt(n)))
    pos = [(spacing * (i % side), spacing * (i // side)) for i in range(n)]
    return one_run(pos, rng.uniform(0, 1, n), 125.0, ("trapezoid", "sine_bump"),
                   (15.8, -125.0), (1.0, 1.0))


def spread_full_range_params(rng, n):
    """Strong legal drives on atoms anywhere in the 75 um field, at least
    4 um apart."""
    while True:
        pos = rng.uniform(0.0, 75.0, size=(n, 2))
        d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        if d[np.triu_indices(n, 1)].min(initial=np.inf) >= 4.0:
            break
    limits = generator.DEFAULT_LIMITS
    return GeneratorParams(
        AtomArrangement(tuple(map(tuple, pos)), tuple(rng.uniform(0.0, 1.0, n))),
        "trapezoid", 0.9 * limits.omega_max, "sine_bump",
        0.9 * limits.local_detuning_min, 0.5 * limits.global_detuning_abs)


def spread_full_range_spec(rng, n, seed=0.6):
    """The one-run block of spread_full_range_params at one seed."""
    return generator._block([(spread_full_range_params(rng, n), seed, EXACT)],
                            generator.TrainConfig())[0]


class TestEvolveBatch:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_eigh_oracle(self, n):
        # shaped pulses with different breakpoint sets, a shorter pulse
        # (its grid is padded) and a zero-drive column share one batch
        rng = np.random.default_rng(40 + n)
        specs = [random_spec(rng, n), random_spec(rng, n),
                 random_spec(rng, n, duration=0.6),
                 constant_spec([(6.0 * i, 0.0) for i in range(n)], [0.5] * n,
                               omega=0.0, dlocal=0.0, dglobal=0.0)]
        initial = rng.normal(size=(4, 1 << n)) + 1j * rng.normal(size=(4, 1 << n))
        initial /= np.linalg.norm(initial, axis=1, keepdims=True)
        out = evolve(stack(specs), steps=150, initial=initial)
        for spec, start, row in zip(specs, initial, out):
            assert np.abs(row - evolve_eigh(start, spec, 150)).max() <= 1e-9

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_split_flip_path_matches_eigh_oracle(self, n):
        # from six qubits X acts through its Kronecker factors; atoms
        # packed on a 4 um grid make the factors stiff (several substeps)
        rng = np.random.default_rng(70 + n)
        specs = [random_spec(rng, n), full_range_spec(rng, n),
                 random_spec(rng, n, duration=0.6)]
        out = evolve(stack(specs), steps=12)
        for spec, row in zip(specs, out):
            assert np.abs(row - evolve_eigh(ground(n), spec, 12)).max() <= 1e-9

    def test_nine_qubit_split_path_matches_eigh_oracle(self):
        spec = random_spec(np.random.default_rng(79), 9)
        out = evolve(spec, steps=12)[0]
        assert np.abs(out - evolve_eigh(ground(9), spec, 12)).max() <= 1e-9

    def test_split_and_dense_paths_agree_from_six_qubits(self, monkeypatch):
        rng = np.random.default_rng(77)
        for n in (6, 7):
            specs = [random_spec(rng, n), random_spec(rng, n, duration=0.6)]
            split = evolve(stack(specs), steps=20)
            with monkeypatch.context() as patch:
                patch.setattr(sim, "_SPLIT_QUBITS", n + 1)
                dense = evolve(stack(specs), steps=20)
            assert np.abs(dense - split).max() <= 1e-13

    def test_spread_ten_qubit_run_takes_under_a_second(self):
        # the README's promise, at the default step budget
        spec = full_range_spec(np.random.default_rng(10), 10, spacing=25.0)
        start = time.perf_counter()
        evolve(spec)
        elapsed = time.perf_counter() - start
        assert elapsed <= 1.0, f"one n = 10 run took {elapsed:.2f}s"

    def test_stiff_six_qubit_factors_match_eigh_oracle(self):
        # 4 um packing at a coarse step: every factor's norm bound is far
        # above one substep's cap
        spec = full_range_spec(np.random.default_rng(6), 6)
        out = evolve(spec, steps=30)[0]
        ref = evolve_eigh(ground(6), spec, 30)
        assert np.abs(out - ref).max() <= 1e-9

    @pytest.mark.parametrize("n", range(1, 11))
    def test_split_flip_action_matches_dense(self, n, monkeypatch):
        # split at every qubit count; one Taylor term with a = 1 and d = 0
        # maps v to v - i X v
        monkeypatch.setattr(sim, "_SPLIT_QUBITS", 1)
        rng = np.random.default_rng(n)
        block = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
        pairs = kernel_pairs(np.ones((1, 3)), np.zeros((1, 1 << n, 3)))
        out = sim._apply_vectors(block, [(pairs, [1], [1])])
        flipped = 1j * (out - block)
        assert np.abs(flipped - block @ sim._flip_matrix(n)).max() <= 1e-13

    @settings(max_examples=60)
    @given(n=st.integers(1, 6), batch=st.integers(1, 5),
           steps=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
           chunk_bytes=st.sampled_from([1, 1 << 12, 1 << 16, 1 << 20]),
           max_block=st.sampled_from([1, 64, 1 << 14]),
           split=st.integers(1, 7))
    def test_every_tuning_matches_eigh_oracle(self, n, batch, steps, seed,
                                              chunk_bytes, max_block, split):
        # chunking, blocking and the Kronecker split change how the factors
        # are applied, never what they are
        rng = np.random.default_rng(seed)
        specs = [random_spec(rng, n, duration=rng.choice([1.0, 0.6]))
                 for _ in range(batch)]
        initial = (rng.normal(size=(batch, 1 << n))
                   + 1j * rng.normal(size=(batch, 1 << n)))
        initial /= np.linalg.norm(initial, axis=1, keepdims=True)
        with pytest.MonkeyPatch.context() as patch:
            for name, value in (("_CHUNK_BYTES", chunk_bytes),
                                ("_MAX_BLOCK", max_block),
                                ("_SPLIT_QUBITS", split)):
                patch.setattr(sim, name, value)
            out = evolve(stack(specs), steps=steps, initial=initial)
        for spec, start, row in zip(specs, initial, out):
            assert np.abs(row - evolve_eigh(start, spec, steps)).max() <= 1e-9

    @pytest.mark.parametrize("steps, duration", [(30, 1.0), (None, 0.03)])
    def test_factor_row_cap_splits_the_block(self, steps, duration,
                                             monkeypatch):
        # about two factor rows per step: a cap of 2 x budget x 2 factor rows
        # x runs holds two runs
        budget = steps or sim.default_steps(duration)
        rng = np.random.default_rng(5)
        specs = [random_spec(rng, 4, duration) for _ in range(5)]
        whole = evolve(stack(specs), steps=steps)
        sizes, propagate = [], sim._propagate
        monkeypatch.setattr(sim, "_MAX_FACTORS", 2 * budget * 2)
        monkeypatch.setattr(sim, "_propagate", lambda specs, *rest: (
            sizes.append(len(specs)) or propagate(specs, *rest)))
        out = evolve(stack(specs), steps=steps)
        assert sizes == [2, 2, 1]
        assert np.abs(out - whole).max() <= 1e-12
        for spec, row in zip(specs, out):
            assert np.abs(row - evolve_eigh(ground(4), spec, budget)).max() <= 1e-9

    @pytest.mark.parametrize("n, split", [(4, 7), (5, 1), (6, 6), (8, 7)])
    def test_chunked_factors_are_bit_identical(self, n, split, monkeypatch):
        # the work arrays are reused across chunks: term and factor counts
        # that rise and fall between chunks must not change one bit
        monkeypatch.setattr(sim, "_SPLIT_QUBITS", split)
        rng = np.random.default_rng(n)
        dim, batch = 1 << n, 3
        terms = np.array([3, 8, 2, 12, 5, 0, 7])
        subs = np.array([1, 2, 1, 1, 3, 1, 1])
        coef = rng.uniform(-0.1, 0.1, size=(len(terms), batch))
        diag = rng.uniform(-0.2, 0.2, size=(len(terms), dim, batch))
        psi = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
        pairs = kernel_pairs(coef, diag)
        whole = sim._apply_vectors(psi, [(pairs, terms, subs)])
        cuts = [0, 1, 3, 4, 7]
        parts = sim._apply_vectors(psi, [
            (pairs[a:b], terms[a:b], subs[a:b]) for a, b in zip(cuts, cuts[1:])])
        assert np.array_equal(whole, parts)
        assert not np.array_equal(whole, psi)

    @pytest.mark.parametrize("n, batch", [(4, 12), (6, 4)])
    def test_outputs_do_not_depend_on_the_chunk_size(self, n, batch,
                                                     monkeypatch):
        # from one row per chunk to all rows in one: the phase of the
        # diagonal shifts is summed over every row at once
        rng = np.random.default_rng(90 + n)
        specs = [random_spec(rng, n, duration=rng.choice([1.0, 0.6]))
                 for _ in range(batch)]
        outs = []
        for size in (1, 1 << 12, 1 << 20, 1 << 40):
            monkeypatch.setattr(sim, "_CHUNK_BYTES", size)
            outs.append(evolve(stack(specs), steps=60))
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])

    @pytest.mark.parametrize("n, split", [(1, 7), (2, 7), (2, 1), (3, 7),
                                          (4, 7), (4, 1), (5, 7), (6, 7),
                                          (6, 6), (7, 6), (8, 6)])
    def test_chunks_match_the_reference_construction(self, n, split,
                                                     monkeypatch):
        # dense and split layouts; every trainable shape pair and a constant
        # pair, 1 and 0.6 us runs in turn (the shorter ones pad the block
        # with zero-width rows), every third run noisy (its Rabi drive
        # scaled, its local detuning shifted); chunks of three rows in slabs
        # of fifteen make the producer reuse its work arrays and put chunk
        # and slab boundaries between the two rows of a step
        monkeypatch.setattr(sim, "_SPLIT_QUBITS", split)
        rng = np.random.default_rng(80 + n)
        shapes = generator.TRAINABLE_SHAPES
        pairs = [(a, b) for a in shapes for b in shapes] + [("constant",) * 2]
        specs = []
        for i, (rabi, local) in enumerate(pairs):
            spec = random_spec(rng, n, duration=(1.0, 0.6)[i % 2])
            spec = dataclasses.replace(spec, shapes=[(rabi, local)])
            if i % 3 == 0:
                spec = dataclasses.replace(spec, rabi_scale=rng.normal(1.0, 0.01),
                                           local_detuning_shift=rng.normal(0.0, 0.1))
            specs.append(spec)
        batch, dim = len(specs), 1 << n
        monkeypatch.setattr(sim, "_CHUNK_BYTES", 3 * 40 * batch * dim)
        monkeypatch.setattr(sim, "_SLAB_BYTES", 15 * 8 * batch)
        chunks, out = captured_chunks(specs, 40)
        coef, diag, mid, width, terms, subs = reference_factors(specs, 40)
        assert [len(chunk[1]) for chunk in chunks[:-1]] == [3] * (len(chunks) - 1)
        assert (width == 0.0).any()
        pairs, got_terms, got_subs = (np.concatenate(part)
                                      for part in zip(*chunks))
        assert np.array_equal(pairs, kernel_pairs(coef, diag))
        assert np.array_equal(got_terms, terms)
        assert np.array_equal(got_subs, subs)
        assert np.array_equal(out[:, 0], np.exp(-1j * np.array(
            [np.sum(m * w) for m, w in zip(mid.T, width.T)])))

    def test_pulses_are_evaluated_once_per_drive_and_slab(
            self, monkeypatch):
        # two Rabi and three local-detuning shapes, 1 and 0.6 us runs in
        # turn: one call per drive and slab, however many runs and shapes
        # share them, at the two nodes of every run's steps, the shorter
        # runs' pad steps among them
        calls = []

        def counting(drive, t):
            calls.append(t.size)
            return evaluate(drive, t)
        monkeypatch.setattr(sim, "evaluate", counting)
        rng = np.random.default_rng(31)
        pairs = [("linear", "triangle"), ("gaussian", "triangle"),
                 ("linear", "sine_bump"), ("gaussian", "trapezoid")]
        for copies in (1, 6):
            specs = [dataclasses.replace(spec, shapes=[pair])
                     for i, pair in enumerate(pairs * copies)
                     for spec in [random_spec(rng, 2, (1.0, 0.6)[i % 2])]]
            # each run's default budget: 250 steps per us
            real = [len(step_grid(spec, sim.default_steps(spec.duration[0]))[0])
                    for spec in specs]
            assert len(set(real)) > 1
            # one slab of every step, then slabs of 20 rows (10 steps)
            for slab, each in ((1 << 40, max(real)), (8 * 20 * len(specs), 10)):
                monkeypatch.setattr(sim, "_SLAB_BYTES", slab)
                monkeypatch.setattr(sim, "_CHUNK_BYTES", 40 * 4 * len(specs))
                calls.clear()
                evolve(stack(specs))
                steps = [min(each, max(real) - lo)
                         for lo in range(0, max(real), each)]
                assert calls == [2 * len(specs) * count
                                 for count in steps for _ in range(2)]

    def test_set_up_memory_grows_with_the_rows_by_the_phases_alone(self):
        # a select-like block: 200 n = 4 runs of two shape pairs. Only the
        # (B, rows) phase array grows with the step count; the drive
        # coefficients and widths are built a slab at a time
        rng = np.random.default_rng(12)
        specs = []
        for local in ("triangle", "gaussian"):
            spec = spread_full_range_spec(rng, 4)
            spec = dataclasses.replace(
                spec, shapes=[(spec.shapes[0, 0], local)])
            specs += [dataclasses.replace(spec, seeds=[(seed, seed)])
                      for seed in rng.uniform(0.1, 1.0, 100)]
        peaks, rows = [], []
        for steps in (250, 1000):
            rows.append(2 * max(len(step_grid(spec, steps)[0]) for spec in specs))
            tracemalloc.start()
            try:
                evolve(stack(specs), steps=steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        growth = len(specs) * (rows[1] - rows[0]) * 8
        assert peaks[1] - peaks[0] <= growth + 128 * 1024

    @pytest.mark.parametrize("shape", [(1,), (3, 5), (2, 16, 12, 2, 1)],
                             ids=["one", "3x5", "pairs"])
    def test_work_arrays_start_on_a_cache_line(self, shape):
        # the series' powers, products and sums are built by _empty
        work = sim._empty(shape)
        assert work.shape == shape and work.dtype == np.float64
        assert work.ctypes.data % 64 == 0

    def test_flip_matrix_is_cached_and_read_only(self):
        x = sim._flip_matrix(5)
        assert sim._flip_matrix(5) is x
        with pytest.raises(ValueError):
            x[0, 1] = 1.0

    def test_unitarity_full_range_eight_qubits(self):
        spec = full_range_spec(np.random.default_rng(8), 8)
        for steps in (20, 250):
            out = evolve(spec, steps=steps)[0]
            assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-9

    def test_rows_agree_with_lone_runs(self):
        # a lone run is a one-column block, with its own term counts and
        # chunk size
        rng = np.random.default_rng(9)
        specs = [random_spec(rng, 4) for _ in range(12)]
        out = evolve(stack(specs), steps=100)
        for spec, row in zip(specs, out):
            lone = evolve(spec, steps=100)[0]
            assert np.abs(row - lone).max() <= 1e-12

    @pytest.mark.parametrize("noisy", [3, 4])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_a_permutation_of_the_runs_permutes_the_rows(self, n, noisy):
        # within one block a run's row does not depend on its position, so a
        # block of member-major runs gives the bits of the same runs
        # seed-major; the block mixes every trainable shape pair, noisy runs
        # and runs of 1 and 0.6 us. The one exception is the GEMM's column
        # tail: at n = 4 and 5 (one 2^n-row GEMM, 2 columns per run) a
        # block of 4k + 1 or 4k + 2 runs rounds its last one or two runs on
        # their own, by about 1e-15
        rng = np.random.default_rng(60 + n)
        params = spread_full_range_params(rng, n)
        pairs = [(a, b) for a in generator.TRAINABLE_SHAPES
                 for b in generator.TRAINABLE_SHAPES]
        groups = [(dataclasses.replace(params, rabi_shape=a, local_shape=b),
                   seed, EXACT)
                  for (a, b), seed in zip(pairs, generator.draw_seeds(rng, len(pairs)))]
        groups += [(params, seed, generator.NoisyMode(generator.ErrorModel(rng_seed=i)))
                   for i, seed in enumerate(generator.draw_seeds(rng, noisy))]
        block, _ = generator._block(groups, generator.TrainConfig())
        block = dataclasses.replace(
            block, duration=[(1.0, 0.6)[i % 2] for i in range(len(block))])
        assert len(block) << n <= sim._MAX_BLOCK      # one block
        out = evolve(block)
        rows = np.arange(len(block))
        tail = len(block) - len(block) % 4
        for _ in range(2):
            order = rng.permutation(len(block))
            moved = evolve(block[order])
            inner = (rows < tail) & (order < tail)
            assert np.array_equal(moved[inner], out[order][inner])
            assert np.abs(moved - out[order]).max() <= 1e-14

    def test_copies_match_the_lone_run_bit_for_bit(self):
        # each run's phase is summed along its own column, so a run's bits
        # do not depend on how many copies share its block; at n = 4, blocks
        # of three or more copies still round differently in the dense GEMM
        rng = np.random.default_rng(7)
        for n, batches in ((4, (2,)), (6, (2, 3, 8, 16)), (8, (2, 3, 8, 16))):
            spec = spread_full_range_spec(rng, n)
            lone = evolve(spec, steps=250)[0]
            for batch in batches:
                out = evolve(spec[[0] * batch], steps=250)
                assert all(np.array_equal(row, lone) for row in out), (n, batch)

    @pytest.mark.parametrize("n, batch", [(8, 3), (10, 2)])
    def test_split_path_rows_agree_with_lone_runs(self, n, batch):
        rng = np.random.default_rng(n)
        specs = [random_spec(rng, n) for _ in range(batch)]
        out = evolve(stack(specs), steps=40)
        for spec, row in zip(specs, out):
            assert np.abs(row - evolve(spec, steps=40)[0]).max() <= 1e-12

    def test_rejects_mixed_qubit_counts(self):
        # a block holds one atom count: couplings of another are rejected,
        # and so is a block of no runs
        spec = random_spec(np.random.default_rng(1), 2)
        with pytest.raises(ValidationError, match="couplings"):
            evolve(dataclasses.replace(spec, couplings=[[0.5] * 3]))
        with pytest.raises(ValidationError):
            evolve(spec[[]])

    def test_near_coincident_atoms_are_a_numeric_error(self):
        # C6 / (0.01 um)^6 ~ 5e18 rad/us: no step budget resolves it
        spec = constant_spec([(0.0, 0.0), (0.01, 0.0)], [0.5, 0.5],
                             omega=2.0, dlocal=0.0, dglobal=0.0)
        with pytest.raises(NumericError):
            evolve(spec, steps=100)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_coincident_atoms_are_a_numeric_error_naming_the_run(self, n):
        # the stiffness check is the one check on atom spacing, and it
        # reports a finite bound
        rng = np.random.default_rng(60 + n)
        specs = [spread_full_range_spec(rng, n) for _ in range(4)]
        pos = specs[2].positions.copy()
        pos[0, -1] = pos[0, 0]
        specs[2] = dataclasses.replace(specs[2], positions=pos)
        with pytest.raises(NumericError, match=r"^run 2: .* \d") as err:
            evolve(stack(specs), steps=50)
        assert err.value.run == 2
        assert "inf" not in str(err.value) and "nan" not in str(err.value)

    @pytest.mark.parametrize("n", [2, 8])
    def test_stiff_run_is_named(self, n, monkeypatch):
        # run 1 has a 0.01 um pair; at n = 8 the runs take the split path
        spread = full_range_spec(np.random.default_rng(n), n, spacing=20.0)
        pos = spread.positions.copy()
        pos[0, 1] = (pos[0, 0, 0] + 0.01, pos[0, 0, 1])
        crowded = dataclasses.replace(spread, positions=pos)
        with pytest.raises(NumericError, match="^run 1: ") as err:
            evolve(stack([spread, crowded, spread]), steps=100)
        assert err.value.run == 1
        # one run per block: evolve adds the block offset
        monkeypatch.setattr(sim, "_MAX_BLOCK", 1)
        with pytest.raises(NumericError, match="^run 1: "):
            evolve(stack([spread, crowded, spread]), steps=100)

    @pytest.mark.parametrize("n", [2, 6])
    def test_initial_layout_does_not_change_a_bit(self, n):
        # evolve takes any (B, 2^n) array: a Fortran-ordered copy and a
        # strided view hold the same amplitudes as the contiguous block
        rng = np.random.default_rng(70 + n)
        specs = [random_spec(rng, n) for _ in range(3)]
        wide = rng.normal(size=(3, 2 << n)) + 1j * rng.normal(size=(3, 2 << n))
        strided = wide[:, ::2]
        strided /= np.linalg.norm(strided, axis=1, keepdims=True)
        contiguous = evolve(stack(specs), steps=40, initial=strided.copy())
        for initial in (np.asfortranarray(strided), strided):
            assert np.array_equal(evolve(stack(specs), steps=40, initial=initial),
                                  contiguous)

    def test_rejects_misshapen_initial_states(self):
        spec = random_spec(np.random.default_rng(2), 2)
        with pytest.raises(ValidationError):
            evolve(spec, steps=10, initial=np.ones((1, 8)))

    def test_holds_one_output_array(self):
        # the ground states are built in the output and each block is evolved
        # into its own rows, so a larger batch adds its output and no copy
        spec = one_run([(20.0 * i, 0.0) for i in range(6)], [0.5] * 6, 0.0,
                       ("linear", "linear"), (1.0, -1.0), (0.0, 0.0))
        peaks = []
        for block in (spec[[0] * 512], spec[[0] * 2048]):
            tracemalloc.start()
            try:
                evolve(block, steps=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        growth = (2048 - 512) * (1 << 6) * np.dtype(complex).itemsize
        assert (peaks[1] - peaks[0]) / growth <= 1.25


def series_error(theta, weights, points=20001):
    """Largest |p(lam) - exp(-i lam)| over [-theta, theta] in units of
    2^-53, for p = even - i odd with the float64 weights (2, m + 1),
    evaluated in long double."""
    lam = np.linspace(-theta, theta, points).astype(np.longdouble)
    even = odd = np.zeros_like(lam)
    for a, b in weights.astype(np.longdouble).T[::-1]:
        even, odd = even * lam + a, odd * lam + b
    err = np.hypot(even - np.cos(lam), odd - np.sin(lam))
    return float(err.max() / np.longdouble(2.0) ** -53)


def taylor_terms(norm):
    """Terms of the Taylor rule: the least m with norm^(m+1)/(m+1)! <= 2^-53."""
    m = 0
    while norm ** (m + 1) / math.factorial(m + 1) > 2.0 ** -53:
        m += 1
    return m


def chebyshev_terms(norm):
    """Terms `evolve` takes for a factor of this norm bound, as in _propagate."""
    return int(np.searchsorted(sim._THETA[:-1], norm))


def kernel_pairs(coef, diag):
    """The kernel's factor data (rows, 2, 2^h, B, 2, 2^(n-h)) of drive
    coefficients coef (rows, B) and diagonals diag (rows, 2^n, B): d in
    [:, 0] and a in [:, 1], each in the real and the imaginary slot."""
    rows, dim, batch = diag.shape
    high = 1 << sim._high_qubits(dim.bit_length() - 1)
    pairs = np.empty((rows, 2, high, batch, 2, dim // high))
    pairs[:, 0] = diag.reshape(rows, high, -1, batch).transpose(
        0, 1, 3, 2)[:, :, :, None]
    pairs[:, 1] = coef[:, None, :, None, None]
    return pairs


def reference_factors(specs, steps):
    """(a, d, mid, width, terms, subs) of every Magnus factor row of one
    block, built for all rows at once in plain (rows, B, 2^n) arrays, one
    `evaluate` per run and drive: the slow reference for the chunks that
    `evolve` builds. a, mid (the diagonal shift) and width are (rows, B),
    d is (rows, 2^n, B); `kernel_pairs` lays a and d out for the kernel."""
    n = specs[0].n_qubits
    static, sumh = _diagonals(stack(specs), _occupations(n))
    grids = [step_grid(s, steps) for s in specs]
    rows = 2 * max(len(starts) for starts, _ in grids)
    coef, dlocal, width = (np.zeros((rows, len(specs))) for _ in range(3))
    for b, (spec, (starts, dts)) in enumerate(zip(specs, grids)):
        omega, shift = (v.reshape(2, -1) for v in drive_values(
            spec, np.concatenate([starts + c * dts for c in sim._NODES])))
        used = slice(0, 2 * len(starts))
        coef[used, b] = (sim._WEIGHTS @ omega).T.reshape(-1)
        dlocal[used, b] = (sim._WEIGHTS @ shift).T.reshape(-1)
        width[used, b] = np.repeat(dts, 2)
    diag = 0.5 * static - dlocal[:, :, None] * sumh
    top, bottom = diag.max(axis=2), diag.min(axis=2)
    mid = np.where(coef != 0.0, 0.5 * (top + bottom), 0.0)
    norm = (np.abs(coef) * (n / 2.0)
            + np.maximum(top - mid, mid - bottom)) * width
    worst = norm.max(axis=1)
    subs = np.maximum(1, np.ceil(worst / sim._MAX_NORM)).astype(int)
    terms = np.searchsorted(sim._THETA[:-1], worst / subs)
    scale = width / subs[:, None]
    diag = (diag - mid[:, :, None]) * scale[:, :, None]
    return coef * scale, diag.transpose(0, 2, 1), mid, width, terms, subs


def captured_chunks(specs, steps):
    """The (pairs, terms, subs) chunks `evolve` builds for one block, each
    copied as the kernel draws it, and evolve's output with the kernel an
    identity: the phase of the diagonal shifts times the ground state."""
    seen = []

    def keep(psi, chunks):
        seen.extend((pairs.copy(), terms, subs) for pairs, terms, subs in chunks)
        return psi
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_apply_vectors", keep)
        out = evolve(stack(specs), steps=steps)
    return seen, out


def captured_factors(spec, steps):
    """The one chunk (pairs, terms, subs) of Magnus factors that `evolve`
    builds for a lone run, and the phase it applies after the kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_CHUNK_BYTES", 1 << 40)
        (chunk,), out = captured_chunks([spec], steps)
    return chunk, out[0, 0]


class TestChebyshevTable:
    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="needs a long double with a 64-bit mantissa")
    def test_every_degree_is_within_twenty_unit_roundoffs(self):
        # the former Taylor weights read 41 at their cap, norm 6
        for theta, weights in zip(sim._THETA, sim._CHEBYSHEV):
            assert weights.shape == (2, len(weights[0]))
            assert series_error(theta, weights) <= 20.0

    def test_constant_weight_is_exactly_one(self):
        # so a factor that is zero, such as zero-width padding, and a run
        # without dynamics keep their amplitudes exactly
        for weights in sim._CHEBYSHEV:
            assert weights[0, 0] == 1.0 and weights[1, 0] == 0.0
        zero = np.zeros((1, 1))
        psi = np.array([[0.6, 0.8j]])
        for terms in range(len(sim._CHEBYSHEV)):
            pairs = kernel_pairs(zero, np.zeros((1, 2, 1)))
            out = sim._apply_vectors(psi, [(pairs, [terms], [1])])
            assert np.array_equal(out, psi)

    def test_norms_strictly_increase_to_the_substep_cap(self):
        assert np.all(np.diff(sim._THETA) > 0.0)
        assert sim._MAX_NORM == sim._THETA[-1]
        assert len(sim._THETA) == 23

    def test_never_more_terms_than_the_taylor_rule(self):
        for norm in np.geomspace(1e-9, sim._MAX_NORM, 400):
            assert chebyshev_terms(norm) <= taylor_terms(norm)
        # generate-n6-noisy's median factor norm (0.32) and its upper
        # decile (0.64)
        assert (chebyshev_terms(0.32), taylor_terms(0.32)) == (10, 12)
        assert (chebyshev_terms(0.64), taylor_terms(0.64)) == (13, 15)
        # a bound a rounding above the cap stays on the table
        assert chebyshev_terms(np.nextafter(sim._MAX_NORM, 10.0)) == 22

    def test_mixed_degree_chunk_matches_eigh_oracle(self):
        # one chunk holds zero-width padding (degree 0), a gentle run's
        # factors and a 0.1 us run of full-scale constant drives on atoms
        # 4 um apart, whose stiff factors are all substepped
        rng = np.random.default_rng(33)
        gentle = random_spec(rng, 3)
        packed = constant_spec([(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)],
                               rng.uniform(0, 1, 3), omega=15.8, dlocal=-125.0,
                               dglobal=125.0, duration=0.1)
        first, phase1 = captured_factors(gentle, 150)
        second, phase2 = captured_factors(packed, 3)
        pad = (kernel_pairs(np.zeros((2, 1)), np.zeros((2, 8, 1))),
               np.zeros(2, dtype=int), np.ones(2, dtype=int))
        chunk = [np.concatenate(parts) for parts in zip(pad, first, pad, second)]
        terms = chunk[1]
        assert terms.min() == 0 and first[1].max() < 22
        assert second[2].min() > 1 and terms.max() == 22
        start = ground(3)[None]
        out = sim._apply_vectors(start, [chunk])[0] * phase1 * phase2
        ref = evolve_eigh(evolve_eigh(ground(3), gentle, 150), packed, 3)
        assert np.abs(out - ref).max() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(separation=st.floats(0.0, 1e200))
def test_any_two_atom_separation_gives_features_or_a_numeric_error(separation):
    """Two atoms at any separation, from coincident to beyond the float
    range of C6 / r^6: generate_batch returns features in (0, 1/4] or
    raises a NumericError naming the run, and nothing else."""
    params = GeneratorParams(
        AtomArrangement(((0.0, 0.0), (separation, 0.0)), (0.5, 0.5)),
        "trapezoid", 14.0, "sine_bump", -100.0, 50.0)
    run = generator.TrainConfig(n_qubits=2, steps_per_us=50)
    try:
        features = generator.generate_batch([(params, 0.7, EXACT)], run)
    except NumericError as err:
        assert err.run == 0
        return
    assert np.all((features > 0.0) & (features <= 0.25))


class TestBlockade:
    def test_close_atoms_suppress_double_excitation(self):
        spec = constant_spec([(0.0, 0.0), (4.0, 0.0)], [0.0, 0.0],
                             omega=2.5, dlocal=0.0, dglobal=0.0)
        p = np.abs(evolve(spec)[0]) ** 2
        assert p[3] < 0.05

    def test_distant_atoms_factorize(self):
        spec = constant_spec([(0.0, 0.0), (30.0, 0.0)], [0.0, 0.0],
                             omega=2.5, dlocal=0.0, dglobal=0.0)
        p = np.abs(evolve(spec)[0]) ** 2
        single = np.sin(2.5 * 1.0 / 2.0) ** 2
        assert abs(p[3] - single ** 2) < 1e-3


def read_out(monkeypatch, amplitudes, modes):
    """generate_batch's probability rows for chosen final amplitudes: the
    generator's `evolve` returns the rows, `modulo_encode` is the identity."""
    amplitudes = np.array(amplitudes, dtype=complex)
    n = amplitudes.shape[1].bit_length() - 1
    monkeypatch.setattr(generator, "evolve",
                        lambda block, steps=None: amplitudes.copy())
    monkeypatch.setattr(generator, "modulo_encode", lambda p: p)
    params = GeneratorParams(
        AtomArrangement(tuple((6.0 * i, 0.0) for i in range(n)), (0.5,) * n),
        "linear", 2.0, "triangle", -3.0, 0.5)
    return generator.generate_batch([(params, 0.5, mode) for mode in modes])


class TestProbabilitiesAndShots:
    """The measurement readout of final amplitudes, which generate_batch owns."""

    def test_basis_state(self, monkeypatch):
        p = read_out(monkeypatch, [ground(3)], [EXACT])[0]
        assert p[0] == 1.0 and np.all(p[1:] == 0.0)

    def test_phase_is_ignored(self, monkeypatch):
        p = read_out(monkeypatch, [[1 / np.sqrt(2), 1j / np.sqrt(2)]], [EXACT])
        assert np.allclose(p, [[0.5, 0.5]])

    def test_complex_amplitudes(self, monkeypatch):
        p = read_out(monkeypatch, [[(1 + 1j) / 2, (1 - 1j) / 2]], [EXACT])
        assert np.allclose(p, [[0.5, 0.5]])

    def test_probabilities_sum_to_one(self, monkeypatch):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=(20, 8)) + 1j * rng.normal(size=(20, 8))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        p = read_out(monkeypatch, amps, [EXACT] * 20)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9

    def test_deterministic_state_sampling(self, monkeypatch):
        counts = 1000 * read_out(monkeypatch, [ground(4)],
                                 [ShotsMode(1000, rng_seed=1)])[0]
        assert counts[0] == 1000 and counts.sum() == 1000

    def test_uniform_state_frequencies(self, monkeypatch):
        freqs = read_out(monkeypatch, [np.full(4, 0.5)],
                         [ShotsMode(1_000_000, rng_seed=42)])[0]
        assert np.all(np.abs(freqs - 0.25) < 0.005)

    def test_seed_determinism(self, monkeypatch):
        mode = ShotsMode(1000, rng_seed=9)
        a, b = read_out(monkeypatch, [np.full(4, 0.5)] * 2, [mode, mode])
        assert np.array_equal(a, b)

    def test_each_shots_row_draws_from_its_own_rng(self, monkeypatch):
        rng = np.random.default_rng(4)
        amps = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        modes = [ShotsMode(500, rng_seed=7), EXACT, ShotsMode(300, rng_seed=8)]
        out = read_out(monkeypatch, amps, modes)
        p = np.abs(amps) ** 2
        assert np.array_equal(out[1], p[1])
        for row, prob, mode in zip(out[::2], p[::2], modes[::2]):
            counts = np.random.default_rng(mode.rng_seed).multinomial(
                mode.shots, prob / prob.sum())
            assert np.array_equal(row, counts / mode.shots)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError):
            ShotsMode(shots=0, rng_seed=0)

    def test_unnormalized_row_is_a_numeric_error(self, monkeypatch):
        rows = [ground(2), [0.5, 0.5, 0.5, 0.6]]
        with pytest.raises(NumericError, match="run 1"):
            read_out(monkeypatch, rows, [EXACT, EXACT])
