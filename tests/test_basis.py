import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trapbose.basis as basis_mod
from trapbose import (
    BasisSet,
    BasisTooLargeError,
    EmptyBasisError,
    IndexTooLargeError,
    SpectrumModel,
    TrapConfig,
    build_matrices,
    diagonal_coupling,
    enumerate_basis,
    parity_sectors,
    quadrature_oracle_element,
)
from oracles import (coupling_array, coupling_coefficient, gammaln, lexsort_enumeration,
                     oscillator_energy, source_coefficient)

PAPER_1D = TrapConfig()
SQRT2 = math.sqrt(2.0)
PAPER_2D = TrapConfig(dimension=2, frequencies=(1.0, SQRT2))


def sector_keys(basis):
    """Parity-sector key sum_j (n_j mod 2) 2^j of each state, one state at a time."""
    return np.array([sum((n % 2) << j for j, n in enumerate(row)) for row in basis.quanta.tolist()])


def reference_enumeration(cfg, e_cut):
    """The scalar enumeration: every multi-index in the bounding box, filtered
    and sorted by (oscillator_energy, tuple)."""
    boxes = [range(int(math.floor(e_cut / (cfg.hbar * w) + 1e-12)) + 1) for w in cfg.frequencies]
    states = [n for n in itertools.product(*boxes)
              if any(n) and oscillator_energy(n, cfg) <= e_cut]
    states.sort(key=lambda n: (oscillator_energy(n, cfg), n))
    return states


class TestTrapConfig:
    def test_defaults_match_reference_parameters(self):
        assert PAPER_1D.dimension == 1
        assert PAPER_1D.frequencies == (1.0,)
        assert PAPER_1D.mass == pytest.approx(2.0 * math.pi**2)
        assert PAPER_1D.hbar == 1.0
        assert PAPER_1D.g == 2e-4
        assert PAPER_1D.n_particles == 1000

    def test_lambda_is_half_g_n0(self):
        assert PAPER_1D.coupling_lambda(1000) == pytest.approx(0.1)
        assert TrapConfig(g=0.0).coupling_lambda(1000) == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(dimension=0, frequencies=()),
        dict(frequencies=(-1.0,)),
        dict(mass=0.0),
        dict(hbar=-1.0),
        dict(g=-1e-4),
        dict(n_particles=0),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(Exception):
            TrapConfig(**kwargs)

    def test_commensurate_frequencies_accepted(self):
        isotropic = TrapConfig(dimension=2, frequencies=(1.0, 1.0))
        assert enumerate_basis(isotropic, 6.5).size == 27
        assert TrapConfig(dimension=2, frequencies=(3.0, 2.0)).dimension == 2

    def test_near_irrational_ratio_accepted(self):
        cfg = TrapConfig(dimension=2, frequencies=(1.0, 1.4142135))
        assert cfg.dimension == 2

    def test_geometric_mean_frequency(self):
        assert PAPER_2D.omega_mean == pytest.approx(2.0**0.25)


class TestOscillatorEnergy:
    def test_ground_state(self):
        assert oscillator_energy((0,), PAPER_1D) == 0.0

    def test_linear_in_quantum_number(self):
        assert oscillator_energy((3,), PAPER_1D) == pytest.approx(3.0)

    def test_two_dimensional(self):
        assert oscillator_energy((1, 2), PAPER_2D) == pytest.approx(1.0 + 2.0 * SQRT2)


class TestEnumerateBasis:
    def test_one_dimensional_counting(self):
        basis = enumerate_basis(PAPER_1D, 3.5)
        assert basis.quanta.tolist() == [[1], [2], [3]]
        assert basis.size == 3

    def test_two_dimensional_energy_order(self):
        basis = enumerate_basis(PAPER_2D, 2.5)
        assert basis.quanta.tolist() == [[1, 0], [0, 1], [2, 0], [1, 1]]
        energies = basis.energies()
        assert np.all(np.diff(energies) > 0)

    def test_empty_basis_error(self):
        # Below the first level, negative cutoffs included, the basis is
        # empty; a nan cutoff is no cutoff at all.
        for e_cut in (0.5, -0.5, -5.0, -math.inf):
            for cfg in (PAPER_1D, PAPER_2D):
                with pytest.raises(EmptyBasisError, match=f"e_cut={e_cut} "):
                    enumerate_basis(cfg, e_cut)
        with pytest.raises(ValueError, match="e_cut=nan"):
            enumerate_basis(PAPER_2D, math.nan)

    def test_size_guard(self):
        # 10001 quanta per dimension: the 2D product would be 10001**2 rows
        # of 2, above MAX_ENUMERATION_ENTRIES, and is never allocated.
        cfg = TrapConfig(dimension=3, frequencies=(1.0, 1.0, 1.0))
        with pytest.raises(BasisTooLargeError,
                           match=r"e_cut=10000.0 in dimension 3 needs 100020001 rows of 2"):
            enumerate_basis(cfg, 1e4)

    def test_size_guard_bound_is_inclusive(self, monkeypatch):
        # The 2D (1, sqrt 2) product under e_cut 2.5 is 3 rows of 1, then
        # 3 x 2 rows of 2: 12 quantum numbers at most.
        monkeypatch.setattr(basis_mod, "MAX_ENUMERATION_ENTRIES", 12)
        assert enumerate_basis(PAPER_2D, 2.5).size == 4
        monkeypatch.setattr(basis_mod, "MAX_ENUMERATION_ENTRIES", 11)
        with pytest.raises(BasisTooLargeError, match="needs 6 rows of 2"):
            enumerate_basis(PAPER_2D, 2.5)

    def test_deterministic(self):
        a = enumerate_basis(PAPER_2D, 6.0)
        b = enumerate_basis(PAPER_2D, 6.0)
        assert a.quanta.tolist() == b.quanta.tolist()

    def test_ground_state_excluded(self):
        basis = enumerate_basis(PAPER_2D, 6.0)
        assert [0, 0] not in basis.quanta.tolist()

    @pytest.mark.parametrize("cfg, e_cut", [
        (PAPER_1D, 400.0),
        (PAPER_2D, 300.0),
        (TrapConfig(dimension=2, frequencies=(1.0, 1.0)), 40.0),
        (TrapConfig(dimension=2, frequencies=(3.0, 2.0)), 50.0),
        (TrapConfig(dimension=3, frequencies=(1.0, 1.3, 0.7)), 25.0),
        (TrapConfig(hbar=0.7, mass=3.0), 100.0),
    ])
    def test_matches_reference_enumeration(self, cfg, e_cut):
        # Isotropic and 3:2 traps have exact energy ties, ordered by tuple.
        states = reference_enumeration(cfg, e_cut)
        basis = enumerate_basis(cfg, e_cut)
        assert basis.quanta.tolist() == [list(n) for n in states]
        expected = np.array([oscillator_energy(n, cfg) for n in states])
        assert np.array_equal(basis.energies(), expected)

    @settings(deadline=None)
    @given(frequencies=st.lists(st.floats(0.5, 3.0), min_size=1, max_size=3),
           e_cut=st.floats(0.25, 8.0))
    def test_reference_enumeration_property(self, frequencies, e_cut):
        cfg = TrapConfig(dimension=len(frequencies), frequencies=tuple(frequencies))
        states = reference_enumeration(cfg, e_cut)
        if not states:
            with pytest.raises(EmptyBasisError):
                enumerate_basis(cfg, e_cut)
            return
        basis = enumerate_basis(cfg, e_cut)
        assert basis.quanta.tolist() == [list(n) for n in states]
        expected = np.array([oscillator_energy(n, cfg) for n in states])
        assert np.array_equal(basis.energies(), expected)

    @settings(deadline=None)
    @given(frequencies=st.lists(st.sampled_from([0.25, 0.5, 0.7, 1.0, 1.3, SQRT2, 2.0])
                                | st.floats(0.5, 3.0), min_size=1, max_size=4),
           e_cut=st.floats(0.25, 6.0) | st.lists(st.integers(0, 24), min_size=4, max_size=4),
           hbar=st.sampled_from([0.1, 0.7, 3.0]), seed=st.integers(0, 2**32 - 1))
    # The 1D reference run, the aniso2d-p1 trap, isotropic 2D and 3D traps
    # (many exact ties; (1, 1, 1) under 60 has 39,710 states), an
    # anisotropic 3D trap and a 4D trap with 2:1 ratios.
    @example(frequencies=[1.0], e_cut=400.0, hbar=1.0, seed=0)
    @example(frequencies=[1.0, SQRT2], e_cut=300.0, hbar=1.0, seed=0)
    @example(frequencies=[1.0, 1.0], e_cut=40.0, hbar=1.0, seed=0)
    @example(frequencies=[1.0, 1.0, 1.0], e_cut=30.0, hbar=1.0, seed=0)
    @example(frequencies=[1.0, 1.0, 1.0], e_cut=60.0, hbar=1.0, seed=0)
    @example(frequencies=[1.0, 1.3, 0.7], e_cut=12.0, hbar=1.0, seed=0)
    @example(frequencies=[1.0, 1.0, 0.5, 0.25], e_cut=8.0, hbar=1.0, seed=0)
    def test_stable_sort_matches_lexsort(self, frequencies, e_cut, hbar, seed):
        # The enumeration's rows come in lexicographic order, so the stable
        # argsort by energy gives the (energy, n_1, ..., n_D) order of a
        # lexsort over the same rows in any order.  The cutoff is a float
        # in units of hbar, or the level hbar * sum_j omega_j n_j of a state
        # n with sum_j omega_j n_j <= 6, where the exact test of the
        # enumeration decides at equality.
        cfg = TrapConfig(dimension=len(frequencies), frequencies=tuple(frequencies), hbar=hbar)
        if isinstance(e_cut, list):
            n = [min(m, int(6.0 / (cfg.dimension * w))) for m, w in zip(e_cut, frequencies)]
            e_cut = oscillator_energy(n, cfg)
        else:
            e_cut = hbar * e_cut
        expected = lexsort_enumeration(cfg, e_cut, seed)
        if not expected.size:
            with pytest.raises(EmptyBasisError):
                enumerate_basis(cfg, e_cut)
            return
        assert np.array_equal(enumerate_basis(cfg, e_cut).quanta, expected)

    def test_hand_built_subset(self):
        basis = enumerate_basis(PAPER_2D, 12.0)
        sub = BasisSet(quanta=basis.quanta[:10], config=PAPER_2D)
        assert sub.size == 10
        assert np.array_equal(sub.energies(), basis.energies()[:10])
        full = build_matrices(basis, 500).coupling
        assert np.array_equal(build_matrices(sub, 500).coupling, full[:10, :10])


class TestBasisSet:
    @pytest.mark.parametrize("quanta, cfg", [
        (np.array([[-1], [2]]), PAPER_1D),
        (np.array([[1, 0], [2, 0]]), PAPER_1D),
        (np.array([[1], [2]]), PAPER_2D),
        (np.array([1, 2]), PAPER_1D),
        (np.array([[1.0], [2.0]]), PAPER_1D),
        (np.array([[True], [False]]), PAPER_1D),
        ([[1], [2]], PAPER_1D),
    ], ids=["negative", "column-beyond-d", "column-short", "1-d", "float", "bool", "list"])
    def test_invalid_quanta_rejected(self, quanta, cfg):
        # A negative quantum number used to wrap around the Gamma table:
        # [[-1], [2]] gave the diagonal couplings [0.6647, 0.6647].
        with pytest.raises(ValueError, match="quanta must be"):
            BasisSet(quanta, cfg)

    @pytest.mark.parametrize("quanta", [
        np.zeros((0, 2), dtype=np.int64),
        np.array([[0, 0], [3, 1]], dtype=np.uint8),
        np.array([[2, 0], [0, 1]], dtype=np.int32),
    ], ids=["empty", "uint8-ground-state", "int32"])
    def test_integer_quanta_accepted(self, quanta):
        assert BasisSet(quanta, PAPER_2D).size == len(quanta)

    @pytest.mark.parametrize("quanta", [
        np.array([[100], [120]], dtype=np.int8),
        np.array([[130], [130]], dtype=np.uint8),
    ], ids=["int8", "uint8"])
    def test_narrow_quanta_couple_as_int64(self, quanta):
        # The couplings sum quanta: 100 + 120 wraps in int8 and 130 + 130
        # in uint8.  The int8 basis used to give couplings of 1.28e-15
        # where int64 gives 0.0999.
        narrow, wide = BasisSet(quanta, PAPER_1D), BasisSet(quanta.astype(np.int64), PAPER_1D)
        got, want = build_matrices(narrow, 500), build_matrices(wide, 500)
        assert got.coupling.tobytes() == want.coupling.tobytes()
        assert got.source.tobytes() == want.source.tobytes()
        assert diagonal_coupling(narrow).tobytes() == diagonal_coupling(wide).tobytes()
        for (index, block), (want_index, want_block) in zip(parity_sectors(narrow),
                                                            parity_sectors(wide), strict=True):
            assert index.tobytes() == want_index.tobytes()
            assert block.tobytes() == want_block.tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.int8])
    def test_quanta_are_frozen(self, dtype):
        # The model and the couplings read quanta long after the basis is
        # made: a write to it, or to the array it was made from, must not
        # reach them.
        caller = np.array([[3], [1], [2]], dtype=dtype)
        basis = BasisSet(caller, PAPER_1D)
        assert basis.quanta.dtype == np.int64 and not basis.quanta.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis.quanta[0, 0] = 5
        caller[0, 0] = 7
        view = caller[::-1]
        view.flags.writeable = False
        from_view = BasisSet(view, PAPER_1D)
        caller[1, 0] = 9
        assert basis.quanta.tolist() == [[3], [1], [2]]
        assert from_view.quanta.tolist() == [[2], [1], [7]]

    def test_enumerated_quanta_pass_through(self):
        ordered = enumerate_basis(PAPER_2D, 12.0)
        assert BasisSet(ordered.quanta, PAPER_2D).quanta is ordered.quanta


class TestLogGamma:
    # basis._lgam ports Cephes lgam, which scipy's gammaln runs: the two are
    # compared bit for bit, as int64 views.

    def test_half_integers_match_gammaln(self):
        # 0.5 to 1e5: the recurrence below 13, the series of A below 1000
        # and the three-term series from 1000.
        x = np.arange(1, 200_001) / 2.0
        port = np.array([basis_mod._lgam(v) for v in x.tolist()])
        assert np.array_equal(port.view(np.int64), gammaln(x).view(np.int64))

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(min_value=0.0, max_value=1e-8, exclude_min=True)
           | st.floats(min_value=1e8, allow_infinity=False)
           | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    # The ends of each branch, the float range's ends, and the overflow
    # bound MAXLGM.
    @example(x=5e-324)
    @example(x=2.0)
    @example(x=math.nextafter(3.0, 0.0))
    @example(x=3.0)
    @example(x=math.nextafter(13.0, 0.0))
    @example(x=13.0)
    @example(x=math.nextafter(1000.0, 0.0))
    @example(x=1000.0)
    @example(x=1e8)
    @example(x=math.nextafter(1e8, math.inf))
    @example(x=2.556348e305)
    @example(x=math.nextafter(2.556348e305, math.inf))
    @example(x=sys.float_info.max)
    def test_matches_gammaln(self, x):
        assert np.float64(basis_mod._lgam(x)).view(np.int64) == gammaln(x).view(np.int64)

    def test_cached_tables_match_gammaln(self):
        # The table of 2*top + 2 entries is a slice of a cached one of a
        # power-of-two size: tops whose table fills one (2**j - 1) and
        # spills into the next (2**j), each built and then read again.
        basis_mod._half_gamma.cache_clear()
        for top in sorted({t for j in range(11) for t in (2**j - 1, 2**j)}):
            for _ in range(2):
                half_gamma, log_factorial = basis_mod._gamma_tables(top)
                expected = gammaln((np.arange(2 * top + 2) + 1) / 2.0)
                assert np.array_equal(half_gamma.view(np.int64), expected.view(np.int64))
                assert np.array_equal(log_factorial, gammaln(np.arange(top + 1) + 1.0))
                assert not half_gamma.flags.writeable and not log_factorial.flags.writeable
        # One table per size 2, 4, ..., 4096.
        assert basis_mod._half_gamma.cache_info().currsize == 12


class TestCouplingCoefficient:
    # With the defaults the prefactor (m*omega/2 pi^2 hbar)^(D/2) is one.

    def test_c11(self):
        assert coupling_coefficient((1,), (1,), PAPER_1D) == pytest.approx(
            math.sqrt(math.pi) / 2.0, abs=1e-12)

    def test_parity_zero_is_exact(self):
        assert coupling_coefficient((1,), (2,), PAPER_1D) == 0.0

    def test_c13(self):
        expected = -(3.0 * math.sqrt(math.pi) / 4.0) / math.sqrt(6.0)
        assert coupling_coefficient((1,), (3,), PAPER_1D) == pytest.approx(expected, abs=1e-12)

    def test_d2(self):
        expected = -math.sqrt(math.pi) / 2.0 / math.sqrt(2.0)
        assert source_coefficient((2,), PAPER_1D) == pytest.approx(expected, abs=1e-12)

    def test_d_odd_is_zero(self):
        assert source_coefficient((1,), PAPER_1D) == 0.0

    def test_d0_equals_sqrt_pi(self):
        assert source_coefficient((0,), PAPER_1D) == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_parity_selection_exhaustive(self):
        # c_mn = 0 exactly iff some m_j + n_j is odd; 1D indices <= 8.
        for m in range(9):
            for n in range(9):
                value = coupling_coefficient((m,), (n,), PAPER_1D)
                if (m + n) % 2:
                    assert value == 0.0
                else:
                    assert value != 0.0

    def test_parity_selection_2d(self):
        for m in itertools.product(range(5), repeat=2):
            for n in itertools.product(range(5), repeat=2):
                value = coupling_coefficient(m, n, PAPER_2D)
                odd = any((mj + nj) % 2 for mj, nj in zip(m, n))
                assert (value == 0.0) == odd

    def test_symmetry_exact(self):
        for m in range(9):
            for n in range(9):
                assert coupling_coefficient((m,), (n,), PAPER_1D) == \
                    coupling_coefficient((n,), (m,), PAPER_1D)

    def test_diagonal_positive(self):
        # build_matrices relies on positive energies and diagonal c_nn.
        for cfg, e_cut in ((PAPER_1D, 29.5), (PAPER_2D, 40.0)):
            basis = enumerate_basis(cfg, e_cut)
            assert np.all(basis.energies() > 0.0)
            assert np.all(diagonal_coupling(basis) > 0.0)

    def test_large_indices_do_not_overflow(self):
        value = coupling_coefficient((60,), (60,), PAPER_1D)
        assert np.isfinite(value) and value > 0.0


# hbar and mass other than 1, in one to three dimensions.
SCALAR_TRAPS = [
    (TrapConfig(hbar=0.7, mass=3.0), 30.0),
    (TrapConfig(dimension=2, frequencies=(1.0, SQRT2), hbar=0.7, mass=3.0), 9.0),
    (TrapConfig(dimension=3, frequencies=(1.0, 1.3, 0.7), hbar=0.7, mass=3.0), 4.0),
]


class TestBuildMatrices:
    def test_reference_two_state_assembly(self):
        basis = enumerate_basis(PAPER_1D, 2.5)
        sysm = build_matrices(basis, 1000)
        assert np.allclose(sysm.energies, [1.0, 2.0])
        expected_c = np.array([[math.sqrt(math.pi) / 2.0, 0.0],
                               [0.0, 3.0 * math.sqrt(math.pi) / 8.0]])
        assert np.allclose(sysm.coupling, expected_c, atol=1e-12)
        assert sysm.source[0] == 0.0
        assert sysm.source[1] == pytest.approx(-0.6266570686577501, abs=1e-12)
        assert sysm.lam == pytest.approx(0.1)

    def test_zero_interaction_means_zero_lambda(self):
        cfg = TrapConfig(g=0.0)
        sysm = build_matrices(enumerate_basis(cfg, 5.0), 700)
        assert sysm.lam == 0.0

    def test_coupling_exactly_symmetric(self):
        basis = enumerate_basis(PAPER_2D, 6.0)
        sysm = build_matrices(basis, 500)
        assert np.array_equal(sysm.coupling, sysm.coupling.T)

    def test_diagonal_coupling_matches_full(self):
        # diagonal_coupling's own path against the general one, bit for bit.
        for cfg, e_cut in SCALAR_TRAPS + [(TrapConfig(dimension=2, frequencies=(1.0, 1.0)), 20.0)]:
            basis = enumerate_basis(cfg, e_cut)
            sysm = build_matrices(basis, 1000)
            assert np.array_equal(diagonal_coupling(basis), np.diag(sysm.coupling))

    @pytest.mark.parametrize("cfg, e_cut", SCALAR_TRAPS)
    def test_matches_scalar_elements(self, cfg, e_cut):
        basis = enumerate_basis(cfg, e_cut)
        sysm = build_matrices(basis, 500)
        states = basis.quanta.tolist()
        expected = np.array([[coupling_coefficient(m, n, cfg) for n in states]
                             for m in states])
        source = np.array([source_coefficient(n, cfg) for n in states])
        assert basis.size >= 30
        assert np.array_equal(sysm.coupling, sysm.coupling.T)
        for actual, wanted in ((sysm.coupling, expected), (sysm.source, source),
                               (diagonal_coupling(basis), np.diag(expected))):
            assert np.array_equal(actual == 0.0, wanted == 0.0)
            assert np.allclose(actual, wanted, rtol=1e-14, atol=0.0)
        assert np.count_nonzero(source) > 0

    @settings(deadline=None)
    @given(frequencies=st.one_of(st.lists(st.floats(0.5, 3.0), min_size=1, max_size=3),
                                 st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1,
                                          max_size=3)),
           e_cut=st.floats(3.0, 8.0), index_grid=st.booleans())
    @example(frequencies=[1.0], e_cut=400.0, index_grid=False)
    @example(frequencies=[1.0, SQRT2], e_cut=40.0, index_grid=False)
    @example(frequencies=[1.0, 1.3, 0.7], e_cut=8.0, index_grid=True)
    def test_matches_the_pairwise_parity_reference(self, frequencies, e_cut, index_grid):
        # C, d and every sector block, byte for byte, against the parity
        # and sign gathered from each pair's quanta (oracles.coupling_array).
        # index_grid takes --validate's basis: the index grid up to 8 (1D)
        # or 4 quanta per dimension, in np.ndindex order rather than by
        # energy.
        cfg = TrapConfig(dimension=len(frequencies), frequencies=tuple(frequencies))
        if index_grid:
            top = 8 if cfg.dimension == 1 else 4
            basis = BasisSet(np.array(list(np.ndindex(*(top + 1,) * cfg.dimension))[1:]), cfg)
        else:
            basis = enumerate_basis(cfg, e_cut)
        quanta, top = basis.quanta, basis.quanta.max()
        coupling = coupling_array(quanta[:, None, :], quanta[None, :, :], cfg, top)
        source = coupling_array(np.zeros(cfg.dimension, dtype=np.int64), quanta, cfg, top)
        sysm = build_matrices(basis, 500)
        assert sysm.coupling.tobytes() == coupling.tobytes()
        assert sysm.source.tobytes() == source.tobytes()
        for index, block in parity_sectors(basis):
            assert block.tobytes() == coupling[index[:, :, None], index[:, None, :]].tobytes()

    def test_n0_out_of_range(self):
        basis = enumerate_basis(PAPER_1D, 2.5)
        with pytest.raises(ValueError):
            build_matrices(basis, 2000)


class TestParitySectors:
    @settings(deadline=None)
    @given(frequencies=st.lists(st.floats(0.5, 3.0), min_size=1, max_size=3),
           e_cut=st.floats(3.0, 6.0))
    def test_no_coupling_between_sectors(self, frequencies, e_cut):
        cfg = TrapConfig(dimension=len(frequencies), frequencies=tuple(frequencies))
        basis = enumerate_basis(cfg, e_cut)
        keys = sector_keys(basis)
        coupling = build_matrices(basis, 500).coupling
        assert np.all(coupling[keys[:, None] != keys[None, :]] == 0.0)

    @pytest.mark.parametrize("cfg, e_cut, sizes", [
        (PAPER_1D, 61.0, [30, 31]),
        (PAPER_2D, 12.0, [12, 15, 16, 18]),
        (TrapConfig(dimension=2, frequencies=(1.0, 1.0)), 10.0, [15, 20]),
        (TrapConfig(dimension=3, frequencies=(1.0, 1.3, 0.7)), 5.0, [3, 4, 5, 6, 8, 9, 10]),
    ], ids=["1d-odd", "2d-aniso", "2d-iso", "3d-aniso"])
    def test_blocks_of_the_full_matrices(self, cfg, e_cut, sizes):
        basis = enumerate_basis(cfg, e_cut)
        sysm = build_matrices(basis, 500)
        keys = sector_keys(basis)
        stacks = parity_sectors(basis)
        assert [index.shape[1] for index, _ in stacks] == sizes
        covered = np.concatenate([index.ravel() for index, _ in stacks])
        assert np.array_equal(np.sort(covered), np.arange(basis.size))
        for index, coupling in stacks:
            for row in index:
                assert np.all(keys[row] == keys[row[0]])
                assert np.all(np.diff(row) > 0)
            assert np.array_equal(coupling, sysm.coupling[index[:, :, None], index[:, None, :]])


    def test_size_guard(self, monkeypatch):
        # The 3D (1, 1, 1) trap under 60: 39,710 states in 8 sectors, whose
        # blocks hold 197,571,650 entries; building them used to exhaust
        # an 8 GB machine.  No block may be built.
        def build(*args):
            raise AssertionError("a sector block was built")

        monkeypatch.setattr(basis_mod, "_coupling_magnitude", build)
        cfg = TrapConfig(dimension=3, frequencies=(1.0, 1.0, 1.0))
        basis = enumerate_basis(cfg, 60.0)
        message = r"39710 states in dimension 3 need {} x 197571650 entries"
        with pytest.raises(BasisTooLargeError, match=message.format(1)):
            parity_sectors(basis)
        for kind, arrays in (("perturbative2", 3), ("riccati", 2)):
            with pytest.raises(BasisTooLargeError, match=message.format(arrays)):
                SpectrumModel(cfg, basis, kind=kind)

    def test_size_guard_bound_is_inclusive(self, monkeypatch):
        # 1D under 61: sectors of 30 and 31 states, 30**2 + 31**2 = 1861
        # entries, times the arrays each caller keeps: C; E, C and K for
        # perturbative2; E and C for riccati.
        basis = enumerate_basis(PAPER_1D, 61.0)
        for build, arrays in ((parity_sectors, 1),
                              (lambda b: SpectrumModel(PAPER_1D, b, kind="perturbative2"), 3),
                              (lambda b: SpectrumModel(PAPER_1D, b, kind="riccati"), 2)):
            monkeypatch.setattr(basis_mod, "MAX_SECTOR_ENTRIES", arrays * 1861)
            build(basis)
            monkeypatch.setattr(basis_mod, "MAX_SECTOR_ENTRIES", arrays * 1861 - 1)
            with pytest.raises(BasisTooLargeError, match=f"need {arrays} x 1861 entries"):
                build(basis)

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_size_guard_keeps_a_dense_2d_run(self, kind):
        # The isotropic 2D trap under 60 (1,890 states) sweeps with both
        # dense kinds in a few seconds; the guard must not reject it.
        cfg = TrapConfig(dimension=2, frequencies=(1.0, 1.0))
        model = SpectrumModel(cfg, enumerate_basis(cfg, 60.0), kind=kind)
        assert model.levels(500.0).shape == (1890,)


class TestQuadratureOracle:
    def test_matches_c11(self):
        closed = coupling_coefficient((1,), (1,), PAPER_1D)
        quad = quadrature_oracle_element((1,), (1,), PAPER_1D)
        assert abs(closed - quad) < 1e-10

    def test_odd_integrand_tiny(self):
        assert abs(quadrature_oracle_element((1,), (2,), PAPER_1D)) < 1e-12

    def test_matches_source_coefficient(self):
        closed = source_coefficient((2,), PAPER_1D)
        quad = quadrature_oracle_element((0,), (2,), PAPER_1D)
        assert abs(closed - quad) < 1e-10

    def test_equivalence_1d_grid(self):
        for m in range(13):
            for n in range(13):
                closed = coupling_coefficient((m,), (n,), PAPER_1D)
                quad = quadrature_oracle_element((m,), (n,), PAPER_1D)
                assert abs(closed - quad) < 1e-10, (m, n)

    def test_equivalence_2d_anisotropic(self):
        # The geometric-mean prefactor equals the per-dimension product,
        # so the closed form holds for anisotropic traps as well.
        for m in itertools.product(range(7), repeat=2):
            for n in itertools.product(range(7), repeat=2):
                closed = coupling_coefficient(m, n, PAPER_2D)
                quad = quadrature_oracle_element(m, n, PAPER_2D)
                assert abs(closed - quad) < 1e-10, (m, n)

    def test_index_guard(self):
        with pytest.raises(IndexTooLargeError):
            quadrature_oracle_element((41,), (1,), PAPER_1D)
