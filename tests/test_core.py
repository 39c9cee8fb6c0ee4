"""Tests for validation, linear-algebra helpers, and instrument channels."""

import numpy as np
import pytest

from decohist import (
    DimensionMismatch,
    Effect,
    HistorySpec,
    IncompleteInstrument,
    NotHermitian,
    NotPSD,
    NotUnitary,
    Step,
    Tolerances,
    TraceNotOne,
    ValidationError,
    apply_channel,
    apply_outcome,
    check_measurement_based,
    decoherence_functional,
    outcome_probabilities,
    psd_sqrt,
    spin_half_library,
    state_statistics,
    tensor_product,
    validate_density,
    validate_fourier_unitary,
    validate_instrument,
    validate_unitary,
)
from decohist.core import apply_unitary, kraus_columns, vector_probabilities


class TestValidateDensity:
    def test_accepts_diagonal_mixture(self):
        """A diagonal trace-one PSD matrix validates and is frozen read-only."""
        rho = validate_density(np.diag([0.75, 0.25]))
        assert rho.dim == 2
        np.testing.assert_allclose(rho.matrix, np.diag([0.75, 0.25]))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    def test_rejects_non_hermitian(self):
        """An asymmetric matrix raises NotHermitian carrying the residual."""
        with pytest.raises(NotHermitian) as err:
            validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))
        assert err.value.residual > 0.2

    def test_rejects_negative_eigenvalue(self):
        """A Hermitian matrix with a negative eigenvalue raises NotPSD."""
        with pytest.raises(NotPSD):
            validate_density(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        """Trace 0.9 is outside the validation tolerance."""
        with pytest.raises(TraceNotOne):
            validate_density(np.diag([0.65, 0.25]))

    def test_rejects_non_square(self):
        """A 2x3 array raises DimensionMismatch before any spectral test."""
        with pytest.raises(DimensionMismatch):
            validate_density(np.zeros((2, 3)))

    def test_tolerance_slack_accepts_tiny_violations(self):
        """Violations below the validation tolerance pass."""
        rho = validate_density(np.diag([0.75 + 1e-12, 0.25]))
        assert rho.matrix[0, 0] == pytest.approx(0.75, abs=1e-11)


class TestValidateUnitary:
    def test_accepts_hadamard(self):
        """The Hadamard matrix is unitary."""
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = validate_unitary(h)
        np.testing.assert_allclose(u.matrix.conj().T @ u.matrix, np.eye(2), atol=1e-12)

    def test_rejects_scaled_identity(self):
        """2 * identity fails the unitarity residual."""
        with pytest.raises(NotUnitary):
            validate_unitary(2 * np.eye(2))

    def test_accepts_random_phased_permutations(self):
        """Seeded phase-decorated permutations validate for dims 2..6."""
        rng = np.random.default_rng(7)
        for dim in range(2, 7):
            perm = rng.permutation(dim)
            u = np.zeros((dim, dim), dtype=complex)
            u[perm, np.arange(dim)] = np.exp(2j * np.pi * rng.random(dim))
            assert validate_unitary(u).dim == dim


class TestValidateInstrument:
    def test_fuzzy_completeness(self):
        """The fuzzy instrument satisfies sum of A'A = identity exactly."""
        lib = spin_half_library()
        total = sum(
            e.matrix.conj().T @ e.matrix for e in lib.fuzzy.effects
        )
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_rejects_incomplete_effects(self):
        """Dropping one effect of a projective pair breaks completeness."""
        lib = spin_half_library()
        with pytest.raises(IncompleteInstrument):
            validate_instrument([lib.projective_z.effects[0]])

    def test_incomplete_diagonal_residual_matches_dense_sum(self):
        """An incomplete all-diagonal instrument is refused with the dense sum A'A residual."""
        rng = np.random.default_rng(5)
        diags = 0.3 * (rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16)))
        effects = [Effect(str(k), 0, np.diag(d)) for k, d in enumerate(diags)]
        dense = sum(e.matrix.conj().T @ e.matrix for e in effects)
        expected = float(np.max(np.abs(dense - np.eye(16))))
        with pytest.raises(IncompleteInstrument) as err:
            validate_instrument(effects)
        assert abs(err.value.residual - expected) <= 1e-15

    def test_kind_inference_projective(self):
        """Orthogonal projectors are classified as projective."""
        lib = spin_half_library()
        assert lib.projective_z.kind == "projective"
        assert lib.projective_x.kind == "projective"

    def test_kind_inference_generalized(self):
        """The fuzzy instrument is not projective."""
        lib = spin_half_library()
        assert lib.fuzzy.kind == "generalized"

    def test_labels_group_internal_indices(self):
        """Two effects sharing a label are grouped under one outcome."""
        iso = np.eye(2) / np.sqrt(2)
        inst = validate_instrument(
            [Effect("a", 0, iso), Effect("a", 1, iso)]
        )
        assert inst.labels == ("a",)
        assert len(inst.effects_for("a")) == 2

    def test_rejects_mixed_dimensions(self):
        """Effects of different dimension raise DimensionMismatch."""
        with pytest.raises(DimensionMismatch):
            validate_instrument(
                [Effect("a", 0, np.eye(2) / np.sqrt(2)), Effect("b", 0, np.eye(3) / np.sqrt(2))]
            )


class TestPsdSqrt:
    def test_diagonal_case(self):
        """sqrt(diag(4, 9)) = diag(2, 3)."""
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_roundtrip_random_psd(self):
        """Squaring the root recovers seeded PSD matrices for dims 2..8."""
        tol = Tolerances()
        rng = np.random.default_rng(11)
        for dim in range(2, 9):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = g @ g.conj().T
            root = psd_sqrt(m)
            assert np.max(np.abs(root @ root - m)) <= 10 * tol.validation * np.max(np.abs(m))

    def test_clips_tolerated_negative_eigenvalue(self):
        """An eigenvalue just below zero is clipped rather than rejected."""
        root = psd_sqrt(np.diag([1.0, -1e-13]))
        np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-6)

    def test_rejects_genuinely_negative(self):
        """A clearly negative matrix raises NotPSD."""
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestTensorProduct:
    def test_identity_times_identity(self):
        """1 (x) 1 = identity on the composite."""
        np.testing.assert_allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_times_identity(self):
        """sigma_z (x) 1 = diag(1, 1, -1, -1) in row-major convention."""
        lib = spin_half_library()
        np.testing.assert_allclose(
            tensor_product(lib.sigma_z, np.eye(2)), np.diag([1.0, 1.0, -1.0, -1.0])
        )

    def test_pure_state_placement(self):
        """|up><up| (x) |down><down| puts its single 1 at row/col 1."""
        up = np.diag([1.0, 0.0])
        down = np.diag([0.0, 1.0])
        composite = tensor_product(up, down)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(composite, expected)


class TestStateStatistics:
    def test_up_z_sharp(self):
        """<sigma_z> = 1 with zero spread on the z-up state."""
        lib = spin_half_library()
        mean, spread = state_statistics(lib.up_z, lib.sigma_z)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert spread == pytest.approx(0.0, abs=1e-9)

    def test_mixed_state(self):
        """The maximally mixed state has <sigma_z> = 0 and unit spread."""
        lib = spin_half_library()
        mean, spread = state_statistics(lib.mixed, lib.sigma_z)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert spread == pytest.approx(1.0, abs=1e-12)

    def test_position_of_wavepacket(self):
        """A Gaussian wavepacket reports its center and width in position."""
        from decohist import GridSystem, gaussian_wavepacket

        grid = GridSystem(n_points=256, x_min=-32.0, x_max=32.0)
        rho = gaussian_wavepacket(grid, center=3.0, sigma=2.0)
        mean, spread = state_statistics(rho, grid.position_operator())
        assert mean == pytest.approx(3.0, abs=1e-6)
        assert spread == pytest.approx(2.0, rel=1e-3)


class TestChannels:
    def test_fuzzy_probabilities_on_up(self):
        """The fuzzy instrument reads the z-up state as outcome 0 with certainty."""
        lib = spin_half_library()
        np.testing.assert_allclose(
            outcome_probabilities(lib.fuzzy, lib.up_z.matrix), [1.0, 0.0], atol=1e-12
        )

    def test_fuzzy_probabilities_on_mixed(self):
        """On the maximally mixed state the fuzzy outcomes are (3/4, 1/4)."""
        lib = spin_half_library()
        np.testing.assert_allclose(
            outcome_probabilities(lib.fuzzy, lib.mixed.matrix), [0.75, 0.25], atol=1e-12
        )

    def test_fuzzy_channel_damps_coherence(self):
        """The channel keeps the diagonal and scales off-diagonals by 1/sqrt(2)."""
        lib = spin_half_library()
        out = apply_channel(lib.fuzzy, lib.up_x.matrix)
        np.testing.assert_allclose(np.diag(out), [0.5, 0.5], atol=1e-12)
        assert out[0, 1] == pytest.approx(0.5 / np.sqrt(2), abs=1e-12)

    def test_apply_outcome_unnormalized(self):
        """Selecting one outcome returns the unnormalized branch A rho A'."""
        lib = spin_half_library()
        branch = apply_outcome(lib.fuzzy, "1", lib.mixed.matrix)
        np.testing.assert_allclose(branch, np.diag([0.0, 0.25]), atol=1e-12)

    def test_channel_preserves_trace(self):
        """Completeness makes every channel trace-preserving on seeded states."""
        lib = spin_half_library()
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            for inst in (lib.fuzzy, lib.projective_x, lib.projective_y):
                out = apply_channel(inst, rho)
                assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        """Outcome probabilities of a valid instrument always sum to 1."""
        lib = spin_half_library()
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            p = outcome_probabilities(lib.fuzzy, rho)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert (p >= -1e-12).all()


class TestInstrumentStructure:
    def test_stacked_probabilities_match_single_states(self):
        """A stack of states gives the per-state probabilities, label axis last."""
        lib = spin_half_library()
        stack = np.array([lib.up_z.matrix, lib.mixed.matrix, lib.up_x.matrix])
        for inst in (lib.fuzzy, lib.projective_x):
            batched = outcome_probabilities(inst, stack)
            assert batched.shape == (3, 2)
            for row, x in zip(batched, stack):
                np.testing.assert_array_equal(row, outcome_probabilities(inst, x))

    def test_instrument_is_released_after_use(self):
        """Cached per-instrument structure does not keep an instrument alive."""
        import gc
        import weakref

        from decohist import (GridSystem, HistorySpec, Step, check_measurement_based,
                              free_particle_unitary, gaussian_instrument, gaussian_wavepacket)

        grid = GridSystem(n_points=64, x_min=-16.0, x_max=16.0)
        inst = gaussian_instrument(grid, 2.0, np.arange(-24.0, 25.0, 2.0))
        u = free_particle_unitary(grid, mass=1.0, time=1.0)
        spec = HistorySpec(initial=gaussian_wavepacket(grid, 0.0, 1.0),
                           steps=(Step(u, inst), Step(u, inst)))
        check_measurement_based(spec)
        ref = weakref.ref(inst)
        del spec, inst
        gc.collect()
        assert ref() is None


def _random_diagonals(rng, dim: int) -> tuple[list[tuple[str, int]], np.ndarray]:
    """(label, index) keys and a complete (n_effects, dim) stack of complex
    diagonals with some exact zeros; every third draw is a projective 0/1 set."""
    n_labels = int(rng.integers(2, 4))
    if rng.integers(3) == 0:
        owner = rng.integers(n_labels, size=dim)
        return ([(str(m), 0) for m in range(n_labels)],
                (owner[np.newaxis, :] == np.arange(n_labels)[:, np.newaxis]).astype(float))
    keys = [(str(m), i) for m in range(n_labels) for i in range(int(rng.integers(1, 3)))]
    raw = rng.normal(size=(len(keys), dim)) + 1j * rng.normal(size=(len(keys), dim))
    raw[rng.random(raw.shape) < 0.3] = 0.0
    raw[0, np.all(raw == 0, axis=0)] = 1.0
    return keys, raw / np.sqrt(np.sum(np.abs(raw) ** 2, axis=0))


def _random_state(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _both_forms(keys, diags) -> tuple[list[Effect], list[Effect]]:
    declared = [Effect(label, index, d) for (label, index), d in zip(keys, diags)]
    dense = [Effect(label, index, np.diag(d)) for (label, index), d in zip(keys, diags)]
    return declared, dense


class TestDeclaredDiagonals:
    def test_declared_and_dense_forms_agree(self):
        """Random diagonal instruments give the same kind and numbers whether
        declared as vectors (fast path) or as dense np.diag matrices (generic path)."""
        rng = np.random.default_rng(17)
        kinds = set()
        for _ in range(60):
            dim = int(rng.integers(2, 9))
            keys, diags = _random_diagonals(rng, dim)
            declared, dense = _both_forms(keys, diags)
            fast, slow = validate_instrument(declared), validate_instrument(dense)
            assert fast._diagonal_stack is not None and slow._diagonal_stack is None
            assert fast.kind == slow.kind
            kinds.add(fast.kind)

            residuals = []
            for effects in _both_forms(keys, 1.01 * diags):
                with pytest.raises(IncompleteInstrument) as err:
                    validate_instrument(effects)
                residuals.append(err.value.residual)
            assert abs(residuals[0] - residuals[1]) <= 1e-14

            rho = _random_state(rng, dim)
            np.testing.assert_allclose(outcome_probabilities(fast, rho),
                                       outcome_probabilities(slow, rho), rtol=0, atol=1e-14)
            np.testing.assert_allclose(apply_channel(fast, rho), apply_channel(slow, rho),
                                       rtol=0, atol=1e-14)
            for label in fast.labels:
                np.testing.assert_allclose(apply_outcome(fast, label, rho),
                                           apply_outcome(slow, label, rho), rtol=0, atol=1e-14)

            u = validate_unitary(np.linalg.qr(rng.normal(size=(dim, dim))
                                              + 1j * rng.normal(size=(dim, dim)))[0])
            initial = validate_density(rho)
            specs = [HistorySpec(initial=initial, steps=(Step(u, inst), Step(u, inst)))
                     for inst in (fast, slow)]
            values = [decoherence_functional(spec).values for spec in specs]
            np.testing.assert_allclose(values[0], values[1], rtol=0, atol=1e-14)
            reports = [check_measurement_based(spec) for spec in specs]
            assert [s for s, _ in reports[0].per_subset] == [s for s, _ in reports[1].per_subset]
            for (_, a), (_, b) in zip(reports[0].per_subset, reports[1].per_subset):
                assert abs(a - b) <= 1e-14
        assert kinds == {"projective", "generalized"}

    def test_declared_matrix_is_built_on_demand(self):
        """A declared effect expands to its dense matrix on each call, read-only."""
        effect = Effect("a", 0, [1.0, 0.5j])
        first = effect.matrix
        np.testing.assert_array_equal(first, np.diag([1.0, 0.5j]))
        assert first is not effect.matrix
        assert not first.flags.writeable
        assert effect.dim == 2
        assert Effect("a", 0, np.eye(2)).diagonal is None

    def test_rejects_bad_declared_diagonals(self):
        """Empty or non-finite diagonals, and lengths unlike their siblings', are refused."""
        with pytest.raises(DimensionMismatch):
            Effect("a", 0, [])
        for bad in ([1.0, np.nan], [np.inf, 0.0], [1.0, complex(0.0, np.nan)]):
            with pytest.raises(ValidationError):
                Effect("a", 0, bad)
        with pytest.raises(DimensionMismatch):
            validate_instrument([Effect("a", 0, [1.0, 0.0]), Effect("b", 0, [0.0, 1.0, 0.0])])
        with pytest.raises(DimensionMismatch):
            validate_instrument([Effect("a", 0, [1.0, 0.0]), Effect("b", 0, np.eye(3))])


def _dft_unitary(phases):
    """U = F' diag(phases) F from the dense unitary DFT matrix F."""
    fourier = np.fft.fft(np.eye(len(phases)), axis=0, norm="ortho")
    return fourier.conj().T @ (phases[:, np.newaxis] * fourier)


def _unit_phases(rng, dim):
    return np.exp(2j * np.pi * rng.random(dim))


class TestDeclaredPureState:
    def test_vector_declares_the_outer_product(self):
        """A state built from a vector keeps the vector and expands psi psi' on
        each call, read-only and not cached."""
        rng = np.random.default_rng(0)
        for dim in (1, 2, 5):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            rho = validate_density(psi)
            np.testing.assert_array_equal(rho.vector, psi)
            first = rho.matrix
            np.testing.assert_allclose(first, np.outer(psi, psi.conj()), rtol=0, atol=1e-15)
            assert first is not rho.matrix
            assert not first.flags.writeable and not rho.vector.flags.writeable
            assert rho.dim == dim
        assert validate_density(np.eye(2) / 2).vector is None

    def test_norm_is_checked_against_the_tolerance(self):
        """|norm^2 - 1| at the tolerance passes; beyond it TraceNotOne carries the norm."""
        tol = Tolerances(validation=1e-6)
        validate_density(np.sqrt(1 + 1e-7) * np.array([1.0, 0.0]), tol)
        with pytest.raises(TraceNotOne) as err:
            validate_density(np.array([1.0, 0.1]), tol)
        assert err.value.trace == pytest.approx(1.01)

    def test_rejects_bad_vectors(self):
        """Empty, non-finite and unnormalized vectors are refused."""
        with pytest.raises(DimensionMismatch):
            validate_density(np.zeros(0))
        for bad in ([1.0, np.nan], [np.inf, 0.0], [1.0, complex(0.0, np.nan)]):
            with pytest.raises(ValidationError):
                validate_density(bad)
        with pytest.raises(TraceNotOne):
            validate_density([1.0, 1.0])
        with pytest.raises(TraceNotOne):
            validate_density(np.zeros(3))


class TestFourierUnitary:
    def test_matrix_is_the_dft_conjugate_of_the_phases(self):
        """.matrix equals F' diag(phi) F built from the dense DFT, read-only and
        expanded on each call."""
        rng = np.random.default_rng(1)
        for dim in (1, 2, 7, 64):
            phases = _unit_phases(rng, dim)
            u = validate_fourier_unitary(phases)
            np.testing.assert_array_equal(u.phases, phases)
            first = u.matrix
            np.testing.assert_allclose(first, _dft_unitary(phases), rtol=0, atol=1e-12)
            assert first is not u.matrix and not first.flags.writeable
            assert u.dim == dim
        assert validate_unitary(np.eye(2)).phases is None

    def test_apply_matches_the_dense_unitary(self):
        """U x, x U' and U x U' agree with the expanded matrix on stacks, and the
        dense branch is the plain matrix products."""
        rng = np.random.default_rng(2)
        for dim in (2, 5, 16):
            phases = _unit_phases(rng, dim)
            declared, dense = validate_fourier_unitary(phases), validate_unitary(_dft_unitary(phases))
            x = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
            cols = x[..., :2]
            m = dense.matrix
            np.testing.assert_allclose(apply_unitary(declared, cols), m @ cols, rtol=0, atol=1e-12)
            np.testing.assert_allclose(apply_unitary(declared, cols.swapaxes(-1, -2), "right"),
                                       cols.swapaxes(-1, -2) @ m.conj().T, rtol=0, atol=1e-12)
            np.testing.assert_allclose(apply_unitary(declared, x, "both"),
                                       m @ x @ m.conj().T, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(apply_unitary(dense, cols), m @ cols)
            np.testing.assert_array_equal(apply_unitary(dense, x, "both"), (m @ x) @ m.conj().T)

    def test_unimodularity_is_checked_against_the_tolerance(self):
        """A phase off the unit circle beyond the tolerance raises NotUnitary with
        its residual; within it the phases are accepted."""
        tol = Tolerances(validation=1e-6)
        validate_fourier_unitary([1.0, 1j * (1 + 5e-7)], tol)
        with pytest.raises(NotUnitary) as err:
            validate_fourier_unitary([1.0, 1j, -1.001], tol)
        assert err.value.residual == pytest.approx(1e-3)

    def test_rejects_bad_phases(self):
        """Empty, non-finite and 2-d phase inputs are refused."""
        with pytest.raises(DimensionMismatch):
            validate_fourier_unitary([])
        for bad in ([1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(ValidationError):
                validate_fourier_unitary(bad)
        with pytest.raises(DimensionMismatch):
            validate_fourier_unitary(np.eye(2))


class TestVectorStacks:
    def test_columns_and_probabilities_match_dense_states(self):
        """For W of rank r, kraus_columns reproduces sum_k A_k W W' A_k' and
        vector_probabilities the outcome probabilities of W W', for declared
        diagonal and dense instruments."""
        rng = np.random.default_rng(3)
        lib = spin_half_library()
        dim = 2
        w = rng.normal(size=(3, dim, 2)) + 1j * rng.normal(size=(3, dim, 2))
        x = w @ w.conj().swapaxes(-1, -2)
        for inst in (lib.fuzzy, lib.projective_z, lib.projective_x):
            np.testing.assert_allclose(vector_probabilities(inst, w),
                                       outcome_probabilities(inst, x), rtol=0, atol=1e-13)
            for label in inst.labels:
                idxs = [k for k, e in enumerate(inst.effects) if e.outcome_label == label]
                cols = kraus_columns(inst, idxs, w)
                assert cols.shape == (3, dim, 2 * len(idxs))
                np.testing.assert_allclose(cols @ cols.conj().swapaxes(-1, -2),
                                           apply_outcome(inst, label, x), rtol=0, atol=1e-13)
