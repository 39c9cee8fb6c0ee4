"""Tests for the spin-1/2, direction-POVM, and position-grid model library."""

import numpy as np
import pytest

from decohist import (
    AXIS_DIRECTIONS,
    AsymmetricDirectionSet,
    CoverageError,
    EdgeOverlap,
    GridSystem,
    UnresolvableWidth,
    ValidationError,
    apply_channel,
    decoherence_functional,
    free_particle_unitary,
    gaussian_instrument,
    gaussian_wavepacket,
    grouped_diagonal,
    interference_circuit,
    spin_direction_instrument,
    spin_half_library,
    state_statistics,
    trivial_instrument,
    validate_density,
)


class TestSpinHalfLibrary:
    def test_pauli_algebra(self):
        """sigma_x sigma_y = i sigma_z."""
        lib = spin_half_library()
        np.testing.assert_allclose(
            lib.sigma_x @ lib.sigma_y, 1j * lib.sigma_z, atol=1e-12
        )

    def test_states(self):
        """Named states have the expected matrices."""
        lib = spin_half_library()
        np.testing.assert_allclose(lib.up_z.matrix, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(lib.down_z.matrix, np.diag([0.0, 1.0]))
        np.testing.assert_allclose(lib.up_x.matrix, np.full((2, 2), 0.5))
        np.testing.assert_allclose(lib.mixed.matrix, np.eye(2) / 2)

    def test_near_identity_endpoints(self):
        """epsilon 0 gives the mixed state and epsilon 1 the z-up state."""
        lib = spin_half_library()
        np.testing.assert_allclose(lib.near_identity(0.0).matrix, lib.mixed.matrix)
        np.testing.assert_allclose(lib.near_identity(1.0).matrix, lib.up_z.matrix)
        rho = lib.near_identity(0.04)
        np.testing.assert_allclose(rho.matrix, np.diag([0.52, 0.48]), atol=1e-12)

    def test_near_identity_range(self):
        """epsilon outside [0, 1] is rejected."""
        lib = spin_half_library()
        with pytest.raises(ValidationError):
            lib.near_identity(1.5)

    def test_projective_instruments_measure_their_axis(self):
        """Each projective instrument is sharp on its own eigenstates."""
        lib = spin_half_library()
        from decohist import outcome_probabilities

        np.testing.assert_allclose(
            outcome_probabilities(lib.projective_z, lib.up_z.matrix), [1.0, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            outcome_probabilities(lib.projective_x, lib.up_x.matrix), [1.0, 0.0], atol=1e-12
        )


class TestSpinDirections:
    def test_axes_complete(self):
        """The six-axis set forms a complete instrument."""
        inst = spin_direction_instrument(AXIS_DIRECTIONS)
        total = sum(e.matrix.conj().T @ e.matrix for e in inst.effects)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)
        assert len(inst.effects) == 6

    def test_effects_are_hermitian_psd(self):
        """Direction effects are Hermitian with nonnegative spectrum."""
        inst = spin_direction_instrument(AXIS_DIRECTIONS)
        for effect in inst.effects:
            np.testing.assert_allclose(effect.matrix, effect.matrix.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(effect.matrix).min() >= -1e-12

    def test_asymmetric_set_rejected(self):
        """A direction set that does not sum to zero is rejected."""
        with pytest.raises(AsymmetricDirectionSet):
            spin_direction_instrument([(0, 0, 1.0), (1.0, 0, 0)])

    def test_outcome_bias_follows_state(self):
        """On z-up the +z outcome is the most likely of the six."""
        from decohist import outcome_probabilities

        lib = spin_half_library()
        inst = spin_direction_instrument(AXIS_DIRECTIONS)
        probs = dict(zip(inst.labels, outcome_probabilities(inst, lib.up_z.matrix)))
        assert max(probs, key=probs.get) == "+z"
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


class TestGridSystem:
    def test_spacing_and_positions(self):
        """Grid spacing and endpoints follow n, x_min, x_max."""
        grid = GridSystem(n_points=128, x_min=-64.0, x_max=64.0)
        assert grid.h == pytest.approx(1.0)
        assert grid.positions[0] == pytest.approx(-64.0)
        assert grid.positions[-1] == pytest.approx(63.0)

    def test_position_operator_diagonal(self):
        """The position operator is diagonal in the grid basis."""
        grid = GridSystem(n_points=16, x_min=0.0, x_max=16.0)
        np.testing.assert_allclose(grid.position_operator(), np.diag(grid.positions))


class TestGaussianWavepacket:
    def test_trace_and_purity(self):
        """The wavepacket is a unit-trace pure state."""
        grid = GridSystem(n_points=256, x_min=-32.0, x_max=32.0)
        rho = gaussian_wavepacket(grid, center=0.0, sigma=2.0)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_statistics(self):
        """Mean and spread of the position observable match the parameters."""
        grid = GridSystem(n_points=256, x_min=-32.0, x_max=32.0)
        rho = gaussian_wavepacket(grid, center=-4.0, sigma=1.5)
        mean, spread = state_statistics(rho, grid.position_operator())
        assert mean == pytest.approx(-4.0, abs=1e-9)
        assert spread == pytest.approx(1.5, rel=1e-4)

    def test_unresolvable_width(self):
        """A width below twice the grid spacing is rejected."""
        grid = GridSystem(n_points=32, x_min=-16.0, x_max=16.0)
        with pytest.raises(UnresolvableWidth):
            gaussian_wavepacket(grid, center=0.0, sigma=1.0)

    def test_edge_overlap(self):
        """A packet centered at the boundary is rejected."""
        grid = GridSystem(n_points=256, x_min=-32.0, x_max=32.0)
        with pytest.raises(EdgeOverlap):
            gaussian_wavepacket(grid, center=-31.0, sigma=2.0)


class TestGaussianInstrument:
    def test_completeness(self):
        """Per-entry normalization makes the quasi-projections complete."""
        grid = GridSystem(n_points=128, x_min=-64.0, x_max=64.0)
        inst = gaussian_instrument(grid, width=8.0, centers=np.arange(-160.0, 161.0, 4.0))
        total = sum(e.matrix.conj().T @ e.matrix for e in inst.effects)
        np.testing.assert_allclose(total, np.eye(128), atol=1e-9)

    def test_channel_preserves_diagonal_exactly(self):
        """Measure-and-forget leaves position populations untouched."""
        grid = GridSystem(n_points=128, x_min=-64.0, x_max=64.0)
        inst = gaussian_instrument(grid, width=8.0, centers=np.arange(-160.0, 161.0, 4.0))
        rho = gaussian_wavepacket(grid, center=0.0, sigma=2.0)
        out = apply_channel(inst, rho.matrix)
        np.testing.assert_allclose(np.diag(out), np.diag(rho.matrix), atol=1e-12)

    def test_damping_depends_on_separation(self):
        """Off-diagonal damping decays with |x - y| like a Gaussian."""
        grid = GridSystem(n_points=64, x_min=-32.0, x_max=32.0)
        width = 4.0
        inst = gaussian_instrument(grid, width=width, centers=np.arange(-80.0, 81.0, 2.0))
        rho = np.full((64, 64), 1.0 / 64)
        out = apply_channel(inst, rho)
        damping = out / rho
        x = grid.positions
        for i, j in ((10, 20), (5, 40), (30, 33)):
            expected = np.exp(-((x[i] - x[j]) ** 2) / (8 * width**2))
            assert damping[i, j].real == pytest.approx(expected, rel=1e-6)

    def test_sparse_centers_rejected(self):
        """Centers too far apart fail the coverage validation."""
        grid = GridSystem(n_points=128, x_min=-64.0, x_max=64.0)
        with pytest.raises(CoverageError):
            gaussian_instrument(grid, width=2.0, centers=[-40.0, 40.0])

    def test_labels_name_centers(self):
        """Outcome labels are the center coordinates."""
        grid = GridSystem(n_points=128, x_min=-64.0, x_max=64.0)
        inst = gaussian_instrument(grid, width=16.0, centers=np.arange(-96.0, 97.0, 8.0))
        assert "-96" in inst.labels and "0" in inst.labels and "96" in inst.labels

    def test_memory_is_linear_in_grid_size(self):
        """45 centers on a 512-point grid peak far below one 4 MiB d x d matrix per center."""
        import tracemalloc

        grid = GridSystem(n_points=512, x_min=-128.0, x_max=128.0)
        centers = (np.arange(45) - 22) * 8.0
        tracemalloc.start()
        try:
            inst = gaussian_instrument(grid, width=16.0, centers=centers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(inst.effects) == 45
        assert peak < 16 * 2**20


class TestDeclaredDiagonalModels:
    def test_diagonal_instruments_declare_vectors(self):
        """Every diagonal library instrument declares its effects as vectors, so
        it has the O(k d) stack without any dense effect."""
        lib = spin_half_library()
        grid = GridSystem(n_points=64, x_min=-16.0, x_max=16.0)
        z_step = interference_circuit().steps[0].instrument
        for inst in (lib.fuzzy, lib.projective_z, z_step, trivial_instrument(3),
                     gaussian_instrument(grid, 2.0, np.arange(-24.0, 25.0, 2.0))):
            assert all(e.diagonal is not None for e in inst.effects)
            assert inst._diagonal_stack is not None
        for inst in (lib.projective_x, lib.projective_y,
                     spin_direction_instrument(AXIS_DIRECTIONS)):
            assert inst._diagonal_stack is None

    def test_declared_instruments_keep_their_matrices(self):
        """The declared forms expand to the same dense effects and kinds as before."""
        lib = spin_half_library()
        z_plus, z_minus = (e.matrix for e in lib.projective_z.effects)
        np.testing.assert_array_equal(z_plus, (np.eye(2) + lib.sigma_z) / 2)
        np.testing.assert_array_equal(z_minus, (np.eye(2) - lib.sigma_z) / 2)
        np.testing.assert_array_equal(lib.fuzzy.effects[1].matrix,
                                      np.diag([0.0, 1 / np.sqrt(2)]))
        assert lib.projective_z.kind == "projective"
        assert interference_circuit().steps[0].instrument.kind == "projective"
        assert trivial_instrument(3).kind == "projective"
        assert lib.fuzzy.kind == "generalized"


class TestDeclaredGridModels:
    def test_wavepacket_declares_its_vector(self):
        """The packet is declared pure; its matrix is the outer product of the
        normalized Gaussian profile."""
        grid = GridSystem(n_points=64, x_min=-16.0, x_max=16.0)
        rho = gaussian_wavepacket(grid, center=1.0, sigma=1.5)
        profile = np.exp(-((grid.positions - 1.0) ** 2) / (4 * 1.5**2))
        psi = profile / np.linalg.norm(profile)
        np.testing.assert_allclose(rho.vector, psi, rtol=0, atol=1e-15)
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi), rtol=0, atol=1e-15)

    def test_free_particle_declares_its_phases(self):
        """The propagator is declared by its DFT phases, and its matrix is within
        1e-12 of F' diag(phase) F built from the dense DFT matrix."""
        for n, mass, t in ((64, 1.0, 2.5), (128, 0.5, -3.7), (256, 2.0, 40.0)):
            grid = GridSystem(n_points=n, x_min=-32.0, x_max=32.0)
            u = free_particle_unitary(grid, mass=mass, time=t)
            p = 2 * np.pi * np.fft.fftfreq(n, d=grid.h)
            phase = np.exp(-1j * t * p**2 / mass)
            np.testing.assert_allclose(u.phases, phase, rtol=0, atol=1e-15)
            fourier = np.fft.fft(np.eye(n), axis=0, norm="ortho")
            expected = fourier.conj().T @ (phase[:, np.newaxis] * fourier)
            np.testing.assert_allclose(u.matrix, expected, rtol=0, atol=1e-12)

    def test_no_grid_square_is_built(self):
        """At 4,096 points the packet and the propagator peak below 1 MB of
        traced allocations; one d x d complex matrix would be 256 MiB."""
        import tracemalloc

        grid = GridSystem(n_points=4096, x_min=-128.0, x_max=128.0)
        tracemalloc.start()
        try:
            rho = gaussian_wavepacket(grid, center=0.0, sigma=1.0)
            u = free_particle_unitary(grid, mass=1.0, time=10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rho.dim == u.dim == 4096
        assert peak < 2**20, f"peak {peak} bytes"


class TestFreeParticle:
    def test_zero_time_is_identity(self):
        """Zero evolution time gives the identity."""
        grid = GridSystem(n_points=64, x_min=-32.0, x_max=32.0)
        u = free_particle_unitary(grid, mass=1.0, time=0.0)
        np.testing.assert_allclose(u.matrix, np.eye(64), atol=1e-12)

    def test_unitarity(self):
        """The propagator is unitary at any time."""
        grid = GridSystem(n_points=64, x_min=-32.0, x_max=32.0)
        u = free_particle_unitary(grid, mass=0.5, time=3.7)
        np.testing.assert_allclose(
            u.matrix.conj().T @ u.matrix, np.eye(64), atol=1e-10
        )

    def test_inverse_is_negative_time(self):
        """U(-t) undoes U(t)."""
        grid = GridSystem(n_points=64, x_min=-32.0, x_max=32.0)
        forward = free_particle_unitary(grid, mass=1.0, time=2.5)
        backward = free_particle_unitary(grid, mass=1.0, time=-2.5)
        np.testing.assert_allclose(
            backward.matrix @ forward.matrix, np.eye(64), atol=1e-10
        )

    def test_width_growth_law(self):
        """A sigma-1 packet spreads to sigma sqrt(1 + (t / (M sigma^2))^2)."""
        grid = GridSystem(n_points=512, x_min=-128.0, x_max=128.0)
        rho = gaussian_wavepacket(grid, center=0.0, sigma=1.0)
        for mass, t in ((1.0, 1.0), (1.0, np.sqrt(3)), (2.0, 2.0)):
            u = free_particle_unitary(grid, mass=mass, time=t)
            evolved = validate_density(u.matrix @ rho.matrix @ u.matrix.conj().T)
            _, spread = state_statistics(evolved, grid.position_operator())
            assert spread == pytest.approx(np.sqrt(1 + (t / mass) ** 2), rel=1e-6)

    def test_uniform_state_is_stationary(self):
        """The maximally mixed state is invariant under free evolution."""
        grid = GridSystem(n_points=64, x_min=-32.0, x_max=32.0)
        u = free_particle_unitary(grid, mass=1.0, time=5.0)
        rho = np.eye(64) / 64
        np.testing.assert_allclose(
            u.matrix @ rho @ u.matrix.conj().T, rho, atol=1e-12
        )


class TestDephasing:
    def test_z_dephasing_kills_x_coherence(self):
        """z dephasing maps the x-up state to the maximally mixed state."""
        lib = spin_half_library()
        out = apply_channel(lib.projective_z, lib.up_x.matrix)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_idempotent(self):
        """Applying the dephasing channel twice equals applying it once."""
        lib = spin_half_library()
        once = apply_channel(lib.projective_z, lib.up_x.matrix)
        np.testing.assert_allclose(apply_channel(lib.projective_z, once), once, atol=1e-12)

    def test_diagonal_states_invariant(self):
        """States diagonal in the dephasing basis are untouched."""
        lib = spin_half_library()
        rho = np.diag([0.3, 0.7]).astype(complex)
        np.testing.assert_allclose(apply_channel(lib.projective_z, rho), rho, atol=1e-12)


class TestInterferenceCircuit:
    def test_measured_circuit_is_uniform(self):
        """With the mid-circuit measurement every joint outcome has weight 1/4."""
        spec = interference_circuit()
        probs = grouped_diagonal(decoherence_functional(spec))
        for value in probs.values():
            assert value == pytest.approx(0.25, abs=1e-12)

    def test_omitting_the_probe_restores_interference(self):
        """Without the first measurement the Hadamards cancel: outcome 0 is certain."""
        from decohist import marginal_distribution, omitted_distribution

        spec = interference_circuit()
        undisturbed = omitted_distribution(spec, (1,))
        dephased = marginal_distribution(spec, (1,))
        assert undisturbed[("0",)] == pytest.approx(1.0, abs=1e-12)
        assert dephased[("0",)] == pytest.approx(0.5, abs=1e-12)

    def test_classical_analogue_is_deterministic(self):
        """The bit-flip analogue walks 0 -> 1 -> 0 with certainty."""
        spec = interference_circuit(classical=True)
        probs = grouped_diagonal(decoherence_functional(spec))
        assert probs[("1", "0")] == pytest.approx(1.0, abs=1e-12)

    def test_classical_analogue_is_undisturbed(self):
        """Omitting the first classical measurement changes nothing."""
        from decohist import check_measurement_based

        report = check_measurement_based(interference_circuit(classical=True))
        assert report.verdict is True
        assert report.max_residual <= 1e-12
