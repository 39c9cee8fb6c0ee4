"""Tests for history specs, the decoherence functional, and marginals."""

import numpy as np
import pytest

from decohist import (
    AXIS_DIRECTIONS,
    BudgetExceeded,
    Effect,
    GridSystem,
    HistorySpec,
    ProtocolConfig,
    Step,
    SubsetInvalid,
    TRIVIAL_LABEL,
    ValidationError,
    ZeroProbabilityOutcome,
    check_kent,
    check_measurement_based,
    decoherence_functional,
    free_particle_unitary,
    gaussian_instrument,
    gaussian_wavepacket,
    grouped_diagonal,
    marginal_distribution,
    marginal_functional,
    omit_functional,
    omitted_distribution,
    path_operator,
    posterior_state,
    random_spec,
    run_protocol,
    spin_direction_instrument,
    spin_half_library,
    trivial_instrument,
    validate_density,
    validate_fourier_unitary,
    validate_instrument,
    validate_unitary,
)
from decohist import histories
from decohist.criteria import _haar_unitary


def _xy_spec():
    """z-up state, then a y measurement followed by an x measurement."""
    lib = spin_half_library()
    return HistorySpec(
        initial=lib.up_z,
        steps=(
            Step(lib.identity, lib.projective_y),
            Step(lib.identity, lib.projective_x),
        ),
    )


class TestHistorySpec:
    def test_measured_positions_are_one_based(self):
        """An unmeasured first slot leaves position 2 as the only measured one."""
        lib = spin_half_library()
        spec = HistorySpec(
            initial=lib.up_z,
            steps=(Step(lib.hadamard, None), Step(lib.identity, lib.projective_z)),
        )
        assert spec.measured_positions == (2,)
        assert spec.instrument_at(2) is lib.projective_z

    def test_requires_an_instrument_somewhere(self):
        """A spec whose steps are all unitary-only is rejected."""
        lib = spin_half_library()
        with pytest.raises(Exception):
            HistorySpec(initial=lib.up_z, steps=(Step(lib.hadamard, None),))

    def test_path_operator_projects(self):
        """C_alpha for a single projective step is the selected projector."""
        lib = spin_half_library()
        spec = HistorySpec(initial=lib.up_z, steps=(Step(lib.identity, lib.projective_z),))
        c = path_operator(spec, ((("z+", 0)),))
        np.testing.assert_allclose(c, np.diag([1.0, 0.0]), atol=1e-12)


class TestDecoherenceFunctional:
    def test_spin_xy_off_diagonal_is_quarter_i(self):
        """The y-then-x chain on z-up has D((y+,x+);(y-,x+)) = i/4 exactly."""
        functional = decoherence_functional(_xy_spec())
        idx = {p: i for i, p in enumerate(functional.paths)}
        a = idx[(("y+", 0), ("x+", 0))]
        b = idx[(("y-", 0), ("x+", 0))]
        assert functional.values[a, b] == pytest.approx(0.25j, abs=1e-12)

    def test_invariants_hold(self):
        """D is Hermitian with a real, nonnegative diagonal summing to 1."""
        functional = decoherence_functional(_xy_spec())
        v = functional.values
        np.testing.assert_allclose(v, v.conj().T, atol=1e-12)
        diag = np.diagonal(v)
        assert np.max(np.abs(diag.imag)) <= 1e-12
        assert diag.real.min() >= -1e-12
        assert diag.real.sum() == pytest.approx(1.0, abs=1e-12)

    def test_positions_and_labels(self):
        """Measured positions and outcome-label tuples are recorded per path."""
        functional = decoherence_functional(_xy_spec())
        assert functional.positions == (1, 2)
        assert functional.labels[0] == ("y+", "x+")
        assert functional.n_paths == 4

    def test_diagonal_matches_born_rule(self):
        """Diagonal entries equal tr(C rho C') computed path by path."""
        spec = _xy_spec()
        functional = decoherence_functional(spec)
        for i, path in enumerate(functional.paths):
            c = path_operator(spec, path)
            expected = np.trace(c @ spec.initial.matrix @ c.conj().T)
            assert functional.values[i, i] == pytest.approx(expected, abs=1e-12)

    def test_budget_refuses_blowup(self):
        """A tiny path-pair budget raises BudgetExceeded."""
        with pytest.raises(BudgetExceeded):
            decoherence_functional(_xy_spec(), budget=3)


class TestGroupedDiagonal:
    def test_xy_probabilities(self):
        """All four y/x outcome combinations carry probability 1/4."""
        probs = grouped_diagonal(decoherence_functional(_xy_spec()))
        assert set(probs) == {("y+", "x+"), ("y+", "x-"), ("y-", "x+"), ("y-", "x-")}
        for value in probs.values():
            assert value == pytest.approx(0.25, abs=1e-12)

    def test_internal_indices_are_summed(self):
        """Effects sharing a label contribute to a single grouped entry."""
        spec = random_spec(3, 1, 2, kind="generalized_multi", seed=4)
        functional = decoherence_functional(spec)
        probs = grouped_diagonal(functional)
        assert functional.n_paths == 4
        assert len(probs) == 2
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


class TestPosteriorState:
    def test_fuzzy_on_mixed(self):
        """Fuzzy outcomes on the mixed state give (3/4, diag(2/3, 1/3)) and (1/4, diag(0, 1))."""
        lib = spin_half_library()
        p0, rho0 = posterior_state(lib.mixed, lib.fuzzy, "0")
        p1, rho1 = posterior_state(lib.mixed, lib.fuzzy, "1")
        assert p0 == pytest.approx(0.75, abs=1e-12)
        assert p1 == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(rho0.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)
        np.testing.assert_allclose(rho1.matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_zero_probability_raises(self):
        """Conditioning on an impossible outcome raises ZeroProbabilityOutcome."""
        lib = spin_half_library()
        with pytest.raises(ZeroProbabilityOutcome):
            posterior_state(lib.up_z, lib.fuzzy, "1")


class TestMarginals:
    def test_subset_must_be_measured(self):
        """Naming an unmeasured position raises SubsetInvalid."""
        lib = spin_half_library()
        spec = HistorySpec(
            initial=lib.up_z,
            steps=(Step(lib.hadamard, None), Step(lib.identity, lib.projective_z)),
        )
        with pytest.raises(SubsetInvalid):
            marginal_distribution(spec, (1,))

    def test_omit_keeps_unitaries(self):
        """Omitting a step removes its instrument but keeps its unitary."""
        lib = spin_half_library()
        spec = HistorySpec(
            initial=lib.up_z,
            steps=(Step(lib.hadamard, lib.projective_z), Step(lib.identity, lib.projective_z)),
        )
        omitted = omit_functional(spec, (1,))
        assert omitted.positions == (2,)
        probs = grouped_diagonal(omitted)
        assert probs[("z+",)] == pytest.approx(0.5, abs=1e-12)

    def test_xy_final_distribution_with_and_without_first_step(self):
        """The final x outcomes are (1/2, 1/2) whether or not y is measured first."""
        spec = _xy_spec()
        with_y = marginal_distribution(spec, (1,))
        without_y = omitted_distribution(spec, (1,))
        for dist in (with_y, without_y):
            assert dist[("x+",)] == pytest.approx(0.5, abs=1e-12)
            assert dist[("x-",)] == pytest.approx(0.5, abs=1e-12)

    def test_channel_and_pathsum_routes_agree(self):
        """Both marginalization routes give the same functional on seeded specs."""
        for seed in range(6):
            spec = random_spec(3, 2, 2, kind="generalized", seed=seed)
            for subset in ((1,), (2,), (1, 2)):
                via_channel = marginal_functional(spec, subset, method="channel")
                via_pathsum = marginal_functional(spec, subset, method="pathsum")
                assert via_channel.paths == via_pathsum.paths
                np.testing.assert_allclose(
                    via_channel.values, via_pathsum.values, atol=1e-10
                )

    def test_marginal_distribution_matches_functional_diagonal(self):
        """marginal_distribution equals the grouped diagonal of marginal_functional."""
        for seed in range(4):
            spec = random_spec(2, 2, 2, kind="projective", seed=seed)
            dist = marginal_distribution(spec, (1,))
            diag = grouped_diagonal(marginal_functional(spec, (1,)))
            assert set(dist) == set(diag)
            for key in dist:
                assert dist[key] == pytest.approx(diag[key], abs=1e-10)

    def test_empty_subset_is_identity(self):
        """Marginalizing nothing reproduces the grouped full diagonal."""
        spec = _xy_spec()
        assert marginal_distribution(spec, ()) == pytest.approx(
            grouped_diagonal(decoherence_functional(spec))
        )


class TestTrivialInstrument:
    def test_label_and_effect(self):
        """The trivial instrument has one identity effect with the dot label."""
        inst = trivial_instrument(2)
        assert inst.labels == (TRIVIAL_LABEL,)
        np.testing.assert_allclose(inst.effects[0].matrix, np.eye(2), atol=1e-12)

    def test_trivial_step_paths(self):
        """A trivial step multiplies paths without splitting amplitude."""
        lib = spin_half_library()
        spec = HistorySpec(
            initial=lib.mixed,
            steps=(
                Step(lib.identity, lib.fuzzy),
                Step(lib.identity, trivial_instrument(2)),
            ),
        )
        functional = decoherence_functional(spec)
        assert functional.n_paths == 2
        assert functional.labels == (("0", TRIVIAL_LABEL), ("1", TRIVIAL_LABEL))


# ---------------------------------------------------------------------------
# Declared pure states: every result must match the same state declared dense.
# ---------------------------------------------------------------------------


def _unequal_dense(dim, rng):
    """Dense non-diagonal instrument whose label 'a' has two effects and 'b' one."""
    iso = _haar_unitary(3 * dim, rng)[:, :dim]
    blocks = [iso[k * dim:(k + 1) * dim] for k in range(3)]
    return validate_instrument([Effect("a", 0, blocks[0]), Effect("a", 1, blocks[1]),
                                Effect("b", 0, blocks[2])])


def _unequal_diagonal(dim, rng):
    """Declared-diagonal instrument with effects ('a', 0), ('a', 1) and ('b', 0)."""
    d = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    d /= np.sqrt(np.sum(np.abs(d) ** 2, axis=0))
    return validate_instrument([Effect("a", 0, d[0]), Effect("a", 1, d[1]), Effect("b", 0, d[2])])


def _random_unitary(dim, rng, fourier):
    if fourier:
        return validate_fourier_unitary(np.exp(2j * np.pi * rng.random(dim)))
    return validate_unitary(_haar_unitary(dim, rng))


def _pure_specs():
    """Seeded (declared, dense) pairs of specs with the same pure initial state,
    dims 2-6, with diagonal, dense, direction and unequal-index instruments and
    both kinds of unitary. Four measured steps make the vector rank outgrow
    the dimension when three of them are forgotten."""
    pairs = []
    for dim in range(2, 7):
        rng = np.random.default_rng(100 + dim)
        bases = [random_spec(dim, 4, 2, kind=kind, seed=dim)
                 for kind in ("generalized", "generalized_multi", "hermitian", "projective")]
        mixed = []
        for j in range(4):
            inst = (_unequal_dense, _unequal_diagonal)[j % 2](dim, rng)
            mixed.append(Step(_random_unitary(dim, rng, fourier=j % 2 == 0), inst))
        bases.append(HistorySpec(initial=bases[0].initial, steps=tuple(mixed)))
        if dim == 2:
            lib = spin_half_library()
            directions = spin_direction_instrument(AXIS_DIRECTIONS)
            bases.append(HistorySpec(initial=lib.up_z, steps=(
                Step(lib.hadamard, directions), Step(lib.identity, lib.fuzzy),
                Step(_random_unitary(2, rng, fourier=True), directions))))
        for base in bases:
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            pairs.append(tuple(HistorySpec(initial=validate_density(state), steps=base.steps)
                               for state in (psi, np.outer(psi, psi.conj()))))
    return pairs


def _all_subsets(spec):
    measured = spec.measured_positions
    return [tuple(p for j, p in enumerate(measured) if mask >> j & 1)
            for mask in range(1 << len(measured))]


def _assert_same_distribution(a, b):
    assert list(a) == list(b)
    np.testing.assert_allclose(list(a.values()), list(b.values()), rtol=0, atol=1e-12)


def _kent_residual(spec):
    """Kent's max residual, or the type of its refusal for non-Hermitian or
    multi-index instruments."""
    try:
        return check_kent(spec).max_residual
    except ValidationError as err:
        return type(err)


class TestDeclaredPureStates:
    def test_distributions_match_dense_declaration(self, monkeypatch):
        """Both label distributions and the channel-route marginal functional of
        every subset agree within 1e-12 with the dense declaration, and some of
        the walks outgrow the dimension and finish dense."""
        switches = []
        pure_step = histories._pure_step

        def spy(inst, mode, vectors):
            grown = pure_step(inst, mode, vectors)
            switches.append(grown is None and mode != "pair")
            return grown

        monkeypatch.setattr(histories, "_pure_step", spy)
        for declared, dense in _pure_specs():
            assert declared.initial.vector is not None and dense.initial.vector is None
            for subset in _all_subsets(declared):
                _assert_same_distribution(marginal_distribution(declared, subset),
                                          marginal_distribution(dense, subset))
                _assert_same_distribution(omitted_distribution(declared, subset),
                                          omitted_distribution(dense, subset))
                np.testing.assert_allclose(marginal_functional(declared, subset).values,
                                           marginal_functional(dense, subset).values,
                                           rtol=0, atol=1e-12)
        assert any(switches) and not all(switches)

    def test_criteria_and_exact_protocol_match_dense_declaration(self):
        """D, the measurement-based residuals, Kent where it applies and the exact
        protocol agree within 1e-12 with the dense declaration."""
        for declared, dense in _pure_specs():
            np.testing.assert_allclose(decoherence_functional(declared).values,
                                       decoherence_functional(dense).values,
                                       rtol=0, atol=1e-12)
            reports = [check_measurement_based(spec) for spec in (declared, dense)]
            assert reports[0].verdict == reports[1].verdict
            for (s, a), (t, b) in zip(reports[0].per_subset, reports[1].per_subset):
                assert s == t and abs(a - b) <= 1e-12
            kent = [_kent_residual(spec) for spec in (declared, dense)]
            if isinstance(kent[0], float):
                assert abs(kent[0] - kent[1]) <= 1e-12
            else:
                assert kent[0] is kent[1]
            for subset in ((1,), (1, 3)):
                exact = [run_protocol(ProtocolConfig(spec, subset, 10, 0), mode="exact")
                         for spec in (declared, dense)]
                _assert_same_distribution(exact[0].dist_with, exact[1].dist_with)
                _assert_same_distribution(exact[0].dist_without, exact[1].dist_without)
                assert abs(exact[0].exact_tv - exact[1].exact_tv) <= 1e-12


def _echo_spec(n_points, half, width, n_centers):
    """Free-particle echo at spread = width with n_centers centers width / 2 apart."""
    grid = GridSystem(n_points=n_points, x_min=-half, x_max=half)
    t = float(np.sqrt(width**2 - 1.0))
    inst = gaussian_instrument(grid, width, (np.arange(n_centers) - n_centers // 2) * width / 2)
    return HistorySpec(initial=gaussian_wavepacket(grid, 0.0, 1.0), steps=(
        Step(free_particle_unitary(grid, 1.0, t), inst),
        Step(free_particle_unitary(grid, 1.0, -t), inst)))


class TestPathVectorFunctional:
    def test_grid_echo_matches_dense_declaration(self):
        """On a 64-point echo with 23 centers (529 paths), D from path vectors is
        within 1e-12 of D built from the dense state and dense unitaries."""
        declared = _echo_spec(64, 16.0, 2.0, 23)
        dense = HistorySpec(
            initial=validate_density(declared.initial.matrix),
            steps=tuple(Step(validate_unitary(s.unitary.matrix), s.instrument)
                        for s in declared.steps))
        values = decoherence_functional(declared).values
        assert values.shape == (529, 529)
        np.testing.assert_allclose(values, decoherence_functional(dense).values,
                                   rtol=0, atol=1e-12)

    def test_grid_echo_functional_memory(self):
        """A 512-point echo with 23 centers builds its 529-path D below 64 MB of
        traced allocations; the dense path-operator stack alone would be 2.2 GB."""
        import tracemalloc

        spec = _echo_spec(512, 128.0, 16.0, 23)
        tracemalloc.start()
        try:
            functional = decoherence_functional(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert functional.n_paths == 529
        assert peak < 64 * 2**20, f"peak {peak} bytes"
