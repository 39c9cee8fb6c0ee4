"""Tests for the three decoherence criteria and random spec generators."""

import itertools

import numpy as np
import pytest

import decohist.criteria as criteria
from decohist import (
    MAX_WITNESSES,
    DecoherenceFunctional,
    HistorySpec,
    KentNotApplicable,
    KentSpec,
    NotHermitianEffects,
    Step,
    Tolerances,
    Witness,
    check_kent,
    check_measurement_based,
    check_weak,
    decoherence_functional,
    marginal_distribution,
    omitted_distribution,
    psd_sqrt,
    random_classical_spec,
    random_spec,
    spin_half_library,
    trivial_instrument,
)


def _xy_spec():
    lib = spin_half_library()
    return HistorySpec(
        initial=lib.up_z,
        steps=(
            Step(lib.identity, lib.projective_y),
            Step(lib.identity, lib.projective_x),
        ),
    )


def _fuzzy_spec():
    lib = spin_half_library()
    return HistorySpec(initial=lib.mixed, steps=(Step(lib.identity, lib.fuzzy),))


def _two_path_functional(off: float) -> DecoherenceFunctional:
    paths = ((("0", 0),), (("1", 0),))
    values = np.array([[0.5, off], [off, 0.5]])
    return DecoherenceFunctional(paths=paths, values=values, positions=(1,),
                                 labels=(("0",), ("1",)))


class TestCheckWeak:
    def test_imaginary_off_diagonals_pass(self):
        """The y-then-x chain has purely imaginary off-diagonals, so weak holds."""
        report = check_weak(decoherence_functional(_xy_spec()))
        assert report.verdict is True
        assert report.max_residual == pytest.approx(0.0, abs=1e-12)
        assert report.witnesses == ()

    def test_fuzzy_real_off_diagonal_fails(self):
        """A single fuzzy step on the mixed state has Re D(0;1) = 1/4."""
        report = check_weak(decoherence_functional(_fuzzy_spec()))
        assert report.verdict is False
        assert report.max_residual == pytest.approx(0.25, abs=1e-12)
        assert len(report.witnesses) == 1
        assert report.witnesses[0].residual == pytest.approx(0.25, abs=1e-12)

    def test_single_path_trivially_passes(self):
        """One path means no distinct pairs and residual zero."""
        lib = spin_half_library()
        spec = HistorySpec(
            initial=lib.mixed, steps=(Step(lib.identity, trivial_instrument(2)),)
        )
        report = check_weak(decoherence_functional(spec))
        assert report.verdict is True
        assert report.max_residual == 0.0

    def test_threshold_is_configurable(self):
        """A loose tolerance flips the fuzzy verdict to pass."""
        loose = Tolerances(decoherence=0.3)
        report = check_weak(decoherence_functional(_fuzzy_spec()), loose)
        assert report.verdict is True

    def test_residual_at_tolerance_passes(self):
        """|Re D| exactly at the tolerance passes with no witness; one ulp
        above it fails with exactly one."""
        tol = Tolerances()
        for sign in (1.0, -1.0):
            at = check_weak(_two_path_functional(sign * tol.decoherence), tol)
            assert at.verdict is True
            assert at.max_residual == tol.decoherence
            assert at.witnesses == ()
            above = np.nextafter(tol.decoherence, np.inf)
            report = check_weak(_two_path_functional(sign * above), tol)
            assert report.verdict is False
            assert report.witnesses == (Witness(location=((("0", 0),), (("1", 0),)),
                                                residual=above),)


class TestCheckMeasurementBased:
    def test_xy_chain_passes(self):
        """Omitting the y step does not change the final x distribution."""
        report = check_measurement_based(_xy_spec())
        assert report.verdict is True
        assert report.max_residual <= 1e-12

    def test_empty_subset_always_zero(self):
        """The empty subset compares the functional with itself."""
        report = check_measurement_based(_fuzzy_spec())
        per_subset = dict(report.per_subset)
        assert per_subset[()] == 0.0

    def test_subsets_after_last_kept_step_are_not_walked(self, monkeypatch):
        """Omitting only steps after every kept step gives 0 without a walk."""
        walked = []

        def spy(real):
            def wrapper(spec, subset, *args):
                walked.append(tuple(subset))
                return real(spec, subset, *args)
            return wrapper

        for name in ("omitted_distribution", "marginal_distribution"):
            monkeypatch.setattr(criteria, name, spy(getattr(criteria, name)))
        report = check_measurement_based(_xy_spec())
        assert walked == [(1,), (1,)]
        assert ((2,), 0.0) in report.per_subset
        assert ((1, 2), 0.0) in report.per_subset

    def test_subsets_ordered_lexicographically(self):
        """Subsets are reported in index-set lexicographic order."""
        report = check_measurement_based(_xy_spec())
        assert tuple(s for s, _ in report.per_subset) == ((), (1,), (1, 2), (2,))

    def test_direction_chain_fails_with_third(self):
        """A six-axis direction step shifts the final z outcome by 1/3 on z-up."""
        from decohist import AXIS_DIRECTIONS, spin_direction_instrument

        lib = spin_half_library()
        spec = HistorySpec(
            initial=lib.up_z,
            steps=(
                Step(lib.identity, spin_direction_instrument(AXIS_DIRECTIONS)),
                Step(lib.identity, lib.projective_z),
            ),
        )
        report = check_measurement_based(spec)
        assert report.verdict is False
        assert report.max_residual == pytest.approx(1 / 3, abs=1e-12)

    def test_singleton_policy_notes_partial(self):
        """The singletons policy is flagged as a partial check."""
        report = check_measurement_based(_xy_spec(), subset_policy="singletons")
        assert report.policy == "singletons"
        assert any("partial" in note for note in report.notes)
        assert tuple(s for s, _ in report.per_subset) == ((), (1,), (2,))

    def test_trivial_steps_pass_exactly(self):
        """All-trivial instrument chains are decoherent with residual zero."""
        lib = spin_half_library()
        spec = HistorySpec(
            initial=lib.mixed,
            steps=(
                Step(lib.hadamard, trivial_instrument(2)),
                Step(lib.identity, trivial_instrument(2)),
            ),
        )
        for report in (
            check_weak(decoherence_functional(spec)),
            check_measurement_based(spec),
            check_kent(spec),
        ):
            assert report.verdict is True
            assert report.max_residual == pytest.approx(0.0, abs=1e-12)


class TestCheckKent:
    def test_fuzzy_passes(self):
        """The fuzzy instrument's Hermitian effects satisfy the sum rule."""
        report = check_kent(_fuzzy_spec())
        assert report.verdict is True
        assert report.max_residual <= 1e-12

    def test_projective_chain_passes(self):
        """The y-then-x projective chain satisfies the sum rule."""
        report = check_kent(_xy_spec())
        assert report.verdict is True

    def test_rejects_non_hermitian_effects(self):
        """Non-Hermitian effects raise NotHermitianEffects."""
        spec = random_spec(3, 1, 2, kind="generalized", seed=0)
        with pytest.raises(NotHermitianEffects):
            check_kent(spec)

    def test_rejects_multi_index_outcomes(self):
        """Outcomes with several internal indices raise KentNotApplicable."""
        spec = random_spec(3, 1, 2, kind="generalized_multi", seed=0)
        with pytest.raises(KentNotApplicable):
            check_kent(spec)

    def test_kent_spec_subsets(self):
        """The all policy enumerates every nonempty index subset per step."""
        kent = KentSpec.from_history(_fuzzy_spec())
        assert kent.steps[0].subsets == ((0,), (0, 1), (1,))

    def test_singletons_plus_full_policy(self):
        """The reduced policy tests singletons and the full set only."""
        kent = KentSpec.from_history(_fuzzy_spec(), policy="singletons_plus_full")
        assert kent.steps[0].subsets == ((0,), (1,), (0, 1))

    def test_hermitian_random_specs_report_verdicts(self):
        """Seeded Hermitian specs produce a definite verdict without raising."""
        for seed in range(5):
            spec = random_spec(2, 2, 2, kind="hermitian", seed=seed)
            report = check_kent(spec)
            assert report.criterion == "kent"
            assert isinstance(report.verdict, bool)


def _kent_reference(spec) -> dict:
    """Sum-rule residual per selection location, one selection at a time:
    each coarse operator product is built and traced on its own."""
    kent = KentSpec.from_history(spec)
    rho = spec.initial.matrix
    by_position = {step.position: step for step in kent.steps}
    ops, shape = [np.eye(spec.dim, dtype=complex)], []
    for pos, step in enumerate(spec.steps, 1):
        ops = [step.unitary.matrix @ c for c in ops]
        if step.instrument is not None:
            ops = [b @ c for c in ops for b in by_position[pos].effects]
            shape.append(len(by_position[pos].effects))
    diag = np.array([np.trace(c @ rho @ c.conj().T).real for c in ops]).reshape(shape)
    residuals = {}
    for selection in itertools.product(*[step.subsets for step in kent.steps]):
        op = np.eye(spec.dim, dtype=complex)
        chosen = iter(zip(kent.steps, selection))
        for step in spec.steps:
            op = step.unitary.matrix @ op
            if step.instrument is not None:
                kstep, subset = next(chosen)
                op = psd_sqrt(sum(kstep.effects[i] @ kstep.effects[i] for i in subset)) @ op
        lhs = np.trace(op @ rho @ op.conj().T).real
        location = tuple(tuple(step.labels[i] for i in subset)
                         for step, subset in zip(kent.steps, selection))
        residuals[location] = abs(lhs - diag[np.ix_(*selection)].sum())
    return residuals


def test_kent_matches_per_selection_reference():
    """Stacked Kent residuals match a one-selection-at-a-time reference."""
    for seed in range(12):
        n_steps = 1 + seed % 3
        spec = random_spec(2 + seed % 2, n_steps, 2 + seed % 2, kind="hermitian", seed=seed)
        reference = _kent_reference(spec)
        report = check_kent(spec)
        worst = max(reference.values())
        assert report.verdict == (worst <= Tolerances().decoherence)
        assert abs(report.max_residual - worst) <= 1e-12
        expected = sum(r > Tolerances().decoherence for r in reference.values())
        assert len(report.witnesses) == min(expected, 8)
        for witness in report.witnesses:
            assert abs(witness.residual - reference[witness.location]) <= 1e-12


def _full_sort(candidates, tol: Tolerances) -> tuple[Witness, ...]:
    """Reference witness selection: every (location, residual) above the
    tolerance, fully sorted by residual descending and then by location."""
    offenders = [(loc, r) for loc, r in candidates if r > tol.decoherence]
    offenders.sort(key=lambda item: (-item[1], item[0]))
    return tuple(Witness(location=loc, residual=r) for loc, r in offenders[:MAX_WITNESSES])


def _weak_candidates(functional):
    v = np.abs(functional.values.real)
    n = functional.n_paths
    return [((functional.paths[a], functional.paths[b]), float(v[a, b]))
            for a in range(n) for b in range(a + 1, n)]


def _measurement_based_candidates(spec):
    measured = spec.measured_positions
    for size in range(1, len(measured) + 1):
        for subset in itertools.combinations(measured, size):
            kept = [pos for pos in measured if pos not in subset]
            if not kept or subset[0] > kept[-1]:
                continue
            skipped = omitted_distribution(spec, subset)
            forgotten = marginal_distribution(spec, subset)
            for key in sorted(set(skipped) | set(forgotten)):
                yield (subset, key), abs(skipped.get(key, 0.0) - forgotten.get(key, 0.0))


def _kent_candidates(spec, monkeypatch):
    """check_kent's own residual vector, each entry located by unravelling
    its flat index over the per-step subset counts."""
    captured = []
    real = criteria._top_witnesses

    def spy(residuals, locate, tol):
        captured.append(residuals.copy())
        return real(residuals, locate, tol)

    with monkeypatch.context() as patch:
        patch.setattr(criteria, "_top_witnesses", spy)
        check_kent(spec)
    (residuals,) = captured
    kent = KentSpec.from_history(spec)
    selections = itertools.product(*[step.subsets for step in kent.steps])
    return [(tuple(tuple(step.labels[i] for i in s) for step, s in zip(kent.steps, selection)),
             float(r))
            for selection, r in zip(selections, residuals)]


def _tied_chain_spec():
    """Fuzzy, x and z measurements of the mixed spin, twice over: Re D takes
    a handful of exactly repeated values, and 32 pairs tie at the 8th."""
    lib = spin_half_library()
    instruments = (lib.fuzzy, lib.projective_x, lib.projective_z)
    return HistorySpec(initial=lib.mixed,
                       steps=tuple(Step(lib.identity, instruments[k % 3]) for k in range(6)))


class TestWitnessSelection:
    def test_ties_at_the_cut_are_kept_and_ordered_by_location(self):
        """With 63 equal residuals competing for the last 5 witness slots, the
        slots go to the smallest locations, not to the first paths."""
        labels = ("10", "9", "2", "11", "1", "0", "3", "8", "4", "7", "5", "6")
        n = len(labels)
        paths = tuple(((label, 0),) for label in labels)
        values = np.full((n, n), 0.01)
        np.fill_diagonal(values, 1 / n)
        for a, b in ((0, 1), (2, 7), (4, 11)):
            values[a, b] = values[b, a] = -0.02
        functional = DecoherenceFunctional(paths=paths, values=values, positions=(1,),
                                           labels=tuple((label,) for label in labels))
        candidates = _weak_candidates(functional)
        assert sum(r == 0.01 for _, r in candidates) >= 50
        report = check_weak(functional)
        assert report.witnesses == _full_sort(candidates, Tolerances())
        assert [w.residual for w in report.witnesses] == [0.02] * 3 + [0.01] * 5
        by_path_order = [loc for loc, r in candidates if r == 0.01][:5]
        assert [w.location for w in report.witnesses[3:]] != by_path_order

    def test_tied_chain_matches_full_sort(self, monkeypatch):
        """A spin chain whose exactly equal residuals straddle the witness cut."""
        spec = _tied_chain_spec()
        functional = decoherence_functional(spec)
        candidates = _weak_candidates(functional)
        ranked = sorted((r for _, r in candidates), reverse=True)
        cut = ranked[MAX_WITNESSES - 1]
        assert ranked[MAX_WITNESSES] == cut and ranked[0] > cut
        assert check_weak(functional).witnesses == _full_sort(candidates, Tolerances())
        assert check_measurement_based(spec).witnesses == _full_sort(
            _measurement_based_candidates(spec), Tolerances())
        assert check_kent(spec).witnesses == _full_sort(
            _kent_candidates(spec, monkeypatch), Tolerances())

    @pytest.mark.parametrize("kind", ["projective", "classical", "generalized", "hermitian"])
    def test_seeded_specs_match_full_sort(self, kind, monkeypatch):
        """All three criteria pick the same witnesses as a full sort of every
        offender, on seeded specs of dims 2-4 with up to three steps."""
        tol = Tolerances()
        for seed in range(12):
            dim, n_steps = 2 + seed % 3, 1 + seed % 3
            if kind == "classical":
                spec = random_classical_spec(dim, n_steps, seed=seed)
            else:
                spec = random_spec(dim, n_steps, min(2 + seed // 6, dim), kind=kind, seed=seed)
            functional = decoherence_functional(spec)
            assert check_weak(functional, tol).witnesses == _full_sort(
                _weak_candidates(functional), tol)
            assert check_measurement_based(spec, tol).witnesses == _full_sort(
                _measurement_based_candidates(spec), tol)
            if kind != "generalized":
                assert check_kent(spec, tol=tol).witnesses == _full_sort(
                    _kent_candidates(spec, monkeypatch), tol)


class TestImplications:
    def test_weak_implies_measurement_based(self):
        """Projective specs passing weak pass the comparison at 10x tolerance."""
        tol = Tolerances()
        hits = 0
        for seed in range(30):
            spec = random_classical_spec(3, 2, seed=seed)
            weak = check_weak(decoherence_functional(spec), tol)
            if not weak.verdict:
                continue
            hits += 1
            relaxed = Tolerances(decoherence=10 * tol.decoherence)
            assert check_measurement_based(spec, relaxed).verdict is True
        assert hits > 0

    def test_kent_implies_measurement_based(self):
        """Hermitian specs passing the sum rule pass the comparison at 10x."""
        tol = Tolerances()
        hits = 0
        for seed in range(30):
            spec = random_classical_spec(2, 2, seed=seed)
            if not check_kent(spec, tol=tol).verdict:
                continue
            hits += 1
            relaxed = Tolerances(decoherence=10 * tol.decoherence)
            assert check_measurement_based(spec, relaxed).verdict is True
        assert hits > 0


class TestRandomSpecs:
    def test_deterministic_in_seed(self):
        """The same seed reproduces the same spec bit for bit."""
        a = random_spec(3, 2, 2, kind="projective", seed=42)
        b = random_spec(3, 2, 2, kind="projective", seed=42)
        np.testing.assert_array_equal(a.initial.matrix, b.initial.matrix)
        for sa, sb in zip(a.steps, b.steps):
            np.testing.assert_array_equal(sa.unitary.matrix, sb.unitary.matrix)

    def test_kinds_have_expected_structure(self):
        """Each generator kind produces the advertised instrument class."""
        projective = random_spec(4, 1, 2, kind="projective", seed=1)
        assert projective.instrument_at(1).kind == "projective"
        multi = random_spec(4, 1, 2, kind="generalized_multi", seed=1)
        assert len(multi.instrument_at(1).effects) == 4
        hermitian = random_spec(4, 1, 2, kind="hermitian", seed=1)
        for effect in hermitian.instrument_at(1).effects:
            np.testing.assert_allclose(
                effect.matrix, effect.matrix.conj().T, atol=1e-9
            )

    def test_classical_specs_pass_everything(self):
        """Classically aligned specs satisfy all three criteria near exactly."""
        for seed in range(8):
            spec = random_classical_spec(3, 2, seed=seed)
            assert check_weak(decoherence_functional(spec)).verdict is True
            assert check_measurement_based(spec).verdict is True
            assert check_kent(spec).verdict is True

    def test_invariants_across_kinds(self):
        """Functional invariants hold for every generator kind."""
        for kind in ("projective", "generalized", "generalized_multi", "hermitian"):
            for seed in range(3):
                spec = random_spec(3, 2, 2, kind=kind, seed=seed)
                v = decoherence_functional(spec).values
                np.testing.assert_allclose(v, v.conj().T, atol=1e-9)
                diag = np.diagonal(v).real
                assert diag.min() >= -1e-9
                assert diag.sum() == pytest.approx(1.0, abs=1e-9)
