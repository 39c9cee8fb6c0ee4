"""The three decoherence verdicts: weak, measurement-based, and Kent.

Weak decoherence asks that every off-diagonal entry of the functional has
vanishing real part, off-diagonality taken at the internal-path level (any
index pair differing). The measurement-based criterion asks, for every subset
S of measured steps, that performing-and-ignoring the S-measurements leaves
the outcome distribution of the remaining steps unchanged compared to not
performing them. Kent's criterion is the sum rule for Hermitian effects,
using the PSD square root B = (sum_i B_i^2)^{1/2} as the "or" effect.

Residuals are compared with an absolute tolerance and no normalization by
diagonal magnitudes: entries are bounded by 1, and relative scaling would
inflate residuals near zero-probability paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import core, histories
from .core import DEFAULT_TOLERANCES, Effect, Instrument, Tolerances
from .errors import (
    IncompleteInstrument,
    KentNotApplicable,
    NotHermitianEffects,
    SubsetBudgetExceeded,
    ValidationError,
)
from .histories import (
    DEFAULT_PATH_PAIR_BUDGET,
    DecoherenceFunctional,
    HistorySpec,
    Step,
    _check_budget,
    _kraus_products,
    marginal_distribution,
    omitted_distribution,
)

MAX_WITNESSES = 8

# Exhaustive subset checking is exponential in measured steps; refuse beyond
# this many subsets unless overridden.
DEFAULT_SUBSET_BUDGET = 4096

# Kent selections multiply across steps; mirror the path-pair budget.
DEFAULT_SELECTION_BUDGET = 10**6


@dataclass(frozen=True)
class Witness:
    """One worst-offender location with its residual.

    Location shape per criterion:
      weak               (path_a, path_b) as ((label, index), ...) tuples
      measurement_based  (subset, label_tuple)
      kent               per-step tuples of selected outcome labels
    """

    location: tuple
    residual: float


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    verdict: bool
    max_residual: float
    witnesses: tuple[Witness, ...]
    per_subset: tuple[tuple[tuple[int, ...], float], ...] | None = None
    policy: str = "all"
    notes: tuple[str, ...] = ()


def _top_witnesses(residuals: np.ndarray, locate, tol: Tolerances) -> tuple[Witness, ...]:
    """Worst offenders above tolerance, at most MAX_WITNESSES, ordered by
    residual descending and then by location.

    ``locate`` maps a flat index of ``residuals`` to its location. Offenders
    below the MAX_WITNESSES-th largest residual cannot be reported, so only
    those at or above it (every tie included) get a location and a sort.
    """
    flat = residuals.ravel()
    offenders = np.flatnonzero(flat > tol.decoherence)
    if offenders.size > MAX_WITNESSES:
        values = flat[offenders]
        kth = np.partition(values, -MAX_WITNESSES)[-MAX_WITNESSES]
        offenders = offenders[values >= kth]
    ranked = sorted(((locate(int(f)), float(flat[f])) for f in offenders),
                    key=lambda item: (-item[1], item[0]))
    return tuple(Witness(location=loc, residual=r) for loc, r in ranked[:MAX_WITNESSES])


def check_weak(
    functional: DecoherenceFunctional,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CriterionReport:
    """max |Re D(alpha; alpha')| over distinct path pairs."""
    residuals = np.abs(functional.values.real)
    np.fill_diagonal(residuals, 0.0)
    n, paths = functional.n_paths, functional.paths
    max_residual = float(residuals.max()) if n > 1 else 0.0
    # Re D is symmetric under swapping the pair, so report each once.
    return CriterionReport(
        criterion="weak",
        verdict=max_residual <= tol.decoherence,
        max_residual=max_residual,
        witnesses=_top_witnesses(np.triu(residuals, 1),
                                 lambda f: (paths[f // n], paths[f % n]), tol),
    )


def _subsets_for_policy(measured: tuple[int, ...], policy: str) -> list[tuple[int, ...]]:
    if policy == "all":
        subsets = [
            s
            for size in range(len(measured) + 1)
            for s in itertools.combinations(measured, size)
        ]
    elif policy == "singletons":
        subsets = [()] + [(k,) for k in measured]
    else:
        raise ValidationError(f"unknown subset policy {policy!r}")
    # canonical report order: index-set lexicographic
    return sorted(subsets)


def check_measurement_based(
    spec: HistorySpec,
    tol: Tolerances = DEFAULT_TOLERANCES,
    subset_policy: str = "all",
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    budget: int = DEFAULT_PATH_PAIR_BUDGET,
) -> CriterionReport:
    """For each subset S, compare omitted vs performed-and-ignored distributions."""
    measured = spec.measured_positions
    subsets = _subsets_for_policy(measured, subset_policy)
    if len(subsets) > subset_budget:
        raise SubsetBudgetExceeded(
            f"{len(subsets)} subsets of {len(measured)} measured steps exceed budget {subset_budget}"
        )
    per_subset: list[tuple[tuple[int, ...], float]] = []
    # One delta array per walked subset, over its sorted keys.
    walked: list[tuple[tuple[int, ...], list]] = []
    deltas: list[np.ndarray] = []
    for subset in subsets:
        kept = [pos for pos in measured if pos not in subset]
        if not subset or not kept or subset[0] > kept[-1]:
            # Omitting nothing compares the functional with itself. When every
            # step of S follows the last kept step, both walks stop before S
            # and agree exactly.
            per_subset.append((subset, 0.0))
            continue
        skipped = omitted_distribution(spec, subset, tol, budget)
        forgotten = marginal_distribution(spec, subset, tol, budget)
        keys = sorted(set(skipped) | set(forgotten))
        delta = np.abs(np.array([skipped.get(key, 0.0) for key in keys])
                       - np.array([forgotten.get(key, 0.0) for key in keys]))
        walked.append((subset, keys))
        deltas.append(delta)
        per_subset.append((subset, float(delta.max(initial=0.0))))
    starts = np.cumsum([0] + [len(keys) for _, keys in walked])

    def locate(flat):
        k = int(np.searchsorted(starts, flat, side="right")) - 1
        subset, keys = walked[k]
        return (subset, keys[flat - int(starts[k])])

    max_residual = max((r for _, r in per_subset), default=0.0)
    notes = []
    if subset_policy == "singletons":
        notes.append("singleton subsets only: partial check")
    if measured and any(measured[-1] in s for s in subsets if s):
        notes.append("subsets including the final measured step are tested (extension)")
    return CriterionReport(
        criterion="measurement_based",
        verdict=max_residual <= tol.decoherence,
        max_residual=max_residual,
        witnesses=_top_witnesses(np.concatenate([np.zeros(0), *deltas]), locate, tol),
        per_subset=tuple(per_subset),
        policy=subset_policy,
        notes=tuple(notes),
    )


@dataclass(frozen=True, eq=False)
class KentStep:
    """Hermitian effects of one measured step plus the index subsets to test."""

    position: int
    labels: tuple[str, ...]
    effects: tuple[np.ndarray, ...]
    subsets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class KentSpec:
    steps: tuple[KentStep, ...]

    @classmethod
    def from_history(
        cls,
        spec: HistorySpec,
        tol: Tolerances = DEFAULT_TOLERANCES,
        policy: str = "all",
    ) -> "KentSpec":
        steps = []
        for pos in spec.measured_positions:
            inst = spec.instrument_at(pos)
            labels = inst.labels
            if len(labels) != len(inst.effects):
                raise KentNotApplicable(
                    f"step {pos}: outcomes with multiple internal indices"
                )
            effects = []
            for label in labels:
                b = inst.effects_for(label)[0].matrix
                residual = core.hermiticity_residual(b)
                if residual > tol.validation:
                    raise NotHermitianEffects(
                        f"step {pos}, outcome {label!r}: effect not Hermitian "
                        f"(residual {residual:.3e})",
                        residual=residual,
                    )
                effects.append(b)
            total = sum(b @ b for b in effects)
            comp = float(np.max(np.abs(total - np.eye(inst.dim))))
            if comp > tol.validation:
                raise IncompleteInstrument(
                    f"step {pos}: sum B_i^2 != 1 (residual {comp:.3e})", residual=comp
                )
            k = len(effects)
            if policy == "all":
                subsets = [
                    s
                    for size in range(1, k + 1)
                    for s in itertools.combinations(range(k), size)
                ]
                subsets = sorted(subsets)
            elif policy == "singletons_plus_full":
                subsets = [(i,) for i in range(k)]
                full = tuple(range(k))
                if full not in subsets:
                    subsets.append(full)
            else:
                raise ValidationError(f"unknown Kent policy {policy!r}")
            steps.append(KentStep(position=pos, labels=labels,
                                  effects=tuple(effects), subsets=tuple(subsets)))
        return cls(steps=tuple(steps))


def check_kent(
    spec: HistorySpec,
    kent: KentSpec | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
    policy: str = "all",
    selection_budget: int = DEFAULT_SELECTION_BUDGET,
) -> CriterionReport:
    """Sum-rule residual |tr(B^n..B^1 rho B^1..B^n) - sum of fine-grained terms|
    over every selection of per-step index subsets, with B^j the PSD square
    root of the selected effects' squares and the spec's unitaries interleaved."""
    if kent is None:
        kent = KentSpec.from_history(spec, tol, policy)
    sizes = [len(step.subsets) for step in kent.steps]
    _check_budget(sizes, selection_budget, "Kent selections")
    rho = spec.initial.matrix
    by_position = {step.position: step for step in kent.steps}
    fine, coarse, indicators = [], [], []
    for pos, step in enumerate(spec.steps, 1):
        if step.instrument is None:
            fine.append(None)
            coarse.append(None)
            continue
        kstep = by_position[pos]
        fine.append(np.array(kstep.effects))
        coarse.append(np.array([
            core.psd_sqrt(sum(kstep.effects[i] @ kstep.effects[i] for i in subset), tol)
            for subset in kstep.subsets
        ]))
        indicator = np.zeros((len(kstep.subsets), len(kstep.effects)))
        for row, subset in enumerate(kstep.subsets):
            indicator[row, list(subset)] = 1.0
        indicators.append(indicator)

    def weights(ops):
        """tr(C rho C') for every operator in the stack."""
        return np.einsum("aij,aij->a", ops @ rho, ops.conj()).real

    # Right-hand sides: the fine-grained diagonal d(i_1..i_n) summed over each
    # selection, one indicator contraction per step (each contracts the
    # leading index and appends the selection index, so the result ends in
    # selection order).
    rhs = weights(_kraus_products(spec.steps, fine)).reshape([m.shape[1] for m in indicators])
    for indicator in indicators:
        rhs = np.tensordot(rhs, indicator, axes=([0], [1]))
    residuals = np.abs(weights(_kraus_products(spec.steps, coarse)) - rhs.ravel())
    max_residual = float(residuals.max())

    def locate(flat):
        selection = np.unravel_index(flat, sizes)
        return tuple(
            tuple(step.labels[i] for i in step.subsets[j])
            for step, j in zip(kent.steps, selection)
        )

    notes = ()
    if policy == "singletons_plus_full":
        notes = ("singleton-plus-full selections only: partial check",)
    return CriterionReport(
        criterion="kent",
        verdict=max_residual <= tol.decoherence,
        max_residual=max_residual,
        witnesses=_top_witnesses(residuals, locate, tol),
        policy=policy,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Seeded random instances for property tests.
# ---------------------------------------------------------------------------


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary via QR of a complex Ginibre matrix with phase fix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[np.newaxis, :]


def _random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _partition_sizes(dim: int, k: int) -> list[int]:
    base, extra = divmod(dim, k)
    return [base + (1 if j < extra else 0) for j in range(k)]


def _random_projective(dim: int, k: int, rng: np.random.Generator, tol: Tolerances) -> Instrument:
    if k > dim:
        raise ValidationError(f"cannot split dim {dim} into {k} projectors")
    v = _haar_unitary(dim, rng)
    effects = []
    start = 0
    for m, size in enumerate(_partition_sizes(dim, k)):
        cols = v[:, start:start + size]
        start += size
        effects.append(Effect(str(m), 0, cols @ cols.conj().T))
    return core.validate_instrument(effects, tol)


def _random_generalized(
    dim: int, k: int, rng: np.random.Generator, tol: Tolerances, indices_per_label: int = 1
) -> Instrument:
    blocks = k * indices_per_label
    w = _haar_unitary(dim * blocks, rng)
    isometry = w[:, :dim]
    effects = []
    for b in range(blocks):
        block = isometry[b * dim:(b + 1) * dim, :]
        effects.append(Effect(str(b // indices_per_label), b % indices_per_label, block))
    return core.validate_instrument(effects, tol)


def _random_hermitian(dim: int, k: int, rng: np.random.Generator, tol: Tolerances) -> Instrument:
    """Hermitian PSD effects B_i with sum B_i^2 = 1: conjugate random POVM
    elements by T^{-1/2} and take PSD square roots."""
    povm = []
    for _ in range(k):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        povm.append(g @ g.conj().T)
    total = sum(povm)
    w, v = np.linalg.eigh(total)
    t_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = []
    for m, f in enumerate(povm):
        b = core.psd_sqrt(t_inv_sqrt @ f @ t_inv_sqrt, tol)
        effects.append(Effect(str(m), 0, b))
    return core.validate_instrument(effects, tol)


def random_spec(
    dim: int,
    n_steps: int,
    outcomes_per_step,
    kind: str = "projective",
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> HistorySpec:
    """Deterministic-in-seed random history.

    kind: 'projective' (rank-partitioned Haar projectors), 'generalized'
    (Haar isometry blocks, one index per outcome), 'generalized_multi' (two
    internal indices per outcome), or 'hermitian' (Hermitian PSD effects).
    """
    if dim < 2:
        raise ValidationError("dim must be >= 2")
    rng = np.random.default_rng(seed)
    if isinstance(outcomes_per_step, int):
        outcomes = [outcomes_per_step] * n_steps
    else:
        outcomes = list(outcomes_per_step)
        if len(outcomes) != n_steps:
            raise ValidationError("outcomes_per_step length != n_steps")
    rho = core.validate_density(_random_density(dim, rng), tol)
    steps = []
    for k in outcomes:
        unitary = core.validate_unitary(_haar_unitary(dim, rng), tol)
        if kind == "projective":
            inst = _random_projective(dim, k, rng, tol)
        elif kind == "generalized":
            inst = _random_generalized(dim, k, rng, tol)
        elif kind == "generalized_multi":
            inst = _random_generalized(dim, k, rng, tol, indices_per_label=2)
        elif kind == "hermitian":
            inst = _random_hermitian(dim, k, rng, tol)
        else:
            raise ValidationError(f"unknown random spec kind {kind!r}")
        steps.append(Step(unitary=unitary, instrument=inst))
    return HistorySpec(initial=rho, steps=tuple(steps))


def random_classical_spec(
    dim: int,
    n_steps: int,
    outcomes_per_step=None,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> HistorySpec:
    """Random history that is decoherent by construction.

    All projectors are diagonal in one common random basis and every unitary
    is a phase-decorated permutation of that basis, so distinct paths have
    disjoint supports and every off-diagonal functional entry vanishes
    exactly. Useful to make implication properties non-vacuous.
    """
    if dim < 2:
        raise ValidationError("dim must be >= 2")
    rng = np.random.default_rng(seed)
    k = outcomes_per_step if outcomes_per_step is not None else dim
    v = _haar_unitary(dim, rng)
    rho = core.validate_density(_random_density(dim, rng), tol)
    steps = []
    for _ in range(n_steps):
        perm = rng.permutation(dim)
        phases = np.exp(2j * np.pi * rng.random(dim))
        u = np.zeros((dim, dim), dtype=np.complex128)
        u[perm, np.arange(dim)] = phases
        unitary = core.validate_unitary(v @ u @ v.conj().T, tol)
        sizes = _partition_sizes(dim, k)
        effects = []
        start = 0
        for m, size in enumerate(sizes):
            cols = v[:, start:start + size]
            start += size
            effects.append(Effect(str(m), 0, cols @ cols.conj().T))
        steps.append(Step(unitary=unitary, instrument=core.validate_instrument(effects, tol)))
    return HistorySpec(initial=rho, steps=tuple(steps))


def trivial_instrument(dim: int, tol: Tolerances = DEFAULT_TOLERANCES) -> Instrument:
    """The single-outcome instrument {1}."""
    return core.validate_instrument(
        [Effect(histories.TRIVIAL_LABEL, 0, np.ones(dim))], tol
    )
