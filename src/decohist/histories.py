"""Decoherence functionals of declared histories.

A history spec is an initial state plus ordered steps, each a unitary applied
first and then an optional instrument. The functional is

    D(alpha; alpha') = tr( C_alpha rho C_alpha'^dagger ),
    C_alpha = A^n_{mu_n i_n} U_n ... A^1_{mu_1 i_1} U_1,

indexed by ordered pairs of outcome paths alpha = ((mu_1, i_1), ...). Steps
without an instrument contribute only their unitary, so omitting a middle
measurement composes the neighboring unitaries exactly.

Step positions are 1-based throughout the public API (step 1 is the first
step), matching the U_1 ... U_n numbering above; subsets, witnesses and
reports all use that convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import DEFAULT_TOLERANCES, DensityMatrix, Instrument, Tolerances, UnitaryOp
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    PathMismatch,
    SubsetInvalid,
    ValidationError,
    ZeroProbabilityOutcome,
)

# Dense path-pair enumeration is exponential in the number of measured steps;
# refuse anything beyond this many (path, path) pairs unless overridden.
DEFAULT_PATH_PAIR_BUDGET = 10**6

# Label of the single outcome of a trivial instrument {1}.
TRIVIAL_LABEL = "·"

OutcomePath = tuple[tuple[str, int], ...]


@dataclass(frozen=True, eq=False)
class Step:
    """One time slot: evolve by ``unitary``, then apply ``instrument`` (or nothing)."""

    unitary: UnitaryOp
    instrument: Instrument | None = None

    def __post_init__(self):
        if self.instrument is not None and self.instrument.dim != self.unitary.dim:
            raise DimensionMismatch(
                f"instrument dim {self.instrument.dim} != unitary dim {self.unitary.dim}"
            )

    @property
    def dim(self) -> int:
        return self.unitary.dim


@dataclass(frozen=True, eq=False)
class HistorySpec:
    """Initial state plus ordered steps; at least one step carries an instrument."""

    initial: DensityMatrix
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValidationError("history needs at least one step")
        for s in self.steps:
            if s.dim != self.initial.dim:
                raise DimensionMismatch(f"step dim {s.dim} != state dim {self.initial.dim}")
        if all(s.instrument is None for s in self.steps):
            raise ValidationError("history needs at least one instrument")

    @property
    def dim(self) -> int:
        return self.initial.dim

    @property
    def measured_positions(self) -> tuple[int, ...]:
        """1-based positions of steps that carry an instrument."""
        return tuple(k for k, s in enumerate(self.steps, 1) if s.instrument is not None)

    def instrument_at(self, position: int) -> Instrument:
        if not 1 <= position <= len(self.steps):
            raise SubsetInvalid(f"step position {position} out of range")
        inst = self.steps[position - 1].instrument
        if inst is None:
            raise SubsetInvalid(f"step {position} carries no instrument")
        return inst


@dataclass(frozen=True, eq=False)
class DecoherenceFunctional:
    """D(alpha; alpha') over the enumerated outcome paths.

    ``positions`` are the 1-based measured-step positions the path entries
    refer to; ``labels`` maps each path to its outcome-label tuple (the
    grouping metadata used to coarse-grain internal indices away).
    """

    paths: tuple[OutcomePath, ...]
    values: np.ndarray
    positions: tuple[int, ...]
    labels: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def grouping(self) -> dict[OutcomePath, tuple[str, ...]]:
        return dict(zip(self.paths, self.labels))


def _measured_instruments(steps: tuple[Step, ...]) -> list[tuple[int, Instrument]]:
    return [(k, s.instrument) for k, s in enumerate(steps, 1) if s.instrument is not None]


def _enumerate_paths(instruments: list[Instrument]) -> tuple[tuple[OutcomePath, ...], tuple[tuple[str, ...], ...]]:
    """All outcome paths in canonical order: product over steps, last step fastest."""
    per_step = [[(e.outcome_label, e.internal_index) for e in inst.effects] for inst in instruments]
    paths = tuple(itertools.product(*per_step))
    labels = tuple(tuple(lbl for lbl, _ in p) for p in paths)
    return paths, labels


def _check_budget(sizes, budget: int, what: str, pairs: bool = False) -> None:
    """Refuse, before anything is allocated, a product of ``sizes`` (or its
    square, for path pairs) above ``budget``."""
    n = math.prod(sizes)
    count = n * n if pairs else n
    if count > budget:
        shown = f"{n}^2 = {count}" if pairs else f"{n}"
        raise BudgetExceeded(f"{shown} {what} exceed budget {budget}")


def _kraus_products(steps: tuple[Step, ...], choices, start=None) -> np.ndarray:
    """Stack of products O^n U_n ... O^1 U_1 start taking one operator per listed step.

    ``choices[j]`` is a (k, dim, dim) stack of candidates for step j + 1, a
    (k, dim) stack of declared diagonals, or None where only the unitary
    acts. ``start`` is a (dim, cols) matrix, the identity by default.
    Products are expanded level by level so shared prefixes are computed
    once; the order (old index * k + new operator) is the canonical product
    enumeration, last step fastest.
    """
    dim = steps[0].dim
    ops = (np.eye(dim, dtype=np.complex128) if start is None else start)[np.newaxis]
    for step, choice in zip(steps, choices):
        ops = core.apply_unitary(step.unitary, ops)
        if choice is None:
            continue
        if choice.ndim == 2:
            ops = choice[np.newaxis, :, :, np.newaxis] * ops[:, np.newaxis]
        else:
            ops = choice[np.newaxis] @ ops[:, np.newaxis]
        ops = ops.reshape(-1, dim, ops.shape[-1])
    return ops


def path_operator(spec: HistorySpec, path: OutcomePath) -> np.ndarray:
    """C_alpha = A^n U_n ... A^1 U_1 for one outcome path."""
    measured = _measured_instruments(spec.steps)
    if len(path) != len(measured):
        raise PathMismatch(f"path length {len(path)} != measured steps {len(measured)}")
    entries = iter(path)
    choices = []
    for step in spec.steps:
        match = None
        if step.instrument is not None:
            label, index = next(entries)
            match = [e.matrix for e in step.instrument.effects
                     if e.outcome_label == label and e.internal_index == index][:1]
            if not match:
                raise PathMismatch(f"step has no effect ({label!r}, {index})")
        choices.append(None if match is None else np.array(match))
    op = _kraus_products(spec.steps, choices)[0]
    op.setflags(write=False)
    return op


def _effect_stack(inst: Instrument | None):
    """A step's operator candidates for _kraus_products: None without an
    instrument, else its declared diagonals if it has them, else its dense
    effects."""
    if inst is None:
        return None
    if inst._diagonal_stack is not None:
        return inst._diagonal_stack
    return np.array([e.matrix for e in inst.effects])


def _functional_from_steps(
    initial: DensityMatrix,
    steps: tuple[Step, ...],
    tol: Tolerances,
    budget: int,
) -> DecoherenceFunctional:
    """Build D for the given step list (which may legitimately have no instruments,
    as happens when every measured step is omitted: D is then the scalar [[1]])."""
    measured = _measured_instruments(steps)
    instruments = [inst for _, inst in measured]
    _check_budget([len(inst.effects) for inst in instruments], budget, "path pairs", pairs=True)
    psi = initial.vector
    effects = [_effect_stack(s.instrument) for s in steps]
    if psi is None:
        stack = _kraus_products(steps, effects)
        # D(a, b) = tr(C_a rho C_b') = sum_{ij} (C_a rho)_{ij} conj(C_b)_{ij};
        # each entry is an independent contraction, so evaluation order cannot
        # change results between serial and data-parallel runs.
        values = np.einsum("aij,bij->ab", stack @ initial.matrix, stack.conj())
    else:
        # A pure state needs only the path vectors v_a = C_a psi, and
        # D(a, b) = <v_b, v_a> is their Gram matrix: paths x dim numbers
        # instead of paths x dim^2.
        vectors = _kraus_products(steps, effects, psi[:, np.newaxis])[..., 0]
        values = vectors @ vectors.conj().T
    paths, labels = _enumerate_paths(instruments)
    diag = np.diagonal(values)
    if float(np.max(np.abs(diag.imag))) > tol.validation:
        raise ValidationError("functional diagonal has imaginary residual")
    if float(diag.real.min()) < -tol.validation:
        raise ValidationError("functional diagonal has negative entry")
    positions = tuple(pos for pos, _ in measured)
    return _validated_functional(values, paths, labels, positions, tol)


def decoherence_functional(
    spec: HistorySpec,
    tol: Tolerances = DEFAULT_TOLERANCES,
    budget: int = DEFAULT_PATH_PAIR_BUDGET,
) -> DecoherenceFunctional:
    """The full functional D(alpha; alpha') of the spec."""
    return _functional_from_steps(spec.initial, spec.steps, tol, budget)


def grouped_diagonal(
    functional: DecoherenceFunctional,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> dict[tuple[str, ...], float]:
    """Outcome-label probabilities: diagonal entries summed over internal indices."""
    diag = np.diagonal(functional.values)
    if float(np.max(np.abs(diag.imag), initial=0.0)) > tol.validation:
        raise ValidationError("diagonal has imaginary residual")
    out: dict[tuple[str, ...], float] = {}
    for lbls, value in zip(functional.labels, diag.real):
        out[lbls] = out.get(lbls, 0.0) + float(value)
    if out and min(out.values()) < -tol.validation:
        raise ValidationError("grouped probability below zero")
    total = sum(out.values())
    if abs(total - 1.0) > tol.validation:
        raise ValidationError(f"grouped probabilities sum to {total:.12g}, not 1")
    return out


def posterior_state(
    rho: DensityMatrix,
    inst: Instrument,
    label: str,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[float, DensityMatrix]:
    """Outcome probability and normalized post-measurement state for one label."""
    probs = core.outcome_probabilities(inst, rho.matrix)
    labels = inst.labels
    if label not in labels:
        raise ValidationError(f"instrument has no outcome labeled {label!r}")
    p = float(probs[labels.index(label)])
    if p <= tol.validation:
        raise ZeroProbabilityOutcome(
            f"outcome {label!r} has probability {p:.3e}", probability=p
        )
    post = core.apply_outcome(inst, label, rho.matrix) / p
    return p, core.validate_density(post, tol)


def _normalize_subset(spec: HistorySpec, subset) -> tuple[int, ...]:
    """Sorted tuple of 1-based measured positions; rejects anything else."""
    positions = tuple(sorted(set(int(k) for k in subset)))
    measured = set(spec.measured_positions)
    for k in positions:
        if k not in measured:
            raise SubsetInvalid(f"step {k} is not a measured step (measured: {sorted(measured)})")
    return positions


def _steps_with_omitted(spec: HistorySpec, subset: tuple[int, ...]) -> tuple[Step, ...]:
    return tuple(
        Step(unitary=s.unitary, instrument=None) if pos in subset else s
        for pos, s in enumerate(spec.steps, 1)
    )


def omit_functional(
    spec: HistorySpec,
    subset,
    tol: Tolerances = DEFAULT_TOLERANCES,
    budget: int = DEFAULT_PATH_PAIR_BUDGET,
) -> DecoherenceFunctional:
    """D with the instruments at ``subset`` removed (their unitaries retained)."""
    positions = _normalize_subset(spec, subset)
    return _functional_from_steps(
        spec.initial, _steps_with_omitted(spec, positions), tol, budget
    )


def marginal_functional(
    spec: HistorySpec,
    subset,
    tol: Tolerances = DEFAULT_TOLERANCES,
    budget: int = DEFAULT_PATH_PAIR_BUDGET,
    method: str = "channel",
) -> DecoherenceFunctional:
    """D summed over the outcomes at ``subset``, set equal on both sides.

    Two independent routes are kept deliberately: ``channel`` walks path-pair
    states, applying the measure-and-forget map at the marginalized steps;
    ``pathsum`` builds the full functional and sums matching path pairs. Their
    agreement is a tested invariant, not an implementation shortcut.
    """
    positions = _normalize_subset(spec, subset)
    if method == "pathsum":
        return _marginal_by_pathsum(spec, positions, tol, budget)
    if method != "channel":
        raise ValidationError(f"unknown marginalization method {method!r}")
    remaining = [(pos, spec.instrument_at(pos))
                 for pos in spec.measured_positions if pos not in positions]
    _check_budget([len(inst.effects) for _, inst in remaining], budget, "path pairs", pairs=True)
    modes = {pos: "forget" if pos in positions else "pair" for pos in spec.measured_positions}
    values = np.einsum("abii->ab", _walk(spec.initial, spec.steps, modes))
    paths, labels = _enumerate_paths([inst for _, inst in remaining])
    return _validated_functional(values, paths, labels, tuple(pos for pos, _ in remaining), tol)


def _marginal_by_pathsum(
    spec: HistorySpec,
    subset: tuple[int, ...],
    tol: Tolerances,
    budget: int,
) -> DecoherenceFunctional:
    full = _functional_from_steps(spec.initial, spec.steps, tol, budget)
    keep = [j for j, pos in enumerate(full.positions) if pos not in subset]
    drop = [j for j, pos in enumerate(full.positions) if pos in subset]
    remaining_inst = [spec.instrument_at(full.positions[j]) for j in keep]
    paths, labels = _enumerate_paths(remaining_inst)
    index_of = {p: k for k, p in enumerate(paths)}
    reduced_idx = np.array(
        [index_of[tuple(p[j] for j in keep)] for p in full.paths], dtype=np.intp
    )
    group_key = [tuple(p[j] for j in drop) for p in full.paths]
    group_ids: dict[tuple, int] = {}
    group_idx = np.array([group_ids.setdefault(g, len(group_ids)) for g in group_key])
    mask = group_idx[:, None] == group_idx[None, :]
    values = np.zeros((len(paths), len(paths)), dtype=np.complex128)
    np.add.at(
        values,
        (reduced_idx[:, None], reduced_idx[None, :]),
        full.values * mask,
    )
    positions = tuple(full.positions[j] for j in keep)
    return _validated_functional(values, paths, labels, positions, tol)


def _validated_functional(values, paths, labels, positions, tol) -> DecoherenceFunctional:
    herm = float(np.max(np.abs(values - values.conj().T)))
    if herm > tol.validation:
        raise ValidationError(f"functional not Hermitian in paths: residual {herm:.3e}")
    total = float(np.diagonal(values).real.sum())
    if abs(total - 1.0) > tol.validation:
        raise ValidationError(f"functional diagonal sums to {total:.12g}, not 1")
    return DecoherenceFunctional(paths=tuple(paths), values=values,
                                 positions=tuple(positions), labels=tuple(labels))


# ---------------------------------------------------------------------------
# Branch-state propagation. D needs path operators (_kraus_products); the
# measurement-based criterion, the exact protocol mode and the channel route
# of marginal_functional need branch states, evolved with each measurement
# kept, forgotten or skipped. Label distributions never need full
# functionals, and branch states can be dropped after the last kept step
# because everything later is trace preserving.
# ---------------------------------------------------------------------------


def _walk(initial: DensityMatrix, steps: tuple[Step, ...], modes: dict[int, str]) -> np.ndarray:
    """Walk a (rows, cols, dim, dim) stack of branch states X through ``steps``.

    ``modes`` maps measured 1-based positions to
      'pair'    X[a, b] -> A_e X[a, b] A_f' for every effect pair (rows and
                cols both grow: the path-pair tensor whose traces are D);
      'branch'  X[a] -> sum_i A_{mu i} X[a] A_{mu i}' for every label mu;
      'forget'  X -> sum_{mu i} A X A' (performed, outcome discarded);
      'skip'    X unchanged (instrument omitted).
    The walk ends at the last 'pair' or 'branch' step. A 'pair' walk returns
    the stack there; a 'branch' walk returns the (branches, labels) outcome
    probabilities of that step, computed state by state so each row equals
    outcome_probabilities of its single state bit for bit.

    A declared pure state is walked as a (branches, dim, rank) stack W of
    vectors standing for X = W W' (see _pure_step). The walk forms W W' once
    and continues dense when the next step is 'pair' or would raise the rank
    above dim.
    """
    last = max((pos for pos, mode in modes.items() if mode in ("pair", "branch")), default=0)
    dim = initial.dim
    vectors = None if initial.vector is None else initial.vector[np.newaxis, :, np.newaxis]
    states = initial.matrix[np.newaxis, np.newaxis] if vectors is None else None
    for pos, step in enumerate(steps[:last], 1):
        inst, mode = step.instrument, modes.get(pos, "skip")
        if vectors is not None:
            vectors = core.apply_unitary(step.unitary, vectors)
            if mode == "branch" and pos == last:
                return core.vector_probabilities(inst, vectors)
            grown = _pure_step(inst, mode, vectors)
            if grown is not None:
                vectors = grown
                continue
            states, vectors = _density_stack(vectors), None
        else:
            # Two products, not U X U' at once: at most two stacks are alive.
            states = core.apply_unitary(step.unitary, states)
            states = core.apply_unitary(step.unitary, states, "right")
        if mode == "forget":
            states = core.apply_channel(inst, states)
        elif mode == "pair":
            a = np.array([e.matrix for e in inst.effects])
            left = a[:, np.newaxis] @ states[:, np.newaxis]
            states = left[:, :, :, np.newaxis] @ a.conj().transpose(0, 2, 1)
            states = states.reshape(left.shape[0] * len(a), -1, dim, dim)
        elif mode == "branch" and pos == last:
            return np.array([core.outcome_probabilities(inst, x) for x in states[:, 0]])
        elif mode == "branch":
            out = np.empty((len(states), len(inst.labels), dim, dim), dtype=np.complex128)
            for m, label in enumerate(inst.labels):
                out[:, m] = core.apply_outcome(inst, label, states[:, 0])
            states = out.reshape(-1, 1, dim, dim)
    return states if vectors is None else _density_stack(vectors)


def _density_stack(vectors: np.ndarray) -> np.ndarray:
    """The (branches, 1, dim, dim) stack W W' of a (branches, dim, rank) stack W."""
    return (vectors @ core.dagger(vectors))[:, np.newaxis]


def _pure_step(inst: Instrument | None, mode: str, vectors: np.ndarray) -> np.ndarray | None:
    """The vector stack after one 'skip', 'forget' or non-final 'branch' step,
    or None where the walk must go dense: a 'pair' step, or a rank that would
    exceed dim.

    'forget' multiplies the rank by the number of effects. 'branch' splits
    each branch by label and multiplies the rank by the largest number of
    effects under one label; labels with fewer effects are padded with zero
    columns, which leave W W' unchanged.
    """
    if mode == "skip":
        return vectors
    if mode == "pair":
        return None
    if mode == "forget":
        groups = [range(len(inst.effects))]
    else:
        groups = [idxs for _, idxs in inst._label_groups]
    branches, dim, rank = vectors.shape
    width = rank * max(len(idxs) for idxs in groups)
    if width > dim:
        return None
    out = np.zeros((branches, len(groups), dim, width), dtype=np.complex128)
    for m, idxs in enumerate(groups):
        out[:, m, :, :rank * len(idxs)] = core.kraus_columns(inst, idxs, vectors)
    return out.reshape(-1, dim, width)


def _label_distribution(
    spec: HistorySpec, subset, omitted: str, budget: int
) -> dict[tuple[str, ...], float]:
    """Distribution over label tuples of the measured steps outside ``subset``,
    whose instruments are walked in mode ``omitted`` ('forget' or 'skip')."""
    positions = _normalize_subset(spec, subset)
    kept = [pos for pos in spec.measured_positions if pos not in positions]
    if not kept:
        psi = spec.initial.vector
        trace = np.trace(spec.initial.matrix) if psi is None else np.vdot(psi, psi)
        return {(): float(trace.real)}
    label_sets = [spec.instrument_at(pos).labels for pos in kept]
    _check_budget([len(labels) for labels in label_sets], budget, "outcome branches")
    modes = {pos: omitted if pos in positions else "branch" for pos in spec.measured_positions}
    probs = _walk(spec.initial, spec.steps, modes)
    return dict(zip(itertools.product(*label_sets), probs.ravel().tolist()))


def marginal_distribution(
    spec: HistorySpec,
    subset,
    tol: Tolerances = DEFAULT_TOLERANCES,
    budget: int = DEFAULT_PATH_PAIR_BUDGET,
) -> dict[tuple[str, ...], float]:
    """Label distribution over remaining steps with ``subset`` performed-and-ignored.

    Equals grouped_diagonal(marginal_functional(spec, subset)); the equality is
    a tested invariant.
    """
    return _label_distribution(spec, subset, "forget", budget)


def omitted_distribution(
    spec: HistorySpec,
    subset,
    tol: Tolerances = DEFAULT_TOLERANCES,
    budget: int = DEFAULT_PATH_PAIR_BUDGET,
) -> dict[tuple[str, ...], float]:
    """Label distribution over remaining steps with ``subset`` not measured at all."""
    return _label_distribution(spec, subset, "skip", budget)
