"""The two-ensemble Monte Carlo decoherence test.

Two ensembles are prepared in the same state. Ensemble A runs the history as
declared, performing the measurements at the chosen subset S and discarding
their results; ensemble B skips the S-measurements entirely (their unitaries
are kept and composed). If the histories decohere with respect to S, the
empirical distributions of the remaining outcomes agree.

The statistical verdict is a two-sample chi-square on pooled categories
rather than a TV threshold: TV has no distribution-free finite-sample cutoff,
while chi-square gives a principled significance level. The analytic exact TV
is also reported so the statistical layer is auditable.

RNG contract: a counter-based Philox generator keyed by the seed. Ensemble e
draws from counter block [0, 0, 0, e]; trajectory t consumes row t of the
uniform table, i.e. a stream fully determined by (seed, ensemble, trajectory).
Counts are integers aggregated by trajectory index, so results are
bit-identical regardless of execution order or parallelism degree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from . import core
from .core import DEFAULT_TOLERANCES, Tolerances
from .errors import NumericalUnderflow, ValidationError
from .histories import (
    HistorySpec,
    Step,
    _normalize_subset,
    _steps_with_omitted,
    marginal_distribution,
    omitted_distribution,
)

_U64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    spec: HistorySpec
    subset: tuple[int, ...]
    shots: int
    seed: int
    alpha: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "subset", _normalize_subset(self.spec, self.subset))
        if not isinstance(self.shots, int) or self.shots < 1:
            raise ValidationError("shots must be a positive integer")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        object.__setattr__(self, "seed", int(self.seed) & _U64)


@dataclass(frozen=True)
class ProtocolResult:
    """Empirical distributions (counts/shots over remaining-label tuples),
    their TV distance, the analytic exact TV, and the chi-square verdict."""

    dist_with: dict
    dist_without: dict
    tv_distance: float
    exact_tv: float
    consistent: bool
    statistic: float | None
    p_value: float | None
    dof: int | None
    mode: str


def tv_distance(p: dict, q: dict) -> float:
    """(1/2) sum |p - q| over the union of categories (missing keys count 0),
    summed in sorted key order so the result does not depend on hash order."""
    keys = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def sample_history(
    spec: HistorySpec,
    rng_stream: np.random.Generator,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[str, ...]:
    """Sample one trajectory; returns the outcome-label sequence.

    Each measured step draws one uniform from ``rng_stream`` and picks the
    outcome by inverse CDF over canonically ordered labels.
    """
    rho = np.array(spec.initial.matrix)
    out = []
    for step in spec.steps:
        u = step.unitary.matrix
        rho = u @ rho @ u.conj().T
        inst = step.instrument
        if inst is None:
            continue
        probs = core.outcome_probabilities(inst, rho)
        total = float(probs.sum())
        if total < tol.validation:
            raise NumericalUnderflow(f"all outcome probabilities below {tol.validation}")
        cum = np.cumsum(probs)
        draw = rng_stream.random() * total
        idx = min(int(np.searchsorted(cum, draw, side="right")), len(probs) - 1)
        label = inst.labels[idx]
        rho = core.apply_outcome(inst, label, rho) / probs[idx]
        out.append(label)
    return tuple(out)


def _ensemble_stream(seed: int, ensemble: int) -> np.random.Generator:
    """Philox stream for one ensemble; trajectory t owns row t of the table."""
    bit_gen = np.random.Philox(key=seed & _U64, counter=[0, 0, 0, ensemble])
    return np.random.Generator(bit_gen)


def _sample_counts(
    initial: np.ndarray,
    steps: tuple[Step, ...],
    shots: int,
    seed: int,
    ensemble: int,
    tol: Tolerances,
) -> Counter:
    """Batched trajectory sampling, bit-identical to looping sample_history
    over the same stream (one uniform per measured step per trajectory)."""
    measured = [(k, s.instrument) for k, s in enumerate(steps) if s.instrument is not None]
    if not measured:
        return Counter({(): shots})
    uniforms = _ensemble_stream(seed, ensemble).random((shots, len(measured)))
    last_measured = measured[-1][0]
    dim = initial.shape[0]
    states = np.broadcast_to(initial, (shots, dim, dim)).copy()
    outcome_labels: list[np.ndarray] = []
    cursor = 0
    for k, step in enumerate(steps):
        if k > last_measured:
            break
        u = step.unitary.matrix
        states = np.matmul(np.matmul(u, states), u.conj().T)
        inst = step.instrument
        if inst is None:
            continue
        probs = core.outcome_probabilities(inst, states)
        totals = probs.sum(axis=1)
        if float(totals.min()) < tol.validation:
            raise NumericalUnderflow(f"all outcome probabilities below {tol.validation}")
        cum = np.cumsum(probs, axis=1)
        draws = uniforms[:, cursor] * totals
        idx = np.minimum((cum <= draws[:, np.newaxis]).sum(axis=1), probs.shape[1] - 1)
        labels = np.array(inst.labels)
        outcome_labels.append(labels[idx])
        cursor += 1
        if k != last_measured:
            for m in range(len(inst.labels)):
                mask = idx == m
                if not np.any(mask):
                    continue
                updated = core.apply_outcome(inst, inst.labels[m], states[mask])
                states[mask] = updated / probs[mask, m][:, np.newaxis, np.newaxis]
    return Counter(zip(*(col.tolist() for col in outcome_labels)))


def run_protocol(
    cfg: ProtocolConfig,
    tol: Tolerances = DEFAULT_TOLERANCES,
    mode: str = "sample",
) -> ProtocolResult:
    """Run the two-ensemble test.

    mode='sample' performs Monte Carlo trajectories (the operational test);
    mode='exact' substitutes the analytic distributions of both ensembles, a
    fast check that must agree with the marginalized functional's diagonals.
    """
    spec = cfg.spec
    subset = cfg.subset
    measured = spec.measured_positions
    remaining = tuple(pos for pos in measured if pos not in subset)

    exact_with = marginal_distribution(spec, subset, tol)
    exact_without = omitted_distribution(spec, subset, tol)
    exact = tv_distance(exact_with, exact_without)

    if mode == "exact":
        dist_with = _sorted_dist(exact_with)
        dist_without = _sorted_dist(exact_without)
        return ProtocolResult(
            dist_with=dist_with,
            dist_without=dist_without,
            tv_distance=exact,
            exact_tv=exact,
            consistent=exact <= tol.decoherence,
            statistic=None,
            p_value=None,
            dof=None,
            mode="exact",
        )
    if mode != "sample":
        raise ValidationError(f"unknown protocol mode {mode!r}")

    # Ensemble A performs every declared measurement and discards the labels
    # at the subset positions (measure and ignore, not the channel shortcut).
    counts_a_full = _sample_counts(spec.initial.matrix, spec.steps, cfg.shots, cfg.seed, 0, tol)
    counts_a: Counter = Counter()
    for key, c in counts_a_full.items():
        projected = tuple(lbl for pos, lbl in zip(measured, key) if pos not in subset)
        counts_a[projected] += c
    steps_b = _steps_with_omitted(spec, subset)
    counts_b = _sample_counts(spec.initial.matrix, steps_b, cfg.shots, cfg.seed, 1, tol)

    dist_with = _sorted_dist({k: c / cfg.shots for k, c in counts_a.items()})
    dist_without = _sorted_dist({k: c / cfg.shots for k, c in counts_b.items()})
    statistic, p_value, dof = _chi_square_two_sample(counts_a, counts_b)
    return ProtocolResult(
        dist_with=dist_with,
        dist_without=dist_without,
        tv_distance=tv_distance(dist_with, dist_without),
        exact_tv=exact,
        consistent=bool(p_value >= cfg.alpha),
        statistic=statistic,
        p_value=p_value,
        dof=dof,
        mode="sample",
    )


def _sorted_dist(d: dict) -> dict:
    return {k: float(d[k]) for k in sorted(d)}


def _chi_square_two_sample(counts1: Counter, counts2: Counter) -> tuple[float, float, int]:
    """Two-sample homogeneity chi-square with pooled expected counts.

    Categories whose pooled count is below 5 are merged into a single trailing
    'other' bin; dof = bins - 1; a single surviving bin yields p = 1.
    """
    keys = sorted(set(counts1) | set(counts2))
    n1 = sum(counts1.values())
    n2 = sum(counts2.values())
    kept1, kept2 = [], []
    other1 = other2 = 0
    for key in keys:
        c1, c2 = counts1.get(key, 0), counts2.get(key, 0)
        if c1 + c2 < 5:
            other1 += c1
            other2 += c2
        else:
            kept1.append(c1)
            kept2.append(c2)
    if other1 + other2 > 0:
        kept1.append(other1)
        kept2.append(other2)
    o1 = np.array(kept1, dtype=float)
    o2 = np.array(kept2, dtype=float)
    dof = len(o1) - 1
    if dof == 0:
        return 0.0, 1.0, 0
    pooled = (o1 + o2) / (n1 + n2)
    e1 = n1 * pooled
    e2 = n2 * pooled
    statistic = float(np.sum((o1 - e1) ** 2 / e1) + np.sum((o2 - e2) ** 2 / e2))
    p_value = float(chdtrc(dof, statistic))
    return statistic, p_value, dof
