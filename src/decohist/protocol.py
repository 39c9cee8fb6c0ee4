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
uniform table (one uniform per measured step), i.e. a stream fully determined
by (seed, ensemble, trajectory). The table is drawn chunk by chunk from that
one stream, and consecutive chunks are the rows a single draw would give, so
row t is still trajectory t. Counts are integers aggregated by trajectory
index, so results are bit-identical regardless of chunk size, execution order
or parallelism degree.

Within a chunk, trajectories that share an outcome prefix share one state.
The sampler therefore holds O(min(chunk, prefixes) * d^2 + chunk * steps)
numbers, independent of the number of shots.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

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
# Rows of the uniform table sampled together; bounds the sampler's memory.
_CHUNK_ROWS = 1 << 16


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
        rho = core.apply_unitary(step.unitary, rho, "both")
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
    """Prefix-grouped trajectory sampling, bit-identical to looping
    sample_history over the same stream (one uniform per measured step per
    trajectory).

    Rows of the uniform table are drawn _CHUNK_ROWS at a time; each chunk is
    sampled on its own, so memory does not grow with ``shots``."""
    measured = [k for k, s in enumerate(steps) if s.instrument is not None]
    if not measured:
        return Counter({(): shots})
    steps = steps[: measured[-1] + 1]
    instruments = [steps[k].instrument for k in measured]
    stream = _ensemble_stream(seed, ensemble)
    counts: Counter = Counter()
    for start in range(0, shots, _CHUNK_ROWS):
        uniforms = stream.random((min(_CHUNK_ROWS, shots - start), len(measured)))
        history, hits = _sample_chunk(initial, steps, uniforms, tol)
        for row, c in zip(history.tolist(), hits.tolist()):
            counts[tuple(inst.labels[i] for inst, i in zip(instruments, row))] += c
    return counts


def _sample_chunk(
    initial: np.ndarray,
    steps: tuple[Step, ...],
    uniforms: np.ndarray,
    tol: Tolerances,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one chunk of trajectories, one state per distinct outcome prefix.

    Row t of ``uniforms`` is trajectory t; ``code[t]`` indexes its prefix in
    ``states`` (post-measurement states) and ``history`` (outcome indices).
    ``steps`` must end at the last measured step. Returns every outcome
    sequence that occurred, as a row of outcome indices per measured step,
    and the number of trajectories that took it."""
    states = initial[np.newaxis].copy()
    code = np.zeros(len(uniforms), dtype=np.intp)
    history = np.zeros((1, 0), dtype=np.intp)
    column = 0
    for k, step in enumerate(steps):
        states = core.apply_unitary(step.unitary, states, "both")
        inst = step.instrument
        if inst is None:
            continue
        probs = core.outcome_probabilities(inst, states)
        totals = probs.sum(axis=1)
        if float(totals.min()) < tol.validation:
            raise NumericalUnderflow(f"all outcome probabilities below {tol.validation}")
        cum = np.cumsum(probs, axis=1)
        m = probs.shape[1]
        draws = uniforms[:, column] * totals[code]
        idx = np.minimum((cum[code] <= draws[:, np.newaxis]).sum(axis=1), m - 1)
        column += 1
        pairs, code = np.unique(code * m + idx, return_inverse=True)
        parent, outcome = np.divmod(pairs, m)
        history = np.column_stack((history[parent], outcome))
        if k == len(steps) - 1:
            break
        updated = np.empty_like(states, shape=(len(pairs),) + states.shape[1:])
        for o in np.unique(outcome).tolist():
            sel = outcome == o
            rows = parent[sel]
            post = core.apply_outcome(inst, inst.labels[o], states[rows])
            updated[sel] = post / probs[rows, o][:, np.newaxis, np.newaxis]
        states = updated
    return history, np.bincount(code, minlength=len(history))


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


def _chi_square_tail(dof: int, x: float) -> float:
    """P(chi-square with integer ``dof`` > x).

    Q = [erfc(sqrt(x/2)) if dof is odd] + sum_j (x/2)^j e^(-x/2) / Gamma(j + 1)
    over j = h, h + 1, ..., dof/2 - 1 with h = (dof mod 2)/2. Each term is
    formed in log space, so large dof cannot overflow.
    """
    if x <= 0:
        return 1.0
    half = x / 2
    log_half = math.log(half)
    offset = (dof % 2) / 2
    head = math.erfc(math.sqrt(half)) if dof % 2 else 0.0
    terms = (math.exp((k + offset) * log_half - half - math.lgamma(k + offset + 1))
             for k in range(dof // 2))
    return min(1.0, head + math.fsum(terms))


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
    p_value = _chi_square_tail(dof, statistic)
    return statistic, p_value, dof
