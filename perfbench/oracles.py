"""Independent recomputations the benchmark checks decohist's answers against."""

from __future__ import annotations

import itertools

import numpy as np

import decohist as dh


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def kent_residuals(spec, tol=dh.DEFAULT_TOLERANCES, policy: str = "all") -> np.ndarray:
    """|coarse-grained lhs - summed fine-grained diagonal| for every Kent
    selection, flattened in check_kent's itertools.product order.

    Built level by level over stacks instead of one selection at a time: the
    coarse operators of all selections are expanded step by step like the
    path operators of D, and the right-hand sides come from contracting the
    fine diagonal with one subset-indicator matrix per measured step."""
    kent = dh.KentSpec.from_history(spec, tol, policy)
    by_position = {step.position: step for step in kent.steps}
    dim = spec.dim
    fine = np.eye(dim, dtype=np.complex128)[np.newaxis]
    coarse = fine.copy()
    indicators = []
    for pos, step in enumerate(spec.steps, 1):
        u = step.unitary.matrix
        fine = u @ fine
        coarse = u @ coarse
        if step.instrument is None:
            continue
        kstep = by_position[pos]
        effects = np.array(kstep.effects)
        roots = np.array([_sqrt_psd(sum(effects[i] @ effects[i] for i in s))
                          for s in kstep.subsets])
        fine = np.einsum("eij,ajk->aeik", effects, fine).reshape(-1, dim, dim)
        coarse = np.einsum("sij,ajk->asik", roots, coarse).reshape(-1, dim, dim)
        indicator = np.zeros((len(kstep.subsets), len(effects)))
        for row, s in enumerate(kstep.subsets):
            indicator[row, list(s)] = 1.0
        indicators.append(indicator)
    rho = spec.initial.matrix
    n = len(indicators)
    diag = np.einsum("aij,jk,aik->a", fine, rho, fine.conj()).real
    diag = diag.reshape([m.shape[1] for m in indicators])
    operands = [diag, list(range(n))]
    for j, m in enumerate(indicators):
        operands += [m, [n + j, j]]
    rhs = np.einsum(*operands, list(range(n, 2 * n))).ravel()
    lhs = np.einsum("aij,jk,aik->a", coarse, rho, coarse.conj()).real
    return np.abs(lhs - rhs)


def subset_residual_pathsum(spec, subset, tol=dh.DEFAULT_TOLERANCES) -> float:
    """Measurement-based residual of one subset, with the performed-and-ignored
    side taken from the path-sum marginal functional instead of the
    diagonal-only propagation check_measurement_based uses."""
    skipped = dh.omitted_distribution(spec, subset, tol)
    pathsum = dh.marginal_functional(spec, subset, tol, method="pathsum")
    forgotten = dh.grouped_diagonal(pathsum, tol)
    keys = set(skipped) | set(forgotten)
    return max(abs(skipped.get(k, 0.0) - forgotten.get(k, 0.0)) for k in keys)


def all_subsets(spec) -> list[tuple[int, ...]]:
    measured = spec.measured_positions
    return sorted(s for size in range(len(measured) + 1)
                  for s in itertools.combinations(measured, size))
