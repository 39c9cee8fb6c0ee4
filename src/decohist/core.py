"""Validated complex-matrix algebra and quantum measurement primitives.

Everything is dimensionless, hbar = 1. Operators are dense square complex128
arrays unless they declare a structure by a 1-d vector:

- a measurement effect may declare a diagonal effect by its diagonal; an
  instrument whose effects all declare diagonals gets O(k d) channels and
  probabilities;
- a state may declare the pure state psi psi' by its vector psi, validated
  in O(d) and propagated as vectors where the consumer supports it;
- a unitary may declare U = F' diag(phi) F by its phases phi in the basis of
  the unitary DFT F, validated in O(d) and applied with np.fft in
  O(d log d) per vector (apply_unitary).

The structure is declared, never detected: a dense matrix that happens to be
diagonal, rank one or circulant takes the generic path. A declared operator's
``matrix`` is expanded on demand and not cached, so only the consumers that
need a dense matrix pay d^2 bytes. Arrays held by the value types are
read-only copies, so every value is immutable after construction and safe to
share across threads.

Tolerances are absolute, not relative: every matrix in scope (states,
projectors, contractions) has entries bounded by about 1, so an absolute
threshold on entries and probabilities is meaningful.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IncompleteInstrument,
    NotHermitian,
    NotPSD,
    NotUnitary,
    TraceNotOne,
    ValidationError,
)


@dataclass(frozen=True)
class Tolerances:
    """Absolute tolerances: ``validation`` guards matrix invariants,
    ``decoherence`` is the verdict threshold for the criteria."""

    validation: float = 1e-9
    decoherence: float = 1e-9

    def __post_init__(self):
        # An infinite tolerance would pass every check vacuously.
        if not all(0 < t < math.inf for t in (self.validation, self.decoherence)):
            raise ValidationError("tolerances must be finite and positive")


DEFAULT_TOLERANCES = Tolerances()


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce input to a read-only square complex128 array.

    Rejects non-square shapes and non-finite entries. Always copies, so the
    caller cannot mutate the result through the original object.
    """
    arr = np.array(m, dtype=np.complex128, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def as_complex_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce input to a read-only nonempty 1-d complex128 array (a copy)."""
    arr = np.array(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be a nonempty vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def hermiticity_residual(m: np.ndarray) -> float:
    """max |M - M'| over entries."""
    return float(np.max(np.abs(m - m.conj().T)))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of every matrix, for a stack)."""
    return m.conj().swapaxes(-1, -2)


def _declared_operator(op, name: str, vector_name: str) -> np.ndarray:
    """A 1-d input is a declared vector, anything else a square matrix."""
    if np.ndim(op) == 1:
        return as_complex_vector(op, vector_name)
    return as_complex_matrix(op, name)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, PSD, unit trace. Build via validate_density.

    ``operator`` is a square matrix, or a 1-d vector psi declaring the pure
    state psi psi'.
    """

    operator: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "operator",
                           _declared_operator(self.operator, "density matrix", "state vector"))

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    @property
    def vector(self) -> np.ndarray | None:
        """The declared state vector, or None for a dense state."""
        return self.operator if self.operator.ndim == 1 else None

    @property
    def matrix(self) -> np.ndarray:
        """The dense state. A declared vector is expanded on every call, not cached."""
        if self.operator.ndim == 2:
            return self.operator
        m = np.outer(self.operator, self.operator.conj())
        m.setflags(write=False)
        return m


@dataclass(frozen=True, eq=False)
class UnitaryOp:
    """A unitary evolution operator. Build via validate_unitary or
    validate_fourier_unitary.

    ``operator`` is a square matrix, or a 1-d vector of phases phi declaring
    U = F' diag(phi) F, with F the unitary DFT.
    """

    operator: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "operator",
                           _declared_operator(self.operator, "unitary", "unitary phases"))

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    @property
    def phases(self) -> np.ndarray | None:
        """The declared phases in the DFT basis, or None for a dense unitary."""
        return self.operator if self.operator.ndim == 1 else None

    @property
    def matrix(self) -> np.ndarray:
        """The dense operator. Declared phases are expanded by FFT on every
        call, not cached; propagation goes through apply_unitary instead."""
        if self.operator.ndim == 2:
            return self.operator
        m = apply_unitary(self, np.eye(self.dim, dtype=np.complex128))
        m.setflags(write=False)
        return m


@dataclass(frozen=True, eq=False)
class Effect:
    """One measurement operator A_{mu i}: outcome label mu, internal index i.

    ``operator`` is a square matrix, or a 1-d vector declaring a diagonal
    effect by its diagonal.
    """

    outcome_label: str
    internal_index: int
    operator: np.ndarray

    def __post_init__(self):
        if not isinstance(self.outcome_label, str) or not self.outcome_label:
            raise ValidationError("outcome_label must be a nonempty string")
        if not isinstance(self.internal_index, int) or self.internal_index < 0:
            raise ValidationError("internal_index must be a nonnegative integer")
        object.__setattr__(self, "operator",
                           _declared_operator(self.operator, "effect", "effect diagonal"))

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    @property
    def diagonal(self) -> np.ndarray | None:
        """The declared diagonal, or None for a dense effect."""
        return self.operator if self.operator.ndim == 1 else None

    @property
    def matrix(self) -> np.ndarray:
        """The dense operator. A declared diagonal is expanded on every call,
        not cached, so only the dense consumers that need it pay d^2 bytes."""
        if self.operator.ndim == 2:
            return self.operator
        m = np.diag(self.operator)
        m.setflags(write=False)
        return m


@dataclass(frozen=True, eq=False)
class Instrument:
    """A measurement step: effects {A_{mu i}} with sum A'A = 1.

    ``kind`` is inferred by validate_instrument, never declared, so a scenario
    file cannot lie about an instrument being projective.
    """

    effects: tuple[Effect, ...]
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(self.effects))
        if not self.effects:
            raise ValidationError("instrument needs at least one effect")
        if self.kind not in ("projective", "generalized"):
            raise ValidationError(f"unknown instrument kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.effects[0].dim

    @property
    def labels(self) -> tuple[str, ...]:
        """Outcome labels in canonical (first appearance) order."""
        seen: dict[str, None] = {}
        for e in self.effects:
            seen.setdefault(e.outcome_label, None)
        return tuple(seen)

    def effects_for(self, label: str) -> tuple[Effect, ...]:
        out = tuple(e for e in self.effects if e.outcome_label == label)
        if not out:
            raise ValidationError(f"instrument has no outcome labeled {label!r}")
        return out

    # Derived structure, computed on first use and cached on the instance so
    # it lives exactly as long as the instrument does. The payloads are small
    # (diagonals and per-label weights) except for dense POVM stacks, which
    # only arise for small dimensions in practice.

    @functools.cached_property
    def _label_groups(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(label, effect positions) in canonical label order."""
        groups: dict[str, list[int]] = {}
        for k, e in enumerate(self.effects):
            groups.setdefault(e.outcome_label, []).append(k)
        return tuple((label, tuple(pos)) for label, pos in groups.items())

    @functools.cached_property
    def _diagonal_stack(self):
        """(n_effects, dim) stack of the declared diagonals, or None."""
        return _declared_diagonals(self.effects)

    @functools.cached_property
    def _damping_matrix(self):
        """G with (G)_{xy} = sum_e d_e(x) conj(d_e(y)) for all-diagonal instruments.

        The measure-and-forget channel of such an instrument is the elementwise
        product rho * G.
        """
        ds = self._diagonal_stack
        if ds is None:
            return None
        g = np.einsum("ex,ey->xy", ds, ds.conj())
        g.setflags(write=False)
        return g

    @functools.cached_property
    def _povm_weights(self):
        """(n_labels, dim) real weights w_mu(x) = sum_i |d_{mu i}(x)|^2, diagonal case only."""
        ds = self._diagonal_stack
        if ds is None:
            return None
        w = np.empty((len(self._label_groups), self.dim))
        for row, (_, idxs) in enumerate(self._label_groups):
            w[row] = np.sum(np.abs(ds[list(idxs)]) ** 2, axis=0)
        w.setflags(write=False)
        return w

    @functools.cached_property
    def _povm_dense(self) -> np.ndarray:
        """(n_labels, dim, dim) stack of POVM elements E_mu = sum_i A'A."""
        out = np.zeros((len(self._label_groups), self.dim, self.dim), dtype=np.complex128)
        for row, (_, idxs) in enumerate(self._label_groups):
            for k in idxs:
                a = self.effects[k].matrix
                out[row] += dagger(a) @ a
        out.setflags(write=False)
        return out


def _declared_diagonals(effects: tuple[Effect, ...]):
    """(n_effects, dim) stack of diagonals if every effect declares one, else None."""
    if any(e.diagonal is None for e in effects):
        return None
    out = np.array([e.diagonal for e in effects])
    out.setflags(write=False)
    return out


def validate_density(m, tol: Tolerances = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Validate Hermiticity, positivity and unit trace; report the violation.

    A 1-d input declares a pure state by its vector: it must be finite with
    squared norm 1, which is all that is left to check in O(d)."""
    if np.ndim(m) == 1:
        psi = as_complex_vector(m, "state vector")
        norm = float(np.sum(psi.real**2 + psi.imag**2))
        if abs(norm - 1.0) > tol.validation:
            raise TraceNotOne(f"state vector squared norm {norm:.12g} != 1", trace=norm)
        return DensityMatrix(psi)
    arr = as_complex_matrix(m, "density matrix")
    herm = hermiticity_residual(arr)
    if herm > tol.validation:
        raise NotHermitian(f"density matrix not Hermitian: residual {herm:.3e}", residual=herm)
    eigs = np.linalg.eigvalsh((arr + dagger(arr)) / 2)
    min_eig = float(eigs[0])
    if min_eig < -tol.validation:
        raise NotPSD(f"density matrix not PSD: min eigenvalue {min_eig:.3e}", min_eigenvalue=min_eig)
    trace = complex(np.trace(arr))
    if abs(trace - 1.0) > tol.validation:
        raise TraceNotOne(f"density matrix trace {trace:.12g} != 1", trace=trace)
    return DensityMatrix(arr)


def validate_unitary(m, tol: Tolerances = DEFAULT_TOLERANCES) -> UnitaryOp:
    """Validate |U'U - 1| <= tolerance."""
    arr = as_complex_matrix(m, "unitary")
    residual = float(np.max(np.abs(dagger(arr) @ arr - np.eye(arr.shape[0]))))
    if residual > tol.validation:
        raise NotUnitary(f"operator not unitary: residual {residual:.3e}", residual=residual)
    return UnitaryOp(arr)


def validate_fourier_unitary(phases, tol: Tolerances = DEFAULT_TOLERANCES) -> UnitaryOp:
    """Declare U = F' diag(phases) F in the unitary DFT basis F.

    U is unitary iff every |phase| is 1, checked in O(d)."""
    phi = as_complex_vector(phases, "unitary phases")
    residual = float(np.max(np.abs(np.abs(phi) - 1.0)))
    if residual > tol.validation:
        raise NotUnitary(f"phases not unimodular: residual {residual:.3e}", residual=residual)
    return UnitaryOp(phi)


def apply_unitary(u: UnitaryOp, x: np.ndarray, side: str = "left") -> np.ndarray:
    """U x ('left'), x U' ('right') or U x U' ('both') for a (..., dim, n) stack x.

    A dense U takes plain matrix products, and 'both' is (U x) U'. Declared
    phases act column by column through np.fft, O(d log d) per column, and
    the right factor uses x U' = (U x')'."""
    if side == "both":
        return apply_unitary(u, apply_unitary(u, x), "right")
    phases = u.phases
    if side == "right":
        return x @ u.operator.conj().T if phases is None else dagger(apply_unitary(u, dagger(x)))
    if phases is None:
        return u.operator @ x
    spectrum = phases[:, np.newaxis] * np.fft.fft(x, axis=-2, norm="ortho")
    return np.fft.ifft(spectrum, axis=-2, norm="ortho")


def _is_projective(effects: tuple[Effect, ...], ds, tol: Tolerances) -> bool:
    """Projective iff Hermitian, idempotent, mutually exclusive, one index per label.

    With a stack ``ds`` of declared diagonals the three tests are taken entry
    by entry: they bound the same residuals as the dense products, whose
    off-diagonal entries are all zero."""
    labels = [e.outcome_label for e in effects]
    if len(set(labels)) != len(labels):
        return False
    if ds is not None:
        if float(np.max(np.abs(ds - ds.conj()))) > tol.validation:
            return False
        if float(np.max(np.abs(ds * ds - ds))) > tol.validation:
            return False
        return all(float(np.max(np.abs(ds[i] * ds[i + 1:]), initial=0.0)) <= tol.validation
                   for i in range(len(ds)))
    mats = [e.matrix for e in effects]
    for a in mats:
        if hermiticity_residual(a) > tol.validation:
            return False
        if float(np.max(np.abs(a @ a - a))) > tol.validation:
            return False
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            if i != j and float(np.max(np.abs(a @ b))) > tol.validation:
                return False
    return True


def validate_instrument(effects, tol: Tolerances = DEFAULT_TOLERANCES) -> Instrument:
    """Validate completeness and classify the instrument's kind."""
    effects = tuple(effects)
    if not effects:
        raise ValidationError("instrument needs at least one effect")
    dim = effects[0].dim
    for e in effects:
        if e.dim != dim:
            raise DimensionMismatch(f"effect dims differ: {e.dim} vs {dim}")
    pairs = [(e.outcome_label, e.internal_index) for e in effects]
    if len(set(pairs)) != len(pairs):
        raise ValidationError("duplicate (label, index) pair in instrument")
    diags = _declared_diagonals(effects)
    if diags is not None:  # sum A'A is diagonal too: O(k d) instead of k dense products
        residual = float(np.max(np.abs(np.sum(diags.real**2 + diags.imag**2, axis=0) - 1.0)))
    else:
        total = np.zeros((dim, dim), dtype=np.complex128)
        for e in effects:
            total += dagger(e.matrix) @ e.matrix
        residual = float(np.max(np.abs(total - np.eye(dim))))
    if residual > tol.validation:
        raise IncompleteInstrument(
            f"effects incomplete: |sum A'A - 1| = {residual:.3e}", residual=residual
        )
    kind = "projective" if _is_projective(effects, diags, tol) else "generalized"
    inst = Instrument(effects=effects, kind=kind)
    object.__setattr__(inst, "_diagonal_stack", diags)  # shared with the checks above
    return inst


def psd_sqrt(m, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-tolerance, 0) are clipped to 0; anything lower is an
    error. Dims here are small enough that eigendecomposition beats iterative
    schemes on clarity with no meaningful cost.
    """
    arr = as_complex_matrix(m, "psd_sqrt input")
    herm = hermiticity_residual(arr)
    if herm > tol.validation:
        raise NotHermitian(f"psd_sqrt input not Hermitian: residual {herm:.3e}", residual=herm)
    w, v = np.linalg.eigh((arr + dagger(arr)) / 2)
    min_eig = float(w[0])
    if min_eig < -tol.validation:
        raise NotPSD(f"psd_sqrt input has eigenvalue {min_eig:.3e}", min_eigenvalue=min_eig)
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ dagger(v)
    root = (root + dagger(root)) / 2
    root.setflags(write=False)
    return root


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with row-major index convention:
    the joint index of (r_a, r_b) is r_a * dim(b) + r_b."""
    out = np.kron(as_complex_matrix(a, "tensor factor"), as_complex_matrix(b, "tensor factor"))
    out.setflags(write=False)
    return out


def state_statistics(rho: DensityMatrix, obs, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[float, float]:
    """Mean and standard deviation of a Hermitian observable in state rho."""
    o = as_complex_matrix(obs, "observable")
    if o.shape[0] != rho.dim:
        raise DimensionMismatch(f"observable dim {o.shape[0]} != state dim {rho.dim}")
    herm = hermiticity_residual(o)
    if herm > tol.validation:
        raise NotHermitian(f"observable not Hermitian: residual {herm:.3e}", residual=herm)
    mean_c = complex(np.einsum("ij,ji->", rho.matrix, o))
    if abs(mean_c.imag) > tol.validation:
        raise ValidationError(f"mean has imaginary residual {mean_c.imag:.3e}")
    mean = mean_c.real
    second = complex(np.einsum("ij,jk,ki->", rho.matrix, o, o)).real
    var = second - mean * mean
    if var < -tol.validation:
        raise ValidationError(f"negative variance {var:.3e}")
    return mean, float(np.sqrt(max(var, 0.0)))


def apply_channel(inst: Instrument, x: np.ndarray) -> np.ndarray:
    """Measure-and-forget map: x -> sum_{mu i} A x A'."""
    g = inst._damping_matrix
    if g is not None:
        return x * g
    out = np.zeros_like(x)
    for e in inst.effects:
        out += e.matrix @ x @ dagger(e.matrix)
    return out


def outcome_probabilities(inst: Instrument, x: np.ndarray) -> np.ndarray:
    """tr(E_mu x) for each outcome label in canonical order (real parts).

    ``x`` may be a stack of states; the label axis is last."""
    w = inst._povm_weights
    if w is not None:
        diag = np.diagonal(x, axis1=-2, axis2=-1).real
        return np.matmul(w, diag[..., np.newaxis])[..., 0]
    return np.einsum("mij,...ji->...m", inst._povm_dense, x).real


def apply_outcome(inst: Instrument, label: str, x: np.ndarray) -> np.ndarray:
    """Unnormalized post-measurement state sum_i A_{mu i} x A'_{mu i} for label mu."""
    ds = inst._diagonal_stack
    idxs = dict(inst._label_groups).get(label)
    if idxs is None:
        raise ValidationError(f"instrument has no outcome labeled {label!r}")
    if ds is not None:
        rows = ds[list(idxs)]
        g = np.einsum("ex,ey->xy", rows, rows.conj())
        return x * g
    out = np.zeros_like(x)
    for k in idxs:
        a = inst.effects[k].matrix
        out += a @ x @ dagger(a)
    return out


# Pure-state stacks. A (branches, dim, rank) stack W of column vectors stands
# for the states W W'; the histories walk carries one while its rank stays
# at most dim.


def kraus_columns(inst: Instrument, idxs, w: np.ndarray) -> np.ndarray:
    """The columns A_k w for every k in ``idxs``, side by side, for a
    (branches, dim, rank) stack w: a (branches, dim, len(idxs) * rank) stack
    whose W W' is sum_k A_k w w' A_k'."""
    ds = inst._diagonal_stack
    if ds is not None:
        cols = ds[list(idxs)][:, np.newaxis, :, np.newaxis] * w
    else:
        cols = np.array([inst.effects[k].matrix for k in idxs])[:, np.newaxis] @ w
    return np.moveaxis(cols, 0, 2).reshape(len(w), w.shape[1], -1)


def vector_probabilities(inst: Instrument, w: np.ndarray) -> np.ndarray:
    """tr(E_mu W W') for each outcome label, label axis last, for a
    (..., dim, rank) stack W. Declared diagonals need only the diagonal
    sum_r |w_r|^2 of W W'."""
    weights = inst._povm_weights
    if weights is not None:
        diag = np.sum(w.real**2 + w.imag**2, axis=-1)
        return np.matmul(weights, diag[..., np.newaxis])[..., 0]
    return np.einsum("mij,...jr,...ir->...m", inst._povm_dense, w, w.conj(), optimize=True).real
