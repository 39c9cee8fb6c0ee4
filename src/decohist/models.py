"""Ready-made systems and instruments, parameterized for sweeps.

Continuous outcome families are discretized: Gaussian quasi-projections get a
finite center grid with exact per-point renormalization, and spin-direction
projections get a finite symmetric direction set with sqrt(2/N) scaling. The
continuum normalizations do not transfer to finite sets; completeness
sum A'A = 1 is the invariant preserved, since every criterion depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    DEFAULT_TOLERANCES,
    DensityMatrix,
    Effect,
    Instrument,
    Tolerances,
    UnitaryOp,
)
from .criteria import trivial_instrument
from .errors import (
    AsymmetricDirectionSet,
    BudgetExceeded,
    CoverageError,
    EdgeOverlap,
    UnresolvableWidth,
    ValidationError,
)
from .histories import HistorySpec, Step

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)


def _projective_pair(axis: str, sigma: np.ndarray, tol: Tolerances) -> Instrument:
    eye = np.eye(2)
    return core.validate_instrument(
        [
            Effect(f"{axis}+", 0, (eye + sigma) / 2),
            Effect(f"{axis}-", 0, (eye - sigma) / 2),
        ],
        tol,
    )


@dataclass(frozen=True, eq=False)
class SpinHalfLibrary:
    """Named spin-1/2 building blocks."""

    sigma_x: np.ndarray
    sigma_y: np.ndarray
    sigma_z: np.ndarray
    projective_x: Instrument
    projective_y: Instrument
    projective_z: Instrument
    fuzzy: Instrument
    up_z: DensityMatrix
    down_z: DensityMatrix
    up_x: DensityMatrix
    mixed: DensityMatrix
    identity: UnitaryOp
    hadamard: UnitaryOp

    def near_identity(self, epsilon: float, tol: Tolerances = DEFAULT_TOLERANCES) -> DensityMatrix:
        """rho_eps = (1 - eps) * (1/2) + eps |z+><z+| (unit trace by construction)."""
        if not 0.0 <= epsilon <= 1.0:
            raise ValidationError("epsilon must lie in [0, 1]")
        return core.validate_density(
            (1 - epsilon) * np.eye(2) / 2 + epsilon * self.up_z.matrix, tol
        )


def spin_half_library(tol: Tolerances = DEFAULT_TOLERANCES) -> SpinHalfLibrary:
    """Pauli operators, projective x/y/z instruments, the fuzzy instrument
    {A_0 = |z+><z+| + 2^{-1/2}|z-><z-|, A_1 = 2^{-1/2}|z-><z-|}, and standard states."""
    inv_sqrt2 = 1 / np.sqrt(2)
    fuzzy = core.validate_instrument(
        [Effect("0", 0, [1.0, inv_sqrt2]), Effect("1", 0, [0.0, inv_sqrt2])], tol
    )
    up_z = core.validate_density(np.diag([1.0, 0.0]), tol)
    return SpinHalfLibrary(
        sigma_x=SIGMA_X,
        sigma_y=SIGMA_Y,
        sigma_z=SIGMA_Z,
        projective_x=_projective_pair("x", SIGMA_X, tol),
        projective_y=_projective_pair("y", SIGMA_Y, tol),
        projective_z=core.validate_instrument(
            [Effect("z+", 0, [1.0, 0.0]), Effect("z-", 0, [0.0, 1.0])], tol
        ),
        fuzzy=fuzzy,
        up_z=up_z,
        down_z=core.validate_density(np.diag([0.0, 1.0]), tol),
        up_x=core.validate_density((np.eye(2) + SIGMA_X) / 2, tol),
        mixed=core.validate_density(np.eye(2) / 2, tol),
        identity=core.validate_unitary(np.eye(2), tol),
        hadamard=core.validate_unitary(np.array([[1, 1], [1, -1]]) / np.sqrt(2), tol),
    )


_AXIS_NAMES = {
    (1.0, 0.0, 0.0): "+x",
    (-1.0, 0.0, 0.0): "-x",
    (0.0, 1.0, 0.0): "+y",
    (0.0, -1.0, 0.0): "-y",
    (0.0, 0.0, 1.0): "+z",
    (0.0, 0.0, -1.0): "-z",
}

AXIS_DIRECTIONS = tuple(_AXIS_NAMES)


@dataclass(frozen=True, eq=False)
class SpinDirectionSet:
    """Unit 3-vectors; symmetric means they sum to zero (within tolerance)."""

    directions: tuple[tuple[float, float, float], ...]
    symmetric: bool = False

    def __post_init__(self):
        dirs = tuple(tuple(float(c) for c in u) for u in self.directions)
        if any(len(u) != 3 for u in dirs):
            raise ValidationError("directions must be 3-vectors")
        tol = DEFAULT_TOLERANCES.validation
        for u in dirs:
            norm = float(np.linalg.norm(u))
            if abs(norm - 1.0) > tol:
                raise ValidationError(f"direction {u} has norm {norm:.12g}, not 1")
        total = np.sum(np.array(dirs), axis=0)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "symmetric", bool(np.max(np.abs(total)) <= tol))


def spin_direction_instrument(dirs, tol: Tolerances = DEFAULT_TOLERANCES) -> Instrument:
    """Effects sqrt(2/N) (1 + sigma_u)/2 for a symmetric set of N directions.

    A'A = (1/N)(1 + sigma_u) per direction, so completeness holds exactly iff
    the directions sum to zero.
    """
    if not isinstance(dirs, SpinDirectionSet):
        dirs = SpinDirectionSet(tuple(dirs))
    n = len(dirs.directions)
    if n < 2:
        raise ValidationError("need at least two directions")
    if not dirs.symmetric:
        total = np.sum(np.array(dirs.directions), axis=0)
        raise AsymmetricDirectionSet(
            f"directions sum to {tuple(float(c) for c in total)}, completeness would fail"
        )
    scale = np.sqrt(2.0 / n)
    effects = []
    for k, (ux, uy, uz) in enumerate(dirs.directions):
        su = ux * SIGMA_X + uy * SIGMA_Y + uz * SIGMA_Z
        label = _AXIS_NAMES.get((ux, uy, uz), f"u{k}")
        effects.append(Effect(label, 0, scale * (np.eye(2) + su) / 2))
    return core.validate_instrument(effects, tol)


@dataclass(frozen=True)
class GridSystem:
    """Periodic 1-d position grid: x_k = x_min + k h, h = (x_max - x_min)/n."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if not isinstance(self.n_points, int) or self.n_points < 2:
            raise ValidationError("n_points must be an integer >= 2")
        if not self.x_max > self.x_min:
            raise ValidationError("x_max must exceed x_min")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def positions(self) -> np.ndarray:
        x = self.x_min + self.h * np.arange(self.n_points)
        x.setflags(write=False)
        return x

    def position_operator(self) -> np.ndarray:
        op = np.diag(self.positions).astype(np.complex128)
        op.setflags(write=False)
        return op


# Cap on the stored entries (centers x grid points) of one Gaussian instrument,
# checked before its profiles are allocated: 2^24 float64 entries are 128 MiB.
MAX_PROFILE_ENTRIES = 1 << 24


def gaussian_instrument(
    grid: GridSystem,
    width: float,
    centers,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Instrument:
    """Diagonal Gaussian quasi-projections of width ``width`` at ``centers``.

    Entries are proportional to exp(-(x_k - mu)^2 / 4 width^2) and then
    renormalized per diagonal entry so that sum_mu A'A = 1 exactly, the
    discrete substitute for the continuum completeness integral. Centers
    should cover the occupied region with spacing <= width; uneven coverage
    shows up as variation of the renormalization factor and is refused, and
    more than MAX_PROFILE_ENTRIES centers x grid points are refused before
    anything grid-sized is allocated. Effects are declared by their diagonals.
    """
    if width <= 0:
        raise ValidationError("width must be positive")
    centers = [float(mu) for mu in centers]
    if not centers:
        raise ValidationError("need at least one center")
    entries = len(centers) * grid.n_points
    if entries > MAX_PROFILE_ENTRIES:
        raise BudgetExceeded(
            f"{len(centers)} centers x {grid.n_points} grid points = {entries} entries "
            f"exceed the cap {MAX_PROFILE_ENTRIES}"
        )
    x = grid.positions
    profiles = np.exp(-((x[np.newaxis, :] - np.array(centers)[:, np.newaxis]) ** 2)
                      / (4 * width**2))
    weight = np.sum(profiles**2, axis=0)
    if float(weight.min()) <= 0.0:
        raise CoverageError("renormalization underflow: centers leave grid points uncovered")
    span = grid.x_max - grid.x_min
    mid = (grid.x_max + grid.x_min) / 2
    interior = np.abs(x - mid) <= span / 4
    w_int = weight[interior]
    variation = float(w_int.max() / w_int.min() - 1.0)
    if variation > 0.10:
        raise CoverageError(
            f"renormalization factor varies by {variation:.3f} (> 0.10) across the "
            "grid interior; extend or tighten the centers",
            variation=variation,
        )
    damped = profiles / np.sqrt(weight)[np.newaxis, :]
    effects = [Effect(f"{mu:g}", 0, damped[m]) for m, mu in enumerate(centers)]
    return core.validate_instrument(effects, tol)


def free_particle_unitary(
    grid: GridSystem,
    mass: float,
    time: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> UnitaryOp:
    """U = exp(-i t P^2 / mass) built spectrally on the periodic grid.

    Momenta are 2 pi k / (x_max - x_min) with symmetric indexing; the diagonal
    phase in the discrete Fourier basis keeps U exactly unitary (no
    finite-difference dispersion error). U is declared by those phases, so it
    is validated in O(d) and applied by FFT; no d x d matrix is built.
    """
    if mass <= 0:
        raise ValidationError("mass must be positive")
    p = 2 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.h)
    return core.validate_fourier_unitary(np.exp(-1j * time * p**2 / mass), tol)


def gaussian_wavepacket(
    grid: GridSystem,
    center: float,
    sigma: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DensityMatrix:
    """Pure state with amplitudes proportional to exp(-(x - center)^2 / 4 sigma^2),
    declared by its vector.

    Position spread is approximately sigma. Width below twice the grid spacing
    is unresolvable; tails above tolerance at the boundary would wrap around.
    """
    if sigma < 2 * grid.h:
        raise UnresolvableWidth(f"sigma {sigma:g} below grid resolution 2h = {2 * grid.h:g}")
    x = grid.positions
    profile = np.exp(-((x - center) ** 2) / (4 * sigma**2))
    edge = float(max(profile[0], profile[-1]))
    if edge >= tol.validation:
        raise EdgeOverlap(f"packet tail {edge:.3e} at grid boundary exceeds tolerance")
    return core.validate_density(profile / np.linalg.norm(profile), tol)


def interference_circuit(classical: bool = False, tol: Tolerances = DEFAULT_TOLERANCES) -> HistorySpec:
    """Single qubit from |0><0|: two steps of (U, z-measurement).

    U is the Hadamard, whose two applications interfere back to |0>; the
    classical variant uses sigma_x instead, a permutation of the basis whose
    histories are decoherent.
    """
    z_inst = core.validate_instrument(
        [Effect("0", 0, [1.0, 0.0]), Effect("1", 0, [0.0, 1.0])], tol
    )
    gate = SIGMA_X if classical else np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = core.validate_unitary(gate, tol)
    rho = core.validate_density(np.diag([1.0, 0.0]), tol)
    return HistorySpec(
        initial=rho,
        steps=(Step(unitary=u, instrument=z_inst), Step(unitary=u, instrument=z_inst)),
    )


__all__ = [
    "AXIS_DIRECTIONS",
    "GridSystem",
    "SpinDirectionSet",
    "SpinHalfLibrary",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "free_particle_unitary",
    "gaussian_instrument",
    "gaussian_wavepacket",
    "interference_circuit",
    "spin_direction_instrument",
    "spin_half_library",
    "trivial_instrument",
]
