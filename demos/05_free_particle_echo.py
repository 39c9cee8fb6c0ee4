"""When wavepacket spreading breaks coarse-grained decoherence.

A free packet of initial width 1 spreads to DX(t) = sqrt(1 + t^2). While
DX stays far below the instrument width Delta, coarse position histories
decohere; once DX reaches Delta the measurement back-action becomes
visible. The probe here is an echo: evolve forward for t, measure, evolve
backward for t, measure again. Undisturbed evolution refocuses exactly, so
any difference in the final statistics is pure measurement disturbance.

The packet is declared pure and the free propagator by its phases in the
Fourier basis, so the check walks vectors with FFTs and never builds a
grid-sized square matrix. The closing ladder reruns the DX = Delta echo on
grids up to 16,384 points: the residual is grid-converged, and each size
takes milliseconds.
"""

import time

import numpy as np

from decohist import (
    GridSystem,
    HistorySpec,
    Step,
    check_measurement_based,
    free_particle_unitary,
    gaussian_instrument,
    gaussian_wavepacket,
)


CENTERS = np.arange(-176.0, 176.1, 8.0)


def echo_residual(grid, width, target):
    """Measurement-based residual of the echo whose packet spreads to ``target``."""
    t = float(np.sqrt(target**2 - 1.0))
    inst = gaussian_instrument(grid, width=width, centers=CENTERS)
    spec = HistorySpec(
        initial=gaussian_wavepacket(grid, center=0.0, sigma=1.0),
        steps=(Step(free_particle_unitary(grid, mass=1.0, time=t), inst),
               Step(free_particle_unitary(grid, mass=1.0, time=-t), inst)),
    )
    return check_measurement_based(spec).max_residual


def main():
    grid = GridSystem(n_points=512, x_min=-128.0, x_max=128.0)
    width = 16.0

    print(f"=== Echo test: Delta = {width}, packet sigma = 1 ===\n")
    print(f"  {'DX(t)':>6s}  {'t':>10s}  {'DX/Delta':>9s}  {'comparison residual':>20s}")
    residuals = {}
    for target in (2.0, 4.0, 8.0, 16.0):
        t = float(np.sqrt(target**2 - 1.0))
        residual = echo_residual(grid, width, target)
        residuals[target] = residual
        print(f"  {target:6.1f}  {t:10.4f}  {target / width:9.3f}  {residual:20.3e}")

    ratio = residuals[16.0] / residuals[2.0]
    print(f"\n  residual at DX = Delta over residual at DX = Delta/8: {ratio:.1f}x")
    print("\nWhile the packet stays narrow the Gaussian effects barely pinch it and")
    print("the echo closes; by the time its width matches the instrument's, each")
    print("measurement localizes the packet enough to spoil the refocusing, and")
    print("the residual has grown nearly two orders of magnitude.")

    print("\n=== Grid ladder at DX = Delta, same box [-128, 128] ===\n")
    print(f"  {'points':>7s}  {'comparison residual':>22s}  {'elapsed':>9s}")
    ladder_start = time.perf_counter()
    for n_points in (512, 4096, 16384):
        start = time.perf_counter()
        residual = echo_residual(GridSystem(n_points, -128.0, 128.0), width, width)
        elapsed = time.perf_counter() - start
        print(f"  {n_points:7d}  {residual:22.15e}  {elapsed * 1e3:7.1f} ms")
    total = time.perf_counter() - ladder_start
    print(f"\n  whole ladder, models and check included: {total:.3f} s")


if __name__ == "__main__":
    main()
