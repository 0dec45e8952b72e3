"""The presecular generator collapsing onto the secular one.

With a finite coarse-graining window the generator keeps cross terms between
distinct transition frequencies, weighted by the filter F. As the window
grows the filter suppresses every cross term and the generator converges to
the secular standard form at the rate 1/window. This demo prints the
entrywise distance between the two superoperators as the window doubles.
"""

import numpy as np

from lindforge import (
    SecularPolicy,
    bohr_frequencies,
    build_spectrum,
    coarse_graining_f,
    derive_generator,
    flat_thermal_bath,
    generator_superoperator_matrix,
)


def main():
    h = np.diag([0.0, 0.9, 2.1, 3.8]).astype(complex)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (a + a.conj().T) / 2
    bath = flat_thermal_bath(0.05, 1.0, gamma_dephasing=0.01)

    spec = build_spectrum(h)
    bohr = bohr_frequencies(spec).values
    gaps = np.abs(np.subtract.outer(bohr, bohr))
    min_gap = float(gaps[gaps > 1e-12].min())
    print(f"smallest splitting between transition frequencies: {min_gap:.3f}")

    m_sec = generator_superoperator_matrix(
        derive_generator(h, bath, [a], mode="secular").generator)

    print("\nwindow (units of 1/min-gap)   entrywise distance to secular")
    for mult in (2.0, 8.0, 32.0, 128.0, 512.0):
        dt = mult / min_gap
        pre = derive_generator(h, bath, [a], mode="presecular",
                               policy=SecularPolicy(dt=dt))
        m_pre = generator_superoperator_matrix(pre.generator)
        dist = np.abs(m_pre - m_sec).max()
        print(f"  {mult:8.0f}                    {dist:.3e}")

    dt = 512.0 / min_gap
    print("\nfilter zeros sit at multiples of 2*pi/window:")
    for n in (1, 2, 3):
        x = 2.0 * np.pi * n / dt
        print(f"  |F({n}*2pi/dt)| = {abs(coarse_graining_f(x, dt)):.2e}")


if __name__ == "__main__":
    main()
