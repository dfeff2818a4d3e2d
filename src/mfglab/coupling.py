"""x-independent coupling functionals F(m) = int f dm.

Integral functionals against a Lipschitz integrand satisfy
|F(m1) - F(m2)| <= Lip(f) d1(m1, m2) by duality, so each instance carries
a certified constant.  The monotonicity defect of an x-independent
coupling is the product of the value gap with the signed total mass and
vanishes identically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .measures import CircleMeasure


@dataclass(frozen=True)
class CouplingFunctional:
    name: str
    f: object          # integrand, vectorised over positions
    lipschitz: float   # certified Lipschitz constant of the integrand

    def __call__(self, m: CircleMeasure) -> float:
        return m.integrate(self.f)

    @classmethod
    def zero(cls) -> "CouplingFunctional":
        return cls("zero", lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.0)

    @classmethod
    def cosine4pi(cls) -> "CouplingFunctional":
        """f(x) = 4 pi cos(2 pi x); Lip(f) = 8 pi^2."""
        return cls(
            "cosine4pi",
            lambda x: 4.0 * np.pi * np.cos(2.0 * np.pi * np.asarray(x, dtype=float)),
            8.0 * np.pi**2,
        )

    @classmethod
    def fourier(cls, coefficients) -> "CouplingFunctional":
        """f = sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x) from the flat
        coefficient list (a1, b1, a2, b2, ...)."""
        coeffs = [float(c) for c in coefficients]
        if len(coeffs) % 2 != 0 or not coeffs:
            raise ValueError("need an even, nonempty coefficient list (a1, b1, ...)")
        name = "custom-fourier(" + ",".join(f"{c:g}" for c in coeffs) + ")"
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError(f"custom-fourier needs finite coefficients, got {name!r}")
        pairs = [(coeffs[2 * i], coeffs[2 * i + 1]) for i in range(len(coeffs) // 2)]

        def f(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            for k, (a, b) in enumerate(pairs, start=1):
                out += a * np.cos(2.0 * np.pi * k * x) + b * np.sin(2.0 * np.pi * k * x)
            return out

        with np.errstate(over="ignore"):    # an overflow is refused below
            lip = sum(2.0 * np.pi * k * np.hypot(a, b) for k, (a, b) in enumerate(pairs, start=1))
        if not math.isfinite(lip):
            raise ValueError(f"custom-fourier needs a finite Lipschitz constant, "
                             f"got {lip} for {name!r}")
        return cls(name, f, lip)

    @classmethod
    def from_name(cls, name: str) -> "CouplingFunctional":
        name = name.strip()
        if name == "zero":
            return cls.zero()
        if name == "cosine4pi":
            return cls.cosine4pi()
        m = re.fullmatch(r"custom-fourier\(([^)]*)\)", name)
        if m:
            try:
                coeffs = [float(c) for c in m.group(1).split(",")]
            except ValueError:
                raise ValueError(f"could not convert the coefficients of {name!r} "
                                 f"to numbers") from None
            return cls.fourier(coeffs)
        raise ValueError(f"unknown coupling id {name!r}")


def monotonicity_defect(functional: CouplingFunctional, m1: CircleMeasure,
                        m2: CircleMeasure) -> float:
    """int (F(m1) - F(m2)) d(m1 - m2), computed literally as the value gap
    times the signed total mass of m1 - m2."""
    gap = functional(m1) - functional(m2)
    signed_mass = float(np.sum(m1.weights)) - float(np.sum(m2.weights))
    return gap * signed_mass
