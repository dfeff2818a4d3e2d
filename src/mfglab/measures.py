"""Probability measures on the circle: grid densities and weighted
particle clouds, the exact circular Wasserstein-1 distance through shifted
cumulative functions and push-forward under characteristic flows over a
time-to-go s = T - t."""

from __future__ import annotations

import re

import numpy as np

from .errors import MFGLabError
from .torus import grid, interp_stencil, wrap

DENSITY = "density"
PARTICLES = "particles"

MASS_TOL = 1e-12
MASS_DRIFT_TOL = 1e-4  # largest renormalisation a push-forward may need
RANDOM_MODES = 4       # Fourier modes of random_fourier_density
RANDOM_FLOOR = 0.1     # its smallest density value before renormalising
# Inverse-flow points a TransportTable push holds at once.  A push's working
# set beyond its result is about a dozen float64 and int64 arrays of this
# size (32 KB each): 0.4 MB for masses at any row count, against 1.3 MB with
# 2**14 points.  2**12 is one span row on the largest grid, n = 4096, and
# smaller blocks gave no lower peak RSS on lipschitz-cos512.
BLOCK_POINTS = 2**12
# Pulled-back points per matmul of TransportTable.means.  BLAS picks its
# kernel by the matmul's shape, so the rounding of a mean depends on the row
# count; keeping the rows of the earlier 2**14-point blocks keeps every
# mean's bits.  Its two pull-back buffers hold 0.26 MB.
MATMUL_POINTS = 2**14


class CircleMeasure:
    """Probability measure on T^1, as node masses or weighted atoms."""

    def __init__(self, kind: str, positions: np.ndarray, weights: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        positions = wrap(positions)
        if np.any(weights < -MASS_TOL):
            raise ValueError("measure weights must be nonnegative")
        total = float(np.sum(weights))
        if not abs(total - 1.0) <= MASS_TOL:  # NaN too
            raise ValueError(f"total mass {total} differs from 1 beyond {MASS_TOL}")
        self.kind = kind
        self.positions = positions
        self.weights = weights

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_masses(cls, masses) -> "CircleMeasure":
        masses = np.asarray(masses, dtype=float)
        return cls(DENSITY, grid(masses.size), masses)

    @classmethod
    def from_density_values(cls, values) -> "CircleMeasure":
        """Density samples on the uniform grid, normalised to unit mass."""
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("density values must be finite")
        if np.any(values < 0.0):
            raise ValueError("density values must be nonnegative")
        total = np.sum(values)
        if not total > 0.0:
            raise ValueError("density values must have a positive total")
        return cls.from_masses(values / total)

    @classmethod
    def from_name(cls, name: str, n: int = 512) -> "CircleMeasure":
        """Resolve 'lebesgue', 'one-plus-cosine', 'gaussian-bump(c,w)'."""
        name = name.strip()
        xs = grid(n)
        if name == "lebesgue":
            return cls.from_density_values(np.ones(n))
        if name == "one-plus-cosine":
            return cls.from_density_values(1.0 + np.cos(2.0 * np.pi * xs))
        m = re.fullmatch(r"gaussian-bump\(([^,]+),([^)]+)\)", name)
        if m:
            center, width = float(m.group(1)), float(m.group(2))
            if not (np.isfinite(center) and np.isfinite(width) and width > 0.0):
                raise ValueError(f"gaussian-bump needs a finite centre and a finite "
                                 f"width > 0, got {name!r}")
            if not 0.0 < width * width < np.inf:
                raise ValueError(f"width invariant violated: the width of {name!r} squares "
                                 f"to {width * width:g}, not a positive finite number")
            vals = np.zeros(n)
            with np.errstate(over="ignore"):    # exp(-inf) is 0; a zero total is refused
                for k in range(-3, 4):
                    vals += np.exp(-((xs - center + k) ** 2) / (2.0 * width**2))
            return cls.from_density_values(vals)
        raise ValueError(f"unknown measure id {name!r}")

    # -- views ------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.positions.size

    @property
    def density_values(self) -> np.ndarray:
        if self.kind != DENSITY:
            raise ValueError("particle measures have no density view")
        return self.weights * self.n

    def integrate(self, f) -> float:
        """Integral of f against the measure."""
        return float(np.sum(self.weights * f(self.positions)))


def wasserstein1(m1: CircleMeasure, m2: CircleMeasure) -> float:
    """Exact circular W1 = min_c int |F1 - F2 - c| with the optimal c a
    weighted median of the cumulative difference."""
    xs = np.concatenate([m1.positions, m2.positions])
    signed = np.concatenate([m1.weights, -m2.weights])
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    diff = np.cumsum(signed[order])          # F1 - F2 on [xs[i], xs[i+1])
    seg = np.empty_like(xs)
    seg[:-1] = np.diff(xs)
    seg[-1] = 1.0 - xs[-1] + xs[0]           # wrap segment through 0
    by_value = np.argsort(diff, kind="stable")
    cum = np.cumsum(seg[by_value])
    shift = diff[by_value][np.searchsorted(cum, 0.5 * cum[-1])]
    return float(np.sum(seg * np.abs(diff - shift)))


class TransportTable:
    """Push-forward of grid densities over a list of time-to-go spans s_k,
    one row per span, by the inverse-flow nodes Phi_{s_k}^-1(x_j) on the
    n-node grid.

    The table holds only the grid, the flow and the spans; each push
    streams the spans in blocks of BLOCK_POINTS // n rows (at least one),
    building a block's interpolation stencil and centered-difference
    Jacobian from one phi_inverse call and dropping them after the block.
    So no (rows, n) array is held beyond the result, each push calls the
    flow once per block, and a push's working set beyond its result is
    the same at any row count: about 0.4 MB for masses and 0.75 MB for
    means at n <= 4096 (tracemalloc).
    """

    def __init__(self, fm, spans, n: int):
        self.nodes = grid(n)
        self.flow = fm
        self.spans = np.asarray(spans, dtype=float)

    def _blocks(self, spans):
        """Each block of the given spans: its row slice among them, the
        interp_stencil cell and fraction of its inverse-flow nodes, and
        their Jacobian."""
        n = self.nodes.size
        rows = max(1, BLOCK_POINTS // n)
        for first in range(0, spans.size, rows):
            block = slice(first, first + rows)
            column = spans[block, None]
            # a column of spans gives one row per span, each bit-equal to a
            # one-span call; a flow that gives one row broadcasts
            xinv = np.empty((column.shape[0], n))
            xinv[...] = self.flow.phi_inverse(column, self.nodes)
            cell, frac = interp_stencil(xinv, n)
            # centered differences x[j + 1] - x[j - 1] around the circle; the
            # inverse map is an orientation-preserving circle map: consecutive
            # gaps are small and positive, so %1 picks the right branch
            jac = np.empty_like(xinv)
            np.subtract(xinv[:, 2:], xinv[:, :-2], out=jac[:, 1:-1])
            np.subtract(xinv[:, 1], xinv[:, -1], out=jac[:, 0])
            np.subtract(xinv[:, 0], xinv[:, -2], out=jac[:, -1])
            jac %= 1.0
            jac *= n / 2.0
            yield block, cell, frac, jac

    def masses(self, m: CircleMeasure) -> np.ndarray:
        """Node masses of the pushed densities, one row per span, each
        renormalised to unit mass; a renormalisation of MASS_DRIFT_TOL or
        more raises MFGLabError."""
        d = m.density_values
        d_next = np.roll(d, -1)
        values = np.empty((self.spans.size, self.nodes.size))
        totals = np.empty(self.spans.size)
        for block, cell, frac, jac in self._blocks(self.spans):
            np.multiply((1.0 - frac) * d[cell] + frac * d_next[cell], jac, out=values[block])
            totals[block] = values[block].mean(axis=1)
        worst = float(np.max(np.abs(totals - 1.0), initial=0.0))
        if worst >= MASS_DRIFT_TOL:
            raise MFGLabError(
                f"push-forward mass drift {worst:.3g} exceeds {MASS_DRIFT_TOL:.3g}"
            )
        values /= (totals * self.nodes.size)[:, None]
        return values

    def means(self, densities, f_nodes) -> np.ndarray:
        """Means of f under the pushed densities, one row per span and one
        column per density: entry (k, i) is the mean of f_nodes under row k
        of masses(m_i) for the grid density values densities[i], with the
        same renormalisation and the same mass-drift check.

        The push is linear in the density, so each block of rows takes
        one bincount of the stencil weights to pull f back onto the grid
        and one to pull back unit mass, and per MATMUL_POINTS // n rows two
        matmuls then serve every density at once; no (rows, n) array is
        held.
        """
        n = self.nodes.size
        columns = np.asarray(densities, dtype=float).reshape(-1, n).T.copy()   # (n, M)
        mass = np.empty((self.spans.size, columns.shape[1]))  # sums of the pushed values
        integral = np.empty_like(mass)                       # the same sums weighted by f
        group = max(1, MATMUL_POINTS // n)
        for first in range(0, self.spans.size, group):
            rows = slice(first, first + group)
            spans = self.spans[rows]
            unit = np.empty((spans.size, n))   # unit mass pulled back, one row per span
            pulled = np.empty_like(unit)       # f pulled back
            for block, cell, frac, jac in self._blocks(spans):
                base = n * np.arange(cell.shape[0])[:, None]
                left = (cell + base).ravel()
                right = ((cell + 1) % n + base).ravel()
                low, high = (1.0 - frac) * jac, frac * jac   # the stencil's weights
                shape, size = cell.shape, cell.size
                unit[block] = np.bincount(left, low.ravel(), size).reshape(shape)
                unit[block] += np.bincount(right, high.ravel(), size).reshape(shape)
                pulled[block] = np.bincount(left, (low * f_nodes).ravel(), size).reshape(shape)
                pulled[block] += np.bincount(right, (high * f_nodes).ravel(), size).reshape(shape)
            mass[rows] = unit @ columns
            integral[rows] = pulled @ columns
        worst = float(np.max(np.abs(mass / n - 1.0), initial=0.0))
        if worst >= MASS_DRIFT_TOL:
            raise MFGLabError(
                f"push-forward mass drift {worst:.3g} exceeds {MASS_DRIFT_TOL:.3g}"
            )
        return integral / mass


def pushforward(fm, m: CircleMeasure, s: float) -> CircleMeasure:
    """Push m by the characteristic flow over the time-to-go s, Phi_s # m.

    Particle measures move their atoms; densities take the row of a
    one-span TransportTable.
    """
    if s == 0:
        return m
    if m.kind == PARTICLES:
        return CircleMeasure(PARTICLES, fm.phi(s, m.positions), m.weights.copy())
    table = TransportTable(fm, [s], m.n)
    return CircleMeasure(DENSITY, table.nodes, table.masses(m)[0])


def invariant_density(df) -> CircleMeasure:
    """Projected minimal measure of a periodic drift: density 1/(tau |v|)."""
    df.require_periodic()
    return CircleMeasure.from_density_values(1.0 / np.abs(df.v))


MASK32, MASK64, MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def _seed_hash(init: int, mult: int):
    """SeedSequence's 32-bit hash: each call xors its word with a running
    constant (first init), steps the constant by mult and multiplies the
    word by the new constant."""
    const = init

    def hash_word(value):
        nonlocal const
        value ^= const
        const = const * mult & MASK32
        value = value * const & MASK32
        return value ^ value >> 16
    return hash_word


class PCG64Stream:
    """The uniform doubles of NumPy's default_rng(seed), bit for bit, from
    the standard library alone: NumPy's random subpackage also loads secrets
    and hashlib, several MiB of memory for a few hundred draws.

    NumPy's stream policy (NEP 19) keeps these stages fixed: SeedSequence
    hashes the seed's little-endian 32-bit words into a 4-word pool and
    draws generate_state(4, uint64) from it; PCG64 (O'Neill 2014) seeds
    its 128-bit state and increment from those words, steps
    state * PCG64_MULTIPLIER + inc and outputs the XSL-RR 128/64 of the
    new state; a double is its top 53 bits times 2^-53.
    """

    def __init__(self, seed: int):
        # SeedSequence(seed): hashmix (INIT_A, MULT_A) and mix (MIX_MULT_L,
        # MIX_MULT_R) fold the entropy words into the pool; generate_state
        # hashes the pool again (INIT_B, MULT_B) into 8 words
        entropy = [seed >> shift & MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _seed_hash(0x43B0D7E5, 0x931E8875)

        def mix(x, y):
            value = (0xCA01F9DD * x - 0x4973F715 * y) & MASK32
            return value ^ value >> 16

        pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:  # a seed of more than 128 bits
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        generate = _seed_hash(0x8B51F9DD, 0x58F38DED)
        words = [generate(pool[i % 4]) for i in range(8)]
        # pairs of 32-bit words read little-endian as the four 64-bit words
        # s_hi, s_lo, i_hi, i_lo of PCG64's initial state and sequence
        s_hi, s_lo, i_hi, i_lo = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
        # srandom: one step from state 0 (which gives inc), add the seed, step
        self.state = (self.inc + (s_hi << 64 | s_lo)) & MASK128
        self.state = (self.state * PCG64_MULTIPLIER + self.inc) & MASK128

    def next_double(self) -> float:
        """One PCG64 step and its XSL-RR output, as a double in [0, 1)."""
        self.state = (self.state * PCG64_MULTIPLIER + self.inc) & MASK128
        xored, rot = (self.state >> 64) ^ (self.state & MASK64), self.state >> 122
        out = (xored >> rot | xored << (-rot & 63)) & MASK64
        return (out >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """Generator.uniform(low, high, size): size doubles low + (high - low) u."""
        span = high - low
        return np.array([low + span * self.next_double() for _ in range(size)])


def random_fourier_density(n: int, rng) -> CircleMeasure:
    """Smooth random density: 1 + Fourier noise in the modes 1 ..
    RANDOM_MODES, floored at RANDOM_FLOOR and renormalised.  rng is any
    object with Generator's uniform(low, high, size), such as a
    PCG64Stream or a numpy Generator."""
    xs = grid(n)
    values = np.ones(n)
    for k in range(1, RANDOM_MODES + 1):
        a, b = rng.uniform(-1.0, 1.0, size=2) * (0.6 / k)
        values += a * np.cos(2.0 * np.pi * k * xs) + b * np.sin(2.0 * np.pi * k * xs)
    low = float(np.min(values))
    if low < RANDOM_FLOOR:
        values = values - low + RANDOM_FLOOR
    return CircleMeasure.from_density_values(values)
