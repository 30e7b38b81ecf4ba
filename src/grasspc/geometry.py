"""Geometric primitives on the Grassmann manifold G(n, 1) of complex lines.

A point of G(n, 1) is a one-dimensional subspace of C^n, represented here
by a unit-norm vector that is identified with all of its unit-modulus phase
rotations.  The metric is the chordal distance

    d(x, y) = sqrt(1 - |x^H y|^2) = |sin(theta)|,

where theta = arccos |x^H y| is the principal angle between the lines.
The module provides the closed-form log map, exponential map (geodesic),
parallel transport of the connecting tangent, and the one-step geodesic
extrapolation used by the predictive codec.

Everything operates on immutable values and 64-bit floats; the tolerance
constants below are part of the public contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UNIT_NORM_TOL",
    "ORTHOGONALITY_TOL",
    "RHO_MIN",
    "ZERO_TANGENT_TOL",
    "PHASE_EQ_TOL",
    "DimensionMismatchError",
    "CutLocusError",
    "GrassmannPoint",
    "TangentVector",
    "InnerProductDecomposition",
    "chordal_distance",
    "inner_decomposition",
    "log_map",
    "exp_map",
    "parallel_transport",
    "predict_one_step",
    "sequence_correlation",
    "random_point",
]

#: Unit-norm construction tolerance for points and tangent directions.
UNIT_NORM_TOL = 1e-12
#: Allowed |base^H direction| for a tangent direction.
ORTHOGONALITY_TOL = 1e-10
#: Cut-locus guard: operations needing a well-defined connecting geodesic
#: refuse pairs with |x^H y| at or below this value.
RHO_MIN = 1e-9
#: Pairs closer than this chordal distance produce the zero tangent.
ZERO_TANGENT_TOL = 1e-12
#: Default tolerance for equality of points modulo phase.
PHASE_EQ_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operands live in ambient spaces of different dimension."""


class CutLocusError(ArithmeticError):
    """The two lines are (numerically) orthogonal; no unique geodesic exists.

    Raised whenever an operation requires |x^H y| > RHO_MIN and the guard
    fails.  ``rho_abs`` carries the offending magnitude.
    """

    def __init__(self, rho_abs: float, message: str | None = None):
        self.rho_abs = float(rho_abs)
        super().__init__(
            message
            or f"|rho| = {rho_abs:.3e} <= {RHO_MIN:.0e}: points straddle the cut locus"
        )


# ---------------------------------------------------------------------------
# Fixed-order column arithmetic
#
# Every operation of this module, and the codec's synchronized update, runs
# on points held as real and imaginary columns: a point is a pair (re, im) of
# n-long sequences whose entries are Python floats for one point, or (B,)
# float64 arrays for B points at once.  These helpers use only elementwise
# + - * / and sqrt and sum over the n coordinates strictly left to right.
# IEEE 754 rounds each such operation correctly, so a point gets the same bits
# alone or in a batch of any size, and under any BLAS library or SIMD
# dispatch.  Only arc lengths take libm's atan.


def _sqrt(x):
    return math.sqrt(x) if type(x) is float else np.sqrt(x)


def _csum(terms):
    """Sum of two or more floats or arrays, strictly left to right."""
    terms = iter(terms)
    total = next(terms) + next(terms)
    for term in terms:
        total = total + term
    return total


def _inner(xr, xi, yr, yi):
    """(re, im) of x^H y: the terms conj(x_k) y_k, summed as :func:`_csum` does."""
    terms = zip(xr, xi, yr, yi)
    a, b, c, d = next(terms)
    e, f, g, h = next(terms)
    re, im = (a * c + b * d) + (e * g + f * h), (a * d - b * c) + (e * h - f * g)
    for a, b, c, d in terms:
        re, im = re + (a * c + b * d), im + (a * d - b * c)
    return re, im


def _sqnorm(vr, vi):
    """||v||^2: the terms |v_k|^2, summed as :func:`_csum` does."""
    terms = zip(vr, vi)
    a, b = next(terms)
    c, d = next(terms)
    total = (a * a + b * b) + (c * c + d * d)
    for a, b in terms:
        total = total + (a * a + b * b)
    return total


def _unit(vr, vi):
    """v / ||v||, as (re, im) lists."""
    sq = _sqnorm(vr, vi)
    nrm = math.sqrt(sq) if type(sq) is float else np.sqrt(sq)  # _sqrt, inlined
    return [a / nrm for a in vr], [b / nrm for b in vi]


def _cols(row: np.ndarray):
    """A complex row as (re, im) lists of Python floats."""
    return row.real.tolist(), row.imag.tolist()


def _row(re, im) -> np.ndarray:
    """Inverse of :func:`_cols`: a fresh complex row."""
    out = np.empty(len(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Complex rows (..., n) scaled to unit norm, each as :func:`_unit` would."""
    nrm = np.sqrt(_sqnorm(np.moveaxis(rows.real, -1, 0), np.moveaxis(rows.imag, -1, 0)))
    out = np.empty_like(rows)
    out.real = rows.real / nrm[..., None]
    out.imag = rows.imag / nrm[..., None]
    return out


def _offset(xr, xi, yr, yi, rr, ri, aa):
    """y rho^* / aa - x over columns, for rho = (rr, ri): with aa = |rho|^2
    it is y / rho - x."""
    return (
        [(c * rr + d * ri) / aa - a for a, c, d in zip(xr, yr, yi)],
        [(d * rr - c * ri) / aa - b for b, c, d in zip(xi, yr, yi)],
    )


def _direction(base, v):
    """v projected onto the tangent space at ``base``, v - (base^H v) base,
    and its norm, over columns."""
    pr, pi = base
    cr, ci = v
    ur, ui = _inner(pr, pi, cr, ci)
    wr = [x - (ur * a - ui * b) for x, a, b in zip(cr, pr, pi)]
    wi = [y - (ur * b + ui * a) for y, a, b in zip(ci, pr, pi)]
    return wr, wi, _sqrt(_sqnorm(wr, wi))


def _chord_cols(xr, xi, yr, yi, rho):
    """Chordal distance over columns, given rho = x^H y as (re, im).

    Nearly coincident lines (1 - |rho|^2 <= 1e-8) take d = |rho| ||y/rho - x||:
    1 - |rho|^2 cancels catastrophically there and has a ~sqrt(eps) noise
    floor, while the residual keeps small distances accurate to ~1e-15.
    """
    rr, ri = rho
    aa = rr * rr + ri * ri
    if type(aa) is float:
        v = 1.0 - min(aa, 1.0)
        if v > 1e-8 or aa == 0.0:
            return math.sqrt(v)
    else:
        v = 1.0 - np.minimum(aa, 1.0)
        near = (v <= 1e-8) & (aa > 0.0)
        if not near.any():
            return np.sqrt(v)
        aa = np.where(near, aa, 1.0)
    close = _sqrt(aa) * _sqrt(_sqnorm(*_offset(xr, xi, yr, yi, rr, ri, aa)))
    return close if type(aa) is float else np.where(near, close, np.sqrt(v))


def _predict_cols(pr, pi, cr, ci):
    """|rho| and the (re, im) columns of the unit prediction (|rho| + rho^*)
    curr - prev, with rho = prev^H curr; the caller guards |rho|."""
    rr, ri = _inner(pr, pi, cr, ci)
    a = _sqrt(rr * rr + ri * ri)
    u = a + rr
    vr = [u * x + ri * y - p for p, x, y in zip(pr, cr, ci)]
    vi = [u * y - ri * x - q for q, x, y in zip(pi, cr, ci)]
    return a, _unit(vr, vi)


def _geodesic_cols(br, bi, dr, di, cos, sin):
    """The unit point base * cos + direction * sin over columns: the geodesic
    from ``base`` along the unit tangent ``direction``, for an arc length of
    the given cosine and sine."""
    return _unit(
        [a * cos + b * sin for a, b in zip(br, dr)],
        [a * cos + b * sin for a, b in zip(bi, di)],
    )


def _as_vector(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-D complex vector, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError(f"{what} needs ambient dimension n >= 2, got n = {arr.size}")
    return arr


def _check_finite(arr: np.ndarray, norm: float, what: str):
    # A finite norm (or squared norm) of ``arr`` proves every entry finite;
    # only an inf/nan one, which overflow of huge finite entries can also
    # give, needs the entrywise test.
    if not math.isfinite(norm) and not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """A line in C^n held as a unit-norm representative vector.

    The phase of the representative is not meaningful: two points compare
    equal iff their chordal distance is below ``PHASE_EQ_TOL``.
    """

    coords: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.coords, "GrassmannPoint.coords").copy()
        sq = np.vdot(arr, arr).real
        _check_finite(arr, sq, "GrassmannPoint.coords")
        nrm = math.sqrt(sq)
        if abs(nrm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(
                f"representative must be unit norm within {UNIT_NORM_TOL:.0e}; "
                f"got ||x|| - 1 = {nrm - 1.0:.3e}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "GrassmannPoint":
        """Adopt a fresh unit vector computed in this module, unchecked.

        For results of the form ``v / ||v||`` where ``v`` is finite and, by
        construction, of moderate norm, so the quotient is unit norm to
        rounding; re-running the input checks on them would cost more than
        the operation itself.  Arbitrary input goes through ``from_vector``.
        """
        arr.flags.writeable = False
        point = object.__new__(cls)
        object.__setattr__(point, "coords", arr)
        return point

    @classmethod
    def from_vector(cls, values) -> "GrassmannPoint":
        """Normalize an arbitrary nonzero vector onto the manifold."""
        arr = _as_vector(values, "vector")
        nrm = math.sqrt(_sqnorm(*_cols(arr)))
        _check_finite(arr, nrm, "vector")
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / nrm)

    @property
    def n(self) -> int:
        return self.coords.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrassmannPoint):
            return NotImplemented
        if other.n != self.n:
            return False
        return chordal_distance(self, other) < PHASE_EQ_TOL

    def __repr__(self) -> str:
        return f"GrassmannPoint(n={self.n}, coords={np.array2string(self.coords, precision=4)})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector at ``base``, split into magnitude and unit direction.

    ``magnitude`` is the arc length of the geodesic the vector generates and
    lies in [0, pi/2].  ``direction`` is a unit vector orthogonal to the
    base representative; by convention a zero-magnitude tangent stores the
    all-zeros direction.
    """

    base: GrassmannPoint
    magnitude: float
    direction: np.ndarray

    def __post_init__(self):
        mag = float(self.magnitude)
        if not math.isfinite(mag) or mag < 0.0 or mag > np.pi / 2 + 1e-12:
            raise ValueError(f"magnitude must lie in [0, pi/2], got {mag!r}")
        object.__setattr__(self, "magnitude", mag)
        arr = np.asarray(self.direction, dtype=np.complex128).copy()
        if arr.shape != self.base.coords.shape:
            raise DimensionMismatchError(
                f"direction shape {arr.shape} does not match base n = {self.base.n}"
            )
        if mag == 0.0:
            arr = np.zeros_like(arr)
        else:
            nrm = math.sqrt(np.vdot(arr, arr).real)  # cheaper than np.linalg.norm
            if abs(nrm - 1.0) > UNIT_NORM_TOL:
                raise ValueError(
                    f"direction must be unit norm within {UNIT_NORM_TOL:.0e}; got {nrm!r}"
                )
            cross = abs(np.vdot(self.base.coords, arr))
            if cross > ORTHOGONALITY_TOL:
                raise ValueError(
                    f"direction must be orthogonal to base within {ORTHOGONALITY_TOL:.0e}; "
                    f"got |<base, dir>| = {cross:.3e}"
                )
        arr.flags.writeable = False
        object.__setattr__(self, "direction", arr)

    @classmethod
    def _wrap(cls, base: GrassmannPoint, magnitude: float, direction: np.ndarray) -> "TangentVector":
        """Adopt a tangent computed in this module, unchecked.

        ``magnitude`` is an arctan of a non-negative ratio and ``direction``
        comes fresh from ``_unit_tangent`` (or is all zeros with a zero
        magnitude), so both meet the invariants by construction.
        """
        direction.flags.writeable = False
        tangent = object.__new__(cls)
        object.__setattr__(tangent, "base", base)
        object.__setattr__(tangent, "magnitude", magnitude)
        object.__setattr__(tangent, "direction", direction)
        return tangent

    @classmethod
    def zero(cls, base: GrassmannPoint) -> "TangentVector":
        return cls(base, 0.0, np.zeros(base.n, dtype=np.complex128))

    @property
    def is_zero(self) -> bool:
        return self.magnitude == 0.0

    def as_ambient(self) -> np.ndarray:
        """The plain vector magnitude * direction in C^n."""
        return self.magnitude * self.direction


@dataclass(frozen=True)
class InnerProductDecomposition:
    """The scalar geometry of a pair: rho = x^H y, chord, principal angle."""

    rho: complex
    chord: float
    angle: float


def _check_pair(x: GrassmannPoint, y: GrassmannPoint):
    if x.n != y.n:
        raise DimensionMismatchError(f"points have n = {x.n} and n = {y.n}")


def inner_decomposition(x: GrassmannPoint, y: GrassmannPoint) -> InnerProductDecomposition:
    """Inner product rho together with the chord and angle it induces."""
    _check_pair(x, y)
    xc, yc = _cols(x.coords), _cols(y.coords)
    rr, ri = _inner(*xc, *yc)
    chord = _chord_cols(*xc, *yc, (rr, ri))
    # atan2 keeps the angle as accurate as the chord for nearly coincident lines.
    angle = math.atan2(chord, math.sqrt(rr * rr + ri * ri))
    return InnerProductDecomposition(rho=complex(rr, ri), chord=chord, angle=angle)


def chordal_distance(x: GrassmannPoint, y: GrassmannPoint) -> float:
    """Chordal distance sqrt(1 - |x^H y|^2), phase invariant, in [0, 1]."""
    return inner_decomposition(x, y).chord


def _connect(x: np.ndarray, y: np.ndarray):
    """Columns of rows x, y and re, im, |.|^2, |.| of x^H y, off the cut locus."""
    xc, yc = _cols(x), _cols(y)
    rr, ri = _inner(*xc, *yc)
    a = math.sqrt(rr * rr + ri * ri)
    if a <= RHO_MIN:
        raise CutLocusError(a)
    return xc, yc, rr, ri, rr * rr + ri * ri, a


def _unit_tangent(base, v) -> np.ndarray:
    """The unit tangent at ``base`` along v, as a row.  v is re-projected:
    for nearly coincident points it comes from catastrophic cancellation, and
    its residual along the base can exceed ORTHOGONALITY_TOL."""
    wr, wi, wn = _direction(base, v)
    return _row([x / wn for x in wr], [y / wn for y in wi])


def _log_coords(base: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """(magnitude, unit direction) of :func:`log_map` on plain rows."""
    bc, tc, rr, ri, aa, a = _connect(base, target)
    w = _offset(*bc, *tc, rr, ri, aa)
    wn = math.sqrt(_sqnorm(*w))
    # ||w|| = d / |rho| exactly, so d = |rho| ||w|| and the arc length is
    # arctan(||w||); both stay fully accurate for nearly coincident pairs.
    if a * wn < ZERO_TANGENT_TOL:
        return 0.0, np.zeros_like(base)
    return math.atan(wn), _unit_tangent(bc, w)


def log_map(base: GrassmannPoint, target: GrassmannPoint) -> TangentVector:
    """Tangent at ``base`` whose geodesic reaches ``target`` at t = 1.

    Magnitude equals the principal angle arctan(d / |rho|) = arccos |rho|;
    pairs with chordal distance below ``ZERO_TANGENT_TOL`` give the zero
    tangent, and |rho| <= RHO_MIN raises :class:`CutLocusError`.
    """
    _check_pair(base, target)
    return TangentVector._wrap(base, *_log_coords(base.coords, target.coords))


def _geodesic_coords(base: np.ndarray, direction: np.ndarray, angle: float) -> np.ndarray:
    """:func:`exp_map` on plain rows, for arc length ``angle``."""
    cos, sin = math.cos(angle), math.sin(angle)
    return _row(*_geodesic_cols(*_cols(base), *_cols(direction), cos, sin))


def exp_map(base: GrassmannPoint, tangent: TangentVector, t: float = 1.0) -> GrassmannPoint:
    """Point reached after time ``t`` along the geodesic generated by ``tangent``.

    G(base, e, t) = base * cos(||e|| t) + e_hat * sin(||e|| t).  ``t`` is
    normally in [0, 1]; values above 1 extrapolate past the endpoint and are
    permitted.
    """
    if tangent.base is not base:
        if tangent.base.n != base.n or chordal_distance(tangent.base, base) >= ORTHOGONALITY_TOL:
            raise ValueError("tangent is not based at the given point")
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise ValueError(f"t must be a finite non-negative scalar, got {t!r}")
    if tangent.is_zero or t == 0.0:
        return GrassmannPoint(base.coords)
    return GrassmannPoint._wrap(
        _geodesic_coords(base.coords, tangent.direction, tangent.magnitude * t)
    )


def parallel_transport(x1: GrassmannPoint, x2: GrassmannPoint) -> TangentVector:
    """Transport of the tangent log_map(x1, x2) along the geodesic to ``x2``.

    Returns the tangent at ``x2`` pointing away from ``x1``, with the same
    magnitude as the connecting tangent:

        e_hat = arctan(d / |rho|) * (x2 rho^* - x1) / d.
    """
    _check_pair(x1, x2)
    xc, yc, rr, ri, _, a = _connect(x1.coords, x2.coords)
    u = _offset(*xc, *yc, rr, ri, 1.0)
    un = math.sqrt(_sqnorm(*u))
    # ||u|| = d exactly; the ratio keeps precision for small separations.
    if un < ZERO_TANGENT_TOL:
        return TangentVector.zero(x2)
    return TangentVector._wrap(x2, math.atan(un / a), _unit_tangent(yc, u))


def _predict_coords(x_prev: np.ndarray, x_curr: np.ndarray) -> np.ndarray:
    """:func:`predict_one_step` on plain rows."""
    a, (vr, vi) = _predict_cols(*_cols(x_prev), *_cols(x_curr))
    if a <= RHO_MIN:
        raise CutLocusError(a)
    return _row(vr, vi)


def predict_one_step(x_prev: GrassmannPoint, x_curr: GrassmannPoint) -> GrassmannPoint:
    """Extrapolate one step along the geodesic from ``x_prev`` through ``x_curr``.

    With rho = x_prev^H x_curr the prediction is

        x_tilde = (|rho| + rho^*) x_curr - x_prev,

    which is unit norm and preserves the step size:
    d(x_curr, x_tilde) = d(x_prev, x_curr).
    """
    _check_pair(x_prev, x_curr)
    return GrassmannPoint._wrap(_predict_coords(x_prev.coords, x_curr.coords))


def sequence_correlation(xs, ys, lag: int) -> float:
    """Mean chordal distance between ``xs[k]`` and ``ys[k + lag]``.

    ``lag`` may be any integer for which at least one index pair overlaps.
    """
    lag = int(lag)
    xs = list(xs)
    ys = list(ys)
    start = max(0, -lag)
    stop = min(len(xs), len(ys) - lag)
    if stop <= start:
        raise ValueError(f"no overlap between sequences at lag {lag}")
    total = 0.0
    for k in range(start, stop):
        total += chordal_distance(xs[k], ys[k + lag])
    return total / (stop - start)


def random_point(n: int, rng: np.random.Generator) -> GrassmannPoint:
    """Draw a point uniformly (Haar) on G(n, 1)."""
    v = _as_vector(rng.standard_normal(n) + 1j * rng.standard_normal(n), "vector")
    # A Gaussian draw is finite and of moderate norm: v / ||v|| is unit to rounding.
    return GrassmannPoint._wrap(v / math.sqrt(_sqnorm(*_cols(v))))
