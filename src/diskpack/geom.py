"""Numerical kernel for hyperbolic geometry in the Poincare unit disk.

Points are complex numbers with |z| < 1.  Isometries are unit-determinant
2x2 complex matrices of the form [[a, b], [conj(b), conj(a)]] acting by
Mobius transformation, with an explicit orientation flag: an isometry with
``reversing=True`` conjugates its argument before applying the matrix.

The module also provides generalized circles (Euclidean circles or lines)
used to represent geodesics, polygon edge carriers and equidistant curves
(hypercycles), plus the classification and displacement machinery built on
the standard identities

    sinh(d(z, g z)/2) = cosh(d(z, A)) * sinh(T/2)     (g hyperbolic)
    cosh(d(z, g z)/2) = cosh(d(z, A)) * cosh(T/2)     (g glide reflection)

where A is the axis and T the translation length of g.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

PARABOLIC_TOL = 1e-9
TANGENT_TOL = 1e-12
COINCIDENT_TOL = 1e-9

IDENTITY_TAG = "identity"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"
REFLECTION = "reflection"
GLIDE = "glide"


class GeometryError(Exception):
    pass


class DegenerateClassification(GeometryError):
    """Reversing isometry whose square is neither the identity nor hyperbolic."""


class NotAxial(GeometryError):
    """Raised when an axis/displacement is requested for a non-axial isometry."""


class CoincidentCurves(GeometryError):
    """Raised when two generalized circles to be intersected coincide."""


@dataclass(frozen=True)
class Isometry:
    """Disk isometry z -> (a w + b) / (conj(b) w + conj(a)), w = z or conj(z).

    The matrix is renormalized to unit determinant |a|^2 - |b|^2 = 1 on
    construction, so composition chains do not accumulate scale drift.
    """

    a: complex
    b: complex
    reversing: bool = False

    def __post_init__(self):
        a, b = complex(self.a), complex(self.b)
        try:
            det = abs(a) ** 2 - abs(b) ** 2
        except OverflowError:  # float pow raises where a product gives inf
            det = math.inf
        if not 0.0 < det < math.inf:  # NaN fails both comparisons
            raise GeometryError(f"matrix does not preserve the disk (det={det})")
        if abs(det - 1.0) > 1e-15:
            s = math.sqrt(det)
            a, b = a / s, b / s
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def identity(cls) -> "Isometry":
        return cls(1.0, 0.0)

    @classmethod
    def rotation(cls, theta: float) -> "Isometry":
        """Rotation by theta about the origin."""
        return cls(cmath.exp(0.5j * theta), 0.0)

    @classmethod
    def translation_to(cls, p: complex) -> "Isometry":
        """The conformal map 0 -> p with axis through 0 and p."""
        return cls(1.0, p)

    @classmethod
    def diameter_reflection(cls, normal: complex) -> "Isometry":
        """Reflection across the diameter {z : Re(conj(normal) z) = 0}."""
        n = complex(normal)
        n /= abs(n)
        return cls(1j * n, 0.0, True)

    def __call__(self, z: complex) -> complex:
        w = complex(z).conjugate() if self.reversing else complex(z)
        return (self.a * w + self.b) / (self.b.conjugate() * w + self.a.conjugate())

    def __mul__(self, other: "Isometry") -> "Isometry":
        # Left factor acts second; a reversing left factor conjugates the
        # right factor's matrix entries.
        a2, b2 = other.a, other.b
        if self.reversing:
            a2, b2 = a2.conjugate(), b2.conjugate()
        return Isometry(
            self.a * a2 + self.b * b2.conjugate(),
            self.a * b2 + self.b * a2.conjugate(),
            self.reversing != other.reversing,
        )

    def inverse(self) -> "Isometry":
        if self.reversing:
            return Isometry(self.a, -self.b.conjugate(), True)
        return Isometry(self.a.conjugate(), -self.b, False)

    def matrix_dist(self, other: "Isometry") -> float:
        """Entrywise distance to another isometry, up to overall matrix sign."""
        if self.reversing != other.reversing:
            return math.inf
        plus = abs(self.a - other.a) + abs(self.b - other.b)
        minus = abs(self.a + other.a) + abs(self.b + other.b)
        return min(plus, minus)

    def to_json(self) -> dict:
        """Artifact form: the matrix's first row [a, b] as [re, im] pairs; the
        second row [conj(b), conj(a)] follows from it."""
        return {
            "matrix": [[self.a.real, self.a.imag], [self.b.real, self.b.imag]],
            "reversing": self.reversing,
        }


@dataclass(frozen=True)
class IsometryClass:
    tag: str
    translation_length: float = 0.0


@dataclass(frozen=True)
class GeneralizedCircle:
    """Euclidean circle or line.

    A line is stored as {z : Re(conj(normal) z) = offset} with |normal| = 1.
    Geodesics are the circles orthogonal to the unit circle
    (|center|^2 = 1 + radius^2) and the diameters (offset = 0).
    """

    kind: str  # "circle" | "line"
    center: complex = 0j
    radius: float = 0.0
    normal: complex = 1 + 0j
    offset: float = 0.0

    @classmethod
    def circle(cls, center: complex, radius: float) -> "GeneralizedCircle":
        if radius <= 0.0:
            raise GeometryError(f"circle radius must be positive, got {radius}")
        return cls("circle", center=complex(center), radius=float(radius))

    @classmethod
    def line(cls, normal: complex, offset: float) -> "GeneralizedCircle":
        n = complex(normal)
        if abs(n) == 0.0:
            raise GeometryError("line normal must be nonzero")
        return cls("line", normal=n / abs(n), offset=float(offset))

    def is_geodesic(self, tol: float = 1e-9) -> bool:
        if self.kind == "circle":
            return abs(abs(self.center) ** 2 - (1.0 + self.radius**2)) <= tol
        return abs(self.offset) <= tol

    def side(self, z: complex) -> float:
        """Signed defining function: positive outside a circle / on the normal side."""
        if self.kind == "circle":
            return abs(z - self.center) ** 2 - self.radius**2
        return (self.normal.conjugate() * z).real - self.offset

    def ideal_points(self) -> tuple[complex, complex]:
        """The two intersections with the unit circle."""
        if self.kind == "line":
            if abs(self.offset) >= 1.0:
                raise GeometryError("line misses the unit circle")
            h = math.sqrt(1.0 - self.offset**2)
            u = self.offset * self.normal + h * 1j * self.normal
            v = self.offset * self.normal - h * 1j * self.normal
        else:
            d = abs(self.center)
            if d == 0.0:
                raise GeometryError("circle concentric with the unit circle")
            ahat = self.center / d
            x = (d * d + 1.0 - self.radius**2) / (2.0 * d)
            h2 = 1.0 - x * x
            if h2 < 0.0:
                raise GeometryError("circle misses the unit circle")
            h = math.sqrt(h2)
            u = (x + 1j * h) * ahat
            v = (x - 1j * h) * ahat
        return u, v


def dist(z: complex, w: complex) -> float:
    """Hyperbolic distance, cosh d = 1 + 2|z-w|^2 / ((1-|z|^2)(1-|w|^2))."""
    num = abs(z - w)
    den = abs(1.0 - w.conjugate() * z)
    return 2.0 * math.atanh(num / den)


def _conformal_fixed_points(g: Isometry) -> tuple[complex, complex]:
    """Roots of conj(b) z^2 + (conj(a) - a) z - b = 0 for a conformal map."""
    A = g.b.conjugate()
    B = g.a.conjugate() - g.a
    C = -g.b
    if abs(A) < 1e-300:
        # fixes 0 and infinity (rotation about the origin)
        return 0j, 0j
    sq = cmath.sqrt(B * B - 4.0 * A * C)
    if abs(B + sq) < abs(B - sq):
        sq = -sq
    q = -0.5 * (B + sq)
    return q / A, C / q


def classify(g: Isometry, parabolic_tol: float = PARABOLIC_TOL) -> IsometryClass:
    """Classify a disk isometry.

    Conformal maps by real trace t = 2 Re(a): |t| < 2 elliptic, |t| = 2
    identity or parabolic, |t| > 2 hyperbolic with cosh(T/2) = |t|/2.
    Reversing maps through their square: identity square -> reflection,
    hyperbolic square -> glide with half the square's translation length.
    """
    if not g.reversing:
        t = 2.0 * g.a.real
        if abs(abs(t) - 2.0) <= parabolic_tol:
            if abs(g.b) <= parabolic_tol and abs(g.a.imag) <= parabolic_tol:
                return IsometryClass(IDENTITY_TAG)
            return IsometryClass(PARABOLIC)
        if abs(t) < 2.0:
            return IsometryClass(ELLIPTIC)
        return IsometryClass(HYPERBOLIC, translation_length=2.0 * math.acosh(0.5 * abs(t)))
    sq = classify(g * g, parabolic_tol)
    if sq.tag == IDENTITY_TAG:
        return IsometryClass(REFLECTION)
    if sq.tag == HYPERBOLIC:
        return IsometryClass(GLIDE, translation_length=0.5 * sq.translation_length)
    raise DegenerateClassification(
        f"reversing isometry with {sq.tag} square is not a disk isometry"
    )


def geodesic_through(z: complex, w: complex) -> GeneralizedCircle:
    """The geodesic carrier through two distinct points of the closed disk."""
    zx, zy = z.real, z.imag
    wx, wy = w.real, w.imag
    det = zx * wy - zy * wx
    sep = abs(z - w)
    if sep == 0.0:
        raise GeometryError("geodesic through coincident points is undefined")
    if abs(det) <= 1e-13 * max(1.0, abs(z) * abs(w)):
        u = (w - z) / sep
        return GeneralizedCircle.line(1j * u, 0.0)
    rz = 0.5 * (1.0 + abs(z) ** 2)
    rw = 0.5 * (1.0 + abs(w) ** 2)
    cx = (rz * wy - rw * zy) / det
    cy = (rw * zx - rz * wx) / det
    c = complex(cx, cy)
    return GeneralizedCircle.circle(c, math.sqrt(abs(c) ** 2 - 1.0))


def axis(g: Isometry) -> GeneralizedCircle:
    """Invariant geodesic of a hyperbolic or glide isometry."""
    cls = classify(g)
    if cls.tag == GLIDE:
        base = g * g
    elif cls.tag == HYPERBOLIC:
        base = g
    else:
        raise NotAxial(f"{cls.tag} isometry has no axis")
    u, v = _conformal_fixed_points(base)
    return geodesic_through(u / abs(u), v / abs(v))


def signed_offset(z, A: GeneralizedCircle):
    """Signed sinh of the hyperbolic distance from z to the geodesic A.

    z is a complex scalar or a numpy array of points (the result then has
    its shape); both take the same arithmetic, so they agree bit for bit.
    """
    x, y = z.real, z.imag
    D = 1.0 - (x * x + y * y)
    if A.kind == "circle":
        # squares as products: numpy squares arrays that way, while a float
        # ** 2 goes through libm pow, which may round differently
        dx, dy, r = x - A.center.real, y - A.center.imag, A.radius
        return (dx * dx + dy * dy - r * r) / (r * D)
    return 2.0 * (A.normal.real * x + A.normal.imag * y - A.offset) / D


def displacement_offset(cls: IsometryClass, d: float) -> float | None:
    """Distance from the axis at which points are displaced exactly d.

    Returns None when no point of the plane is displaced by d (the
    displacement function attains its minimum on the axis).
    """
    if cls.tag == HYPERBOLIC:
        rhs = math.sinh(0.5 * d) / math.sinh(0.5 * cls.translation_length)
    elif cls.tag == GLIDE:
        rhs = math.cosh(0.5 * d) / math.cosh(0.5 * cls.translation_length)
    else:
        raise NotAxial(f"{cls.tag} isometry has no displacement offset")
    if rhs < 1.0 - 1e-12:
        return None
    if rhs <= 1.0:
        return 0.0
    return math.acosh(rhs)


def hypercycle(A: GeneralizedCircle, delta: float, side: int = 1) -> GeneralizedCircle:
    """Equidistant curve at distance delta from the geodesic A.

    ``side`` is +1 or -1 and selects the component with that sign of
    ``signed_offset``; for a circle geodesic +1 is the component on the
    origin's side of A.  delta = 0 returns A itself.
    """
    if side not in (1, -1):
        raise GeometryError(f"side must be +1 or -1, got {side}")
    if delta < 0.0:
        raise GeometryError("hypercycle offset must be nonnegative")
    if delta == 0.0:
        return A
    if A.kind == "circle":
        k = side * math.sinh(delta) * A.radius
        span = math.sqrt(A.radius**2 + k * k)
        if abs(1.0 + k) <= 1e-9 * span:
            # radius would exceed ~1e9; the curve is the chord of A's ideal
            # points to within the returned-curve tolerance
            d = abs(A.center)
            return GeneralizedCircle.line(A.center / d, 1.0 / d)
        c = A.center / (1.0 + k)
        return GeneralizedCircle.circle(c, span / abs(1.0 + k))
    k = side * math.sinh(delta)
    if abs(k) <= 1e-9 * math.sqrt(1.0 + k * k):
        return A
    return GeneralizedCircle.circle(-A.normal / k, math.sqrt(1.0 + k * k) / abs(k))


def _in_open_disk(z: complex) -> bool:
    return abs(z) < 1.0


def intersect(
    c1: GeneralizedCircle, c2: GeneralizedCircle, tangent_tol: float = TANGENT_TOL
) -> list[complex]:
    """Intersection points of two generalized circles inside the open unit disk.

    Tangencies (discriminant within tangent_tol of zero) give one point.
    Raises CoincidentCurves when both curves are the same within tolerance.
    """
    if c1.kind == "line" and c2.kind == "line":
        n1, n2 = c1.normal, c2.normal
        det = n1.real * n2.imag - n1.imag * n2.real
        if abs(det) <= 1e-13:
            same = abs(c1.side(c2.offset * n2)) <= COINCIDENT_TOL
            if same:
                raise CoincidentCurves("identical lines")
            return []
        x = (c1.offset * n2.imag - c2.offset * n1.imag) / det
        y = (c2.offset * n1.real - c1.offset * n2.real) / det
        pts = [complex(x, y)]
    elif c1.kind == "line" or c2.kind == "line":
        line, circ = (c1, c2) if c1.kind == "line" else (c2, c1)
        s = line.side(circ.center)
        foot = circ.center - s * line.normal
        h2 = circ.radius**2 - s * s
        if h2 < -tangent_tol:
            return []
        if h2 <= tangent_tol:
            pts = [foot]
        else:
            h = math.sqrt(h2)
            u = 1j * line.normal
            pts = [foot + h * u, foot - h * u]
    else:
        dvec = c2.center - c1.center
        d = abs(dvec)
        if d <= COINCIDENT_TOL:
            if abs(c1.radius - c2.radius) <= COINCIDENT_TOL:
                raise CoincidentCurves("identical circles")
            return []
        x = (d * d + c1.radius**2 - c2.radius**2) / (2.0 * d)
        h2 = c1.radius**2 - x * x
        if h2 < -tangent_tol:
            return []
        u = dvec / d
        base = c1.center + x * u
        if h2 <= tangent_tol:
            pts = [base]
        else:
            h = math.sqrt(h2)
            pts = [base + h * 1j * u, base - h * 1j * u]
    pts = [p for p in pts if _in_open_disk(p)]
    pts.sort(key=lambda p: (p.real, p.imag))
    return pts


def elliptic_about(p: complex, theta: float) -> Isometry:
    """Rotation by theta about the point p."""
    t = Isometry.translation_to(p)
    return t * Isometry.rotation(theta) * t.inverse()


def midpoint(z: complex, w: complex) -> complex:
    """Hyperbolic midpoint of two distinct points."""
    if abs(z - w) == 0.0:
        raise GeometryError("midpoint of coincident points is undefined")
    t = Isometry.translation_to(z)
    w0 = t.inverse()(w)
    r = abs(w0)
    m0 = math.tanh(0.5 * math.atanh(r)) * (w0 / r)
    return t(m0)


def geodesic_reflection(A: GeneralizedCircle) -> Isometry:
    """Reflection across a geodesic."""
    if not A.is_geodesic():
        raise GeometryError("reflection requires a geodesic")
    if A.kind == "line":
        return Isometry.diameter_reflection(A.normal)
    return Isometry(-1j * A.center / A.radius, 1j / A.radius, True)


def segment_aligner(u: complex, v: complex) -> Isometry:
    """Conformal map sending u to 0 and v onto the positive real axis."""
    t = Isometry.translation_to(u).inverse()
    w = t(v)
    return Isometry.rotation(-cmath.phase(w)) * t
