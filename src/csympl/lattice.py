"""Even unimodular lattice arithmetic for K3 period computations.

All pairings of integer vectors run in exact integer arithmetic (Python
ints, no floats).  The standard rank-22 lattice is U^3 + E8(-1)^2 of
signature (3, 19); primitive isotropic classes e play the role of fiber
classes, and the module produces section classes s with (s, e) = 1,
(s, s) = -2, the deformation parameter t with (s, omega - t e) = 0, and
the two-plane sweeps of degenerate twistor curves in the period domain.
"""

import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache
from math import gcd

import numpy as np

from .linalg import DEFAULT_TOL, PostconditionError

#: Gram matrix of the hyperbolic plane U.
U_GRAM = [[0, 1], [1, 0]]

#: Gram matrix of E8 with reversed sign, i.e. negative definite.
#: Nodes 0-6 form a chain; node 7 attaches to node 4.
E8_MINUS_GRAM = [
    [-2, 1, 0, 0, 0, 0, 0, 0],
    [1, -2, 1, 0, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 1],
    [0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 1, -2, 0],
    [0, 0, 0, 0, 1, 0, 0, -2],
]


def _det_exact(rows) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


class IntegralLattice:
    """Integer lattice with pairing (v, w) = v^T G w.

    The Gram matrix is read once and kept immutable: ``gram`` is a tuple of
    tuples of ints, the exact pairing sums over its non-zero entries, kept
    as (i, j, g_ij) triples, and the float pairing uses a read-only float
    copy.  The determinant and the root pool are computed on first use and
    kept on the instance.
    """

    def __init__(self, gram):
        rows = tuple(tuple(map(int, row)) for row in gram)
        r = len(rows)
        if any(len(row) != r for row in rows):
            raise ValueError("Gram matrix must be square")
        for i in range(r):
            for j in range(r):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        self.rank = r
        self.gram = rows
        self._nonzeros = tuple((i, j, g) for i, row in enumerate(rows) for j, g in enumerate(row) if g)
        self._gram_float = np.asarray(rows, dtype=float)
        self._gram_float.setflags(write=False)
        self._determinant = None
        self._roots = None

    def pair(self, v, w):
        """Exact integer pairing for integer vectors; floats allowed for
        real or complex cohomology-class vectors.

        The exact path takes integer-dtype arrays and sequences whose every
        entry is a Python int or bool or a numpy integer; their entries
        become Python ints in one pass, so numpy int64 input cannot
        overflow.  Anything else, ``np.bool_`` entries included, pairs in
        floats."""
        try:
            vi, wi = _int_entries(v), _int_entries(w)
        except TypeError:
            return np.asarray(v) @ self._gram_float @ np.asarray(w)
        return sum(vi[i] * g * wi[j] for i, j, g in self._nonzeros)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def determinant(self) -> int:
        if self._determinant is None:
            self._determinant = _det_exact(self.gram)
        return self._determinant

    def is_unimodular(self) -> bool:
        return abs(self.determinant()) == 1

    def signature(self):
        """(positive, negative, zero) inertia by exact congruence
        diagonalization over the rationals."""
        a = [[Fraction(x) for x in row] for row in self.gram]
        n = self.rank
        pos = neg = zero = 0
        for k in range(n):
            if a[k][k] == 0:
                swap = next((i for i in range(k + 1, n) if a[i][i] != 0 and a[i][k] != 0), None)
                if swap is not None:
                    a[k], a[swap] = a[swap], a[k]
                    for row in a:
                        row[k], row[swap] = row[swap], row[k]
                else:
                    j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                    if j is None:
                        zero += 1
                        continue
                    for col in range(n):
                        a[k][col] += a[j][col]
                    for row in a:
                        row[k] += row[j]
                    if a[k][k] == 0:
                        zero += 1
                        continue
            pivot = a[k][k]
            if pivot > 0:
                pos += 1
            else:
                neg += 1
            for i in range(k + 1, n):
                f = a[i][k] / pivot
                if f == 0:
                    continue
                for col in range(n):
                    a[i][col] -= f * a[k][col]
                for row in a:
                    row[i] -= f * row[k]
        return pos, neg, zero

    def __repr__(self):
        return f"IntegralLattice(rank={self.rank})"


def _int_entries(v) -> list:
    """Entries of an integer vector as Python ints, in one pass; TypeError
    for an array of non-integer dtype or an entry that is not an integer."""
    if isinstance(v, np.ndarray):
        if not issubclass(v.dtype.type, np.integer):
            raise TypeError(f"{v.dtype} is not an integer dtype")
        return v.tolist()
    return list(map(operator.index, v))


def _as_int_list(v):
    return [int(x) for x in v]


def block_diagonal(*blocks) -> IntegralLattice:
    size = sum(len(b) for b in blocks)
    gram = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        r = len(b)
        for i in range(r):
            for j in range(r):
                gram[offset + i][offset + j] = int(b[i][j])
        offset += r
    return IntegralLattice(gram)


@cache
def standard_k3_lattice() -> IntegralLattice:
    """U^3 + E8(-1)^2, rank 22, even, unimodular, signature (3, 19).

    Built and checked once per process: every call returns the same
    instance, whose Gram matrix cannot be changed."""
    lat = block_diagonal(U_GRAM, U_GRAM, U_GRAM, E8_MINUS_GRAM, E8_MINUS_GRAM)
    if not (lat.is_even() and lat.is_unimodular()):
        raise PostconditionError("U^3 + E8(-1)^2 is not even unimodular")
    return lat


def is_primitive_isotropic(lattice: IntegralLattice, e) -> bool:
    """gcd of entries 1 and (e, e) = 0, in exact arithmetic."""
    e = _as_int_list(e)
    if all(x == 0 for x in e):
        raise ValueError("zero vector")
    content = 0
    for x in e:
        content = gcd(content, x)
    return content == 1 and lattice.pair(e, e) == 0


def dual_vector(lattice: IntegralLattice, e):
    """Integer b with (b, e) = 1, from extended gcd over the entries of Ge.

    Exists exactly when gcd(Ge) = 1, which unimodularity grants for
    primitive e; non-primitive input is rejected.
    """
    e = _as_int_list(e)
    w = [0] * lattice.rank
    for i, j, g in lattice._nonzeros:
        w[i] += g * e[j]
    coeffs = [0] * lattice.rank
    g = 0
    for i, wi in enumerate(w):
        if wi == 0:
            continue
        if g == 0:
            g, coeffs = abs(wi), [0] * lattice.rank
            coeffs[i] = 1 if wi > 0 else -1
            continue
        old_g = g
        g, x, y = _xgcd(g, wi)
        coeffs = [x * c for c in coeffs]
        coeffs[i] += y
        if g == 1:
            break
        if g > old_g:
            raise PostconditionError(f"gcd grew from {old_g} to {g}")
    if g != 1:
        raise ValueError(f"no dual vector: gcd(Ge) = {g} != 1 (e is not primitive)")
    b = coeffs
    be = lattice.pair(b, e)
    if be != 1:
        raise PostconditionError(f"(b, e) = {be} != 1 for dual vector b = {b}")
    return b


def _xgcd(a: int, b: int):
    """g, x, y with x a + y b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def square_minus_two(lattice: IntegralLattice, e, b):
    """a = b - ((b, b)/2 + 1) e, the vector with (a, e) = 1, (a, a) = -2.

    The coefficient is forced by expanding (a, a) = (b, b) - 2 c (b, e)
    with (e, e) = 0 and (b, e) = 1; checked exactly on the result.
    """
    e, b = _as_int_list(e), _as_int_list(b)
    if lattice.pair(b, e) != 1:
        raise ValueError("(b, e) != 1")
    if not lattice.is_even():
        raise ValueError("lattice is not even")
    bb = lattice.pair(b, b)
    c = bb // 2 + 1
    a = [bi - c * ei for bi, ei in zip(b, e)]
    ae = lattice.pair(a, e)
    if ae != 1:
        raise PostconditionError(f"(a, e) = {ae} != 1 for a = {a}")
    aa = lattice.pair(a, a)
    if aa != -2:
        raise PostconditionError(f"(a, a) = {aa} != -2 for a = {a}")
    return a


def find_section_class(lattice: IntegralLattice, e):
    """s with (s, e) = 1 and (s, s) = -2 for primitive isotropic e."""
    if not lattice.is_unimodular() or not lattice.is_even():
        raise ValueError("lattice must be even unimodular")
    if not is_primitive_isotropic(lattice, e):
        raise ValueError("e must be primitive isotropic")
    return square_minus_two(lattice, e, dual_vector(lattice, e))


def reflect(lattice: IntegralLattice, root, v):
    """Reflection v + (v, root) root in a (-2)-vector; a lattice isometry."""
    root, v = _as_int_list(root), _as_int_list(v)
    if lattice.pair(root, root) != -2:
        raise ValueError("reflections need (root, root) = -2")
    return _reflect(lattice, root, v)


def _reflect(lattice: IntegralLattice, root, v):
    """``reflect`` of an int vector in a root known to have (root, root) = -2,
    as every ``_root_pool`` entry has by construction; the norm is not
    re-checked."""
    p = lattice.pair(v, root)
    return [vi + p * ri for vi, ri in zip(v, root)]


def _root_pool(lattice: IntegralLattice):
    """Every (-2)-vector of the form e_i + c e_j with i < j and c = +-1.

    Ordered by i, then j, then c = +1 before c = -1; the norm
    G_ii + 2c G_ij + G_jj is read off the Gram matrix.  Single basis
    vectors are not in the pool, although the E8(-1) basis vectors are
    roots.  On the K3 lattice the pool holds 110 sums and 99 differences.
    Random reflection words index into this tuple, so its content and order
    fix every seeded lattice report.  Read once per lattice and kept on it,
    as tuples that no caller can change.
    """
    if lattice._roots is None:
        gram, rank = lattice.gram, lattice.rank
        pool = []
        for i in range(rank):
            for j in range(i + 1, rank):
                for c in (1, -1):
                    if gram[i][i] + 2 * c * gram[i][j] + gram[j][j] == -2:
                        v = [0] * rank
                        v[i] = 1
                        v[j] = c
                        pool.append(tuple(v))
        lattice._roots = tuple(pool)
    return lattice._roots


def random_primitive_isotropic(
    lattice: IntegralLattice, rng: np.random.Generator, steps: int = 8
):
    """Image of the first hyperbolic isotropic vector under random
    (-2)-reflections; stays primitive and isotropic by isometry."""
    e = [0] * lattice.rank
    e[0] = 1
    pool = _root_pool(lattice)
    for _ in range(steps):
        root = pool[int(rng.integers(len(pool)))]
        e = _reflect(lattice, root, e)
    if not is_primitive_isotropic(lattice, e):
        raise PostconditionError(f"reflection image {e} is not primitive isotropic")
    return e


def random_isometry_images(lattice: IntegralLattice, rng: np.random.Generator, vectors, steps: int = 8):
    """Apply one random reflection word to several vectors at once."""
    pool = _root_pool(lattice)
    word = [pool[int(rng.integers(len(pool)))] for _ in range(steps)]
    out = []
    for v in vectors:
        image = _as_int_list(v)
        for root in word:
            image = _reflect(lattice, root, image)
        out.append(image)
    return out


@dataclass(frozen=True)
class PeriodPoint:
    """Class [Omega] in Lambda tensor C spanning a positive 2-plane."""

    lattice: IntegralLattice
    omega_class: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        omega = np.asarray(self.omega_class, dtype=np.complex128).reshape(-1)
        if omega.shape[0] != self.lattice.rank:
            raise ValueError("class length differs from lattice rank")
        square = self.lattice.pair(omega, omega)
        norm = self.lattice.pair(omega, omega.conj())
        scale = max(abs(self.lattice.pair(omega.real, omega.real)), abs(norm), 1e-300)
        if abs(square) > DEFAULT_TOL * scale:
            raise ValueError(f"(Omega, Omega) = {square} != 0")
        if not norm.real > 0:
            raise ValueError(f"(Omega, conj Omega) = {norm} is not positive")
        object.__setattr__(self, "omega_class", omega)

    @classmethod
    def standard(cls, lattice: IntegralLattice) -> "PeriodPoint":
        """Re Omega = f1 + g1, Im Omega = f2 + g2 in the first two U blocks."""
        omega = np.zeros(lattice.rank, dtype=np.complex128)
        omega[0] = omega[1] = 1.0
        omega[2] = omega[3] = 1j
        return cls(lattice, omega)


def twistor_parameter(lattice: IntegralLattice, s, e, omega_class) -> complex:
    """t = (s, omega) / (s, e): the unique parameter making s orthogonal
    to omega - t e; rejected when (s, e) = 0."""
    s = _as_int_list(s)
    e = _as_int_list(e)
    se = lattice.pair(s, e)
    if se == 0:
        raise ValueError("(s, e) = 0: no unique deformation parameter")
    omega = np.asarray(omega_class, dtype=np.complex128)
    t = complex(lattice.pair(s, omega)) / se
    return t


@dataclass(frozen=True)
class TwistorPlane:
    v1: np.ndarray
    v2: np.ndarray
    gram: np.ndarray


@dataclass(frozen=True)
class TwistorCurve:
    """Degenerate twistor curve through a period point in direction e.

    Requires e isotropic and orthogonal to the period plane, checked once
    here; then every plane of the curve has a positive definite 2x2 Gram
    under the lattice pairing that does not depend on (x, y).

    When Re Omega and Im Omega are integral, the plane vectors are
    v1 = a + 2x e and v2 = b - 2y e with integer classes a = 2 Re Omega and
    b = -2 Im Omega, so each plane's Gram follows by bilinearity from six
    exact pairings made here; other period points pair v1 and v2 in floats,
    four pairings per plane.  ``sweep`` decides any number of planes with
    one ``np.linalg.eigvalsh`` call; ``plane`` is a sweep of one point.
    """

    point: PeriodPoint
    e: list
    #: ((a, a), (a, b), (b, b), (a, e), (b, e), (e, e)) in exact integers,
    #: or None for a non-integral period point.
    _pairings: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lattice = self.point.lattice
        e = _as_int_list(self.e)
        omega = self.point.omega_class
        e_square = lattice.pair(e, e)
        if e_square != 0:
            raise ValueError("(e, e) != 0: direction must be isotropic")
        scale = max(float(np.abs(lattice.pair(omega, omega.conj()))), 1e-300)
        for label, vec in (("Re Omega", omega.real), ("Im Omega", omega.imag)):
            pairing = float(lattice.pair(e, vec))
            if abs(pairing) > DEFAULT_TOL * scale:
                raise ValueError(f"(e, {label}) = {pairing} != 0")
        object.__setattr__(self, "e", e)
        pairings = None
        if np.all(np.isfinite(omega)) and np.all(omega == np.round(omega)):
            a = _as_int_list(2 * omega.real)
            b = _as_int_list(-2 * omega.imag)
            pair = lattice.pair
            pairings = (pair(a, a), pair(a, b), pair(b, b), pair(a, e), pair(b, e), e_square)
        object.__setattr__(self, "_pairings", pairings)

    def sweep(self, x, y):
        """Gram matrices of the planes at the points (x[k], y[k]) and their
        eigenvalues, of shapes (n, 2, 2) and (n, 2), from one
        ``np.linalg.eigvalsh`` call.  Plane k is positive when both
        ``eigenvalues[k]`` are > 0; the caller decides what a plane that is
        not does (``not_positive`` says why it is rejected)."""
        points = [(float(xk), float(yk)) for xk, yk in zip(x, y, strict=True)]
        if self._pairings is None:
            grams = [self._float_gram(*self._vectors(xk, yk)) for xk, yk in points]
        else:
            grams = [self._exact_gram(xk, yk) for xk, yk in points]
        grams = np.array(grams, dtype=float)
        return grams, np.linalg.eigvalsh(grams)

    def plane(self, x: float, y: float) -> TwistorPlane:
        """Plane spanned by (Omega + conj Omega) + 2x e and
        i (Omega - conj Omega) - 2y e; ValueError unless it is positive."""
        grams, eigenvalues = self.sweep([x], [y])
        if not np.all(eigenvalues > 0):
            raise ValueError(not_positive(eigenvalues[0]))
        v1, v2 = self._vectors(float(x), float(y))
        return TwistorPlane(v1=v1, v2=v2, gram=grams[0])

    def _vectors(self, x: float, y: float):
        omega = self.point.omega_class
        e_arr = np.asarray(self.e, dtype=float)
        v1 = (omega + omega.conj()).real + 2.0 * x * e_arr
        v2 = (1j * (omega - omega.conj())).real - 2.0 * y * e_arr
        return v1, v2

    def _float_gram(self, v1, v2):
        pair = self.point.lattice.pair
        return [[pair(v1, v1), pair(v1, v2)], [pair(v2, v1), pair(v2, v2)]]

    def _exact_gram(self, x: float, y: float):
        """Gram of v1 = a + 2x e, v2 = b - 2y e with x = px/qx and
        y = py/qy exact dyadic rationals: each entry is one integer over
        qx^2, qx qy or qy^2, divided once with correct rounding."""
        aa, ab, bb, ae, be, ee = self._pairings
        px, qx = x.as_integer_ratio()
        py, qy = y.as_integer_ratio()
        v1v1 = aa * qx * qx + 4 * px * qx * ae + 4 * px * px * ee
        v1v2 = ab * qx * qy - 2 * py * qx * ae + 2 * px * qy * be - 4 * px * py * ee
        v2v2 = bb * qy * qy - 4 * py * qy * be + 4 * py * py * ee
        off = v1v2 / (qx * qy)
        return [[v1v1 / (qx * qx), off], [off, v2v2 / (qy * qy)]]


def not_positive(eigenvalues) -> str:
    """Why a twistor plane with these Gram eigenvalues is rejected."""
    return f"plane is not positive: Gram eigenvalues {eigenvalues}"


def twistor_curve_plane(point: PeriodPoint, e, x: float, y: float) -> TwistorPlane:
    """One plane of the curve ``TwistorCurve(point, e)``; sweeps over
    many planes build the curve once and call its ``sweep``."""
    return TwistorCurve(point, e).plane(x, y)
