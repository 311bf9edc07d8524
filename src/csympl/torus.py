"""Flat torus fibration testbed: C^2 / Z^4 -> C / Z^2.

Real coordinates are (x1, y1, x2, y2) with z1 = x1 + i y1 on the base and
z2 = x2 + i y2 on the fiber; the constant form dz1 ^ dz2 makes the
fibration Lagrangian.  Sections are doubly periodic Fourier polynomials,
their pullback forms and differentials are evaluated analytically; finite
differences enter only where no analytic expression exists (exterior
derivative of sampled fields, Nijenhuis tensor of the deformed structure
field).  All sampled fields depend on the base point alone, so they are
stored per base node: a field on ``TorusGrid(n)`` is an ``(n, n, 4, 4)``
array, a complex skew matrix per node for a 2-form (a base form stored
lifted), a real endomorphism per node for a structure field, and an
``(n, n, 4)`` array over ``TRIPLES`` for a 3-form.
"""

from dataclasses import dataclass, field as dc_field
from types import MappingProxyType

import numpy as np

from .csymplectic import Q_BLOCK, induced_structures
from .linalg import max_abs
from .multiindex import index_tuples

#: Index triples of 3-form components on R^4.
TRIPLES = index_tuples(4, 3)

#: Base complex structure on (x1, y1).
BASE_J = np.array([[0.0, -1.0], [1.0, 0.0]])

#: Matrix of dz1 ^ dz2conj, the anti-holomorphic fiber pairing used by the
#: non-closed control form.
R_BLOCK = np.array(
    [
        [0, 0, 1, -1j],
        [0, 0, 1j, 1],
        [-1, -1j, 0, 0],
        [1j, -1, 0, 0],
    ],
    dtype=np.complex128,
)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on the base torus, n nodes per coordinate."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ValueError("grid resolution must be even and at least 8")

    def axes(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def mesh(self):
        x = self.axes()
        return np.meshgrid(x, x, indexing="ij")


class SmoothSection:
    """Doubly periodic section sigma(z1) = (z1, s(z1)), s a Fourier polynomial.

    ``modes`` maps integer wave vectors (k1, k2) to complex coefficients;
    s(x, y) = sum c_k exp(2 pi i (k1 x + k2 y)).  Values wrap into the
    fiber torus; derivatives are exact.  ``modes`` is a read-only mapping,
    so a sampled differential never goes stale.
    """

    def __init__(self, modes: dict):
        self.modes = MappingProxyType({tuple(int(i) for i in k): complex(c) for k, c in modes.items()})
        self._sampled = {}

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        k_max: int = 3,
        amplitude: float = 2e-4,
    ) -> "SmoothSection":
        """Gaussian coefficients with 1 / (1 + |k|^2) decay up to |k|_inf <= k_max.

        The default amplitude keeps the mode-k_max content small enough
        that second-order finite differences resolve the induced
        structure field on the default 64^2 grid.
        """
        modes = {}
        for k1 in range(-k_max, k_max + 1):
            for k2 in range(-k_max, k_max + 1):
                decay = amplitude / (1.0 + k1 * k1 + k2 * k2)
                modes[(k1, k2)] = decay * complex(rng.standard_normal(), rng.standard_normal())
        return cls(modes)

    @classmethod
    def constant(cls, value: complex) -> "SmoothSection":
        return cls({(0, 0): value})

    def value(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.complex128)
        for (k1, k2), c in self.modes.items():
            out += c * np.exp(2j * np.pi * (k1 * x + k2 * y))
        return out

    def derivatives(self, x, y):
        """Exact (ds/dx, ds/dy) from the Fourier series.

        Each mode is the product exp(2 pi i k1 x) exp(2 pi i k2 y), so one
        exponential per distinct wave number and coordinate serves every
        mode; on a grid, pass the broadcast axes ``x[:, None], y[None, :]``.
        The modes are summed pointwise in their dict order, and each term
        multiplies its scalar into an axis-sized array before the outer
        product, never into a grid-sized temporary (which numpy would
        multiply in place, to other last bits), so a node's value does not
        depend on the grid size.
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        ex = {k: np.exp(2j * np.pi * k * x) for k in {k1 for k1, _ in self.modes}}
        ey = {k: np.exp(2j * np.pi * k * y) for k in {k2 for _, k2 in self.modes}}
        sx = np.zeros(np.broadcast(x, y).shape, dtype=np.complex128)
        sy = np.zeros_like(sx)
        for (k1, k2), c in self.modes.items():
            sx += (2j * np.pi * k1 * c * ex[k1]) * ey[k2]
            sy += (2j * np.pi * k2 * c * ex[k1]) * ey[k2]
        return sx, sy

    def differential(self, x, y):
        """Real 4x2 differential of sigma at (x, y), stacked over the grid."""
        sx, sy = self.derivatives(x, y)
        shape = sx.shape
        d = np.zeros(shape + (4, 2))
        d[..., 0, 0] = 1.0
        d[..., 1, 1] = 1.0
        d[..., 2, 0] = sx.real
        d[..., 2, 1] = sy.real
        d[..., 3, 0] = sx.imag
        d[..., 3, 1] = sy.imag
        return d

    def grid_differential(self, grid: TorusGrid) -> np.ndarray:
        """``differential`` at every node of ``grid``, (n, n, 4, 2), read-only.

        Sampled once per grid and kept with the section, so that
        ``sample_section_form`` and ``verify_section_holomorphic`` share one
        evaluation."""
        if grid not in self._sampled:
            x = grid.axes()
            d = self.differential(x[:, None], x[None, :])
            d.flags.writeable = False
            self._sampled[grid] = d
        return self._sampled[grid]


def sample_section_form(sigma: SmoothSection, grid: TorusGrid) -> np.ndarray:
    """pi^* eta for eta = sigma^* (dz1 ^ dz2), from the exact differential.

    On a one-complex-dimensional base every 2-form is of type (1,1), so
    the Hodge-type requirement on eta holds structurally; the pointwise
    value is Omega(d sigma e1, d sigma e2), the dx1 ^ dy1 coefficient.
    """
    d = sigma.grid_differential(grid)
    eta = np.einsum("...a,ab,...b->...", d[..., 0], Q_BLOCK, d[..., 1])
    values = np.zeros(eta.shape + (4, 4), dtype=np.complex128)
    values[..., 0, 1] = eta
    values[..., 1, 0] = -eta
    return values


def nonclosed_control_form(grid: TorusGrid) -> np.ndarray:
    """cos(2 pi x1) dz1 ^ dz2conj: pointwise (1,1) on the total space, not closed.

    Base 2-forms are automatically closed (the base is a surface), so the
    negative control must carry fiber components; this is the smallest
    single-mode example.
    """
    x, _ = grid.mesh()
    f = np.cos(2 * np.pi * x)
    return f[..., None, None] * R_BLOCK


#: Matrix of dz1conj ^ dz2, the (1,1) pairing used by the closed control.
S_BLOCK = np.array(
    [
        [0, 0, 1, 1j],
        [0, 0, -1j, 1],
        [-1, 1j, 0, 0],
        [-1j, -1, 0, 0],
    ],
    dtype=np.complex128,
)


def closed_control_form(
    grid: TorusGrid, wave=(1, 2), amplitude: float = 5e-4
) -> np.ndarray:
    """d(u dz2) = u_z1 dz1 ^ dz2 + u_z1conj dz1conj ^ dz2 for a cosine u.

    Exact, hence closed, of pointwise type (2,0)+(1,1), and with genuinely
    mixed base directions: unlike pullbacks of base forms, the structure
    it induces has nonvanishing finite-difference truncation error, which
    is what makes the second-order Nijenhuis decay measurable.
    """
    k1, k2 = wave
    x, y = grid.mesh()
    phase = 2 * np.pi * (k1 * x + k2 * y)
    u_x = -2 * np.pi * k1 * amplitude * np.sin(phase)
    u_y = -2 * np.pi * k2 * amplitude * np.sin(phase)
    u_z = (u_x - 1j * u_y) / 2.0
    u_zbar = (u_x + 1j * u_y) / 2.0
    return u_z[..., None, None] * Q_BLOCK + u_zbar[..., None, None] * S_BLOCK


def _grid_size(field: np.ndarray) -> int:
    """n of an ``(n, n, 4, 4)`` node array; raises for any other shape."""
    if field.ndim != 4 or field.shape[1:] != (len(field), 4, 4):
        raise ValueError(f"expected an (n, n, 4, 4) node array, got shape {field.shape}")
    return len(field)


def exterior_derivative_fd(field: np.ndarray) -> np.ndarray:
    """Centered-difference exterior derivative of a 2-form field, periodic, O(h^2).

    Fields are constant along the fiber, so fiber partials vanish exactly;
    base partials use the periodic centered stencil with h = 1/n.  For
    a < b < c the component (d alpha)_abc = d_a alpha_bc - d_b alpha_ac +
    d_c alpha_ab keeps d_b only for a base direction b, and c is always a
    fiber direction.  Only the coefficients above the diagonal are read, so
    skewness is not checked here.  Returns the ``(n, n, 4)`` 3-form.
    """
    n = _grid_size(field)
    h = 1.0 / n

    def partial(axis, i, j):
        comp = field[..., i, j]
        return (np.roll(comp, -1, axis=axis) - np.roll(comp, 1, axis=axis)) / (2 * h)

    out = np.empty((n, n, 4), dtype=np.complex128)
    for p, (a, b, c) in enumerate(TRIPLES):
        out[..., p] = partial(a, b, c) - partial(b, a, c) if b < 2 else partial(a, b, c)
    return out


def deformed_structure_field(eta: np.ndarray, t: complex) -> np.ndarray:
    """Pointwise induced structure of Omega + t * eta, for a finite, exactly
    skew 2-form field eta.  Raises ``ValueError`` for a non-finite entry,
    then for a field that is not skew.

    One stacked call of the c-symplectic core over all nodes.  A node
    fails when its kernel rank or real span is wrong or its structure
    misses the single-form square or linearity threshold; its structure
    is NaN (see ``failed_nodes``).
    """
    _grid_size(eta)
    if not np.isfinite(eta).all():
        raise ValueError("two-form field has a non-finite entry")
    if max_abs(eta + np.swapaxes(eta, -1, -2)) != 0:
        raise ValueError("two-form field is not skew")
    # eta is never a temporary, so numpy never computes this product in
    # place, which at complex t rounds differently and only on large grids
    return induced_structures(Q_BLOCK + complex(t) * eta)[0]


def failed_nodes(structures: np.ndarray) -> int:
    """Number of nodes without an induced structure, the ones holding NaN."""
    return int(np.sum(np.isnan(structures).any(axis=(-1, -2))))


def nijenhuis_node_norms(structures: np.ndarray) -> np.ndarray:
    """Per-node max over coordinate pairs of |N(e_a, e_b)|.

    N(X, Y) = [IX, IY] - I[IX, Y] - I[X, IY] - [X, Y] on coordinate
    fields, with derivatives of I by periodic centered differences (the
    field varies over the base only, so fiber partials vanish).  N is
    antisymmetric, so only the pairs a < b are evaluated.

    The stencil runs node-last: the field is transposed once to
    ``(4, 4, n, n)``, so every product and sum runs over the contiguous
    node axes.  Of the twists I d_j I it forms only the six columns the
    pairs read, and it folds each pair's squared norm into a running
    maximum.  Each product, sum and difference keeps its operands and their
    order, so a node's norm does not depend on the layout, bit for bit.
    """
    h = 1.0 / _grid_size(structures)
    ind = np.ascontiguousarray(structures.transpose(2, 3, 0, 1))
    # base partials d_0, d_1 only; the fiber partials d_2, d_3 are zero
    d = [(np.roll(ind, -1, axis=axis) - np.roll(ind, 1, axis=axis)) / (2 * h) for axis in (2, 3)]

    def flow(p, q):  # I_{jp} d_j I_{iq} over i, summed over the base directions j
        return ind[0, p] * d[0][:, q] + ind[1, p] * d[1][:, q]

    def twisted(j, k):  # (I d_j I)_{ik} = I_{il} d_j I_{lk} over i, summed in order of l
        out = ind[:, 0] * d[j][0, k]
        for l in range(1, 4):
            out += ind[:, l] * d[j][l, k]
        return out

    # -I[Ie_a, e_b] - I[e_a, Ie_b] = (I d_b I)_{ia} - (I d_a I)_{ib}, where
    # each term is zero for a fiber direction b or a: only the columns
    # k = 1, 2, 3 of I d_0 I and k = 0, 2, 3 of I d_1 I are read
    twists = {(j, k): twisted(j, k) for j, k in ((0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3))}
    peak = None
    for p, q in zip(*np.triu_indices(4, 1)):
        # [Ie_a, Ie_b]^i = I_{ja} d_j I_{ib} - I_{jb} d_j I_{ia}
        bracket = flow(p, q) - flow(q, p)
        if q < 2:
            column = bracket + (twists[q, p] - twists[p, q])
        elif p < 2:
            column = bracket - twists[p, q]
        else:
            column = bracket
        squares = column**2  # summed over i in order
        norm2 = squares[0] + squares[1] + squares[2] + squares[3]
        peak = norm2 if peak is None else np.maximum(peak, norm2)
    return np.sqrt(peak)


def nijenhuis_norm(structures: np.ndarray) -> float:
    return float(np.max(nijenhuis_node_norms(structures)))


@dataclass(frozen=True)
class SectionHolomorphyCertificate:
    max_residual: float
    node_residuals: np.ndarray = dc_field(repr=False)
    structure: np.ndarray = dc_field(repr=False)


def verify_section_holomorphic(sigma: SmoothSection, eta: np.ndarray) -> SectionHolomorphyCertificate:
    """Check d sigma o J_base = I' o d sigma at every node of eta's grid for t = -1.

    eta = pi^* sigma^* Omega, as sampled by ``sample_section_form``, and I'
    the structure induced by Omega - eta; the differential is exact, so
    the residual is pure linear algebra.
    """
    structure = deformed_structure_field(eta, -1.0)
    d = sigma.grid_differential(TorusGrid(len(eta)))
    lhs = d @ BASE_J
    rhs = structure @ d
    residuals = np.max(np.abs(lhs - rhs), axis=(-1, -2))
    return SectionHolomorphyCertificate(
        max_residual=float(np.max(residuals)),
        node_residuals=residuals,
        structure=structure,
    )
