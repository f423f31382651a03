"""The flat hyperkahler model fiber and its exterior-algebra representation.

The fiber is V = H^n with orthonormal basis e_0..e_{4n-1}, metric the
identity, and I, J, K acting blockwise by left quaternion multiplication
(e_0, e_1, e_2, e_3) <-> (1, i, j, k).  This fixes every sign convention
downstream: omega_I = e^01 + e^23, omega_J = e^02 - e^13, omega_K = e^03 + e^12
per block, and the J-holomorphic symplectic form Omega = (omega_K + i omega_I)/2
has bidegree (2, 0) for J.

Every zeroth-order operator of the paper (Lefschetz operators, type
derivations, Clifford actions, the star, the Sp(1) rotations, the bidegree
projectors) maps each exterior degree to one or a few others.  The builders
here return FiberOperators made block by block, from the degree-block
scatters of `ExteriorAlgebra` or from per-degree block computations, or,
for n >= 2, as Kronecker terms of 16 x 16 quaternion-block factors (the
1-form actions, and the 2-form wedges and type derivations, whose
coefficients stay inside the blocks), so no 2^{4n} x 2^{4n} array is formed
unless a caller asks for `.matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exterior import ExteriorAlgebra, FiberOperator
from .quaternions import TwistorPoint


@dataclass(frozen=True)
class FiberForm:
    """Degree-k element with coefficients over the lex degree-k monomial basis."""

    degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           np.asarray(self.coefficients, dtype=complex))

    def vector(self, fiber: "HyperkahlerFiber") -> np.ndarray:
        alg = fiber.algebra
        expected = math.comb(alg.d, self.degree)
        if len(self.coefficients) != expected:
            raise ValueError(
                f"degree-{self.degree} form needs {expected} coefficients, "
                f"got {len(self.coefficients)}")
        return alg.form_vector(self.degree, self.coefficients)

    def conjugate(self) -> "FiberForm":
        return FiberForm(self.degree, self.coefficients.conj())

    def __add__(self, other: "FiberForm") -> "FiberForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return FiberForm(self.degree, self.coefficients + other.coefficients)

    def __rmul__(self, scalar) -> "FiberForm":
        return FiberForm(self.degree, scalar * self.coefficients)


@dataclass(frozen=True)
class HyperkahlerFiber:
    """Quaternionic Hermitian vector space (V, g, I, J, K) with dim_R V = 4n."""

    n: int
    g: np.ndarray
    I: np.ndarray
    J: np.ndarray
    K: np.ndarray
    algebra: ExteriorAlgebra = field(compare=False, repr=False, default=None)
    # data derived from the fiber on first use and kept with it (the
    # closed-form Sp(1) block of `symmetry`)
    derived: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    @property
    def d(self) -> int:
        return 4 * self.n

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def structure_residual(self) -> float:
        """Max deviation from the quaternion and compatibility relations."""
        eye = np.eye(self.d)
        res = [
            np.abs(self.I @ self.I + eye).max(),
            np.abs(self.J @ self.J + eye).max(),
            np.abs(self.K @ self.K + eye).max(),
            np.abs(self.I @ self.J - self.K).max(),
            np.abs(self.J @ self.K - self.I).max(),
            np.abs(self.K @ self.I - self.J).max(),
        ]
        for X in (self.I, self.J, self.K):
            res.append(np.abs(X.T @ self.g @ X - self.g).max())
        return float(max(res))


def _left_mult_block(x: float, y: float, z: float) -> np.ndarray:
    # left multiplication by x i + y j + z k on H = span(1, i, j, k)
    return np.array([
        [0.0, -x, -y, -z],
        [x, 0.0, -z, y],
        [y, z, 0.0, -x],
        [z, -y, x, 0.0],
    ])


def standard_fiber(n: int) -> HyperkahlerFiber:
    """The flat model H^n with g = Id and I, J, K left quaternion multiplication."""
    if n < 1:
        raise ValueError("empty fiber: n must be >= 1")
    blocks = {
        "I": _left_mult_block(1.0, 0.0, 0.0),
        "J": _left_mult_block(0.0, 1.0, 0.0),
        "K": _left_mult_block(0.0, 0.0, 1.0),
    }
    d = 4 * n
    mats = {}
    for name, B in blocks.items():
        M = np.zeros((d, d))
        for b in range(n):
            M[4 * b:4 * b + 4, 4 * b:4 * b + 4] = B
        mats[name] = M
    return HyperkahlerFiber(n=n, g=np.eye(d), I=mats["I"], J=mats["J"],
                            K=mats["K"], algebra=ExteriorAlgebra(d))


def complex_structure(fiber: HyperkahlerFiber, zeta: TwistorPoint) -> np.ndarray:
    """J_zeta = zeta_I I + zeta_J J + zeta_K K."""
    return zeta.zeta_I * fiber.I + zeta.zeta_J * fiber.J + zeta.zeta_K * fiber.K


def kahler_form(fiber: HyperkahlerFiber, zeta: TwistorPoint) -> FiberForm:
    """omega_zeta(u, v) = g(J_zeta u, v) as a degree-2 form."""
    M = fiber.g @ complex_structure(fiber, zeta)
    # omega(e_a, e_b) = (g J)_{ba}
    coeffs = [M[b, a] for (a, b) in fiber.algebra.multi_indices(2)]
    return FiberForm(2, np.array(coeffs, dtype=complex))


def holomorphic_symplectic(fiber: HyperkahlerFiber) -> FiberForm:
    """Omega = (omega_K + i omega_I)/2, holomorphic symplectic for J."""
    wk = kahler_form(fiber, TwistorPoint(0.0, 0.0, 1.0))
    wi = kahler_form(fiber, TwistorPoint(1.0, 0.0, 0.0))
    return FiberForm(2, 0.5 * (wk.coefficients + 1j * wi.coefficients))


def form_coefficient_matrix(fiber: HyperkahlerFiber, form: FiberForm) -> np.ndarray:
    """Antisymmetric d x d coefficient matrix of a degree-2 form."""
    if form.degree != 2:
        raise ValueError("coefficient matrix is defined for 2-forms")
    d = fiber.d
    W = np.zeros((d, d), dtype=complex)
    for idx, (a, b) in enumerate(fiber.algebra.multi_indices(2)):
        W[a, b] = form.coefficients[idx]
        W[b, a] = -form.coefficients[idx]
    return W


def wedge_operator(fiber: HyperkahlerFiber, form: FiberForm) -> FiberOperator:
    """Left exterior multiplication by the given form."""
    alg = fiber.algebra
    if form.degree == 1:
        return alg.wedge_1form(form.coefficients)
    if form.degree == 2:
        return alg.wedge_2form(form_coefficient_matrix(fiber, form))
    return alg.wedge_element(form.vector(fiber))


def contraction_operator(fiber: HyperkahlerFiber, vector) -> FiberOperator:
    """Interior product with a (complex) fiber vector."""
    return fiber.algebra.contraction(vector)


def type_derivation(fiber: HyperkahlerFiber,
                    zeta: TwistorPoint) -> FiberOperator:
    """Derivation with eigenvalue (p - q) sqrt(-1) on the (p, q)_zeta slice.

    It extends precomposition with J_zeta on 1-forms, i.e. the coefficient
    action of J_zeta^T; (1, 0)-forms are its +i eigenvectors.
    """
    return fiber.algebra.derivation(complex_structure(fiber, zeta).T)


def _bidegrees_of_degree(n: int, k: int) -> list[tuple[int, int]]:
    return [(k - q, q) for q in range(k + 1) if k - q <= 2 * n and q <= 2 * n]


def bidegree_projectors(fiber: HyperkahlerFiber, zeta: TwistorPoint,
                        bidegrees) -> dict[tuple[int, int], FiberOperator]:
    """Spectral projectors onto the (p, q)_{J_zeta} slices, by bidegree.

    Each is the Lagrange interpolant of the type derivation on the
    total-degree-(p+q) block alone (size C(4n, p+q)), so one code path
    serves every zeta; the derivation is built once for all of them, and
    each projector is the one diagonal block it occupies.
    """
    n, alg = fiber.n, fiber.algebra
    D = type_derivation(fiber, zeta).blocks
    out = {}
    for p, q in bidegrees:
        if not (0 <= p <= 2 * n and 0 <= q <= 2 * n):
            raise ValueError(f"bidegree ({p}, {q}) out of range for n = {n}")
        k = p + q
        size = alg.offsets[k + 1] - alg.offsets[k]
        Dk = D.get((k, k), np.zeros((size, size), dtype=complex))
        eye = np.eye(size)
        B = eye.astype(complex)
        lam = (p - q) * 1j
        for (p2, q2) in _bidegrees_of_degree(n, k):
            if (p2, q2) == (p, q):
                continue
            lam2 = (p2 - q2) * 1j
            B = (Dk - lam2 * eye) @ B / (lam - lam2)
        out[p, q] = alg.blocked({(k, k): B})
    return out


def bidegree_projector(fiber: HyperkahlerFiber, zeta: TwistorPoint,
                       p: int, q: int) -> FiberOperator:
    """Spectral projector onto the (p, q)_{J_zeta} slice of the algebra."""
    return bidegree_projectors(fiber, zeta, [(p, q)])[p, q]


def slice_basis(fiber: HyperkahlerFiber, projector: FiberOperator) -> np.ndarray:
    """Orthonormal column basis of the range of an (orthogonal) projector."""
    w, V = np.linalg.eigh(0.5 * (projector.matrix + projector.matrix.conj().T))
    cols = V[:, w > 0.5]
    # re-orthonormalize against roundoff
    Q, _ = np.linalg.qr(cols)
    return Q


def zero_one_star_projector(fiber: HyperkahlerFiber, zeta: TwistorPoint,
                            parity: str = "all") -> FiberOperator:
    """Projector onto (0, *)_zeta, optionally restricted to even or odd q."""
    qs = range(0, 2 * fiber.n + 1)
    if parity == "even":
        qs = range(0, 2 * fiber.n + 1, 2)
    elif parity == "odd":
        qs = range(1, 2 * fiber.n + 1, 2)
    elif parity != "all":
        raise ValueError("parity must be 'all', 'even' or 'odd'")
    projectors = bidegree_projectors(fiber, zeta, [(0, q) for q in qs])
    return sum(projectors.values(), FiberOperator.zero(fiber.dim))
