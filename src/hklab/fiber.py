"""The flat hyperkahler model fiber and its exterior-algebra representation.

The fiber is V = H^n with orthonormal basis e_0..e_{4n-1}, metric the
identity, and I, J, K acting blockwise by left quaternion multiplication
(e_0, e_1, e_2, e_3) <-> (1, i, j, k).  This fixes every sign convention
downstream: omega_I = e^01 + e^23, omega_J = e^02 - e^13, omega_K = e^03 + e^12
per block, and the J-holomorphic symplectic form Omega = (omega_K + i omega_I)/2
has bidegree (2, 0) for J.

Every zeroth-order operator of the paper (Lefschetz operators, type
derivations, Clifford actions, the star, the Sp(1) rotations) maps each
exterior degree to one or a few others.  A FiberOperator therefore keeps,
next to its dense matrix, the map from (degree out, degree in) to its
nonzero blocks, read off the matrix once; the degree offsets follow from
the dimension 2^{4n}.  Products of fiber operators, sums, scalar
multiples, adjoints, inner products and Frobenius norms work block by
block and skip the exact zeros a dense product would multiply.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exterior import ExteriorAlgebra
from .quaternions import TwistorPoint


@lru_cache(maxsize=None)
def _degree_offsets(dim: int) -> tuple[int, ...]:
    """Start of each exterior degree 0..d in a dim = 2^d algebra, then dim."""
    d = dim.bit_length() - 1
    if dim != 1 << d:
        raise ValueError(f"dimension {dim} is not that of an exterior algebra")
    return tuple(itertools.accumulate((math.comb(d, k) for k in range(d + 1)),
                                      initial=0))


class FiberOperator:
    """Complex matrix acting on Lambda(V* (x) C), tagged with a symbol label.

    Besides the dense `matrix` the operator has a degree-block form,
    `blocks`: a dict from (k_out, k_in) to the block that maps exterior
    degree k_in to degree k_out; every block missing from it is exactly
    zero.  Builders return dense matrices, whose nonzero blocks are read
    off once; products with another FiberOperator, sums, differences,
    scalar multiples, the adjoint, `inner` and `frobenius_norm` then act
    on blocks, and an operator made that way builds `matrix` on first use.
    A product with anything else (an array, a lattice operator) is taken
    with the dense matrix.  Operators are values: neither form is
    modified after it is made.
    """

    def __init__(self, matrix: np.ndarray, label: str = ""):
        self._matrix = np.asarray(matrix)
        self._blocks = None
        self._offsets = _degree_offsets(self._matrix.shape[0])
        self.label = label

    @classmethod
    def _from_blocks(cls, offsets, blocks: dict, label: str) -> "FiberOperator":
        op = cls.__new__(cls)
        op._matrix, op._blocks, op._offsets, op.label = None, blocks, offsets, label
        return op

    @classmethod
    def zero(cls, dim: int, label: str = "0") -> "FiberOperator":
        return cls._from_blocks(_degree_offsets(dim), {}, label)

    @property
    def dim(self) -> int:
        return self._offsets[-1]

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            off = self._offsets
            M = np.zeros((self.dim, self.dim), dtype=complex)
            for (a, b), X in self._blocks.items():
                M[off[a]:off[a + 1], off[b]:off[b + 1]] = X
            self._matrix = M
        return self._matrix

    @property
    def blocks(self) -> dict:
        if self._blocks is None:
            off = self._offsets
            starts = off[:-1]
            occupied = np.logical_or.reduceat(
                np.logical_or.reduceat(self._matrix != 0, starts, axis=0),
                starts, axis=1)
            self._blocks = {
                (a, b): self._matrix[off[a]:off[a + 1], off[b]:off[b + 1]]
                for a, b in zip(*map(np.ndarray.tolist, np.nonzero(occupied)))}
        return self._blocks

    def relabel(self, label: str) -> "FiberOperator":
        """The same operator under another label, sharing both forms."""
        op = copy.copy(self)
        op.label = label
        return op

    def _check_space(self, other: "FiberOperator") -> None:
        if other._offsets != self._offsets:
            raise ValueError(f"operators of dimension {self.dim} and "
                             f"{other.dim} act on different algebras")

    def __matmul__(self, other):
        if not isinstance(other, FiberOperator):
            return self.matrix @ other
        self._check_space(other)
        rows: dict[int, list] = {}
        for (b, c), Y in other.blocks.items():
            rows.setdefault(b, []).append((c, Y))
        out: dict = {}
        for (a, b), X in self.blocks.items():
            for c, Y in rows.get(b, ()):
                P = X @ Y
                # not +=: blocks of one operator may differ in dtype
                out[a, c] = out[a, c] + P if (a, c) in out else P
        return self._from_blocks(self._offsets, out,
                                 f"{self.label}*{other.label}")

    def _combine(self, other: "FiberOperator", op,
                 label: str) -> "FiberOperator":
        # a block missing on one side enters as the scalar 0, entry for
        # entry what the dense sum or difference computes
        self._check_space(other)
        out = dict(self.blocks)
        for key, Y in other.blocks.items():
            out[key] = op(out[key] if key in out else 0, Y)
        return self._from_blocks(self._offsets, out, label)

    def __add__(self, other: "FiberOperator") -> "FiberOperator":
        return self._combine(other, operator.add,
                             f"{self.label} + {other.label}")

    def __sub__(self, other: "FiberOperator") -> "FiberOperator":
        return self._combine(other, operator.sub,
                             f"{self.label} - {other.label}")

    def __mul__(self, c) -> "FiberOperator":
        return self._from_blocks(self._offsets,
                                 {k: X * c for k, X in self.blocks.items()},
                                 f"{self.label}*{c}")

    def __rmul__(self, c) -> "FiberOperator":
        return self._from_blocks(self._offsets,
                                 {k: c * X for k, X in self.blocks.items()},
                                 f"{c}*{self.label}")

    def __neg__(self) -> "FiberOperator":
        return self._from_blocks(self._offsets,
                                 {k: -X for k, X in self.blocks.items()},
                                 f"-{self.label}")

    def adjoint(self) -> "FiberOperator":
        return self._from_blocks(
            self._offsets,
            {(b, a): X.conj().T for (a, b), X in self.blocks.items()},
            f"{self.label}^*")

    def inner(self, other: "FiberOperator") -> complex:
        """Frobenius inner product tr(self^* other), over shared blocks."""
        self._check_space(other)
        theirs = other.blocks
        return sum((np.vdot(X, theirs[k]) for k, X in self.blocks.items()
                    if k in theirs), 0j)

    def frobenius_norm(self) -> float:
        return math.sqrt(sum(np.vdot(X, X).real
                             for X in self.blocks.values()))

    def selfadjoint_residual(self) -> float:
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T, 2))

    def unitary_residual(self) -> float:
        M = self.matrix
        return float(np.linalg.norm(M.conj().T @ M - np.eye(self.dim), 2))


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
        M = alg.wedge_1form(form.coefficients)
    elif form.degree == 2:
        M = alg.wedge_2form(form_coefficient_matrix(fiber, form))
    else:
        M = alg.wedge_element(form.vector(fiber))
    return FiberOperator(M, f"wedge(deg {form.degree})")


def contraction_operator(fiber: HyperkahlerFiber, vector) -> FiberOperator:
    """Interior product with a (complex) fiber vector."""
    return FiberOperator(fiber.algebra.contraction(vector), "contraction")


def type_derivation(fiber: HyperkahlerFiber, zeta: TwistorPoint) -> np.ndarray:
    """Derivation with eigenvalue (p - q) sqrt(-1) on the (p, q)_zeta slice.

    It extends precomposition with J_zeta on 1-forms, i.e. the coefficient
    action of J_zeta^T; (1, 0)-forms are its +i eigenvectors.
    """
    return fiber.algebra.derivation(complex_structure(fiber, zeta).T)


def _bidegrees_of_degree(n: int, k: int) -> list[tuple[int, int]]:
    return [(k - q, q) for q in range(k + 1) if k - q <= 2 * n and q <= 2 * n]


def bidegree_projector(fiber: HyperkahlerFiber, zeta: TwistorPoint,
                       p: int, q: int) -> FiberOperator:
    """Spectral projector onto the (p, q)_{J_zeta} slice of the algebra.

    Built as the Lagrange interpolant of the type derivation on the
    total-degree-(p+q) block alone (size C(4n, p+q)), so one code path
    serves every zeta.
    """
    if not (0 <= p <= 2 * fiber.n and 0 <= q <= 2 * fiber.n):
        raise ValueError(f"bidegree ({p}, {q}) out of range for n = {fiber.n}")
    k = p + q
    alg = fiber.algebra
    block = slice(alg.degree_offset(k), alg.degree_offset(k + 1))
    D = type_derivation(fiber, zeta)[block, block]
    eye = np.eye(D.shape[0])
    B = eye.astype(complex)
    lam = (p - q) * 1j
    for (p2, q2) in _bidegrees_of_degree(fiber.n, k):
        if (p2, q2) == (p, q):
            continue
        lam2 = (p2 - q2) * 1j
        B = (D - lam2 * eye) @ B / (lam - lam2)
    M = np.zeros((alg.dim, alg.dim), dtype=complex)
    M[block, block] = B
    return FiberOperator(M, f"P^({p},{q})")


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
    M = sum(bidegree_projector(fiber, zeta, 0, q).matrix for q in qs)
    return FiberOperator(M, f"P^(0,{parity})")
