"""The flat hyperkahler model fiber and its exterior-algebra representation.

The fiber is V = H^n with orthonormal basis e_0..e_{4n-1}, metric the
identity, and I, J, K acting blockwise by left quaternion multiplication
(e_0, e_1, e_2, e_3) <-> (1, i, j, k).  This fixes every sign convention
downstream: omega_I = e^01 + e^23, omega_J = e^02 - e^13, omega_K = e^03 + e^12
per block, and the J-holomorphic symplectic form Omega = (omega_K + i omega_I)/2
has bidegree (2, 0) for J.

A 1-form sum_a c_a e^a is its length-d vector c, and a 2-form omega its
antisymmetric d x d coefficient matrix W[a, b] = omega(e_a, e_b).

Every zeroth-order operator of the paper (Lefschetz operators, type
derivations, Clifford actions, the star, the Sp(1) rotations, the bidegree
projectors) acts on Lambda(H^n) = Lambda(H)^{(x) n} quaternion block by
quaternion block.  The builders here return FiberOperators as Kronecker
terms of 16 x 16 quaternion-block factors (one factor a term at n = 1):
the 1-form actions, the 2-form wedges and type derivations whose
coefficients stay inside the blocks, the twisted star (one product) and
the bidegree projectors (Kronecker sums of Lambda(H) projectors).  Only a
form coupling two blocks is a dense matrix, so no 2^{4n} x 2^{4n} array
is formed unless a caller asks for `.matrix`.

The spectra live on the (0, q)_zeta slices.  The fiber checks read them
through the bidegree projectors; `slice_bases` writes down orthonormal
bases instead, the q x q minors of a frame of (0, 1)-forms
(`zero_one_frames`, one stacked eigh for every zeta of a sweep), so the
spectrum paths form no projector and diagonalize nothing wider than d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .exterior import (ExteriorAlgebra, FiberOperator, _degree_offsets,
                       compound)
from .quaternions import ZETA_I, ZETA_K, TwistorPoint, components


@dataclass(frozen=True, eq=False)  # equal only to itself, as `derived` needs
class HyperkahlerFiber:
    """Quaternionic Hermitian vector space (V, g, I, J, K) with dim_R V = 4n."""

    n: int
    g: np.ndarray
    I: np.ndarray
    J: np.ndarray
    K: np.ndarray
    algebra: ExteriorAlgebra = field(repr=False, default=None)
    # data derived from the fiber on first use and kept with it (the
    # closed-form Sp(1) block of `symmetry`, `torus`'s flux coefficients,
    # `reptheory`'s antiholomorphic triple)
    derived: dict = field(default_factory=dict, init=False, repr=False)

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
    """J_zeta = zeta_I I + zeta_J J + zeta_K K; their stack for a list."""
    zI, zJ, zK = components(zeta).T[..., None, None]
    return zI * fiber.I + zJ * fiber.J + zK * fiber.K


def kahler_form(fiber: HyperkahlerFiber, zeta: TwistorPoint) -> np.ndarray:
    """omega_zeta(u, v) = g(J_zeta u, v), as its coefficient matrix
    W[a, b] = omega_zeta(e_a, e_b) = (g J_zeta)[b, a], antisymmetrized so
    that roundoff in g J_zeta (a rotated basis) cannot break W == -W.T
    (stacked for a list of zetas)."""
    M = (fiber.g @ complex_structure(fiber, zeta)).swapaxes(-1, -2)
    return (0.5 * (M - M.swapaxes(-1, -2))).astype(complex)


def holomorphic_symplectic(fiber: HyperkahlerFiber) -> np.ndarray:
    """Omega = (omega_K + i omega_I)/2, holomorphic symplectic for J."""
    return 0.5 * (kahler_form(fiber, ZETA_K) + 1j * kahler_form(fiber, ZETA_I))


def form_coefficients(fiber: HyperkahlerFiber, form,
                      degrees=(1, 2)) -> np.ndarray:
    """The coefficients of a form of one of the given degrees: a length-d
    vector for a 1-form, an antisymmetric d x d matrix for a 2-form.  A
    list of forms is a sequence of samples, checked one by one, stacked."""
    if isinstance(form, list):
        return np.stack([form_coefficients(fiber, f, degrees) for f in form])
    form = np.asarray(form)
    shapes = [(fiber.d,) * k for k in degrees]
    if form.shape not in shapes:
        raise ValueError(f"form coefficients must have shape "
                         f"{' or '.join(map(str, shapes))}, got {form.shape}")
    if form.ndim == 2 and not np.array_equal(form, -form.T):
        raise ValueError("a 2-form's coefficient matrix must be antisymmetric")
    return form


def wedge_operator(fiber: HyperkahlerFiber, form) -> FiberOperator:
    """Left exterior multiplication by a 1-form or a 2-form; by each of a
    list of forms of one degree, as one stacked operator."""
    coeffs = form_coefficients(fiber, form)
    if coeffs.ndim - isinstance(form, list) == 1:
        return fiber.algebra.wedge_1form(coeffs)
    return fiber.algebra.wedge_2form(coeffs)


def contraction_operator(fiber: HyperkahlerFiber, vector) -> FiberOperator:
    """Interior product with a (complex) fiber vector, or a stack of them
    for a list."""
    return fiber.algebra.contraction(form_coefficients(fiber, vector, (1,)))


def type_derivation(fiber: HyperkahlerFiber,
                    zeta: TwistorPoint) -> FiberOperator:
    """Derivation with eigenvalue (p - q) sqrt(-1) on the (p, q)_zeta slice.

    It extends precomposition with J_zeta on 1-forms, i.e. the coefficient
    action of J_zeta^T; (1, 0)-forms are its +i eigenvectors.
    """
    return fiber.algebra.derivation(complex_structure(fiber, zeta).T)


def _factor_projectors(D: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """The spectral projectors of a 16 x 16 type-derivation factor D on
    Lambda(H), by bidegree: each is the Lagrange interpolant of D on its
    degree-(p + q) block, where (p, q) has the eigenvalue (p - q) sqrt(-1)."""
    off = _degree_offsets(16)
    out = {}
    for k in range(5):
        lo, hi = off[k], off[k + 1]
        Dk, eye = D[lo:hi, lo:hi], np.eye(hi - lo)
        same = [(k - q, q) for q in range(k + 1) if k - q <= 2 and q <= 2]
        for p, q in same:
            B = eye.astype(complex)
            for p2, q2 in same:
                if (p2, q2) != (p, q):
                    lam, lam2 = (p - q) * 1j, (p2 - q2) * 1j
                    B = (Dk - lam2 * eye) @ B / (lam - lam2)
            F = np.zeros((16, 16), dtype=complex)
            F[lo:hi, lo:hi] = B
            out[p, q] = F
    return out


def bidegree_projectors(fiber: HyperkahlerFiber, zeta: TwistorPoint,
                        bidegrees) -> dict[tuple[int, int], FiberOperator]:
    """Spectral projectors onto the (p, q)_{J_zeta} slices, by bidegree.

    The type derivation is a Kronecker sum of 16 x 16 factors D_b, one
    per quaternion block, so the (p, q) projector is the Kronecker sum
    over the (p_b, q_b) with sum_b p_b = p and sum_b q_b = q of the
    products of the factor projectors P_b(p_b, q_b), Lagrange
    interpolants of D_b (`_factor_projectors`).  One code path serves
    every zeta, and the derivation is built once for all of them.  A
    J_zeta that couples two blocks raises ValueError.
    """
    n, alg = fiber.n, fiber.algebra
    D = alg.quaternion_factors(type_derivation(fiber, zeta))
    if D is None:
        raise ValueError("the bidegree projectors need a J_zeta with no "
                         "entry between two quaternion blocks")
    factors = [_factor_projectors(Db) for Db in D]
    terms: dict[tuple[int, int], list] = {}
    for split in itertools.product(factors[0], repeat=n):  # (p_b, q_b)_b
        terms.setdefault(tuple(map(sum, zip(*split))), []).append(
            tuple(P[pq] for P, pq in zip(factors, split)))
    out = {}
    for p, q in bidegrees:
        if not (0 <= p <= 2 * n and 0 <= q <= 2 * n):
            raise ValueError(f"bidegree ({p}, {q}) out of range for n = {n}")
        out[p, q] = alg.kronecker(terms[p, q])
    return out


def zero_one_frames(fiber: HyperkahlerFiber, zetas) -> np.ndarray:
    """Orthonormal d x 2n frames of the (0, 1)_zeta-forms, stacked over
    the zetas: the +1 eigenvectors of sqrt(-1) J_zeta^T (the -sqrt(-1)
    ones of the type derivation on 1-forms), from one stacked eigh.
    J_zeta is formed entry by entry as `complex_structure` forms it, and
    each matrix of the stack is solved on its own, so a zeta's frame does
    not depend on the others."""
    z = np.array([zeta.as_array() for zeta in zetas]).reshape(-1, 3, 1, 1)
    J = z[:, 0] * fiber.I + z[:, 1] * fiber.J + z[:, 2] * fiber.K
    _w, V = np.linalg.eigh(1j * J.swapaxes(-1, -2))
    return V[..., 2 * fiber.n:]


def slice_bases(fiber: HyperkahlerFiber, frames: np.ndarray,
                degrees) -> np.ndarray:
    """Orthonormal columns spanning the (0, q)_zeta slices, q in `degrees`,
    one basis per frame of a stack (`zero_one_frames`): (Z, dim, width).

    (0, *)_zeta is the exterior algebra of the (0, 1)-forms.  With U an
    orthonormal d x 2n frame of them, column block q holds the q-th
    `compound` matrix of U in the degree-q rows: the wedges of q frame
    vectors, in lex order.  By Cauchy-Binet its Gram matrix is the
    compound of U^H U = 1, so the columns are orthonormal, and they span
    (0, q)_zeta.  All degree sets of one zeta share its frame.  A degree
    given twice would repeat its columns, so it raises ValueError.
    """
    n, off = fiber.n, fiber.algebra.offsets
    degrees = list(degrees)
    if not all(0 <= q <= 2 * n for q in degrees):
        raise ValueError(f"degrees {degrees} out of range 0..{2 * n}")
    if len(set(degrees)) < len(degrees):
        raise ValueError(f"degrees {degrees} repeat a degree")
    widths = [comb(2 * n, q) for q in degrees]
    Q = np.zeros((len(frames), fiber.dim, sum(widths)), dtype=complex)
    col = 0
    for q, width in zip(degrees, widths):
        Q[:, off[q]:off[q + 1], col:col + width] = compound(frames, q)
        col += width
    return Q


def slice_basis(fiber: HyperkahlerFiber, zeta: TwistorPoint,
                degrees) -> np.ndarray:
    """The dim x width basis of `slice_bases` at one zeta: the one-point
    case of the stacked frames."""
    return slice_bases(fiber, zero_one_frames(fiber, [zeta]), degrees)[0]
