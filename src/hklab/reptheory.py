"""sl(2) representation theory on the fiber.

Covers the polynomial irreducibles U_m, Lefschetz triples (L, Lambda, H)
attached to 2-forms, the primitive decomposition with respect to the
antiholomorphic symplectic triple, and the explicit intertwiner from
U_m (x) primitives onto the ladder span.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fiber import (FiberOperator, HyperkahlerFiber, bidegree_projectors,
                    form_coefficients, holomorphic_symplectic)
from .quaternions import ZETA_J

SL2_TOL = 1e-12


def irrep_operators(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L_m, Lambda_m, H_m) on U_m in the basis x^i y^{m-i}, i = 0..m.

    L_m = x d/dy, Lambda_m = y d/dx, H_m = x d/dx - y d/dy; the sl(2)
    relations close exactly in integer arithmetic.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    L = np.zeros((m + 1, m + 1), dtype=np.int64)
    Lam = np.zeros((m + 1, m + 1), dtype=np.int64)
    for i in range(m + 1):
        if i < m:
            L[i + 1, i] = m - i        # x d/dy (x^i y^{m-i}) = (m-i) x^{i+1} y^{m-i-1}
            Lam[i, i + 1] = i + 1      # y d/dx (x^{i+1} y^{m-i-1}) = (i+1) x^i y^{m-i}
    H = np.diag(np.array([2 * i - m for i in range(m + 1)], dtype=np.int64))
    return L, Lam, H


def irrep_sp1_generator(m: int, generator: str) -> np.ndarray:
    """Value of the sp(1) generator i, j or k in the U_m representation."""
    L, Lam, H = (M.astype(complex) for M in irrep_operators(m))
    if generator == "j":
        return 1j * H
    if generator == "k":
        return L - Lam
    if generator == "i":
        return 1j * (L + Lam)
    raise ValueError("generator must be one of 'i', 'j', 'k'")


def irrep_sp1_eval(m: int, generator: str) -> np.ndarray:
    """Closed-form matrix of the group element i, j or k on U_m.

    j: x^i y^{m-i} -> sqrt(-1)^{2i-m} x^i y^{m-i}
    k: x^i y^{m-i} -> (-1)^i x^{m-i} y^i
    i: x^i y^{m-i} -> sqrt(-1)^m x^{m-i} y^i
    """
    M = np.zeros((m + 1, m + 1), dtype=complex)
    for i in range(m + 1):
        if generator == "j":
            M[i, i] = 1j ** ((2 * i - m) % 4)
        elif generator == "k":
            M[m - i, i] = (-1.0) ** i
        elif generator == "i":
            M[m - i, i] = 1j ** (m % 4)
        else:
            raise ValueError("generator must be one of 'i', 'j', 'k'")
    return M


@dataclass(frozen=True)
class LefschetzTriple:
    """Operators (L, Lambda, H = [L, Lambda]); failure of the sl(2)
    relations (metric-incompatible forms) is flagged, not fatal."""

    L: FiberOperator
    Lambda: FiberOperator
    H: FiberOperator
    sl2_closed: bool = True

    def sl2_residual(self) -> float:
        L, A, H = self.L, self.Lambda, self.H
        r1 = (H @ L - L @ H - 2.0 * L).frobenius_norm()
        r2 = (H @ A - A @ H + 2.0 * A).frobenius_norm()
        scale = max(1.0, L.frobenius_norm(), A.frobenius_norm())
        return max(r1, r2) / scale

    def casimir(self) -> np.ndarray:
        L, A, H = self.L.matrix, self.Lambda.matrix, self.H.matrix
        return 0.5 * (H @ H) + L @ A + A @ L


def lefschetz_triple(fiber: HyperkahlerFiber, phi) -> LefschetzTriple:
    """Triple generated by a 2-form: L = wedge(phi), Lambda = L^*, H = [L, Lambda].

    phi is the antisymmetric d x d coefficient matrix phi[a, b] =
    phi(e_a, e_b).  Adjoints are taken in the inner product induced by g,
    for which the exterior monomials are orthonormal.  A phi for which the
    sl(2) relations fail (degenerate phi) is allowed but flagged.
    """
    phi = form_coefficients(fiber, phi, degrees=(2,))
    L = fiber.algebra.wedge_2form(phi)
    A = L.adjoint()
    H = L @ A - A @ L
    triple = LefschetzTriple(L, A, H)
    if triple.sl2_residual() > 1e-10:
        triple = LefschetzTriple(triple.L, triple.Lambda, triple.H,
                                 sl2_closed=False)
    return triple


def antiholomorphic_triple(fiber: HyperkahlerFiber) -> LefschetzTriple:
    """The triple of conj(Omega), where Omega = (omega_K + i omega_I)/2.

    Built and checked (`sl2_residual`) on first use and kept in
    `fiber.derived`, so every later call returns the same triple; it is
    frozen and its operators are values."""
    triple = fiber.derived.get("antiholomorphic")
    if triple is None:
        triple = lefschetz_triple(fiber, holomorphic_symplectic(fiber).conj())
        fiber.derived["antiholomorphic"] = triple
    return triple


def _weight_projectors(fiber: HyperkahlerFiber) -> dict[int, FiberOperator]:
    """Projectors onto the antiholomorphic-degree-q slices of J, each the
    sum of the (p, q)_J projectors over p, from one type derivation."""
    nn = 2 * fiber.n
    projectors = bidegree_projectors(
        fiber, ZETA_J, [(p, q) for q in range(nn + 1) for p in range(nn + 1)])
    return {q: sum((projectors[p, q] for p in range(nn + 1)),
                   FiberOperator.zero(fiber.dim))
            for q in range(nn + 1)}


def primitive_decompose(fiber: HyperkahlerFiber, s, triple: LefschetzTriple,
                        tol: float = 1e-9) -> list[tuple[int, int, np.ndarray]]:
    """Write s = sum_i L^i s_{q,i} with Lambda s_{q,i} = 0, s_{q,i} in (., q)_J.

    Uses descending induction on the ladder height: the top component of a
    fixed-weight piece is recovered from Lambda^j s through the exact ladder
    constants Lambda L^{j} t = j (m - j + 1) L^{j-1} t, m = n - q.
    Raises ValueError when s has a non-finite coefficient.
    """
    s = np.asarray(s, dtype=complex)
    if not np.isfinite(s).all():
        raise ValueError("cannot decompose an element with non-finite "
                         "coefficients")
    L, A = triple.L, triple.Lambda
    n = fiber.n
    comps: list[tuple[int, int, np.ndarray]] = []
    qproj = _weight_projectors(fiber)
    scale = max(np.linalg.norm(s), 1e-300)
    for qt, P in qproj.items():
        v = P @ s
        if np.linalg.norm(v) <= tol * scale:
            continue
        # highest ladder height present in this weight slice
        jmax = 0
        w = v.copy()
        while True:
            w = A @ w
            if np.linalg.norm(w) <= tol * scale:
                break
            jmax += 1
        for j in range(jmax, -1, -1):
            q = qt - 2 * j
            m = n - q
            if q < 0 or m < j:
                # no primitive space at this height; the remainder there
                # must cancel against rungs already subtracted
                continue
            top = v
            for _ in range(j):
                top = A @ top
            c = math.factorial(j) * math.factorial(m) // math.factorial(m - j)
            t = top / c
            if np.linalg.norm(t) > tol * scale:
                comps.append((q, j, t))
                rung = t
                for _ in range(j):
                    rung = L @ rung
                v = v - rung
        if np.linalg.norm(v) > 100 * tol * scale:
            raise ValueError("primitive decomposition failed to exhaust a "
                             f"weight slice (leftover {np.linalg.norm(v):.2e})")
    return comps


def reconstruct(triple: LefschetzTriple,
                components: list[tuple[int, int, np.ndarray]]) -> np.ndarray:
    L = triple.L
    out = np.zeros(L.dim, dtype=complex)
    for (_q, i, t) in components:
        v = t
        for _ in range(i):
            v = L @ v
        out = out + v
    return out


def phi_isomorphism(fiber: HyperkahlerFiber, m: int, q: int, s, i: int,
                    triple: LefschetzTriple | None = None) -> np.ndarray:
    """Image of x^i y^{m-i} (x) s under the ladder intertwiner.

    Maps to (m-i)!/m! L^i s for an antiholomorphic-primitive s in the
    (., q)_J slice with m = n - q.
    """
    if triple is None:
        triple = antiholomorphic_triple(fiber)
    if m != fiber.n - q:
        raise ValueError(f"highest weight must be m = n - q = {fiber.n - q}")
    if not (0 <= i <= m):
        raise ValueError("ladder index i out of range")
    s = np.asarray(s, dtype=complex)
    prim_res = np.linalg.norm(triple.Lambda @ s)
    if prim_res > 1e-8 * max(1.0, np.linalg.norm(s)):
        raise ValueError(f"input is not primitive: |Lambda s| = {prim_res:.3e}")
    qs = _weight_projectors(fiber)[q] @ s
    if np.linalg.norm(qs - s) > 1e-8 * max(1.0, np.linalg.norm(s)):
        raise ValueError(f"input is not of antiholomorphic degree q = {q}")
    v = s
    for _ in range(i):
        v = triple.L @ v
    return (math.factorial(m - i) / math.factorial(m)) * v


def primitive_space_dimension(fiber: HyperkahlerFiber, q: int,
                              triple: LefschetzTriple | None = None) -> int:
    """dim of the primitive (., q)_J subspace by brute-force kernel computation.

    The range of the weight projector is spanned degree by degree, from
    the diagonal blocks of its matrix, and Lambda maps each degree to its
    own target degree, so the kernel is counted per degree.
    """
    if triple is None:
        triple = antiholomorphic_triple(fiber)
    P = _weight_projectors(fiber)[q].matrix
    count = 0
    for lo, hi in itertools.pairwise(fiber.algebra.offsets):
        B = P[lo:hi, lo:hi]
        if not B.any():
            continue
        w, V = np.linalg.eigh(0.5 * (B + B.conj().T))
        cols = np.zeros((len(P), int(np.sum(w > 0.5))), dtype=complex)
        cols[lo:hi] = V[:, w > 0.5]
        sv = np.linalg.svd(triple.Lambda @ cols, compute_uv=False)
        count += cols.shape[1] - int(np.sum(sv > 1e-9))
    return count
