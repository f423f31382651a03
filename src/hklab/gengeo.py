"""Linear generalized geometry on T (+) T*.

Pointwise (constant-coefficient) verification layer: the split-signature
pairing, generalized complex structures of symplectic and complex type,
generalized hypercomplex families, generalized metrics, and the brane
condition for subspaces with an abelian field strength.  Integrability is
vacuous for constant structures on a fixed fiber and is deliberately not
modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fiber import HyperkahlerFiber, kahler_form
from .quaternions import TwistorPoint, ZETA_I, ZETA_K

GC_TOL = 1e-12


@dataclass(frozen=True)
class GeneralizedTangentSpace:
    """R^d (+) (R^d)* with <u + a, v + b> = (a(v) + b(u)) / 2."""

    d: int

    @property
    def dim(self) -> int:
        return 2 * self.d

    def pairing(self) -> np.ndarray:
        P = np.zeros((self.dim, self.dim))
        P[:self.d, self.d:] = 0.5 * np.eye(self.d)
        P[self.d:, :self.d] = 0.5 * np.eye(self.d)
        return P

    def signature(self) -> tuple[int, int]:
        w = np.linalg.eigvalsh(self.pairing())
        return int(np.sum(w > 0)), int(np.sum(w < 0))


@dataclass(frozen=True)
class GCStructure:
    """Pairing-orthogonal J with J^2 = -Id on T (+) T*."""

    matrix: np.ndarray
    kind: str = "other"

    @property
    def d(self) -> int:
        return self.matrix.shape[0] // 2

    def square_residual(self) -> float:
        M = self.matrix
        return float(np.abs(M @ M + np.eye(M.shape[0])).max())

    def orthogonality_residual(self) -> float:
        P = GeneralizedTangentSpace(self.d).pairing()
        M = self.matrix
        return float(np.abs(M.T @ P @ M - P).max())

    def validate(self, tol: float = GC_TOL) -> "GCStructure":
        if self.square_residual() > tol:
            raise ValueError(f"J^2 != -Id (residual {self.square_residual():.2e})")
        if self.orthogonality_residual() > tol:
            raise ValueError("J does not preserve the split pairing "
                             f"(residual {self.orthogonality_residual():.2e})")
        return self


def _b_transform(B: np.ndarray) -> np.ndarray:
    d = B.shape[0]
    T = np.eye(2 * d)
    T[d:, :d] = B
    return T


def gc_from_symplectic(omega: np.ndarray, B: np.ndarray | None = None) -> GCStructure:
    """Symplectic-type structure, conjugated by a B-field transform.

    The core block form exchanges T and T* through -omega^-1 and omega.
    """
    omega = np.asarray(omega, dtype=float)
    d = omega.shape[0]
    if np.abs(omega + omega.T).max() > GC_TOL:
        raise ValueError("omega must be antisymmetric")
    if abs(np.linalg.det(omega)) < 1e-12:
        raise ValueError("singular omega rejected")
    core = np.zeros((2 * d, 2 * d))
    core[:d, d:] = -np.linalg.inv(omega)
    core[d:, :d] = omega
    if B is None:
        M = core
    else:
        B = np.asarray(B, dtype=float)
        if np.abs(B + B.T).max() > GC_TOL:
            raise ValueError("B must be antisymmetric")
        M = _b_transform(B) @ core @ _b_transform(-B)
    return GCStructure(M, "symplectic").validate()


def gc_from_complex(J: np.ndarray, sigma_omega: np.ndarray | None = None) -> GCStructure:
    """Complex-type (B-side) structure diag(-J, J^T), optional form block.

    The sign differs from the twistor-family members diag(+X, -X^T): the
    B-side structure of J sits at the antipodal family point.
    """
    J = np.asarray(J, dtype=float)
    d = J.shape[0]
    if np.abs(J @ J + np.eye(d)).max() > GC_TOL:
        raise ValueError("J^2 != -Id; not a complex structure")
    M = np.zeros((2 * d, 2 * d))
    M[:d, :d] = -J
    M[d:, d:] = J.T
    if sigma_omega is not None:
        M[d:, :d] = np.asarray(sigma_omega, dtype=float)
    return GCStructure(M, "complex").validate()


def _gc_diag(X: np.ndarray) -> GCStructure:
    """Family-convention complex-type member diag(X, -X^T)."""
    X = np.asarray(X, dtype=float)
    d = X.shape[0]
    M = np.zeros((2 * d, 2 * d))
    M[:d, :d] = X
    M[d:, d:] = -X.T
    return GCStructure(M, "complex").validate()


@dataclass(frozen=True)
class GHCFamily:
    """Twistor family J_zeta = zeta_I Ji + zeta_J Jj + zeta_K Jk."""

    Ji: GCStructure
    Jj: GCStructure
    Jk: GCStructure
    kind: str

    def at(self, zeta: TwistorPoint) -> GCStructure:
        M = (zeta.zeta_I * self.Ji.matrix + zeta.zeta_J * self.Jj.matrix
             + zeta.zeta_K * self.Jk.matrix)
        return GCStructure(M, self.kind)

    def quaternion_residual(self) -> float:
        eye = np.eye(self.Ji.matrix.shape[0])
        r = [np.abs(self.Ji.matrix @ self.Jj.matrix - self.Jk.matrix).max(),
             np.abs(self.Jj.matrix @ self.Jk.matrix - self.Ji.matrix).max(),
             np.abs(self.Ji.matrix @ self.Ji.matrix + eye).max()]
        return float(max(r))


def ghc_from_hypercomplex(I: np.ndarray, J: np.ndarray, K: np.ndarray) -> GHCFamily:
    """Diagonal-type family induced by a hypercomplex triple (objects of
    simultaneous complex type: the B-side family)."""
    for X, Y, Z in ((I, J, K), (J, K, I)):
        if np.abs(X @ Y - Z).max() > GC_TOL:
            raise ValueError("quaternion relations fail for (I, J, K)")
    fam = GHCFamily(_gc_diag(I), _gc_diag(J), _gc_diag(K), "hypercomplex")
    if fam.quaternion_residual() > GC_TOL:
        raise ValueError("induced family fails the quaternion relations")
    return fam


def ghc_from_holsymplectic(J: np.ndarray, omega_I: np.ndarray,
                           omega_K: np.ndarray) -> GHCFamily:
    """Mixed family of a holomorphic symplectic structure (the A-side family):
    symplectic type at i and k, complex type at j."""
    fam = GHCFamily(gc_from_symplectic(omega_I), _gc_diag(J),
                    gc_from_symplectic(omega_K), "holsymplectic")
    if fam.quaternion_residual() > 1e-10:
        raise ValueError("omega_I, J, omega_K are not a compatible "
                         "holomorphic-symplectic triple")
    return fam


def fiber_families(fiber: HyperkahlerFiber) -> dict[str, GHCFamily]:
    """The two standard twistor families of the model fiber, keyed BBB / ABA."""
    wI = kahler_form(fiber, ZETA_I).real
    wK = kahler_form(fiber, ZETA_K).real
    return {
        "BBB": ghc_from_hypercomplex(fiber.I, fiber.J, fiber.K),
        "ABA": ghc_from_holsymplectic(fiber.J, wI, wK),
    }


def generalized_metric(g: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """G with G^2 = Id and <G . , . > positive definite, from the pair (g, B)."""
    g = np.asarray(g, dtype=float)
    d = g.shape[0]
    if np.abs(g - g.T).max() > GC_TOL or np.any(np.linalg.eigvalsh(g) <= 0):
        raise ValueError("g must be symmetric positive definite")
    core = np.zeros((2 * d, 2 * d))
    core[:d, d:] = np.linalg.inv(g)
    core[d:, :d] = g
    if B is None:
        return core
    B = np.asarray(B, dtype=float)
    if np.abs(B + B.T).max() > GC_TOL:
        raise ValueError("B must be antisymmetric")
    return _b_transform(B) @ core @ _b_transform(-B)


@dataclass(frozen=True)
class LinearBraneDatum:
    """Subspace S with an antisymmetric field strength F on it.

    basis: k x d array, rows spanning S; F: k x k antisymmetric matrix in
    that basis.
    """

    basis: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        F = np.asarray(self.F, dtype=float)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "F", F)
        k = basis.shape[0]
        if F.shape != (k, k):
            raise ValueError("F must be square of size = number of basis rows")
        if np.abs(F + F.T).max() > 1e-10:
            raise ValueError("F must be antisymmetric")
        if np.linalg.matrix_rank(basis) != k:
            raise ValueError("subspace basis rows must be independent")

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    def generalized_tangent_basis(self) -> np.ndarray:
        """Columns spanning T^F S = {u + a : u in S, a|_S = F(u, .)} in R^{2d}.

        Always d-dimensional: one lift per basis vector of S plus the
        annihilator of S.
        """
        S = self.basis
        k, d = S.shape
        # dual frame on S extended by zero on the orthogonal complement
        pinv = np.linalg.pinv(S)            # d x k, S @ pinv = I_k
        lifts = np.zeros((2 * d, k))
        lifts[:d, :] = S.T
        lifts[d:, :] = pinv @ self.F.T      # alpha_i(v) = F(s_i, v) on S
        ann = _annihilator(S)
        out = np.hstack([lifts, np.vstack([np.zeros((d, ann.shape[1])), ann])])
        Q, _ = np.linalg.qr(out)
        return Q


def _annihilator(S: np.ndarray) -> np.ndarray:
    """Covectors vanishing on the row span of S, as columns."""
    k, d = S.shape
    _u, sv, vt = np.linalg.svd(S, full_matrices=True)
    return vt[k:].T if k < d else np.zeros((d, 0))


def brane_condition(datum: LinearBraneDatum, J: GCStructure,
                    tol: float = 1e-10) -> tuple[bool, float]:
    """Whether J preserves the generalized tangent space of (S, F).

    Returns the verdict and the subspace-angle defect |(1 - P) J Q|.
    """
    Q = datum.generalized_tangent_basis()
    JQ = J.matrix @ Q
    defect = float(np.linalg.norm(JQ - Q @ (Q.T @ JQ), 2))
    return defect <= tol, defect


def hyperbrane_condition(datum: LinearBraneDatum, family: GHCFamily,
                         samples: list[TwistorPoint],
                         tol: float = 1e-10) -> tuple[bool, dict]:
    """Brane condition at every sampled twistor point; worst defect reported."""
    defects = {}
    for z in samples:
        _ok, defect = brane_condition(datum, family.at(z), tol=tol)
        defects[(z.zeta_I, z.zeta_J, z.zeta_K)] = defect
    worst = max(defects.values())
    return worst <= tol, {"defects": defects, "worst": worst}
