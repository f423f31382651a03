"""Flat torus T^{4n} with a constant-flux U(1) bundle: operators and spectra.

The lattice has N sites per axis on the unit torus (spacing 1/N).  Link
phases realize a connection whose normalized curvature is m omega_J: every
plaquette in an (e_{4b}, e_{4b+2})-plane carries holonomy exp(-2 pi i m/N^2),
every (e_{4b+1}, e_{4b+3})-plaquette the conjugate phase, and all other
planes are flat.  A boundary twist layer keeps the holonomies uniform, which
requires the integer flux quantization m in Z.

Two discretizations coexist deliberately.  Kernel and gap counting uses the
Lichnerowicz-form Laplacian built from forward differences (free of fermion
doubling), while first-order operator identities use the symmetric-difference
Dirac operator; a Richardson test reconciles the two at rate 1/N^2.

Every lattice operator is a short sum of Kronecker terms S_i (x) f_i: a
sites x sites factor (scalar Laplacian, central difference, identity) times
a fiber matrix.  `LatticeOperator` keeps the terms.  Operator identities are
fiber identities tensored with the lattice, so their residuals are Frobenius
norms taken from ||sum S_i (x) f_i||^2 = sum_ij <S_i, S_j> <f_i, f_j>: a
small site Gram matrix and fiber-sized products, never the sites x fiber
matrix.  The gauge field holds its site factors, so all operators built from
it share them, and the Gram entries among a field's own factors are formed
once per field.  A fiber slice restricts on the terms to S_i (x) Q^H f_i Q
(`LatticeOperator.on_slice`), so eigensolves assemble sites x slice only.
Dense paths never load scipy: it is imported where a sparse matrix is formed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from .fiber import (FiberOperator, HyperkahlerFiber, bidegree_projector,
                    bidegree_projectors, complex_structure, kahler_form,
                    slice_basis, standard_fiber, zero_one_star_projector)
from .quaternions import (QUAT_J, TwistorPoint, UnitQuaternion, ZETA_J,
                          adjoint_action, hopf_section)
from .report import CheckResult
from .reptheory import antiholomorphic_triple
from .symmetry import (chi, chi_k, clifford, clifford_2form,
                       exp_antihermitian, hodge_star_twisted, rho_j_sp1,
                       rho_sp1, ten_operators)

if TYPE_CHECKING:
    import scipy.sparse as sp

DENSE_LIMIT = 1200
# entries generated per batch of site rows while assembling a lattice
# operator; bounds the working memory, not the result
ASSEMBLY_BATCH = 1 << 19


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic lattice: n quaternionic dimensions, N sites per axis."""

    n: int = 1
    N: int = 4

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("N >= 3 required")
        if self.n < 1:
            raise ValueError("empty fiber: n must be >= 1")

    @property
    def d(self) -> int:
        return 4 * self.n

    @property
    def sites(self) -> int:
        return self.N ** self.d


@dataclass(frozen=True)
class LatticeGaugeField:
    """U(1) link phases indexed by (site, axis)."""

    spec: LatticeSpec
    m: int
    links: np.ndarray
    _gram: dict[tuple[int, int], complex] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False)

    def coords(self) -> np.ndarray:
        return _coords(self.spec)

    def plaquettes(self, a: int, b: int) -> np.ndarray:
        """Holonomy around the (a, b) plaquette based at every site."""
        ia = _shift_index(self.spec, a)
        ib = _shift_index(self.spec, b)
        U = self.links
        return (U[:, a] * U[ia, b] * np.conj(U[ib, a]) * np.conj(U[:, b]))

    def flux_integers(self) -> np.ndarray:
        """Antisymmetric integer matrix of total plane fluxes in units of 2 pi.

        The (a, b) entry sums plaquette arguments over one full (a, b)
        2-torus slice through the origin.
        """
        spec = self.spec
        d, N = spec.d, spec.N
        F = np.zeros((d, d), dtype=np.int64)
        c = self.coords()
        for a in range(d):
            for b in range(a + 1, d):
                mask = np.ones(spec.sites, dtype=bool)
                for ax in range(d):
                    if ax not in (a, b):
                        mask &= c[:, ax] == 0
                total = np.angle(self.plaquettes(a, b)[mask]).sum() / (2.0 * np.pi)
                F[a, b] = int(round(total))
                F[b, a] = -F[a, b]
        return F

    def gauge_transformed(self, site_phases: np.ndarray) -> "LatticeGaugeField":
        """Apply the U(1) gauge transformation s(x): U_a(x) -> s(x) U_a(x) s(x+a)^-1."""
        g = np.asarray(site_phases, dtype=complex)
        if np.abs(np.abs(g) - 1.0).max() > 1e-12:
            raise ValueError("gauge transformation must be unit phases")
        new = np.empty_like(self.links)
        for a in range(self.spec.d):
            ia = _shift_index(self.spec, a)
            new[:, a] = g * self.links[:, a] * np.conj(g[ia])
        return LatticeGaugeField(self.spec, self.m, new)

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """Forward-difference magnetic Laplacian on lattice scalars,
        N^2 sum_a (2 - A_a - A_a^*), built once and shared by the operators
        made from this field."""
        import scipy.sparse as sp
        spec = self.spec
        M = sp.csr_matrix((spec.sites, spec.sites), dtype=complex)
        eye = sp.identity(spec.sites, dtype=complex, format="csr")
        for a in range(spec.d):
            A = _hop(self, a)
            M = M + (2.0 * eye - A - A.getH())
        return _site((spec.N**2 * M).tocsr())

    @cached_property
    def differences(self) -> tuple[sp.csr_matrix, ...]:
        """Anti-Hermitian symmetric covariant differences
        (N/2) (A_a - A_a^*), one per axis, built once and shared by the
        operators made from this field."""
        out = []
        for a in range(self.spec.d):
            A = _hop(self, a)
            out.append(_site(((self.spec.N / 2.0) * (A - A.getH())).tocsr()))
        return tuple(out)

    def own_factors(self) -> tuple:
        """The identity and, once built, `laplacian` and `differences`:
        the site factors of this field's operators.  No two of them are
        equal up to sign (N >= 3), so two distinct ones never merge."""
        built = vars(self)  # no operator holds a factor not yet built
        return (_site_identity(self.spec), built.get("laplacian"),
                *built.get("differences", ()))

    def site_inner(self, A: sp.csr_matrix, B: sp.csr_matrix) -> complex:
        """<A, B> = sum conj(A) * B of two site matrices.

        Between two of this field's own site factors (the identity,
        `laplacian` and `differences`, matched by object identity) each
        ordered pair is formed once and kept, so the at most (d + 2)^2
        entries are shared by every norm of the operators built from this
        field.  Any other pair is formed on each call.
        """
        own = self.own_factors()
        key = (_position(own, A), _position(own, B))
        if None in key:
            return _site_inner(A, B)
        if key not in self._gram:
            self._gram[key] = _site_inner(A, B)
        return self._gram[key]


def _fiber_matrix(x) -> np.ndarray:
    return x.matrix if isinstance(x, FiberOperator) else np.asarray(x)


def _site(S) -> sp.csr_matrix:
    """S as a canonical complex CSR matrix, the form `_site_sign` compares."""
    import scipy.sparse as sp
    if not (sp.issparse(S) and S.format == "csr" and S.dtype == complex
            and S.has_canonical_format):
        S = sp.csr_matrix(S, dtype=complex, copy=True)
        S.sum_duplicates()
    return S


def _position(factors: tuple, S) -> int | None:
    """Index of S in factors by object identity, or None."""
    return next((p for p, X in enumerate(factors) if X is S), None)


def _site_sign(A: sp.csr_matrix, B: sp.csr_matrix) -> int:
    """+1 or -1 when B equals +A or -A entry for entry, else 0."""
    if A is B:
        return 1
    if (A.shape != B.shape or A.nnz != B.nnz
            or not np.array_equal(A.indptr, B.indptr)
            or not np.array_equal(A.indices, B.indices)):
        return 0
    if np.array_equal(A.data, B.data):
        return 1
    return -1 if np.array_equal(A.data, -B.data) else 0


def _site_inner(A: sp.csr_matrix, B: sp.csr_matrix) -> complex:
    return A.conj().multiply(B).sum()


@lru_cache(maxsize=8)
def _site_identity(spec: LatticeSpec) -> sp.csr_matrix:
    import scipy.sparse as sp
    return sp.identity(spec.sites, dtype=complex, format="csr")


@dataclass(frozen=True, eq=False)
class LatticeOperator:
    """Operator on (sites x form fiber) space as a short sum of Kronecker terms.

    `terms` are (S, f) pairs, S a sites x sites sparse matrix (kept as
    canonical CSR) and f a dense fiber matrix; the operator is
    sum_i S_i (x) f_i on the sites of `spec` times a fiber of `fiber_dim`.
    Sums, scalar multiples, products with a fiber lift 1 (x) x on either
    side (`x @ op`, `op @ x` for a FiberOperator or a fiber-sized array x),
    the adjoint and `on_slice` act on the terms, and `frobenius_norm` never
    forms the sites x fiber matrix.  `matrix` assembles sites x
    `fiber_dim`, once, for the eigensolvers.  `field` is the gauge field
    the site factors were built from; its own factors are merged by
    identity and their Gram entries shared.
    """

    terms: tuple
    spec: LatticeSpec
    fiber_dim: int
    field: LatticeGaugeField | None = None

    # ndarray @ op defers to __rmatmul__ instead of broadcasting over op
    __array_ufunc__ = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(
            (_site(S), np.asarray(f)) for S, f in self.terms))

    @property
    def dim(self) -> int:
        return self.spec.sites * self.fiber_dim

    @property
    def nnz(self) -> int:
        """Entries the terms store: site nonzeros plus dense fiber entries."""
        return sum(S.nnz + f.size for S, f in self.terms)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """sum_i S_i (x) f_i as one CSR matrix, built once.

        The terms' Kronecker products are summed for a batch of site rows
        at a time, in term order, and the batches are stacked into one CSR
        matrix.  Each entry is thus summed (and dropped when it is zero)
        as adding the whole products would, while only one batch of them
        is ever held.
        """
        import scipy.sparse as sp
        fibers = [sp.csr_matrix(f) for _, f in self.terms]
        per_row = sum(S.nnz * f.nnz for (S, _), f in zip(self.terms, fibers))
        step = max(1, ASSEMBLY_BATCH * self.spec.sites // max(1, per_row))
        batches = []
        for x0 in range(0, self.spec.sites, step):
            rows = min(step, self.spec.sites - x0) * self.fiber_dim
            B = sp.csr_matrix((rows, self.dim), dtype=complex)
            for (S, _), f in zip(self.terms, fibers):
                B = B + sp.kron(S[x0:x0 + step], f, format="csr")
            batches.append(B)
        return sp.vstack(batches, format="csr")

    def _with(self, terms,
              other: "LatticeOperator | None" = None) -> "LatticeOperator":
        field = self.field
        if other is not None:
            if (other.spec, other.fiber_dim) != (self.spec, self.fiber_dim):
                raise ValueError("operators act on different spaces")
            if other.field is not field:
                field = None
        return LatticeOperator(tuple(terms), self.spec, self.fiber_dim, field)

    def __add__(self, other: "LatticeOperator") -> "LatticeOperator":
        return self._with(self.terms + other.terms, other)

    def __sub__(self, other: "LatticeOperator") -> "LatticeOperator":
        return self._with(self.terms + tuple((S, -f) for S, f in other.terms),
                          other)

    def __mul__(self, c) -> "LatticeOperator":
        return self._with((S, c * f) for S, f in self.terms)

    __rmul__ = __mul__

    def __matmul__(self, x) -> "LatticeOperator":
        x = _fiber_matrix(x)
        return self._with((S, f @ x) for S, f in self.terms)

    def __rmatmul__(self, x) -> "LatticeOperator":
        x = _fiber_matrix(x)
        return self._with((S, x @ f) for S, f in self.terms)

    def adjoint(self) -> "LatticeOperator":
        return self._with((S.getH(), f.conj().T) for S, f in self.terms)

    def on_slice(self, Q: np.ndarray) -> "LatticeOperator":
        """(1 (x) Q)^H op (1 (x) Q) for a fiber isometry Q, on the terms:
        V^H (S (x) f) V = S (x) Q^H f Q for V = 1 (x) Q (Van Loan 2000).
        The result keeps the field; its fiber_dim is Q.shape[1]."""
        Qh = Q.conj().T
        return LatticeOperator(tuple((S, Qh @ f @ Q) for S, f in self.terms),
                               self.spec, Q.shape[1], self.field)

    def _merged_terms(self) -> tuple[list[sp.csr_matrix], list[np.ndarray]]:
        """Site factors and fiber parts, terms whose site factors are equal
        up to sign summed into one.  An identity that holds fiber by fiber
        (X c = c' X) thus cancels in fiber-sized arithmetic, and the site
        factors left are linearly independent for every builder's operator.
        Two distinct own factors of the field are not compared.
        """
        own = () if self.field is None else self.field.own_factors()
        sites: list[sp.csr_matrix] = []
        owned: list[bool] = []
        fibers: list[np.ndarray] = []
        for S, f in self.terms:
            mine = _position(own, S) is not None
            for i, T in enumerate(sites):
                if mine and owned[i] and T is not S:
                    continue
                sign = _site_sign(T, S)
                if sign:
                    fibers[i] = fibers[i] + sign * f
                    break
            else:
                sites.append(S)
                owned.append(mine)
                fibers.append(f)
        return sites, fibers

    def frobenius_norm(self) -> float:
        """||sum_i S_i (x) f_i||_F from the site Gram matrix.

        ||.||^2 = sum_ij <S_i, S_j> <f_i, f_j> (Van Loan 2000).  The Gram
        matrix G of the merged site factors is factored as W diag(lam) W^H
        and the norm is sqrt(sum_c lam_c ||sum_j conj(W_jc) f_j||^2) with
        lam clipped at 0; the raw quadratic form can cancel below zero.
        Entries of G between the gauge field's own site factors come from
        `LatticeGaugeField.site_inner`, formed once per field.
        """
        sites, fibers = self._merged_terms()
        if not sites:
            return 0.0
        inner = _site_inner if self.field is None else self.field.site_inner
        G = np.empty((len(sites), len(sites)), dtype=complex)
        for i, A in enumerate(sites):
            for j in range(i, len(sites)):
                G[i, j] = inner(A, sites[j])
                G[j, i] = np.conj(G[i, j])
        lam, W = np.linalg.eigh(G)
        g = np.tensordot(W.conj().T, np.stack(fibers), axes=1)
        sq = np.sum(np.abs(g) ** 2, axis=(1, 2))
        return float(np.sqrt(np.clip(lam, 0.0, None) @ sq))

    def hermitian_residual(self) -> float:
        return ((self - self.adjoint()).frobenius_norm()
                / max(1.0, self.frobenius_norm()))


@lru_cache(maxsize=8)
def _coords(spec: LatticeSpec) -> np.ndarray:
    idx = np.arange(spec.sites)
    out = np.empty((spec.sites, spec.d), dtype=np.int64)
    for a in range(spec.d - 1, -1, -1):
        out[:, a] = idx % spec.N
        idx = idx // spec.N
    return out


@lru_cache(maxsize=64)
def _shift_index(spec: LatticeSpec, a: int) -> np.ndarray:
    """Index array of x + e_a (periodic), in the flat site ordering."""
    c = _coords(spec).copy()
    c[:, a] = (c[:, a] + 1) % spec.N
    weights = spec.N ** np.arange(spec.d - 1, -1, -1, dtype=np.int64)
    return c @ weights


@lru_cache(maxsize=8)
def model_fiber(n: int) -> HyperkahlerFiber:
    return standard_fiber(n)


def build_gauge_field(spec: LatticeSpec, m: int) -> LatticeGaugeField:
    """Constant-field gauge with a boundary twist layer; holonomies uniform.

    Per quaternionic block b the (4b, 4b+2)-plane carries flux -2 pi m/N^2
    per plaquette and the (4b+1, 4b+3)-plane +2 pi m/N^2, matching curvature
    m omega_J for omega_J = e^{4b,4b+2} - e^{4b+1,4b+3} per block.
    """
    N = spec.N
    c = _coords(spec)
    links = np.ones((spec.sites, spec.d), dtype=complex)
    for b in range(spec.n):
        for (mu, nu, sign) in ((4 * b, 4 * b + 2, -1.0), (4 * b + 1, 4 * b + 3, 1.0)):
            phi = sign * 2.0 * np.pi * m / N**2
            links[:, nu] *= np.exp(1j * phi * c[:, mu])
            seam = c[:, mu] == N - 1
            links[seam, mu] *= np.exp(-1j * phi * N * c[seam, nu])
    return LatticeGaugeField(spec, m, links)


def _hop(field: LatticeGaugeField, a: int) -> sp.csr_matrix:
    """Unitary transport A_a: (A_a v)(x) = U_a(x) v(x + e_a)."""
    import scipy.sparse as sp
    spec = field.spec
    ia = _shift_index(spec, a)
    return sp.csr_matrix((field.links[:, a], (np.arange(spec.sites), ia)),
                         shape=(spec.sites, spec.sites))


def covariant_laplacian(field: LatticeGaugeField) -> LatticeOperator:
    """nabla* nabla on form-valued sections: scalar Laplacian (x) identity."""
    fdim = 1 << field.spec.d  # the fiber algebra Lambda(R^{4n}) (x) C
    return LatticeOperator(((field.laplacian, np.eye(fdim, dtype=complex)),),
                           field.spec, fdim, field)


def lichnerowicz_laplacian(field: LatticeGaugeField,
                           zeta: TwistorPoint) -> LatticeOperator:
    """nabla* nabla - 2 pi i m c_zeta(omega_J), the doubler-free Laplacian.

    The scalar part is fiber-trivial, so this family is conjugated exactly
    by the fiberwise intertwiners; spectra on (0, *) slices are zeta
    independent to solver precision.
    """
    cov = covariant_laplacian(field)
    return LatticeOperator(
        cov.terms + ((_site_identity(field.spec),
                      flux_fiber_matrix(field, zeta)),),
        field.spec, cov.fiber_dim, field)


def flux_fiber_matrix(field: LatticeGaugeField,
                      zeta: TwistorPoint) -> np.ndarray:
    """F = -2 pi i m c_zeta(omega_J), the fiber part of the flux Laplacian."""
    fiber = model_fiber(field.spec.n)
    cw = clifford_2form(fiber, zeta, kahler_form(fiber, ZETA_J)).matrix
    return -((2j * np.pi * field.m) * cw)


def lattice_dirac(field: LatticeGaugeField, zeta: TwistorPoint) -> LatticeOperator:
    """D = sum_a c_zeta(e^a) nabla_a with symmetric differences; Hermitian."""
    fiber = model_fiber(field.spec.n)
    terms = tuple((S, clifford(fiber, zeta, np.eye(fiber.d)[a]).matrix)
                  for a, S in enumerate(field.differences))
    return LatticeOperator(terms, field.spec, fiber.dim, field)


def dolbeault_pair(field: LatticeGaugeField,
                   zeta: TwistorPoint) -> tuple[LatticeOperator, LatticeOperator]:
    """(dbar, dbar*) built from central differences and (0,1) wedge symbols."""
    fiber = model_fiber(field.spec.n)
    alg = fiber.algebra
    A = complex_structure(fiber, zeta).T
    terms = []
    for a, S in enumerate(field.differences):
        e = np.eye(fiber.d)[a]
        terms.append((S, alg.wedge_1form(0.5 * (e + 1j * (A @ e))).matrix))
    dbar = LatticeOperator(tuple(terms), field.spec, fiber.dim, field)
    return dbar, dbar.adjoint()


def lowest_eigenvalues(M: sp.spmatrix | np.ndarray, k: int, seed: int = 0,
                       vectors: bool = False
                       ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """k smallest eigenvalues of a Hermitian matrix, ascending.

    The library's one eigensolve.  M, sparse or a dense array, is first
    checked Hermitian to a relative 1e-10.  A dense array, a matrix of at
    most DENSE_LIMIT rows, or a request for more than a third of the
    spectrum (or all of it but one) is solved densely; any other matrix by
    Lanczos with a seeded start vector, so results are deterministic.  With
    vectors=True the result is (eigenvalues, V) with orthonormal columns V:
    Lanczos Ritz vectors inside a degenerate level need not be
    orthonormal, so they are orthonormalised by QR.
    """
    if not (dense := isinstance(M, np.ndarray)):
        import scipy.sparse.linalg as spla
    norm = np.linalg.norm if dense else spla.norm
    herm = norm(M - M.conj().T) / max(1.0, norm(M))
    if herm > 1e-10:
        raise ValueError(f"operator is not Hermitian on the slice ({herm:.1e})")
    dim = M.shape[0]
    k = min(k, dim)
    if dense or dim <= DENSE_LIMIT or 3 * k > dim or k >= dim - 1:
        A = np.asarray(M if dense else M.todense())
        if not vectors:
            return np.linalg.eigvalsh(A)[:k]
        w, V = np.linalg.eigh(A)
        return w[:k], V[:, :k]
    rng = np.random.default_rng(0xC0FFEE ^ seed ^ dim)
    v0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    ncv = min(dim - 1, max(2 * k + 20, 40))
    out = spla.eigsh(M.tocsc(), k=k, which="SA", v0=v0, ncv=ncv,
                     maxiter=50 * dim, return_eigenvectors=vectors)
    if not vectors:
        return np.sort(out)
    w, V = out
    order = np.argsort(w)
    Q, _ = np.linalg.qr(V[:, order])
    return w[order], Q


def plane_laplacians(field: LatticeGaugeField) -> list[np.ndarray] | None:
    """Dense N^2 x N^2 magnetic Laplacians of the flux planes, or None.

    The planes are (e_{4b}, e_{4b+2}) and (e_{4b+1}, e_{4b+3}) per block,
    with sites ordered x_a N + x_b.  When every link depends only on the two
    coordinates of its own plane, as those of `build_gauge_field` do, the
    scalar Laplacian is exactly the Kronecker sum of these.  Otherwise (a
    generic gauge transform, say) the result is None: the test is exact
    equality, so a field is never treated as separable by approximation.
    """
    spec = field.spec
    N, d = spec.N, spec.d
    links = field.links.reshape((N,) * d + (d,))
    idx = np.arange(N * N).reshape(N, N)
    eye = np.eye(N * N, dtype=complex)
    out = []
    for b in range(spec.n):
        for plane in ((4 * b, 4 * b + 2), (4 * b + 1, 4 * b + 3)):
            others = tuple(ax for ax in range(d) if ax not in plane)
            origin = tuple(0 if ax in others else slice(None)
                           for ax in range(d))
            H = np.zeros((N * N, N * N), dtype=complex)
            for pos, axis in enumerate(plane):
                U = links[..., axis]
                U0 = U[origin]
                if not np.array_equal(U, np.broadcast_to(
                        np.expand_dims(U0, others), U.shape)):
                    return None
                A = np.zeros((N * N, N * N), dtype=complex)
                A[idx.ravel(), np.roll(idx, -1, axis=pos).ravel()] = U0.ravel()
                H = H + (2.0 * eye - A - A.conj().T)
            out.append(N**2 * H)
    return out


def separable_spectrum(planes: list[np.ndarray], fiber_matrix: np.ndarray,
                       basis: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """k lowest eigenvalues of sum_P H_P (x) 1 + 1 (x) Q^H F Q, and its dim.

    This is the operator scalar (x) 1 + 1 (x) F restricted to sites x
    range(Q) when the scalar part is the Kronecker sum of the plane
    Laplacians H_P.  Every factor is a dense array, so `lowest_eigenvalues`
    diagonalizes it densely (F numerically, so any fiber operator works),
    and the sorted lists are folded into their k smallest sums.  The k
    smallest sums of two sorted lists use only the first k entries of
    each, so the fold is exact and returns every copy of a degenerate
    level.
    """
    factors = [*planes, basis.conj().T @ fiber_matrix @ basis]
    dim = int(np.prod([len(H) for H in factors]))
    k = _window(k, dim)
    sums = np.zeros(1)
    for H in factors:
        w = lowest_eigenvalues(H, k)
        sums = np.sort(np.add.outer(sums, w), axis=None)[:k]
    return sums, dim


def _window(k: int, dim: int) -> int:
    """min(k, dim), warning when the slice holds fewer than k eigenvalues."""
    if k > dim:
        warnings.warn(f"k={k} exceeds slice dimension {dim}; truncated")
    return min(k, dim)


def flux_spectra(field: LatticeGaugeField, zeta: TwistorPoint,
                 projectors: list[FiberOperator], k: int,
                 seed: int = 0) -> list[tuple[np.ndarray, int]]:
    """(k lowest eigenvalues, slice dim) of the flux Laplacian per slice.

    The operator is `lichnerowicz_laplacian(field, zeta)` restricted to
    each projector's range.  When the field is plane-separable the
    spectra come from `separable_spectrum`, with exact multiplicities,
    and neither the site Laplacian nor any lattice operator is built; the
    plane Laplacians and the flux fiber matrix are formed once for all
    projectors.  Any other field is restricted to each slice on its terms
    (`LatticeOperator.on_slice`), assembled there and solved by
    `lowest_eigenvalues`.
    """
    fiber = model_fiber(field.spec.n)
    planes = plane_laplacians(field)
    if planes is None:
        delta = lichnerowicz_laplacian(field, zeta)

        def assembled(P: FiberOperator) -> tuple[np.ndarray, int]:
            M = delta.on_slice(slice_basis(fiber, P)).matrix
            dim = M.shape[0]
            return lowest_eigenvalues(M, _window(k, dim), seed=seed), dim

        return [assembled(P) for P in projectors]
    F = flux_fiber_matrix(field, zeta)
    return [separable_spectrum(planes, F, slice_basis(fiber, P), k)
            for P in projectors]


CLUSTER_RATIO = 6.0
CLUSTER_FLOOR = 1e-8


@dataclass(frozen=True)
class NearZeroCluster:
    """Bottom cluster of a spectrum and the first eigenvalue above it."""

    size: int
    top: float
    scale: float
    gap: float

    @property
    def ratio(self) -> float:
        """Cluster scale max|w| over the gap; below 1/CLUSTER_RATIO."""
        return self.scale / self.gap

    def threshold(self, tau: float) -> float | None:
        """tau * gap, or None unless it lies strictly inside the gap."""
        t = tau * self.gap
        return t if self.top < t < self.gap else None


def near_zero_cluster(w: np.ndarray) -> NearZeroCluster | None:
    """Near-zero cluster of w, ending at the first dominating jump.

    The cluster starts at the bottom of the sorted list and ends before the
    first eigenvalue that exceeds both CLUSTER_RATIO times every |w| below
    it and the absolute CLUSTER_FLOOR, so solver jitter inside a zero
    cluster never counts as a jump and an equally spaced ladder 0, a, 2a is
    cut at a.  Returns None when no such eigenvalue was returned: the list
    may end inside its cluster.
    """
    w = np.sort(np.asarray(w, dtype=float))
    if len(w) < 2:
        return None
    scale = np.maximum.accumulate(np.abs(w))[:-1]
    hits = np.flatnonzero(w[1:] > np.maximum(CLUSTER_RATIO * scale,
                                             CLUSTER_FLOOR))
    if not len(hits):
        return None
    i = int(hits[0])
    return NearZeroCluster(size=i + 1, top=float(w[i]),
                           scale=float(scale[i]), gap=float(w[i + 1]))


def _kernel_count(w: np.ndarray, tau: float) -> int | None:
    """Number of w below tau * gap above the near-zero cluster, or None
    when that threshold is not resolved."""
    cluster = near_zero_cluster(w)
    thresh = None if cluster is None else cluster.threshold(tau)
    return None if thresh is None else int(np.sum(w < thresh))


@dataclass
class IndexResult:
    """Even minus odd near-kernel count of the flux Laplacian on (0, *).

    `reason` says why the result is or is not determinate; `cluster_size`
    and `cluster_ratio` describe the near-zero cluster (None when no
    dominating jump was returned, in which case `gap` and `threshold` are
    nan).  Nothing is counted unless the result is determinate, that is
    unless `value` is set.
    """

    value: int | None
    even_count: int | None
    odd_count: int | None
    threshold: float
    gap: float
    even_eigenvalues: np.ndarray = dc_field(default_factory=lambda: np.array([]))
    odd_eigenvalues: np.ndarray = dc_field(default_factory=lambda: np.array([]))
    cluster_size: int | None = None
    cluster_ratio: float | None = None
    reason: str = ""

    @property
    def determinate(self) -> bool:
        """Whether the index was decided: `value` is not None."""
        return self.value is not None


def dirac_index(field: LatticeGaugeField, zeta: TwistorPoint,
                tau: float = 0.5, k: int | None = None,
                seed: int = 0) -> IndexResult:
    """Count even/odd (0, *) eigenvalues below tau times the gap.

    Uses the Lichnerowicz-form Laplacian so that lattice doublers cannot
    contaminate the kernel counts; its slice spectra come from
    `flux_spectra`, plane-separated with exact multiplicities when the
    field allows it.  The gap is the first eigenvalue of the
    combined even + odd list above its near-zero cluster
    (`near_zero_cluster`).  The result is flagged indeterminate, and nothing
    is counted, when no such gap was returned, when tau * gap does not lie
    strictly between the cluster and the gap, or when a parity's returned
    eigenvalues end below the threshold.

    The default window k = max(2^{2n+1}, 2 m^{2n} + 6) per parity is four
    times the flux-free kernel 2^{2n-1} of a parity and clears the m^{2n}
    lowest-Landau-level modes of the even slice; at n = 1 it is
    max(8, 2 m^2 + 6).
    """
    n = field.spec.n
    fiber = model_fiber(n)
    if k is None:
        k = max(2 ** (2 * n + 1), 2 * field.m ** (2 * n) + 6)
    parities = ("even", "odd")
    slices = flux_spectra(field, zeta, [
        zero_one_star_projector(fiber, zeta, p) for p in parities], k, seed)
    out = {p: w for p, (w, _dim) in zip(parities, slices)}
    complete = {p: len(w) == dim for p, (w, dim) in zip(parities, slices)}
    cluster = near_zero_cluster(np.concatenate([out["even"], out["odd"]]))
    result = IndexResult(
        value=None, even_count=None, odd_count=None,
        threshold=float("nan"), gap=float("nan"),
        even_eigenvalues=out["even"], odd_eigenvalues=out["odd"])
    if cluster is None:
        result.reason = "no gap above the near-zero cluster was returned"
        return result
    result.gap = cluster.gap
    result.threshold = tau * cluster.gap
    result.cluster_size = cluster.size
    result.cluster_ratio = cluster.ratio
    if cluster.threshold(tau) is None:
        result.reason = "tau * gap does not lie strictly inside the gap"
        return result
    short = [p for p in out
             if not complete[p] and out[p][-1] <= result.threshold]
    if short:
        result.reason = f"{short[0]} eigenvalues end below the threshold"
        return result
    result.even_count = int(np.sum(out["even"] < result.threshold))
    result.odd_count = int(np.sum(out["odd"] < result.threshold))
    result.value = result.even_count - result.odd_count
    result.reason = (f"cluster of {cluster.size} at ratio "
                     f"{cluster.ratio:.1e} of the gap")
    return result


# ---------------------------------------------------------------------------
# theorem-level verifications
# ---------------------------------------------------------------------------

def _dirac_square_slice(field: LatticeGaugeField, zeta: TwistorPoint,
                        basis: np.ndarray) -> sp.csr_matrix:
    """D^2 restricted to sites x range(basis), basis spanning (0, *)_zeta.

    Each c_zeta(e^a) maps (0, *)_zeta into itself, so D does, and the slice
    of D^2 is the square of D's slice.
    """
    D = lattice_dirac(field, zeta).on_slice(basis).matrix
    return D @ D


def theorem_1_1_details(field: LatticeGaugeField, zeta: TwistorPoint,
                        eta: UnitQuaternion, k: int = 20,
                        seed: int = 0) -> dict:
    """Conjugation residual and slice-spectra deviations for one (zeta, eta).

    The conjugation identity is exact for the Lichnerowicz-form family;
    spectra are compared both for that family and for the square of the
    symmetric-difference Dirac operator (whose kernel carries doublers but
    whose slice spectra coincide along the sphere as well).
    """
    fiber = model_fiber(field.spec.n)
    zp = adjoint_action(eta, zeta)
    dz = lichnerowicz_laplacian(field, zeta)
    dzp = lichnerowicz_laplacian(field, zp)
    X = chi(fiber, eta, zeta)
    conj_residual = ((X @ dz - dzp @ X).frobenius_norm()
                     / max(1.0, dz.frobenius_norm()))
    [(wz, _)] = flux_spectra(field, zeta,
                             [zero_one_star_projector(fiber, zeta)], k, seed)
    [(wp, _)] = flux_spectra(field, zp,
                             [zero_one_star_projector(fiber, zp)], k, seed)

    def dirac_square_spec(z):
        D2 = _dirac_square_slice(
            field, z, slice_basis(fiber, zero_one_star_projector(fiber, z)))
        return lowest_eigenvalues(D2, k, seed=seed)

    dev_dirac = float(np.abs(dirac_square_spec(zeta)
                             - dirac_square_spec(zp)).max())
    return {
        "conjugation_residual": conj_residual,
        "spectral_deviation": float(np.abs(wz - wp).max()),
        "dirac_square_deviation": dev_dirac,
        "eigenvalues": wz,
    }


def theorem_3_1_details(field: LatticeGaugeField, zetas: list[TwistorPoint],
                        eta: UnitQuaternion, k: int = 16,
                        seed: int = 0) -> dict:
    """Flux-free Dolbeault Laplacians: rotation invariance and harmonic counts.

    At m = 0 the Dolbeault Laplacian is half the flux Laplacian, so its
    slice spectra are half those of `flux_spectra`.
    """
    if field.m != 0:
        raise ValueError("the flux-free statement needs m = 0")
    fiber = model_fiber(field.spec.n)
    half = 0.5 * lichnerowicz_laplacian(field, zetas[0])
    R = rho_sp1(fiber, eta)
    conj_residual = ((R @ half - half @ R).frobenius_norm()
                     / max(1.0, half.frobenius_norm()))

    def dolbeault_spectra(z, projectors):
        return [0.5 * w
                for w, _ in flux_spectra(field, z, projectors, k, seed)]

    spectra = np.array([
        dolbeault_spectra(z, [zero_one_star_projector(fiber, z)])[0]
        for z in zetas])
    deviation = float(np.abs(spectra - spectra[0]).max())
    counts = [_kernel_count(w, tau=0.5) for w in dolbeault_spectra(
        zetas[0], [bidegree_projector(fiber, zetas[0], 0, q)
                   for q in range(2 * fiber.n + 1)])]
    return {"conjugation_residual": conj_residual,
            "spectral_deviation": deviation,
            "harmonic_counts": counts}


def corollary_1_2_details(field: LatticeGaugeField,
                          zetas: list[TwistorPoint], seed: int = 0) -> dict:
    """Smallest (0, odd) eigenvalue of the flux Laplacian per sampled zeta."""
    fiber = model_fiber(field.spec.n)
    gaps = []
    for z in zetas:
        [(w, _dim)] = flux_spectra(
            field, z, [zero_one_star_projector(fiber, z, "odd")], 2, seed)
        gaps.append(float(w[0]))
    gaps = np.array(gaps)
    return {"gaps": gaps, "min_gap": float(gaps.min()),
            "deviation": float(np.abs(gaps - gaps[0]).max())}


def theorem_3_10_details(field: LatticeGaugeField, seed: int = 0) -> dict:
    """Sub-identities of the +-J Dirac intertwining as lattice operators."""
    fiber = model_fiber(field.spec.n)
    minus_j = TwistorPoint(0.0, -1.0, 0.0)
    dj = lattice_dirac(field, ZETA_J)
    dmj = lattice_dirac(field, minus_j)
    scale = max(1.0, dj.frobenius_norm())

    def rel(op: LatticeOperator) -> float:
        return op.frobenius_norm() / scale

    X = chi_k(fiber)
    S = hodge_star_twisted(fiber)
    tri = antiholomorphic_triple(fiber)
    L, A = tri.L, tri.Lambda
    ladder = exp_antihermitian(L - A, -np.pi / 2)
    out = {
        "chi_k_intertwine": rel(X @ dj - dmj @ X),
        "star_intertwine": rel(S @ dj - dmj @ S),
        "ladder_commute": rel(ladder @ dmj - dmj @ ladder),
        "L_commute": rel(L @ dmj - dmj @ L),
        "Lambda_commute": rel(A @ dmj - dmj @ A),
    }
    # D preserves every (p, *) tower of J
    nn = 2 * fiber.n
    slices = bidegree_projectors(
        fiber, ZETA_J, [(p, q) for p in range(nn + 1) for q in range(nn + 1)])
    worst = 0.0
    for p in range(nn + 1):
        PP = sum((slices[p, q] for q in range(nn + 1)),
                 FiberOperator.zero(fiber.dim))
        worst = max(worst, rel(PP @ dj @ PP - dj @ PP))
    out["p_tower_preserved"] = worst
    return out


def _thm11_residual(det: dict, field: LatticeGaugeField) -> float:
    return max(det["conjugation_residual"], det["spectral_deviation"],
               det["dirac_square_deviation"])


def _thm31_residual(det: dict, field: LatticeGaugeField) -> float:
    n = field.spec.n
    expected = [comb(2 * n, q) for q in range(2 * n + 1)]
    count_err = 0.0 if det["harmonic_counts"] == expected else 1.0
    return max(det["conjugation_residual"], det["spectral_deviation"],
               count_err)


def _cor12_residual(det: dict, field: LatticeGaugeField) -> float:
    # require at least a quarter of the continuum gap 4 pi m
    vanishing_ok = det["min_gap"] > np.pi * max(field.m, 1)
    return det["deviation"] if vanishing_ok else float("inf")


def _thm310_residual(det: dict, field: LatticeGaugeField) -> float:
    return max(det.values())


THEOREMS = {
    "thm1.1": (
        "the twistor family of flux Dirac Laplacians is conjugated along the "
        "sphere by the chi intertwiners",
        1e-9, theorem_1_1_details, _thm11_residual),
    "thm3.1": (
        "hypercomplex rotations intertwine the Dolbeault Laplacians of the "
        "flux-free bundle; harmonic counts match flat Hodge theory",
        1e-10, theorem_3_1_details, _thm31_residual),
    "cor1.2": (
        "odd-degree spinor kernel vanishes under prequantum flux; the "
        "positive gap is zeta independent",
        1e-9, corollary_1_2_details, _cor12_residual),
    "thm3.10": (
        "chi(k) = rho(k) rho_j(k) intertwines the +-J Dirac operators; star "
        "and Lefschetz-ladder sub-identities",
        1e-10, theorem_3_10_details, _thm310_residual),
}


def verify_theorem(check_id: str, field: LatticeGaugeField, *inputs,
                   seed: int = 0,
                   tolerance: float | None = None) -> CheckResult:
    """Run one registered theorem check on a gauge field.

    `inputs` follow the field as positional arguments of the check's
    `*_details` function (k included); the registered reduction turns its
    dict into one residual, judged against the registered tolerance unless
    one is given.
    """
    if check_id not in THEOREMS:
        raise KeyError(f"unknown check_id: {check_id!r}")
    citation, default_tol, details, reduce = THEOREMS[check_id]
    det = details(field, *inputs, seed=seed)
    return CheckResult(
        check_id=check_id, citation=citation, residual=reduce(det, field),
        tolerance=default_tol if tolerance is None else tolerance,
        params={"n": field.spec.n, "N": field.spec.N, "m": field.m,
                "seed": seed})


def exact_symmetry_details(field: LatticeGaugeField, zeta: TwistorPoint,
                           eta: UnitQuaternion, seed: int = 0) -> dict:
    """Exact lattice-size-independent conjugation identities.

    The scalar Laplacian is fiber trivial, so it commutes with every
    fiberwise operator; the hypercomplex rotation through the Hopf section
    carries the flux Laplacian of J_zeta to the j-anchored family member at
    the mirrored point j zeta j^-1, and the Clifford rotation moves that
    family along the sphere by the adjoint action.
    """
    fiber = model_fiber(field.spec.n)
    cov = covariant_laplacian(field)

    def anchored(xi: TwistorPoint) -> LatticeOperator:
        # family anchored at j: scalar part plus the rotated flux remainder
        cw = clifford_2form(fiber, ZETA_J, kahler_form(fiber, xi)).matrix
        return LatticeOperator(
            cov.terms + ((_site_identity(field.spec),
                          -(2j * np.pi * field.m) * cw),),
            field.spec, fiber.dim, field)

    out = {}
    # scalar Laplacian commutes with all ten fiber operators
    scale = max(1.0, cov.frobenius_norm())
    out["scalar_laplacian_commutes"] = max(
        (cov @ op - op @ cov).frobenius_norm() / scale
        for op in ten_operators(fiber).as_list())
    # Hopf-section conjugation onto the anchored family
    R = rho_sp1(fiber, hopf_section(zeta)).matrix
    dz = lichnerowicz_laplacian(field, zeta)
    mirrored = adjoint_action(QUAT_J, zeta)
    out["hopf_conjugation"] = (
        (R.conj().T @ dz @ R - anchored(mirrored)).frobenius_norm()
        / max(1.0, dz.frobenius_norm()))
    # Clifford rotation moves the anchored family by the adjoint action
    Rj = rho_j_sp1(fiber, eta).matrix
    rhs = anchored(adjoint_action(eta, mirrored))
    out["clifford_rotation"] = (
        (Rj @ anchored(mirrored) @ Rj.conj().T - rhs).frobenius_norm()
        / max(1.0, rhs.frobenius_norm()))
    return out


DEGENERACY_RTOL = 1e-8


def _level_end(w: np.ndarray, i: int) -> int | None:
    """One past the last index of the degenerate level holding w[i].

    None when the list ends inside that level: no eigenvalue separated from
    it by a gap was returned.
    """
    tol = DEGENERACY_RTOL * max(1.0, float(np.abs(w).max()))
    j = i
    while j + 1 < len(w) and w[j + 1] - w[j] <= tol:
        j += 1
    return j + 1 if j + 1 < len(w) else None


def dirac_vs_lichnerowicz(field: LatticeGaugeField, zeta: TwistorPoint,
                          num_modes: int = 10, seed: int = 0) -> float:
    """||(D^2 - Delta) V||_2 over the low eigenspace V of Delta on (0, *).

    V is an orthonormal basis of the lowest `num_modes` eigenvectors,
    widened to the end of the degenerate level that mode num_modes - 1
    belongs to.  V then spans a whole spectral subspace, and the operator
    norm (the basis-free "max over modes") does not depend on which vectors
    the solver picked inside a level.  D^2 uses symmetric differences,
    Delta the forward-difference Lichnerowicz form; on smooth modes the
    difference decays like 1/N^2.
    """
    fiber = model_fiber(field.spec.n)
    basis = slice_basis(fiber, zero_one_star_projector(fiber, zeta))
    delta = lichnerowicz_laplacian(field, zeta).on_slice(basis).matrix
    d2 = _dirac_square_slice(field, zeta, basis)
    dim = delta.shape[0]
    extra = max(4, num_modes // 2)
    while True:
        k = min(num_modes + extra, dim)
        w, Q = lowest_eigenvalues(delta, k, seed=seed, vectors=True)
        end = _level_end(w, min(num_modes, k) - 1)
        if end is not None or k == dim:
            break
        extra *= 2
    return float(np.linalg.norm((d2 - delta) @ Q[:, :end or k], 2))
