"""Independent reference computations used as test oracles.

Everything here is written against closed forms or brute force, not against
the library's own operator paths: combinatorial Hodge numbers, the curvature
integral by exterior-algebra exponentiation, theta-style section counts via
the Pfaffian of the integer flux matrix, continuum Landau levels, a
plane-separated dense construction of the flux-torus spectra, a dense
exterior algebra built from the subset-and-sign definition of the wedge,
the commutator closure of an operator list by dense products, the dense
site Laplacian and differences of a gauge field's links, and the
sites x fiber lifts 1 (x) f and slice restrictions (1 (x) Q)^H M (1 (x) Q)
of assembled lattice operators.  The (0, *) projectors are the library's
`bidegree_projectors` (Kronecker sums of Lagrange interpolants of the type
derivation's 16 x 16 factors), the side that the closed-form slice bases
of `slice_basis` are checked against.
"""

from __future__ import annotations

import itertools
from math import comb, pi

import numpy as np
import scipy.sparse as sp


def hodge_numbers(n: int) -> list[int]:
    """Harmonic (0, q) dimensions of the flat torus with trivial bundle."""
    return [comb(2 * n, q) for q in range(2 * n + 1)]


def primitive_dimension(n: int, q: int) -> int:
    """Combinatorial dimension of the primitive (., q) subspace."""
    total = 4**n
    return total * (comb(2 * n, q) - (comb(2 * n, q - 2) if q >= 2 else 0))


def chern_weil_index(fiber, m: int) -> int:
    """Top coefficient of exp(m omega_J): the curvature integral over the
    unit torus.  Uses only exterior multiplication, no spectra."""
    from hklab.fiber import kahler_form, wedge_operator
    from hklab.quaternions import ZETA_J

    W = m * wedge_operator(fiber, kahler_form(fiber, ZETA_J)).matrix
    v = np.zeros(fiber.dim, dtype=complex)
    v[0] = 1.0
    total = v.copy()
    term = v.copy()
    for k in range(1, 2 * fiber.n + 1):
        term = W @ term / k
        total = total + term
    top = total[-1]
    assert abs(top.imag) < 1e-12
    return int(round(top.real))


def pfaffian(A: np.ndarray) -> int:
    """Pfaffian of a small antisymmetric integer matrix by expansion."""
    A = np.asarray(A)
    n = A.shape[0]
    if n % 2:
        return 0
    if n == 0:
        return 1
    if n == 2:
        return int(A[0, 1])
    total = 0
    rest = list(range(1, n))
    for pos, j in enumerate(rest):
        others = [x for x in rest if x != j]
        sub = A[np.ix_(others, others)]
        total += (-1) ** pos * int(A[0, j]) * pfaffian(sub)
    return total


def theta_ground_count(field) -> int:
    """Section count of the flux line bundle: |Pf| of the integer flux
    matrix read off the built gauge field's plaquettes."""
    return abs(pfaffian(field.flux_integers()))


def landau_ground(m: int, n: int = 1) -> float:
    """Continuum magnetic ground energy on T^{4n} with flux 2 pi m per plane."""
    return 4.0 * pi * abs(m) * n


def free_mode_energy(N: int, ks) -> float:
    """Free lattice Laplacian eigenvalue of the Fourier mode k (forward diff)."""
    return float(sum(2.0 * N * N * (1.0 - np.cos(2.0 * pi * k / N)) for k in ks))


def magnetic_plane_laplacian(N: int, phi: float) -> np.ndarray:
    """Dense 2-torus magnetic Laplacian with uniform flux phi per plaquette.

    Written independently of the library: links U_y = exp(i phi x) and a
    twist row U_x(N-1, y) = exp(-i phi N y).
    """
    dim = N * N
    H = np.zeros((dim, dim), dtype=complex)
    idx = lambda x, y: x * N + y  # noqa: E731
    for x in range(N):
        for y in range(N):
            i = idx(x, y)
            H[i, i] += 4.0 * N * N
            ux = np.exp(-1j * phi * N * y) if x == N - 1 else 1.0
            uy = np.exp(1j * phi * x)
            H[i, idx((x + 1) % N, y)] -= N * N * ux
            H[idx((x + 1) % N, y), i] -= N * N * np.conj(ux)
            H[i, idx(x, (y + 1) % N)] -= N * N * uy
            H[idx(x, (y + 1) % N), i] -= N * N * np.conj(uy)
    return H


def flux_slice_spectrum(N: int, m: int, q: int, count: int) -> np.ndarray:
    """Lowest eigenvalues of the flux Laplacian on the (0, q) slice, n = 1.

    Plane separation: Kronecker sum of the two magnetic 2-torus spectra
    plus the exact fiber shift 4 pi m (q - 1), with multiplicity C(2, q).
    """
    w1 = np.linalg.eigvalsh(magnetic_plane_laplacian(N, -2.0 * pi * m / N**2))
    w2 = np.linalg.eigvalsh(magnetic_plane_laplacian(N, +2.0 * pi * m / N**2))
    cut = min(len(w1), count + 1)
    sums = np.add.outer(w1[:cut], w2[:cut]).ravel()
    shifted = np.sort(sums) + 4.0 * pi * m * (q - 1)
    return np.sort(np.repeat(shifted, comb(2, q)))[:count]


def flux_zero_one_star_spectrum(N: int, m: int, count: int) -> np.ndarray:
    """Lowest eigenvalues of the flux Laplacian on the whole (0, *) slice."""
    parts = [flux_slice_spectrum(N, m, q, count) for q in range(3)]
    return np.sort(np.concatenate(parts))[:count]


def fit_inverse_square(Ns, ys) -> tuple[float, float]:
    """Least-squares fit y = C / N^2 through the origin; returns (C, R^2)."""
    x = np.array([1.0 / N**2 for N in Ns])
    y = np.asarray(ys, dtype=float)
    C = float(x @ y / (x @ x))
    ss_res = float(((y - C * x) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return C, 1.0 - ss_res / ss_tot


def sl2_joint_spectrum_prediction(n: int) -> dict[tuple[int, int], int]:
    """Multiset of (H weight, 2 * Casimir) pairs predicted by the primitive
    decomposition, with multiplicities."""
    out: dict[tuple[int, int], int] = {}
    for q in range(n + 1):
        m = n - q
        dim = primitive_dimension(n, q)
        for i in range(m + 1):
            key = (2 * i - m, m * (m + 2))
            out[key] = out.get(key, 0) + dim
    return out


class DenseExterior:
    """Dense reference for the exterior-algebra operators and the fiber
    operators made from them.

    Basis e^S over subsets S of {0..d-1}, degree-major and lexicographic
    inside each degree; e^a e^S = (-1)^{#{s in S : s < a}} e^{S + a} for a
    not in S.  Every operator is a sum of products of these dense
    generators and their transposes, as in the definitions.
    """

    def __init__(self, d: int):
        self.d = d
        basis = [S for k in range(d + 1)
                 for S in itertools.combinations(range(d), k)]
        index = {S: i for i, S in enumerate(basis)}
        self.basis = basis
        self.dim = len(basis)
        self.degrees = np.array([len(S) for S in basis])
        self.eps = []
        for a in range(d):
            E = np.zeros((self.dim, self.dim))
            for S, i in index.items():
                if a not in S:
                    sign = (-1.0) ** sum(s < a for s in S)
                    E[index[tuple(sorted(S + (a,)))], i] = sign
            self.eps.append(E)

    def wedge_1form(self, c) -> np.ndarray:
        return sum(c[a] * self.eps[a] for a in range(self.d))

    def contraction(self, v) -> np.ndarray:
        return sum(v[a] * self.eps[a].T for a in range(self.d))

    def wedge_2form(self, W) -> np.ndarray:
        return sum(W[a, b] * (self.eps[a] @ self.eps[b])
                   for a in range(self.d) for b in range(a + 1, self.d))

    def derivation(self, A) -> np.ndarray:
        return sum(A[a, b] * (self.eps[a] @ self.eps[b].T)
                   for a in range(self.d) for b in range(self.d))

    def clifford(self, J, alpha) -> np.ndarray:
        """c(alpha) = sqrt(2) (wedge of the (0,1) part of alpha minus
        contraction by its (1,0) part), metric Id and complex structure J
        on vectors."""
        A = J.T
        return np.sqrt(2.0) * (self.wedge_1form(0.5 * (alpha + 1j * A @ alpha))
                               - self.contraction(0.5 * (alpha - 1j * A @ alpha)))

    def clifford_2form(self, J, W) -> np.ndarray:
        """sum_{a<b} W_ab c(e^a) c(e^b)."""
        c = [self.clifford(J, e) for e in np.eye(self.d)]
        return sum(W[a, b] * (c[a] @ c[b])
                   for a in range(self.d) for b in range(a + 1, self.d))

    def twisted_star(self) -> np.ndarray:
        """e^S -> (-1)^{k(k+1)/2} eps e^{S^c} on degree k, where
        e^S ^ e^{S^c} = eps e^0 ^ ... ^ e^{d-1}, read off the product of
        the dense generators."""
        M = np.zeros((self.dim, self.dim))
        for i, S in enumerate(self.basis):
            comp = tuple(a for a in range(self.d) if a not in S)
            x = np.zeros(self.dim)
            x[self.basis.index(comp)] = 1.0
            for a in reversed(S):
                x = self.eps[a] @ x
            k = len(S)
            M[self.basis.index(comp), i] = (-1.0) ** (k * (k + 1) // 2) * x[-1]
        return M

    def bidegree_projectors(self, J) -> dict[tuple[int, int], np.ndarray]:
        """Spectral projectors of -i D_J, D_J the type derivation, on each
        degree block: (p, q) has degree p + q and eigenvalue p - q."""
        H = -1j * self.derivation(J.T)
        out = {}
        for k in range(self.d + 1):
            idx = np.flatnonzero(self.degrees == k)
            w, V = np.linalg.eigh(H[np.ix_(idx, idx)])
            for q in range(k + 1):
                sel = V[:, np.abs(w - (k - 2 * q)) < 0.5]
                P = np.zeros((self.dim, self.dim), dtype=complex)
                P[np.ix_(idx, idx)] = sel @ sel.conj().T
                out[k - q, q] = P
        return out


def dense_exp_antihermitian(G, t: float = 1.0) -> np.ndarray:
    """exp(t G) through one eigendecomposition of the whole i G."""
    H = 1j * np.asarray(G, dtype=complex)
    w, V = np.linalg.eigh(0.5 * (H + H.conj().T))
    return (V * np.exp(-1j * t * w)) @ V.conj().T


def dense_closure(ops, rtol: float = 1e-12) -> tuple[float, np.ndarray]:
    """Least-squares commutator closure of a list of dense operators.

    The product loop over full matrices: every commutator from two dense
    products, its right hand side and projection against all operators,
    and the normal equations solved through the eigenpairs of the
    Frobenius Gram matrix, eigenvalues at or below rtol times the largest
    dropped.  Returns the worst relative residual ||P C - C|| /
    max(1, ||P C||, ||C||) and one row of coefficients per pair i < j.
    """
    ops = [np.asarray(A, dtype=complex) for A in ops]
    G = np.array([[np.vdot(A, B) for B in ops] for A in ops])
    w, Q = np.linalg.eigh(G)
    ok = w > rtol * w.max()
    w_inv = np.zeros_like(w)
    w_inv[ok] = 1.0 / w[ok]
    worst = 0.0
    rows = []
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            C = ops[i] @ ops[j] - ops[j] @ ops[i]
            b = np.array([np.vdot(B, C) for B in ops])
            x = Q @ (w_inv * (Q.conj().T @ b))
            proj = sum(xk * B for xk, B in zip(x, ops))
            den = max(1.0, np.linalg.norm(proj), np.linalg.norm(C))
            worst = max(worst, float(np.linalg.norm(proj - C) / den))
            rows.append(x)
    return worst, np.array(rows)


def dense_site_factors(field) -> tuple[np.ndarray, list[np.ndarray]]:
    """The scalar magnetic Laplacian N^2 sum_a (2 - A_a - A_a^*) and the
    symmetric differences (N/2) (A_a - A_a^*), dense, from the links.

    The hop (A_a v)(x) = U_a(x) v(x + e_a) is written from the site grid
    (N,) * d in C order and its periodic shift by e_a, not from the
    library's hop matrices.
    """
    N, d, sites = field.spec.N, field.spec.d, field.spec.sites
    grid = np.unravel_index(np.arange(sites), (N,) * d)
    hops = []
    for a in range(d):
        shifted = list(grid)
        shifted[a] = (grid[a] + 1) % N
        A = np.zeros((sites, sites), dtype=complex)
        A[np.arange(sites), np.ravel_multi_index(shifted, (N,) * d)] = \
            field.links[:, a]
        hops.append(A)
    eye = np.eye(sites)
    lap = N**2 * sum(2.0 * eye - A - A.conj().T for A in hops)
    return lap, [(N / 2.0) * (A - A.conj().T) for A in hops]


def lift_fiber(field_or_spec, op) -> sp.csr_matrix:
    """1 (x) op: a fiber operator or array tensored with the identity on
    lattice sites, as a sites x fiber sparse matrix."""
    spec = getattr(field_or_spec, "spec", field_or_spec)
    return sp.kron(sp.identity(spec.sites, dtype=complex, format="csr"),
                   sp.csr_matrix(getattr(op, "matrix", op)), format="csr")


def slice_isometry(field_or_spec, fiber, zeta, degrees) -> sp.csr_matrix:
    """1 (x) Q: the isometry from sites x slice onto the sum of the
    (0, q)_zeta slices, q in degrees."""
    from hklab.fiber import slice_basis

    return lift_fiber(field_or_spec, slice_basis(fiber, zeta, degrees))


def bidegree_projector(fiber, zeta, p: int, q: int):
    """The (p, q)_zeta projector of the library's `bidegree_projectors`,
    a Kronecker sum of Lagrange interpolants of the type derivation's
    factors: a path that shares nothing with `slice_basis` and raises on a
    bidegree out of range."""
    from hklab.fiber import bidegree_projectors

    return bidegree_projectors(fiber, zeta, [(p, q)])[p, q]


def zero_one_star_projector(fiber, zeta, degrees=None):
    """The sum of the (0, q)_zeta projectors over q in degrees (every q
    by default), from `bidegree_projectors`."""
    from hklab.exterior import FiberOperator
    from hklab.fiber import bidegree_projectors

    if degrees is None:
        degrees = range(2 * fiber.n + 1)
    parts = bidegree_projectors(fiber, zeta, [(0, q) for q in degrees])
    return sum(parts.values(), FiberOperator.zero(fiber.dim))


def hermitian_residual(op) -> float:
    """||op - op^H||_F / max(1, ||op||_F) of a lattice operator, from its
    terms (`LatticeOperator.frobenius_norm`)."""
    return ((op - op.adjoint()).frobenius_norm()
            / max(1.0, op.frobenius_norm()))


def restrict(op, isometry: sp.spmatrix) -> sp.csr_matrix:
    """V^H M V with M the assembled sites x fiber matrix of op."""
    return (isometry.getH() @ op.matrix @ isometry).tocsr()
