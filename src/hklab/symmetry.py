"""Group actions and Clifford actions on the fiber exterior algebra.

Two commuting sources of symmetry act here: the hypercomplex rotations
generated by the type derivations ad(I), ad(J), ad(K), and the Clifford
rotations generated by quantized Kahler forms.  Together with the
Lefschetz operators of the three Kahler forms they span a ten-dimensional
Lie algebra of zeroth-order operators closed under commutators.

Orientation facts of this realization, fixed by the basis convention of
`standard_fiber` (ledgered choices, verified by the test suite):

* rho_sp1(eta) acts on 1-forms by precomposition with the rotation
  v -> eta v; it therefore composes contravariantly,
  rho(a) rho(b) = rho(b a), and maps the (p, q)-slice of J_zeta onto the
  (p, q)-slice of J_{eta^-1 zeta eta}.
* rho_j_sp1 is a genuine left action: rho_j(a) rho_j(b) = rho_j(a b).
* Both actions are closed forms in eta's four components, one 16 x 16
  factor per quaternion block: rho(eta) is the compound matrix of the
  4 x 4 rotation eta_0 + eta_1 I^T + eta_2 J^T + eta_3 K^T, and rho_j(eta)
  is affine in eta.  No exponential is taken on this path.
* For pure imaginary eta the two sphere rotations coincide, so every
  axis-point identity reads the same in either convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exterior import ExteriorAlgebra
from .fiber import (FiberOperator, HyperkahlerFiber, bidegree_projectors,
                    complex_structure, contraction_operator,
                    form_coefficients, holomorphic_symplectic, kahler_form,
                    type_derivation, wedge_operator)
from .quaternions import (QUAT_J, QUAT_K, TwistorPoint, UnitQuaternion,
                          ZETA_I, ZETA_J, ZETA_K, adjoint_action, components,
                          hopf_section, random_twistor_point,
                          random_unit_quaternion)
from .report import CheckResult
from .reptheory import antiholomorphic_triple, irrep_operators, \
    primitive_decompose, reconstruct

DEFAULT_TOL = 1e-10
GRAM_RTOL = 1e-12
_UPPER = np.triu_indices(4)  # the pairs i <= j of `zeta_monomials`


def rel_residual(A, B):
    """||A - B||_F / max(1, ||A||_F, ||B||_F), a float, or one value a
    sample when either side is a stack of operators.

    When either side is a FiberOperator both are taken as FiberOperators.
    For two term operators the three norms come from one
    orthogonalization sweep over A's Kronecker terms followed by B's
    (`FiberOperator.residual_norms`), batched over the samples: A - B is
    never formed, and its small norm is not lost to cancellation as in a
    Gram expansion.  Otherwise they are the norms of the dense matrices.
    """
    if isinstance(A, FiberOperator) or isinstance(B, FiberOperator):
        A, B = (X if isinstance(X, FiberOperator) else FiberOperator(X)
                for X in (A, B))
        a, b, diff = A.residual_norms(B)
        r = diff / np.maximum(1.0, np.maximum(a, b))
        return r if np.ndim(r) else float(r)
    A = np.asarray(A)
    B = np.asarray(B)
    den = max(1.0, float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    return float(np.linalg.norm(A - B) / den)


def _pattern_blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """Connected blocks of a symmetric nonzero pattern, grouped by size.

    Returns one (count, size) index array per block size.  Labels spread
    as the smallest index among neighbours, with pointer jumping.
    """
    dim = pattern.shape[0]
    rows, cols = np.nonzero(pattern | np.eye(dim, dtype=bool))
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    label = np.arange(dim)
    while True:
        new = np.minimum.reduceat(label[cols], starts)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    _, first = np.unique(label[order], return_index=True)
    blocks = np.split(order, first[1:])
    sizes = sorted({len(b) for b in blocks})
    return [np.array([b for b in blocks if len(b) == s]) for s in sizes]


def _exp_factor(G: np.ndarray, t: float) -> np.ndarray:
    """exp(t G) for one dense anti-Hermitian factor, by eigendecomposition
    of i G; each connected block of G's nonzero pattern is exponentiated
    on its own (equal-size blocks in one stacked eigh), so entries outside
    the blocks are exact zeros."""
    G = np.asarray(G, dtype=complex)
    H = 1j * G
    Hc = H.conj().T.copy()  # contiguous: strided sums are much slower
    herm = float(np.linalg.norm(H - Hc) / max(1.0, np.linalg.norm(H)))
    if not herm <= 1e-10:
        raise ValueError(f"generator is not anti-Hermitian (residual {herm:.1e})")
    H = 0.5 * (H + Hc)
    out = np.zeros_like(H)
    for idx in _pattern_blocks(H != 0):
        block = (idx[:, :, None], idx[:, None, :])
        w, V = np.linalg.eigh(H[block])
        out[block] = (V * np.exp(-1j * t * w)[:, None, :]) @ \
            V.conj().transpose(0, 2, 1)
    return out


def exp_antihermitian(G, t: float = 1.0):
    """exp(t G) for an anti-Hermitian G, a FiberOperator or a plain array,
    by eigendecomposition.

    The Sp(1) actions `rho_sp1` and `rho_j_sp1` are closed forms that do
    not come here: this is the independent side that the checks and
    `torus.theorem_3_10_details` compare them against, and the path of the
    Lefschetz ladder exponentials.

    The result is of the kind of G; each factor goes to `_exp_factor`.  A
    fiber operator that `ExteriorAlgebra.quaternion_factors` writes as a
    Kronecker sum of n 16 x 16 factors, one per quaternion block, has the
    Kronecker product of their exponentials as its exponential, returned in
    term form as that one Kronecker term, so no 2^{4n} x 2^{4n} array is
    formed.  Any other operator (one coupling two blocks, or a dense one)
    and a plain array (such as a 1-form action) are a single factor, whose
    exponential is the result, a dense operator or an array.
    """
    if not isinstance(G, FiberOperator):
        return _exp_factor(G, t)
    alg = G.algebra
    factors = alg.quaternion_factors(G) if alg is not None else None
    if factors is not None:
        return alg.kronecker([tuple(_exp_factor(F, t) for F in factors)])
    return FiberOperator(_exp_factor(G.matrix, t), alg)


@dataclass(frozen=True)
class OperatorAlgebra:
    """The ten zeroth-order operators L_w, Lambda_w, ad(.), H of a fiber.

    Each is a Kronecker sum of n 16 x 16 quaternion-block factors, and
    `gram`, `rank` and `closure` run on a (10, n, 16, 16) stack of those
    factors, in coordinates where the Frobenius geometry is Euclidean
    (`_frobenius_coordinates`); no operator product or sum is formed.
    """

    fiber: HyperkahlerFiber
    L: dict
    Lambda: dict
    ad: dict
    H: FiberOperator

    AXES = ("I", "J", "K")

    def as_list(self) -> list[FiberOperator]:
        return ([self.L[a] for a in self.AXES]
                + [self.Lambda[a] for a in self.AXES]
                + [self.ad[a] for a in self.AXES]
                + [self.H])

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray]:
        """The ten operators' factors F, (10, slots, width, width), and
        their `_frobenius_coordinates`.  Each operator is the Kronecker sum
        of its n 16 x 16 quaternion-block factors; if one of them is not
        (a fiber whose forms couple the blocks), every operator is one
        slot holding its dense matrix, the only place `.matrix` is read."""
        ops = self.as_list()
        factors = [self.fiber.algebra.quaternion_factors(op) for op in ops]
        if any(f is None for f in factors):
            factors = [[op.matrix] for op in ops]
        F = np.array(factors, dtype=complex)
        return F, _frobenius_coordinates(F)

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eigenpairs of the Frobenius Gram matrix tr(A_i^* A_j) of the ten
        operators, and the mask of eigenvalues above GRAM_RTOL times the
        largest (the Gram's own roundoff is a few eps times the largest).
        Formed once per algebra, as the Euclidean Gram of the operators'
        `_frobenius_coordinates`."""
        V = self._frame[1]
        w, Q = np.linalg.eigh(V.conj() @ V.T)
        return w, Q, w > GRAM_RTOL * w.max()

    def rank(self) -> int:
        """Dimension of the span of the ten operators."""
        return int(self.gram[2].sum())

    def closure(self) -> tuple[float, np.ndarray]:
        """Least-squares closure of the span under commutators.

        Returns the worst relative projection residual
        ||P C - C|| / max(1, ||P C||, ||C||) and the table of expansion
        coefficients, one row per pair i < j in `itertools.combinations`
        order.  The projection solves the normal equations through one
        decomposition of the 10 x 10 Gram matrix.  The commutator of two
        Kronecker sums is the Kronecker sum of the factors' commutators,
        [A, B] = sum_b [A_b, B_b] in slot b, so the whole check runs on
        the factors: the commutators of operator i with the operators
        after it are formed as one stack, one row of the table at a time,
        and their right hand sides, projections and residuals are taken
        in `_frobenius_coordinates`.  The residual is the norm of the
        coordinates of P C - C itself, so its small size is not lost to
        cancellation as in a Gram expansion.
        """
        F, V = self._frame
        w, Q, ok = self.gram
        w_inv = np.zeros_like(w)
        w_inv[ok] = 1.0 / w[ok]
        worst = 0.0
        rows = []
        for i in range(len(F) - 1):
            C = _frobenius_coordinates(F[i] @ F[i + 1:] - F[i + 1:] @ F[i])
            x = Q @ (w_inv[:, None] * (Q.conj().T @ (V.conj() @ C.T)))
            P = x.T @ V
            den = np.maximum(1.0, np.maximum(np.linalg.norm(P, axis=1),
                                             np.linalg.norm(C, axis=1)))
            worst = max(worst,
                        float((np.linalg.norm(P - C, axis=1) / den).max()))
            rows.append(x.T)
        return worst, np.concatenate(rows)


def _frobenius_coordinates(F: np.ndarray) -> np.ndarray:
    """Coordinates of Kronecker sums A = sum_b 1 (x) .. (x) F_b (x) .. (x) 1
    of s slots of width m, given as factors F (..., s, m, m), in which the
    Frobenius inner product is the Euclidean one.

    With a_b = tr F_b / m and F_b = a_b 1 + F_b', A = (sum_b a_b) 1 +
    sum_b F_b' (slot b), and the s + 1 parts are Frobenius-orthogonal, as
    every F_b' is traceless: tr(A^* B) = m^s conj(sum a) (sum a') +
    m^(s-1) sum_b tr(F_b'^* G_b') (Van Loan, "The ubiquitous Kronecker
    product", 2000).  The coordinates are sqrt(m^s) sum_b a_b, then the
    entries of sqrt(m^(s-1)) F_b', b = 0 .. s-1: (..., 1 + s m^2).  m is a
    power of 16, so the weights are exact powers of two."""
    s, m = F.shape[-3], F.shape[-1]
    a = np.trace(F, axis1=-2, axis2=-1) / m
    traceless = F - a[..., None, None] * np.eye(m)
    return np.concatenate(
        (math.sqrt(m ** s) * a.sum(axis=-1)[..., None],
         math.sqrt(m ** (s - 1)) * traceless.reshape(F.shape[:-3] + (-1,))),
        axis=-1)


def ten_operators(fiber: HyperkahlerFiber) -> OperatorAlgebra:
    """Assemble the Lefschetz operators, type derivations and degree shift."""
    zetas = {"I": ZETA_I, "J": ZETA_J, "K": ZETA_K}
    L = {}
    Lam = {}
    ad = {}
    for name, z in zetas.items():
        W = wedge_operator(fiber, kahler_form(fiber, z))
        L[name] = W
        Lam[name] = W.adjoint()
        ad[name] = type_derivation(fiber, z)
    # H = deg - 2n is the number operator sum_a e^a iota_a less 2n, a
    # Kronecker sum like the other nine, so all ten share one form
    zero = np.zeros((fiber.d, fiber.d))
    H = fiber.algebra.quadratic(zero, np.eye(fiber.d), zero, -2.0 * fiber.n)
    return OperatorAlgebra(fiber, L, Lam, ad, H)


@dataclass(frozen=True)
class _Sp1Block:
    """The two Sp(1) actions on one quaternion block H, affine in eta.

    `r1` stacks 1, I^T, J^T, K^T of the block: for eta = cos(theta) +
    sin(theta) u, sum_a eta_a r1[a] = cos(theta) + sin(theta) J_u^T is
    exp(theta J_u^T), as (J_u^T)^2 = -1.  `rho_j` stacks P, G_I, G_J, G_K
    with G_a = c_j(omega_a)/2 and P = -G_J^2, and `rest` is 1 - P.  On
    Lambda(H) the sl(2) of prop. 2.5 has only the irreducibles U_0 and U_1
    (Fulton-Harris, Representation Theory, 11; Lawson-Michelsohn, Spin
    Geometry, I.5): P projects onto the U_1 part, the G_a anticommute and
    square to -P there, so G_u^3 = -G_u and exp(theta G_u) =
    (1 - P) + cos(theta) P + sin(theta) G_u = rest + sum_a eta_a rho_j[a].
    """

    algebra: ExteriorAlgebra  # Lambda(H)
    r1: np.ndarray  # (4, 4, 4)
    rho_j: np.ndarray  # (4, 16, 16)
    rest: np.ndarray  # (16, 16)


def _sp1_block(fiber: HyperkahlerFiber) -> _Sp1Block:
    """The fiber's Sp(1) block data, formed on first use and kept in
    `fiber.derived`.  g, I, J and K must be n equal 4 x 4 blocks; the
    U_0 + U_1 relations of the G_a are checked as the data is formed."""
    data = fiber.derived.get("sp1")
    if data is not None:
        return data
    mats = (fiber.g, fiber.I, fiber.J, fiber.K)
    parts = [X[:4, :4] for X in mats]
    if not all(np.array_equal(X, np.kron(np.eye(fiber.n), B))
               for X, B in zip(mats, parts)):
        raise ValueError("the Sp(1) actions need n equal quaternion blocks")
    block = HyperkahlerFiber(1, *parts, algebra=fiber.algebra._quaternion)
    G = np.stack([0.5 * clifford_2form(block, ZETA_J,
                                       kahler_form(block, z)).matrix
                  for z in (ZETA_I, ZETA_J, ZETA_K)])
    P = -G[1] @ G[1]
    res = [P @ P - P] + [Ga @ P - Ga for Ga in G] + [
        G[a] @ G[b] + G[b] @ G[a] + 2.0 * (a == b) * P
        for a in range(3) for b in range(a, 3)]
    worst = max(float(np.abs(X).max()) for X in res)
    if worst > 1e-14:
        raise ValueError(f"c_j(omega)/2 is not U_0 + U_1 on a quaternion "
                         f"block (residual {worst:.1e})")
    data = _Sp1Block(block.algebra,
                     np.stack([np.eye(4)] + [B.T for B in parts[1:]]
                              ).astype(complex),
                     np.concatenate([P[None], G]), np.eye(16) - P)
    fiber.derived["sp1"] = data
    return data


def rho_sp1(fiber: HyperkahlerFiber, eta: UnitQuaternion) -> FiberOperator:
    """exp(theta ad(J_u)) for eta = cos(theta) + sin(theta) u, in closed form.

    ad(J_u) is the derivation extending J_u^T on 1-forms, so its
    exponential is the algebra automorphism Lambda(r1) induced by the
    1-form rotation r1 = exp(theta J_u^T) = eta_0 + eta_1 I^T + eta_2 J^T
    + eta_3 K^T: on each quaternion block, the compound matrices of the
    4 x 4 r1 (`ExteriorAlgebra.induced`).  No exponential is taken.

    Acts as sqrt(-1)^{p-q} on the (p, q)-slice of J_eta when eta is a
    twistor point.  A list of etas gives one stacked operator.
    """
    blk = _sp1_block(fiber)
    R = blk.algebra.induced(np.tensordot(components(eta), blk.r1, 1))
    return fiber.algebra.kronecker([(R.matrix,) * fiber.n])


def rho_sp1_oneform(fiber: HyperkahlerFiber, eta: UnitQuaternion) -> np.ndarray:
    """Restriction of rho_sp1(eta) to 1-form coefficients, the rotation
    r1 = eta_0 + eta_1 I^T + eta_2 J^T + eta_3 K^T = exp(theta J_u^T)."""
    w, x, y, z = eta.as_array()
    return (w * np.eye(fiber.d) + x * fiber.I.T + y * fiber.J.T
            + z * fiber.K.T).astype(complex)


def clifford(fiber: HyperkahlerFiber, zeta: TwistorPoint, alpha) -> FiberOperator:
    """Clifford action of a complex 1-form for the spinor slice of J_zeta.

    alpha is the length-d coefficient vector of sum_a alpha_a e^a.
    c_zeta(alpha) = sqrt(2) (alpha^{0,1} wedge - sharp(alpha^{1,0}) contraction);
    real covectors satisfy c(a) c(b) + c(b) c(a) = -2 g(a, b).  zeta, alpha
    or both may be lists of samples, which give one stacked operator.
    """
    alpha = form_coefficients(fiber, alpha, degrees=(1,)).astype(complex)
    A = complex_structure(fiber, zeta).swapaxes(-1, -2)
    A_alpha = (A @ alpha[..., None])[..., 0]
    a10 = 0.5 * (alpha - 1j * A_alpha)
    a01 = 0.5 * (alpha + 1j * A_alpha)
    M = fiber.algebra.wedge_minus_contraction(
        a01, np.linalg.solve(fiber.g, a10.T).T)
    return math.sqrt(2.0) * M


def _clifford_pair(W, P, Q) -> tuple:
    """`clifford_2form`'s coefficients, bilinear in its (U, V) = P, Q."""
    (U, V), (U2, V2) = P, Q
    # iota_k iota_l = (e^l e^k)^T, so sum Y_kl iota_k iota_l is the
    # transpose of the wedge with -Y
    U2t, V2t = U2.swapaxes(-1, -2), V2.swapaxes(-1, -2)
    return (2.0 * U @ W @ U2t, -2.0 * U @ W @ V2t, -2.0 * V @ W @ V2t,
            -np.sum(W * (V.swapaxes(-1, -2) @ U2), axis=(-2, -1)))


def clifford_2form(fiber: HyperkahlerFiber, zeta: TwistorPoint,
                   W) -> FiberOperator:
    """Quantization of a 2-form: sum_{a<b} W_ab c(e^a) c(e^b), for W its
    antisymmetric d x d coefficient matrix W[a, b] = omega(e_a, e_b).

    Normalized so that c_j(omega_J) = 2 sqrt(-1) H_, the antiholomorphic
    weight operator; the companion identities for omega_I, omega_K and the
    symplectic pair follow and are covered by the test suite.

    With c(e^a) = sqrt(2) (wedge(u_a) - iota(v_a)), u_a and v_a the columns
    of U and V below, the anticommutation relations turn the sum into
    wedge(2 U W U^T) + derivation(-2 U W V^T) + (contraction by the 2-form
    2 V W V^T) - sum_ab W_ab (V^T U)_ab, scattered at once
    (`ExteriorAlgebra.quadratic`: a 16 x 16 factor per quaternion block,
    or one dense matrix if the coefficients couple two blocks), so no dense
    product is formed.  It is quadratic in zeta, as U and V are affine.
    zeta, W or both may be lists of samples, which give one stacked
    operator.
    """
    W = form_coefficients(fiber, W, degrees=(2,))
    A = complex_structure(fiber, zeta).swapaxes(-1, -2)
    eye = np.eye(fiber.d)
    U = 0.5 * (eye + 1j * A)
    V = np.linalg.solve(fiber.g, 0.5 * (eye - 1j * A))
    return fiber.algebra.quadratic(*_clifford_pair(W, (U, V), (U, V)))


def zeta_monomials(zetas) -> np.ndarray:
    """z_i z_j, i <= j, of z = (1, zeta_I, zeta_J, zeta_K) as given, one
    row of ten per twistor point."""
    v = np.array([zeta.as_array() for zeta in zetas]).reshape(-1, 3)
    z = np.concatenate((np.ones((len(v), 1)), v), axis=1)
    return (z[:, :, None] * z[:, None, :])[:, _UPPER[0], _UPPER[1]]


def clifford_2form_coefficients(fiber: HyperkahlerFiber, W) -> np.ndarray:
    """(10, n, 16, 16) factors C: c_zeta(W) is the Kronecker sum over the
    blocks b of sum_k p_k C[k, b], p = `zeta_monomials([zeta])[0]`.  With
    U_0 = 1/2, U_a = (i/2) X_a^T (X = I, J, K) and V_i = g^-1 conj(U_i),
    `clifford_2form`'s (U, V) is sum_i z_i (U_i, V_i), so C for z_i z_j is
    pair(i, j) + pair(j, i), halved if i = j (W inside the blocks)."""
    W = form_coefficients(fiber, W, degrees=(2,))
    U = [0.5 * np.eye(fiber.d)] + [0.5j * X.T
                                   for X in (fiber.I, fiber.J, fiber.K)]
    P = [(Ui, np.linalg.solve(fiber.g, Ui.conj())) for Ui in U]
    out = []
    for i, j in zip(*_UPPER):
        parts = [(x + y) * (0.5 if i == j else 1.0) for x, y in zip(
            _clifford_pair(W, P[i], P[j]), _clifford_pair(W, P[j], P[i]))]
        out.append(fiber.algebra.quaternion_factors(
            fiber.algebra.quadratic(*parts)))
    if out[0] is None:
        raise ValueError("the 2-form couples two quaternion blocks")
    return np.array(out)


def rho_j_sp1(fiber: HyperkahlerFiber, eta: UnitQuaternion) -> FiberOperator:
    """exp(theta c_j(omega_u)/2), the Clifford Sp(1) action fixing J, in
    closed form: on each quaternion block it is affine in eta,
    (1 - P) + eta_0 P + eta_1 G_I + eta_2 G_J + eta_3 G_K with
    G_a = c_j(omega_a)/2 and P = -G_J^2 (`_Sp1Block`).  No exponential is
    taken.  A list of etas gives one stacked operator."""
    blk = _sp1_block(fiber)
    F = blk.rest + np.tensordot(components(eta), blk.rho_j, 1)
    return fiber.algebra.kronecker([(F,) * fiber.n])


def hodge_star_twisted(fiber: HyperkahlerFiber) -> FiberOperator:
    """Degree-signed Hodge star: * s = (-1)^{k(k+1)/2} star s on degree k."""
    # complex entries, as every other fiber operator has
    return (1 + 0j) * fiber.algebra.twisted_star()


def chi_k(fiber: HyperkahlerFiber) -> FiberOperator:
    """chi(k) = rho(k) rho_j(k), the +-J Dirac intertwiner."""
    return rho_sp1(fiber, QUAT_K) @ rho_j_sp1(fiber, QUAT_K)


def chi(fiber: HyperkahlerFiber, eta: UnitQuaternion,
        zeta: TwistorPoint) -> FiberOperator:
    """Intertwiner from the (0, *) slice of J_zeta to that of J_{eta.zeta}.

    Composition rho(alpha_{eta.zeta}) rho_j(j eta j^-1) rho(alpha_zeta)^-1
    through the Hopf section alpha; for fixed zeta it is a left action in
    eta, maps (0, q)-slices preserving the parity of q, and conjugates the
    flux Laplacian family by eta.zeta = eta zeta eta^-1.
    """
    zp = adjoint_action(eta, zeta)
    h = QUAT_J * eta * QUAT_J.conjugate()
    front = rho_sp1(fiber, hopf_section(zp))
    back = rho_sp1(fiber, hopf_section(zeta).conjugate())  # = rho(alpha_zeta)^-1
    return front @ rho_j_sp1(fiber, h) @ back


# ---------------------------------------------------------------------------
# named identity checks
# ---------------------------------------------------------------------------

def _check_prop21_closure(fiber, rng) -> float:
    algebra = ten_operators(fiber)
    if algebra.rank() != 10:
        return 1.0
    return algebra.closure()[0]


def _check_eq24(fiber, rng) -> float:
    triple = antiholomorphic_triple(fiber)
    L, A = triple.L, triple.Lambda
    v = rng.normal(size=fiber.dim) + 1j * rng.normal(size=fiber.dim)
    comps = primitive_decompose(fiber, v, triple)
    worst = 0.0
    for (q, _i, t) in comps:
        m = fiber.n - q
        rung = t
        for i in range(m):
            lhs = A @ (L @ rung)
            rhs = (i + 1) * (m - i) * rung
            worst = max(worst, rel_residual(lhs, rhs))
            rung = L @ rung
    worst = max(worst, rel_residual(reconstruct(triple, comps), v))
    return worst


def _check_prop25_factor(fiber, rng) -> float:
    """Generator correspondence with the sl(2) triple, the axis forms, the
    representation property and the U_1 model.  The axis forms compare the
    closed-form rho_j (affine in eta) against the eigendecomposition of
    the ladder generators L - Lambda, i H and i (L + Lambda).  Each loop
    of random samples is one stacked operator."""
    triple = antiholomorphic_triple(fiber)
    L, A, H = triple.L, triple.Lambda, triple.H
    # generator correspondence: c_j(omega_u)/2 against the sl(2) basis image
    us = [random_twistor_point(rng) for _ in range(4)]
    zI, zJ, zK = components(us).T[:, :, None, None]
    G = 0.5 * clifford_2form(fiber, ZETA_J, [kahler_form(fiber, u)
                                             for u in us])
    model = zJ * 1j * H + zK * (L - A) + zI * 1j * (L + A)
    worst = float(rel_residual(G, model).max())
    # closed forms of the axis elements
    worst = max(worst, rel_residual(rho_j_sp1(fiber, QUAT_K),
                                    exp_antihermitian(L - A, math.pi / 2)))
    worst = max(worst, rel_residual(rho_j_sp1(fiber, QUAT_J),
                                    exp_antihermitian(1j * H, math.pi / 2)))
    worst = max(worst, rel_residual(
        rho_j_sp1(fiber, UnitQuaternion(0, 1, 0, 0)),
        exp_antihermitian(1j * (L + A), math.pi / 2)))
    # representation property on random pairs
    pairs = [(random_unit_quaternion(rng), random_unit_quaternion(rng))
             for _ in range(4)]
    e1, e2 = map(list, zip(*pairs))
    worst = max(worst, float(rel_residual(
        rho_j_sp1(fiber, [a * b for a, b in pairs]),
        rho_j_sp1(fiber, e1) @ rho_j_sp1(fiber, e2)).max()))
    # U_1 irrep matches the 2 x 2 model
    L1, A1, H1 = (M.astype(complex) for M in irrep_operators(1))
    worst = max(worst, rel_residual(L1 @ A1 - A1 @ L1, H1))
    return worst


def _check_prop26_equivariance(fiber, rng) -> float:
    samples = [(random_unit_quaternion(rng), random_twistor_point(rng),
                rng.normal(size=fiber.d) + 1j * rng.normal(size=fiber.d))
               for _ in range(6)]
    etas, zetas, alphas = map(list, zip(*samples))
    R = rho_sp1(fiber, etas)
    lhs = R @ clifford(fiber, zetas, alphas) @ R.adjoint()
    rhs = clifford(fiber,
                   [adjoint_action(eta.conjugate(), zeta)
                    for eta, zeta in zip(etas, zetas)],
                   [rho_sp1_oneform(fiber, eta) @ alpha
                    for eta, alpha in zip(etas, alphas)])
    return float(rel_residual(lhs, rhs).max())


def _check_lemma311_weil(fiber, rng) -> float:
    star = hodge_star_twisted(fiber)
    rk = rho_sp1(fiber, QUAT_K)
    LK = wedge_operator(fiber, kahler_form(fiber, ZETA_K))
    triple = antiholomorphic_triple(fiber)
    ladder = exp_antihermitian(triple.L - triple.Lambda, math.pi / 2)
    worst = rel_residual(
        star, exp_antihermitian(LK - LK.adjoint(), math.pi / 2) @ rk)
    worst = max(worst, rel_residual(star, ladder @ rk @ ladder))
    Lo = wedge_operator(fiber, holomorphic_symplectic(fiber))
    ladder_o = exp_antihermitian(Lo - Lo.adjoint(), math.pi / 2)
    worst = max(worst, rel_residual(rk @ ladder, ladder_o @ rk))
    # bidegree bookkeeping of the two factors, with the projectors built
    # from one type derivation
    nn = 2 * fiber.n
    bidegrees = [(0, 0), (1, 0), (1, 1), (0, 2)]
    proj = bidegree_projectors(fiber, ZETA_J, dict.fromkeys(
        bd for p, q in bidegrees
        for bd in ((p, q), (p, nn - q), (nn - q, nn - p))))
    for (p, q) in bidegrees:
        P = proj[p, q]
        worst = max(worst, rel_residual(proj[p, nn - q] @ ladder @ P,
                                        ladder @ P))
        worst = max(worst, rel_residual(proj[nn - q, nn - p] @ star @ P,
                                        star @ P))
    return worst


def _check_lemma313_commute(fiber, rng) -> float:
    triple = antiholomorphic_triple(fiber)
    L, A = triple.L, triple.Lambda
    minus_j = TwistorPoint(0.0, -1.0, 0.0)
    xis = [rng.normal(size=fiber.d) + 1j * rng.normal(size=fiber.d)
           for _ in range(4)]
    c = clifford(fiber, minus_j, xis)
    worst = max(float(rel_residual(L @ c, c @ L).max()),
                float(rel_residual(A @ c, c @ A).max()))
    # Kahler-identity symbol: [L_omega, -iota(sharp xi)] = wedge(J_zeta xi)
    samples = [(random_twistor_point(rng), rng.normal(size=fiber.d))
               for _ in range(4)]
    Lw = wedge_operator(fiber, [kahler_form(fiber, zeta)
                                for zeta, _xi in samples])
    sym = -contraction_operator(fiber, [np.linalg.solve(fiber.g, xi)
                                        for _zeta, xi in samples])
    wedge = wedge_operator(fiber, [complex_structure(fiber, zeta) @ xi
                                   for zeta, xi in samples])
    return max(worst, float(rel_residual(Lw @ sym - sym @ Lw, wedge).max()))


def _check_thm310_fiber(fiber, rng) -> float:
    star = hodge_star_twisted(fiber)
    triple = antiholomorphic_triple(fiber)
    ck = chi_k(fiber)
    worst = rel_residual(
        ck, exp_antihermitian(triple.L - triple.Lambda, -math.pi / 2) @ star)
    minus_j = TwistorPoint(0.0, -1.0, 0.0)
    basis = list(np.eye(fiber.d))
    return max(worst, float(rel_residual(
        ck @ clifford(fiber, ZETA_J, basis),
        clifford(fiber, minus_j, basis) @ ck).max()))


CHECKS = {
    "prop2.1-closure": (
        "the ten Lefschetz, type and degree operators span a Lie algebra "
        "closed under commutators", _check_prop21_closure),
    "eq2.4": (
        "ladder constants of the antiholomorphic-symplectic sl(2) triple on "
        "primitive elements", _check_eq24),
    "prop2.5-factor": (
        "the Clifford Sp(1) action factors through the polynomial sl(2) "
        "representation and its closed axis forms", _check_prop25_factor),
    "prop2.6-equivariance": (
        "hypercomplex rotations conjugate the Clifford family along the "
        "twistor sphere", _check_prop26_equivariance),
    "lemma3.11-weil": (
        "twisted Hodge star factorizes into Lefschetz exponentials and the "
        "type rotation by k (Weil-type formula)", _check_lemma311_weil),
    "lemma3.13-commute": (
        "antiholomorphic Lefschetz operators commute with the -J Dirac "
        "symbol; Kahler identity at symbol level", _check_lemma313_commute),
    "thm3.10-fiber": (
        "chi(k) factorization and the +-J Clifford intertwining",
        _check_thm310_fiber),
}


def check_ids() -> list[str]:
    return list(CHECKS.keys())


def verify_identity(check_id: str, fiber: HyperkahlerFiber, seed: int = 0,
                    tolerance: float = DEFAULT_TOL) -> CheckResult:
    """Run one registered identity check with a seeded generator."""
    if check_id not in CHECKS:
        raise KeyError(f"unknown check_id: {check_id!r}")
    citation, fn = CHECKS[check_id]
    rng = np.random.default_rng(seed)
    residual = fn(fiber, rng)
    return CheckResult(check_id=check_id, citation=citation,
                       residual=residual, tolerance=tolerance,
                       params={"n": fiber.n, "seed": seed})
