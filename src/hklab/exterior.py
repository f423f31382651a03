"""Exterior algebra Lambda(V* (x) C) over V = R^d and its operators.

Basis: exterior monomials e^S for subsets S of {0..d-1}, ordered degree-major
with lexicographic multi-indices inside each degree.  The metric is the
identity, so monomials are orthonormal and Hermitian adjoints are conjugate
transposes.

Each wedge generator e^a is a signed partial permutation of this basis:
it sends e^S to +-e^{S + a} when a is not in S and kills it otherwise.  It
is stored as index arrays over the source monomials, never as a dim x dim
matrix.

For d = 4n the algebra is also the tensor product of n copies of
Lambda(H), one per quaternion block {4b, .., 4b+3}: the blocks are
index-contiguous, so e^S is the ordered product e^{S_0} ^ ... ^ e^{S_{n-1}}
of its parts with sign +1, and a monomial is an n-tuple of Lambda(H)
monomials (`parts`).  The builders whose coefficients stay inside the
quaternion blocks return operators in term form, a sum of Kronecker
products of n 16 x 16 factors (Van Loan, "The ubiquitous Kronecker
product", 2000); at n = 1 a term is one 16 x 16 factor.  e^a for a in
block b is P (x) .. (x) P (x) e^a_b (x) 1 (x) .. (x) 1, P = (-1)^deg
passing the generators of the blocks before b; an even one-block operator
is 1 (x) .. (x) X_b (x) .. (x) 1.  So a wedge, contraction or Clifford
action of a 1-form is n such terms, and a wedge with a 2-form, a
derivation or an even quadratic whose coefficient matrices have no entry
between two blocks is a Kronecker sum.  The twisted star is one product of
n Lambda(H) twisted stars.  The exponential of a Kronecker sum is the
Kronecker product of the n 16 x 16 exponentials (`quaternion_factors`),
one term; the Sp(1) actions are such products too, written down in closed
form (`induced` gives a block's hypercomplex rotation as a compound
matrix).  A term operator acts on an array slot by slot
(`quaternion_apply`), and `quaternion_matrix` gathers its dense matrix.
The in-block builders contract their coefficients with the Lambda(H)
generators (`_generators`); the operators that do not factor (forms
coupling two blocks, the untwisted star, `induced`) have their entries
scattered into a dense matrix.  A factor may carry a leading sample axis,
(Z, 16, 16): the term operator is then Z operators, which the builders
return for coefficients stacked as (Z, d) or (Z, d, d).  One QR sweep
over two operators' terms gives ||A||, ||B|| and ||A - B|| (`_kron_norms`).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np

@lru_cache(maxsize=None)
def _degree_offsets(dim: int) -> tuple[int, ...]:
    """Start of each exterior degree 0..d in a dim = 2^d algebra, then dim."""
    d = dim.bit_length() - 1
    if dim != 1 << d:
        raise ValueError(f"dimension {dim} is not that of an exterior algebra")
    return tuple(itertools.accumulate((math.comb(d, k) for k in range(d + 1)),
                                      initial=0))


def _const(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _lex_subsets(m: int, k: int) -> np.ndarray:
    """The lex k-subsets of range(m) as a (C(m, k), k) index array."""
    return _const(np.array(list(itertools.combinations(range(m), k)),
                           dtype=np.intp).reshape(math.comb(m, k), k))


def compound(r: np.ndarray, k: int) -> np.ndarray:
    """The k-th compound matrix of r: its k x k minors det r[S, T], S and T
    over the lex k-subsets of r's rows and columns, in one batched
    determinant (1 for k = 0).  Row S is the degree-k monomial e^S.  r
    may be a stack: the minors are those of its last two axes."""
    S, T = _lex_subsets(r.shape[-2], k), _lex_subsets(r.shape[-1], k)
    return np.linalg.det(r[..., S[:, None, :, None], T[None, :, None, :]])


# Lambda(H): exterior degree of each of its 16 monomials, the starts of its
# degree blocks, and the identity and parity (-1)^deg factors of the term
# form.  A slot holding the identity holds this very array, so products
# skip it and `quaternion_factors` recognises a Kronecker sum by identity.
_H_OFFSETS = _degree_offsets(16)
_H_DEGREES = _const(np.repeat(np.arange(5), np.diff(_H_OFFSETS)))
_EYE = _const(np.eye(16))
_PARITY = _const(np.diag(1.0 - 2.0 * (_H_DEGREES % 2)))


def _pivot(term) -> int:
    """The first slot of a term that is not the identity (0 if none)."""
    return next((b for b, F in enumerate(term) if F is not _EYE), 0)


def _scaled(term, c) -> tuple:
    """c times a term, taken into its pivot slot, so that Kronecker-sum
    terms keep their identity slots."""
    b = _pivot(term)
    return term[:b] + (c * term[b],) + term[b + 1:]


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y if x is _EYE else x if y is _EYE else x @ y


def _adjoint(x: np.ndarray) -> np.ndarray:
    return x if x is _EYE else x.conj().swapaxes(-1, -2)


def _per_sample(x: np.ndarray):
    """A float for one operator, the array of values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _merged(terms) -> list[tuple]:
    """Terms that agree bit for bit in all slots but one summed into one,
    in the order given; terms with a zero slot, exactly zero, dropped."""
    out: list[tuple] = []
    for t in terms:
        for i, s in enumerate(out):
            differ = []
            for b, (x, y) in enumerate(zip(s, t)):
                if x is not y and x.tobytes() != y.tobytes():
                    differ.append(b)
                    if len(differ) > 1:
                        break
            if len(differ) <= 1:
                b = differ[0] if differ else _pivot(s)
                out[i] = s[:b] + (s[b] + t[b],) + s[b + 1:]
                break
        else:
            out.append(t)
    return [t for t in out if all(F.any() for F in t)]


def _columns(factors) -> np.ndarray:
    """vec of each factor as a column, (Z, size, T); the members of a
    stack (Z, ., .) go down the first axis, and every other factor (a
    vector or a matrix) is one column that they share (Z = 1 if none)."""
    z = max((len(F) for F in factors if F.ndim > 2), default=1)
    size = max(F[0].size if F.ndim > 2 else F.size for F in factors)
    out = np.empty((z, size, len(factors)), dtype=np.result_type(*factors))
    for t, F in enumerate(factors):
        out[:, :, t] = F.reshape(len(F) if F.ndim > 2 else 1, -1)
    return out


def _kron_norms(terms, weights=None) -> np.ndarray:
    """||sum_t w_t F_t0 (x) ... (x) F_t,n-1||_F for each row w of the K x T
    `weights` (ones if None) by successive QR: (K,), or (K, Z) for a stack.

    The columns vec(F_t0) are factored as Q R; Q is an isometry, so the
    norm is that of sum_t w_t R[:, t] (x) F_t1 (x) ..., whose first
    factors are the columns of R (x)-ed with vec(F_t1) and are factored in
    turn (the orthogonalization sweep of tensor-train rounding, Oseledets,
    SIAM J. Sci. Comput. 33, 2011).  The weights enter at the last slot
    only, so one sweep over A's terms and then B's gives ||A||, ||B|| and
    ||A - B|| (weights (1, 0), (0, 1), (1, -1)).  Unlike the Gram
    expansion sum_st prod_b tr(F_sb^* F_tb), this keeps the small norm of
    a difference of nearly equal operators.  Each later slot's columns
    are first factored on their own, which keeps the products T x T."""
    weights = np.ones((1, len(terms))) if weights is None else np.asarray(
        weights)
    if not terms:
        return np.zeros(len(weights))
    T = len(terms)
    R = np.ones((1, 1, T))
    for b, F in enumerate(_columns(slot) for slot in zip(*terms)):
        if b:  # F's own R stands for its columns: T x T, not 256 x T
            F = np.linalg.qr(F, mode="r")
        if b < len(terms[0]) - 1:
            X = R[:, :, None, :] * F[:, None, :, :]
            R = np.linalg.qr(X.reshape(len(X), -1, T), mode="r")
    last = (R[:, None] * weights[:, None, :]) @ F.swapaxes(-1, -2)[:, None]
    norms = np.linalg.norm(last.reshape(last.shape[:2] + (-1,)), axis=-1)
    stacked = any(F.ndim > 2 for t in terms for F in t)
    return norms.T if stacked else norms[0]


class FiberOperator:
    """Complex matrix acting on Lambda(V* (x) C), in one of two forms.

    Term form: a list of Kronecker terms, each a tuple of n 16 x 16 arrays,
    one per quaternion block; entry (S, T) is
    sum_t prod_b F_tb[parts[S, b], parts[T, b]].  Every builder whose
    coefficients stay inside the quaternion blocks returns this form, the
    twisted star and the bidegree projectors among them.  Products, sums,
    differences, scalar multiples and adjoints of two term operators stay
    in term form.  A sum or difference merges terms that agree bit for bit
    in all slots but one into one, which cancels the cross terms of a
    commutator of Kronecker sums.  Scalar multiples are recorded and
    applied to the gathered matrix, so (c * A).matrix is c * A.matrix
    entry for entry (and (A * c).matrix is A.matrix * c).
    `frobenius_norm` takes the norm of the terms by successive QR of their
    factor columns (`_kron_norms`), and `residual_norms` that of two
    operators and of their difference from one such sweep; both keep a
    small residual of nearly equal operators.  `A @ x` for an array
    applies each factor to its slot of x, laid out as an n-slot tensor
    (`ExteriorAlgebra.quaternion_apply`).  The zero operator is a term
    operator without terms.  A factor (Z, 16, 16) makes a stack of Z
    operators: arithmetic acts member by member, a scalar may be one
    value a member, (Z, 1, 1), `matrix` is (Z, dim, dim) and a norm is
    one value a member.

    Dense form: the 2^d x 2^d matrix, for the operators that do not
    factor: forms coupling two blocks, the untwisted star, `induced`,
    operators made from a matrix and the fallback of
    `exp_antihermitian`.  An operation with a dense operand takes the
    other operand's `matrix`, which a term operator gathers from its
    factors on first use (`ExteriorAlgebra.quaternion_matrix`) and keeps.
    A product with a lattice operator is left to the lattice operator.

    `algebra` is the ExteriorAlgebra the operator was built on (None for
    one made from a bare matrix); results inherit it.  Operators are
    values: no form is modified after it is made.
    """

    __array_ufunc__ = None  # numpy operands (per-sample scalars) defer

    def __init__(self, matrix: np.ndarray,
                 algebra: "ExteriorAlgebra | None" = None):
        self._matrix = np.asarray(matrix)
        self.dim = _degree_offsets(self._matrix.shape[-1])[-1]
        self._terms, self._scales = None, ()
        self.algebra = algebra

    @classmethod
    def _from_terms(cls, dim: int, algebra: "ExteriorAlgebra | None",
                    terms: list, scales: tuple = ()) -> "FiberOperator":
        op = cls.__new__(cls)
        op._matrix, op.dim, op.algebra = None, dim, algebra
        op._terms, op._scales = terms, scales
        return op

    @classmethod
    def zero(cls, dim: int) -> "FiberOperator":
        return cls._from_terms(_degree_offsets(dim)[-1], None, [])

    def _like(self, other=None, *, terms=None,
              matrix=None) -> "FiberOperator":
        """A result with the given terms or matrix, on self's algebra, or
        on other's when self has none."""
        algebra = self.algebra
        if algebra is None and other is not None:
            algebra = other.algebra
        if terms is None:
            return FiberOperator(matrix, algebra)
        return self._from_terms(self.dim, algebra, terms)

    def _scaled_by(self, X: np.ndarray) -> np.ndarray:
        """X times the recorded scalars, each on its side, in order."""
        for c, left in self._scales:
            X = c * X if left else X * c
        return X

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self._scaled_by(
                self.algebra.quaternion_matrix(self._terms) if self._terms
                else np.zeros((self.dim, self.dim), dtype=complex))
        return self._matrix

    @property
    def terms(self) -> list[tuple] | None:
        """The Kronecker terms with the recorded scalars taken into each,
        or None for a dense operator."""
        if self._terms is None or not self._scales:
            return self._terms
        c = math.prod(c for c, _left in self._scales)
        return [_scaled(t, c) for t in self._terms]

    def _term_pair(self, other: "FiberOperator"):
        """Both operands' terms when both are term operators, else None."""
        if self._terms is None or other._terms is None:
            return None
        return self.terms, other.terms

    def _check_space(self, other: "FiberOperator") -> None:
        if other.dim != self.dim:
            raise ValueError(f"operators of dimension {self.dim} and "
                             f"{other.dim} act on different algebras")

    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            return self._apply(other)
        if not isinstance(other, FiberOperator):
            return NotImplemented
        self._check_space(other)
        pair = self._term_pair(other)
        if pair is not None:
            return self._like(other, terms=[tuple(map(_times, s, t))
                                            for s in pair[0] for t in pair[1]])
        return self._like(other, matrix=self.matrix @ other.matrix)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a vector or a matrix of column vectors."""
        if x.shape[0] != self.dim:
            raise ValueError(f"operator of dimension {self.dim} applied to "
                             f"an array of {x.shape[0]} rows")
        if self._terms is None:
            return self._matrix @ x
        if not self._terms:
            return np.zeros(x.shape, dtype=np.result_type(x, complex))
        return self._scaled_by(self.algebra.quaternion_apply(self._terms, x))

    def _combine(self, other: "FiberOperator", sign: int) -> "FiberOperator":
        self._check_space(other)
        pair = self._term_pair(other)
        if pair is not None:
            theirs = pair[1] if sign > 0 else [_scaled(t, -1) for t in pair[1]]
            return self._like(other, terms=_merged(pair[0] + theirs))
        X, Y = self.matrix, other.matrix
        return self._like(other, matrix=X + Y if sign > 0 else X - Y)

    def __add__(self, other: "FiberOperator") -> "FiberOperator":
        return self._combine(other, 1)

    def __sub__(self, other: "FiberOperator") -> "FiberOperator":
        return self._combine(other, -1)

    def _times_scalar(self, c, left: bool) -> "FiberOperator":
        if self._terms is not None:
            return self._from_terms(self.dim, self.algebra, self._terms,
                                    self._scales + ((c, left),))
        M = self._matrix
        return self._like(matrix=c * M if left else M * c)

    def __mul__(self, c) -> "FiberOperator":
        return self._times_scalar(c, left=False)

    def __rmul__(self, c) -> "FiberOperator":
        return self._times_scalar(c, left=True)

    def __neg__(self) -> "FiberOperator":
        return self._times_scalar(-1, left=True)

    def adjoint(self) -> "FiberOperator":
        if self._terms is not None:
            return self._from_terms(
                self.dim, self.algebra,
                [tuple(map(_adjoint, t)) for t in self._terms],
                tuple((np.conj(c), left) for c, left in self._scales))
        return self._like(matrix=_adjoint(self._matrix))

    def frobenius_norm(self):
        """||self||_F, a float, or one value a member of a stack."""
        if self._terms is not None:
            return _per_sample(_kron_norms(self.terms)[0])
        return _per_sample(np.linalg.norm(self._matrix, axis=(-2, -1)))

    def residual_norms(self, other: "FiberOperator") -> tuple:
        """(||self||, ||other||, ||self - other||)_F as `frobenius_norm`
        gives them: for two term operators from one `_kron_norms` sweep,
        forming no self - other; else from the dense matrices."""
        self._check_space(other)
        pair = self._term_pair(other)
        if pair is None:
            return (self.frobenius_norm(), other.frobenius_norm(),
                    (self - other).frobenius_norm())
        w = np.repeat([[1, 0], [0, 1], [1, -1]], list(map(len, pair)), axis=1)
        return tuple(map(_per_sample, _kron_norms(pair[0] + pair[1], w)))


class ExteriorAlgebra:
    """Wedge, contraction, derivations and the star, as FiberOperators."""

    def __init__(self, d: int):
        if d < 4 or d % 4:
            raise ValueError(f"the algebra of H^n needs d = 4n >= 4, got {d}")
        self.d = d
        basis = [s for k in range(d + 1)
                 for s in itertools.combinations(range(d), k)]
        self.dim = len(basis)
        self.degrees = np.array([len(s) for s in basis])
        self.offsets = _degree_offsets(self.dim)
        self._cols = np.arange(self.dim)
        # e^a e^S = _sign[a, i] e^{_dst[a, i]} for S = basis[i]; _sign is 0
        # (and _dst is i) where a is in S, so killed sources stay killed
        # under composition.  Contractions are the transposed maps.
        masks = np.array([sum(1 << a for a in s) for s in basis])
        self._masks = masks
        position = np.empty(1 << d, dtype=np.intp)
        position[masks] = self._cols
        self._dst = np.empty((d, self.dim), dtype=np.intp)
        self._sign = np.empty((d, self.dim))
        parity = np.zeros(self.dim, dtype=np.intp)  # |S below a| mod 2
        for a in range(d):
            has = (masks >> a) & 1
            self._dst[a] = np.where(has, self._cols, position[masks | (1 << a)])
            self._sign[a] = np.where(has, 0.0, 1.0 - 2.0 * parity)
            parity ^= has
        # quaternion blocks: parts[i, b] is the position of the block-b
        # part of monomial i in the 16-monomial basis of Lambda(H) (same
        # order convention); _block_parts is parts transposed, each block's
        # row contiguous, and _slots[i] the position of monomial i in the
        # C-ordered n-slot tensor of Lambda(H) parts.  The monomials inside
        # {0, 1, 2, 3} come in that basis order.  _quaternion is Lambda(H),
        # on which the term-form factors are built (the algebra itself at
        # n = 1), and _cross marks the coefficient pairs that couple two
        # blocks.
        n = self.quaternion_blocks = d // 4
        h_masks = masks[masks < 16]
        h_position = np.empty(16, dtype=np.intp)
        h_position[h_masks] = np.arange(16)
        self.parts = h_position[(masks[:, None] >> 4 * np.arange(n)) & 15]
        self._block_parts = np.ascontiguousarray(self.parts.T)
        self._slots = self.parts @ 16 ** np.arange(n - 1, -1, -1)
        self._quaternion = self if d == 4 else ExteriorAlgebra(4)
        block = np.arange(d) // 4
        self._cross = block[:, None] != block[None, :]

    def _dense(self, rows, cols, vals) -> np.ndarray:
        """The dim x dim array with the given entries, added in order."""
        M = np.zeros((self.dim, self.dim), dtype=vals.dtype)
        np.add.at(M, (rows, cols), vals)
        return M

    def kronecker(self, terms) -> FiberOperator:
        """The term operator sum_t F_t0 (x) ... (x) F_t,n-1, for tuples of
        n 16 x 16 factors, one per quaternion block."""
        return FiberOperator._from_terms(self.dim, self, list(terms))

    def kronecker_sum(self, factors, before=_EYE) -> FiberOperator:
        """sum_b S (x) .. (x) S (x) F_b (x) 1 (x) .. (x) 1, S = `before`, over
        the F_b not None; at S = 1 the inverse of `quaternion_factors`.
        Factors stacked as (Z, 16, 16) give the terms of Z operators at
        once, a stack (see `FiberOperator`)."""
        n = len(factors)
        return self.kronecker([(before,) * b + (F,) + (_EYE,) * (n - b - 1)
                               for b, F in enumerate(factors) if F is not None])

    def identity(self) -> FiberOperator:
        """The identity, one term whose slots all hold the identity."""
        return self.kronecker([(_EYE,) * self.quaternion_blocks])

    @cached_property
    def _generators(self) -> dict[str, np.ndarray]:
        """The Lambda(H) operators (this algebra, d = 4) that term-form
        builders contract coefficients with, flattened as (count, 256) on
        first use: for 1-forms e^a, then iota_a = (e^a)^T; for `quadratic`
        e^a ^ e^b (zero unless a < b), e^a iota_b, (e^a ^ e^b)^T and 1."""
        e = np.zeros((4, 16, 16), dtype=complex)
        for a in range(4):
            e[a, self._dst[a], self._cols] = self._sign[a]
        eT = e.swapaxes(-1, -2)
        two = (np.triu(np.ones((4, 4)), 1)[:, :, None, None]
               * (e[:, None] @ e[None, :])).reshape(16, 16, 16)
        kinds = {"1-form": (e, eT),
                 "quadratic": (two, (e[:, None] @ eT[None, :]).reshape(
                     16, 16, 16), two.swapaxes(-1, -2), _EYE[None])}
        return {k: _const(np.concatenate(G).reshape(-1, 256))
                for k, G in kinds.items()}

    def _block_sum(self, coeffs, kind: str) -> FiberOperator:
        """The `kronecker_sum` of the X_b = sum_g coeffs[b, ..., g] G_g
        over the `_generators` G of the kind (samples between b and g),
        X_b left out when its coefficients are all zero; S is (-1)^deg for
        the odd 1-forms and 1 for the even quadratics."""
        X = coeffs @ self._quaternion._generators[kind]
        X = X.reshape(X.shape[:-1] + (16, 16))
        return self.kronecker_sum([X[b] if coeffs[b].any() else None
                                   for b in range(self.quaternion_blocks)],
                                  _PARITY if kind == "1-form" else _EYE)

    def _splits(self, *coefficient_matrices) -> bool:
        """Whether the term form applies: no coefficient between two
        quaternion blocks."""
        return not any(np.asarray(M)[..., self._cross].any()
                       for M in coefficient_matrices)

    def _blocks(self, coeffs, width: int) -> np.ndarray:
        """Coefficients (..., d) or (..., d, d) split into the quaternion
        blocks as (n, ..., width): a vector's 4 entries a block (width 4),
        or a matrix's diagonal 4 x 4 block flattened (width 16)."""
        coeffs = np.asarray(coeffs, dtype=complex)
        n = self.quaternion_blocks
        if width == 4:
            X = coeffs.reshape(coeffs.shape[:-1] + (n, 4))
            return X if X.ndim == 2 else np.moveaxis(X, -2, 0)
        lead, b = coeffs.shape[:-2], np.arange(n)
        # the two block indices are apart, so their axis comes first
        return coeffs.reshape(lead + (n, 4, n, 4))[..., b, :, b, :].reshape(
            (n,) + lead + (16,))

    def _two_form_entries(self, coeff_matrix):
        """(images, sources, values) of sum_{a<b} w[a,b] e^a ^ e^b."""
        w = np.asarray(coeff_matrix, dtype=complex)
        a, b = np.nonzero(w)
        a, b = a[a < b], b[a < b]
        # e^a e^b e^S: first e^b, then e^a on the image
        mid = self._dst[b]
        vals = w[a, b][:, None] * self._sign[b] * self._sign[a[:, None], mid]
        keep = vals != 0
        rows = self._dst[a[:, None], mid]
        src = np.broadcast_to(self._cols, vals.shape)
        return rows[keep], src[keep], vals[keep]

    def _derivation_entries(self, A):
        """(images, sources, values) of sum_{a,b} A[a,b] e^a iota_b: for
        a != b each term moves e^{S+b} to +-e^{S+a}, and the diagonal terms
        count the members of S."""
        A = np.asarray(A, dtype=complex)
        a, b = np.nonzero(A)
        a, b = a[a != b], b[a != b]
        # e^a iota_b e^{S+b} = sign_a(S) sign_b(S) e^{S+a} for a, b not in S
        vals = A[a, b][:, None] * self._sign[a] * self._sign[b]
        keep = vals != 0
        diag = np.zeros(self.dim, dtype=complex)
        for c in np.flatnonzero(A.diagonal()):
            diag += A[c, c] * (self._sign[c] == 0)
        on = np.flatnonzero(diag)
        return (np.concatenate([self._dst[a][keep], on]),
                np.concatenate([self._dst[b][keep], on]),
                np.concatenate([vals[keep], diag[on]]))

    def _quadratic_entries(self, W, A, C, scalar):
        """(images, sources, values) of `quadratic`, in the order summed."""
        c_rows, c_cols, c_vals = self._two_form_entries(C)
        parts = [self._two_form_entries(W), self._derivation_entries(A),
                 (c_cols, c_rows, c_vals)]
        if scalar != 0:
            parts.append((self._cols, self._cols,
                          np.full(self.dim, scalar, dtype=complex)))
        return tuple(np.concatenate(p) for p in zip(*parts))

    def wedge_1form(self, coeffs) -> FiberOperator:
        """Left wedge with the 1-form sum_a coeffs[a] e^a."""
        return self.wedge_minus_contraction(coeffs, np.zeros(np.shape(coeffs)))

    def contraction(self, vec) -> FiberOperator:
        """Interior product with the (complex) vector sum_a vec[a] e_a."""
        vec = np.asarray(vec)
        return self.wedge_minus_contraction(np.zeros(vec.shape), -vec)

    def wedge_2form(self, coeff_matrix) -> FiberOperator:
        """Left wedge with the 2-form sum_{a<b} w[a,b] e^a ^ e^b."""
        zero = np.zeros(np.shape(coeff_matrix))
        return self.quadratic(coeff_matrix, zero, zero, 0)

    def derivation(self, A) -> FiberOperator:
        """Degree-0 derivation acting on 1-form coefficients by the matrix A,
        sum_{a,b} A[a,b] e^a iota_b."""
        zero = np.zeros(np.shape(A))
        return self.quadratic(zero, A, zero, 0)

    def wedge_minus_contraction(self, coeffs, vec) -> FiberOperator:
        """wedge_1form(coeffs) - contraction(vec), one contraction a
        factor."""
        return self._block_sum(np.concatenate(
            (self._blocks(coeffs, 4), -self._blocks(vec, 4)), axis=-1),
            "1-form")

    def quadratic(self, W, A, C, scalar) -> FiberOperator:
        """wedge_2form(W) + derivation(A) + wedge_2form(C)^T + scalar, the
        general even quadratic in wedges and contractions, in one
        contraction a factor (one scatter when dense); wedge_2form(C)^T is
        the contraction by the 2-form -C.  In term form the scalar joins
        the factor of block 0; with samples it is one value a sample."""
        W, A, C = map(np.asarray, (W, A, C))
        if self._splits(W, A, C):
            blocks = [self._blocks(X, 16) for X in (W, A, C)]
            identity = np.zeros(blocks[0].shape[:-1] + (1,), dtype=complex)
            identity[0, ..., 0] = scalar  # block 0's
            return self._block_sum(np.concatenate(blocks + [identity], -1),
                                   "quadratic")
        return FiberOperator(self._dense(*self._quadratic_entries(W, A, C, scalar)), self)

    def induced(self, r) -> FiberOperator:
        """Lambda(r), the algebra map extending the 1-form map r (acting on
        coefficients, e^b -> sum_a r[a, b] e^a): e^T goes to the wedge of
        the images of its generators, so the degree-k diagonal block is the
        k-th `compound` matrix of r.  A stack of r gives the stack of
        maps."""
        r = np.asarray(r)
        blocks = [compound(r, k) for k in range(self.d + 1)]
        M = np.zeros(r.shape[:-2] + (self.dim, self.dim),
                     dtype=np.result_type(*blocks))
        for k, (lo, hi) in enumerate(itertools.pairwise(self.offsets)):
            M[..., lo:hi, lo:hi] = blocks[k]
        return FiberOperator(M, self)

    def degree_projector(self, k: int) -> np.ndarray:
        return np.diag((self.degrees == k).astype(float))

    def _star_entries(self):
        """(images, sources, signs) of the Hodge star, one entry a column.

        e^S ^ e^{S^c} = sign e^0 ^ ... ^ e^{d-1}, the sign of the shuffle
        (S, S^c): each a in S passes the a - |S below a| members of S^c
        below it, sum(S) - k(k-1)/2 transpositions for |S| = k."""
        masks = self._masks
        members = (masks[:, None] >> np.arange(self.d)) & 1
        k = self.degrees
        passes = members @ np.arange(self.d) - k * (k - 1) // 2
        position = np.empty(self.dim, dtype=np.intp)
        position[masks] = self._cols
        return (position[masks ^ (self.dim - 1)], self._cols,
                1.0 - 2.0 * (passes % 2))

    def hodge_star(self) -> FiberOperator:
        """Hodge star for the identity metric and volume form e^0 ^ ... ^ e^{d-1}."""
        return FiberOperator(self._dense(*self._star_entries()), self)

    def twisted_star(self) -> FiberOperator:
        """Star with the extra (-1)^{k(k+1)/2} sign on each source degree k:
        one Kronecker term, the product of the n Lambda(H) twisted stars.

        Let e^S have parts S_b of degrees k_b, k = sum_b k_b.  The shuffle
        (S, S^c) is the n block shuffles (S_b, S_b^c) followed by moving
        each S_c past the complements of the blocks before it,
        sum_{b<c} (4 - k_b) k_c transpositions, and k(k+1)/2 =
        sum_b k_b(k_b+1)/2 + sum_{b<c} k_b k_c.  The two cross parts have
        the same parity, so their signs cancel and each block keeps its
        own twisted star."""
        h = self._quaternion
        k = h.degrees
        signs = 1.0 - 2.0 * ((k * (k + 1) // 2) % 2)
        rows, cols, vals = h._star_entries()
        star = h._dense(rows, cols, vals * signs[cols])
        return self.kronecker([(star,) * self.quaternion_blocks])

    def quaternion_factors(self, op: FiberOperator) -> list[np.ndarray] | None:
        """16 x 16 factors F_b with op = sum_b 1 (x) .. (x) F_b (x) .. (x) 1,
        one per quaternion block, or None when op is not such a sum or is
        dense.

        A term operator is such a sum when each of its terms has the
        identity in every slot but one; F_b sums the terms' slot b.  Every
        generator that stays inside the quaternion blocks is born in term
        form, so a dense op is taken as it is.
        """
        terms = op.terms
        if terms is None:
            return None
        F = [np.zeros((16, 16), dtype=complex)] * self.quaternion_blocks
        for t in terms:
            moved = [b for b, X in enumerate(t) if X is not _EYE]
            if len(moved) > 1:
                return None
            b = moved[0] if moved else 0
            F[b] = F[b] + t[b]
        return F

    def quaternion_matrix(self, terms) -> np.ndarray:
        """The dense sum_t F_t0 (x) ... (x) F_t,n-1, gathered from the
        factors by one index array a slot and summed in the order given;
        real when every factor is, and a stack (Z, dim, dim) when a factor
        is."""
        P = self._block_parts
        real = all(F.dtype.kind != "c" for t in terms for F in t)
        lead = np.broadcast_shapes(*(F.shape[:-2] for t in terms for F in t))
        M = np.zeros(lead + (self.dim, self.dim),
                     dtype=float if real else complex)
        for factors in terms:
            X = factors[0][..., P[0][:, None], P[0]]
            for k in range(1, len(factors)):
                X = X * factors[k][..., P[k][:, None], P[k]]
            M += X
        return M

    def quaternion_apply(self, terms, x: np.ndarray) -> np.ndarray:
        """(sum_t F_t0 (x) ... (x) F_t,n-1) x for a vector or a matrix of
        column vectors, without gathering: x is laid out as an n-slot
        tensor of Lambda(H) coefficients through `parts`, each factor
        contracts its slot (identity slots are skipped), and the terms'
        images add up in the order given.  A stack of Z operators, factors
        of shape (Z, 16, 16), applies to a stack of Z matrices (Z, dim,
        cols), each operator to its own matrix by the same products."""
        slots = self._slots
        cols = x.reshape(x.shape[:-2] + (self.dim, -1))
        lead = cols.shape[:-2]
        X = np.empty(cols.shape, dtype=cols.dtype)
        X[..., slots, :] = cols
        out = np.zeros(cols.shape, dtype=np.result_type(x, complex))
        for factors in terms:
            Y = X
            for b, F in enumerate(factors):
                if F is not _EYE:
                    Y = (F[..., None, :, :] @ Y.reshape(
                        lead + (16 ** b, 16, -1))).reshape(cols.shape)
            out += Y
        return out[..., slots, :].reshape(x.shape)
