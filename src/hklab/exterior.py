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
The operators that do not factor (forms coupling two blocks, the
untwisted star, `induced`) have their entries scattered into a dense
matrix.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

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
    return x if x is _EYE else x.conj().T


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


def _kron_norm(terms) -> float:
    """||sum_t F_t0 (x) ... (x) F_t,n-1||_F by successive QR.

    The columns vec(F_t0) are factored as Q R; Q is an isometry, so the
    norm is that of sum_t R[:, t] (x) F_t1 (x) ..., whose first factors are
    the columns of R (x)-ed with vec(F_t1) and are factored in turn (the
    orthogonalization sweep of tensor-train rounding, Oseledets, SIAM J.
    Sci. Comput. 33, 2011).  Unlike the Gram expansion
    sum_st prod_b tr(F_sb^* F_tb), this keeps the small norm of a
    difference of nearly equal operators.  Seeded with a row of ones, it
    takes a one-slot term list too."""
    if not terms:
        return 0.0
    T = len(terms)
    cols = [np.stack([t[b].ravel() for t in terms], axis=1)
            for b in range(len(terms[0]))]
    R = np.ones((1, T))
    for F in cols[:-1]:
        R = np.linalg.qr((R[:, None, :] * F[None, :, :]).reshape(-1, T),
                         mode="r")
    return float(np.linalg.norm(R @ cols[-1].T))


def _occupied(F: np.ndarray, offsets) -> list[tuple[int, int]]:
    """(k_out, k_in) of the nonzero degree blocks of F, whose exterior
    degrees start at `offsets`."""
    starts = offsets[:-1]
    occupied = np.logical_or.reduceat(
        np.logical_or.reduceat(F != 0, starts, axis=0), starts, axis=1)
    return list(zip(*map(np.ndarray.tolist, np.nonzero(occupied))))


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
    factor columns, which keeps a small residual of nearly equal
    operators, and `inner` uses the Gram product
    sum_st prod_b tr(F_sb^* G_tb).  `A @ x` for an array applies each
    factor to its slot of x, laid out as an n-slot tensor
    (`ExteriorAlgebra.quaternion_apply`).  The zero operator is a term
    operator without terms.

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

    def __init__(self, matrix: np.ndarray,
                 algebra: "ExteriorAlgebra | None" = None):
        self._matrix = np.asarray(matrix)
        self.dim = _degree_offsets(self._matrix.shape[0])[-1]
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

    def degree_shifts(self) -> set[int]:
        """k_out - k_in over the nonzero degree blocks; for a term
        operator, the sums of the factors' shifts, read without
        gathering."""
        if self._terms is None:
            return {a - b for a, b in
                    _occupied(self._matrix, _degree_offsets(self.dim))}
        shifts = [[{a - b for a, b in _occupied(F, _H_OFFSETS)} for F in t]
                  for t in self._terms]
        return {sum(s) for t in shifts for s in itertools.product(*t)}

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
        return self._like(matrix=self._matrix.conj().T)

    def inner(self, other: "FiberOperator") -> complex:
        """Frobenius inner product tr(self^* other); for two term
        operators sum_st prod_b tr(F_sb^* G_tb)."""
        self._check_space(other)
        pair = self._term_pair(other)
        if pair is not None:
            return sum((math.prod(np.vdot(x, y) for x, y in zip(s, t))
                        for s in pair[0] for t in pair[1]), 0j)
        return complex(np.vdot(self.matrix, other.matrix))

    def frobenius_norm(self) -> float:
        if self._terms is not None:
            return _kron_norm(self.terms)
        return float(np.linalg.norm(self._matrix))


def _concat(*entries):
    """One (images, sources, values) list from several, in the order given."""
    return tuple(np.concatenate(parts) for parts in zip(*entries))


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
        once, for `quaternion_apply` on a stack of arrays."""
        n = len(factors)
        return self.kronecker([(before,) * b + (F,) + (_EYE,) * (n - b - 1)
                               for b, F in enumerate(factors) if F is not None])

    def identity(self) -> FiberOperator:
        """The identity, one term whose slots all hold the identity."""
        return self.kronecker([(_EYE,) * self.quaternion_blocks])

    def _block_sum(self, local_entries, odd: bool) -> FiberOperator:
        """The `kronecker_sum` of the X_b, X_b the operator on Lambda(H)
        with the entries local_entries(Lambda(H), slice of block b), left
        out when it has none.  S is (-1)^deg when X_b is odd, as it passes
        the generators of the blocks before b, and 1 when it is even."""
        h = self._quaternion
        entries = [local_entries(h, slice(4 * b, 4 * b + 4))
                   for b in range(self.quaternion_blocks)]
        return self.kronecker_sum([h._dense(*e) if len(e[2]) else None
                                   for e in entries], _PARITY if odd else _EYE)

    def _splits(self, *coefficient_matrices) -> bool:
        """Whether the term form applies: no coefficient between two
        quaternion blocks."""
        return not any(np.asarray(M)[self._cross].any()
                       for M in coefficient_matrices)

    def _one_form_entries(self, coeffs):
        """(images, sources, values) of sum_a coeffs[a] e^a."""
        a = np.flatnonzero(coeffs)
        vals = coeffs[a][:, None] * self._sign[a]
        keep = vals != 0
        src = np.broadcast_to(self._cols, vals.shape)
        return self._dst[a][keep], src[keep], vals[keep]

    def _contraction_entries(self, vec):
        """(images, sources, values) of the interior product with vec."""
        rows, cols, vals = self._one_form_entries(vec)
        return cols, rows, vals

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
        return _concat(*parts)

    def wedge_1form(self, coeffs) -> FiberOperator:
        """Left wedge with the 1-form sum_a coeffs[a] e^a."""
        coeffs = np.asarray(coeffs, dtype=complex)
        return self._block_sum(
            lambda h, s: h._one_form_entries(coeffs[s]), odd=True)

    def contraction(self, vec) -> FiberOperator:
        """Interior product with the (complex) vector sum_a vec[a] e_a."""
        vec = np.asarray(vec, dtype=complex)
        return self._block_sum(
            lambda h, s: h._contraction_entries(vec[s]), odd=True)

    def wedge_2form(self, coeff_matrix) -> FiberOperator:
        """Left wedge with the 2-form sum_{a<b} w[a,b] e^a ^ e^b."""
        W = np.asarray(coeff_matrix)
        if self._splits(W):
            return self._block_sum(
                lambda h, s: h._two_form_entries(W[s, s]), odd=False)
        return FiberOperator(self._dense(*self._two_form_entries(W)), self)

    def derivation(self, A) -> FiberOperator:
        """Degree-0 derivation acting on 1-form coefficients by the matrix A,
        sum_{a,b} A[a,b] e^a iota_b."""
        A = np.asarray(A)
        if self._splits(A):
            return self._block_sum(
                lambda h, s: h._derivation_entries(A[s, s]), odd=False)
        return FiberOperator(self._dense(*self._derivation_entries(A)), self)

    def wedge_minus_contraction(self, coeffs, vec) -> FiberOperator:
        """wedge_1form(coeffs) - contraction(vec), one scatter a factor."""
        coeffs = np.asarray(coeffs, dtype=complex)
        vec = np.asarray(vec, dtype=complex)

        def entries(h, s):
            rows, cols, vals = h._contraction_entries(vec[s])
            return _concat(h._one_form_entries(coeffs[s]), (rows, cols, -vals))

        return self._block_sum(entries, odd=True)

    def quadratic(self, W, A, C, scalar) -> FiberOperator:
        """wedge_2form(W) + derivation(A) + wedge_2form(C)^T + scalar, the
        general even quadratic in wedges and contractions, in one scatter;
        wedge_2form(C)^T is the contraction by the 2-form -C.  In term form
        the scalar joins the factor of block 0."""
        W, A, C = map(np.asarray, (W, A, C))
        if self._splits(W, A, C):
            return self._block_sum(
                lambda h, s: h._quadratic_entries(
                    W[s, s], A[s, s], C[s, s], scalar if s.start == 0 else 0),
                odd=False)
        return FiberOperator(self._dense(*self._quadratic_entries(W, A, C, scalar)), self)

    def induced(self, r) -> FiberOperator:
        """Lambda(r), the algebra map extending the 1-form map r (acting on
        coefficients, e^b -> sum_a r[a, b] e^a): e^T goes to the wedge of
        the images of its generators, so the degree-k diagonal block is the
        k-th `compound` matrix of r."""
        blocks = [compound(np.asarray(r), k) for k in range(self.d + 1)]
        M = np.zeros((self.dim, self.dim), dtype=np.result_type(*blocks))
        for k, (lo, hi) in enumerate(itertools.pairwise(self.offsets)):
            M[lo:hi, lo:hi] = blocks[k]
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
        real when every factor is."""
        P = self._block_parts
        real = all(F.dtype.kind != "c" for t in terms for F in t)
        M = np.zeros((self.dim, self.dim), dtype=float if real else complex)
        for factors in terms:
            X = factors[0][P[0]][:, P[0]]
            for k in range(1, len(factors)):
                X = X * factors[k][P[k]][:, P[k]]
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
