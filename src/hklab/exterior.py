"""Exterior algebra Lambda(V* (x) C) over V = R^d and its operators.

Basis: exterior monomials e^S for subsets S of {0..d-1}, ordered degree-major
with lexicographic multi-indices inside each degree.  The metric is the
identity, so monomials are orthonormal and Hermitian adjoints are conjugate
transposes.

Each wedge generator e^a is a signed partial permutation of this basis:
it sends e^S to +-e^{S + a} when a is not in S and kills it otherwise.  It
is stored as index arrays over the source monomials, never as a dim x dim
matrix.  Every operator built here shifts the exterior degree by a fixed
amount or a few, so it is returned as a FiberOperator whose entries are
scattered straight into their (degree out, degree in) blocks; the dense
matrix exists only when a caller asks for it.

For d = 4n the algebra is also the tensor product of n copies of
Lambda(H), one per quaternion block {4b, .., 4b+3}: the blocks are
index-contiguous, so e^S is the ordered product e^{S_0} ^ ... ^ e^{S_{n-1}}
of its parts with sign +1, and a monomial is an n-tuple of Lambda(H)
monomials (`parts`).  An operator that is a scalar plus a sum of
operators each acting on one block (`quaternion_factors`) then
exponentiates as the Kronecker product of n 16 x 16 exponentials
(`quaternion_product`).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

import numpy as np

# relative mismatch allowed on the diagonal of a quaternion split, whose
# sums are rounded in another order than the generator's own
SPLIT_RTOL = 1e-13


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

    The operator is held as `blocks`: a dict from (k_out, k_in) to the
    block that maps exterior degree k_in to degree k_out; every block
    missing from it is exactly zero.  The builders of `ExteriorAlgebra`
    and of the fiber modules make their operators block by block, and
    products with another FiberOperator, sums, differences, scalar
    multiples, the adjoint, `inner`, `frobenius_norm` and
    products with an array act on blocks too.  `matrix`, the dense
    2^d x 2^d form, is assembled on first use.  An operator may also be
    made from a dense matrix, whose nonzero blocks are then read off once.
    A product with a lattice operator is left to the lattice operator.
    `algebra` is the ExteriorAlgebra the operator was built on (None for
    one made from a bare matrix); results inherit it.  Operators are
    values: neither form is modified after it is made.
    """

    def __init__(self, matrix: np.ndarray, label: str = "",
                 algebra: "ExteriorAlgebra | None" = None):
        self._matrix = np.asarray(matrix)
        self._blocks = None
        self._offsets = _degree_offsets(self._matrix.shape[0])
        self.label = label
        self.algebra = algebra

    @classmethod
    def _from_blocks(cls, offsets, blocks: dict, label: str,
                     algebra=None) -> "FiberOperator":
        op = cls.__new__(cls)
        op._matrix, op._blocks, op._offsets = None, blocks, offsets
        op.label, op.algebra = label, algebra
        return op

    @classmethod
    def zero(cls, dim: int, label: str = "0") -> "FiberOperator":
        return cls._from_blocks(_degree_offsets(dim), {}, label)

    def _new(self, blocks: dict, label: str,
             other: "FiberOperator | None" = None) -> "FiberOperator":
        algebra = self.algebra
        if algebra is None and other is not None:
            algebra = other.algebra
        return self._from_blocks(self._offsets, blocks, label, algebra)

    @property
    def dim(self) -> int:
        return self._offsets[-1]

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            off = self._offsets
            dtype = (np.result_type(*self._blocks.values()) if self._blocks
                     else complex)
            M = np.zeros((self.dim, self.dim), dtype=dtype)
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

    def diagonal(self) -> np.ndarray:
        """The diagonal entries, from the diagonal degree blocks."""
        off = self._offsets
        out = np.zeros(self.dim, dtype=complex)
        for k in range(len(off) - 1):
            X = self.blocks.get((k, k))
            if X is not None:
                out[off[k]:off[k + 1]] = X.diagonal()
        return out

    def relabel(self, label: str) -> "FiberOperator":
        """The same operator under another label, sharing both forms."""
        op = FiberOperator.__new__(FiberOperator)
        op.__dict__.update(self.__dict__, label=label)
        return op

    def _check_space(self, other: "FiberOperator") -> None:
        if other._offsets != self._offsets:
            raise ValueError(f"operators of dimension {self.dim} and "
                             f"{other.dim} act on different algebras")

    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            return self._apply(other)
        if not isinstance(other, FiberOperator):
            return NotImplemented
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
        return self._new(out, f"{self.label}*{other.label}", other)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a vector or a matrix of column vectors, by blocks."""
        if x.shape[0] != self.dim:
            raise ValueError(f"operator of dimension {self.dim} applied to "
                             f"an array of {x.shape[0]} rows")
        off = self._offsets
        out = np.zeros(x.shape, dtype=np.result_type(x, complex))
        for (a, b), X in self.blocks.items():
            out[off[a]:off[a + 1]] += X @ x[off[b]:off[b + 1]]
        return out

    def _combine(self, other: "FiberOperator", op,
                 label: str) -> "FiberOperator":
        # a block missing on one side enters as the scalar 0, entry for
        # entry what the dense sum or difference computes; the result keeps
        # its blocks in (k_out, k_in) order, as the builders' scatters do,
        # so products and norms of sums accumulate in a fixed order
        self._check_space(other)
        out = dict(self.blocks)
        for key, Y in other.blocks.items():
            out[key] = op(out[key] if key in out else 0, Y)
        return self._new(dict(sorted(out.items())), label, other)

    def __add__(self, other: "FiberOperator") -> "FiberOperator":
        return self._combine(other, operator.add,
                             f"{self.label} + {other.label}")

    def __sub__(self, other: "FiberOperator") -> "FiberOperator":
        return self._combine(other, operator.sub,
                             f"{self.label} - {other.label}")

    def __mul__(self, c) -> "FiberOperator":
        return self._new({k: X * c for k, X in self.blocks.items()},
                         f"{self.label}*{c}")

    def __rmul__(self, c) -> "FiberOperator":
        return self._new({k: c * X for k, X in self.blocks.items()},
                         f"{c}*{self.label}")

    def __neg__(self) -> "FiberOperator":
        return self._new({k: -X for k, X in self.blocks.items()},
                         f"-{self.label}")

    def adjoint(self) -> "FiberOperator":
        return self._new({(b, a): X.conj().T
                          for (a, b), X in self.blocks.items()},
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


class ExteriorAlgebra:
    """Wedge, contraction, derivations and the star, as FiberOperators."""

    def __init__(self, d: int):
        self.d = d
        self.basis: list[tuple[int, ...]] = []
        for k in range(d + 1):
            self.basis.extend(itertools.combinations(range(d), k))
        self.dim = len(self.basis)
        self.index = {s: i for i, s in enumerate(self.basis)}
        self.degrees = np.array([len(s) for s in self.basis])
        self.offsets = _degree_offsets(self.dim)
        self._count = np.bincount(self.degrees)
        self._cols = np.arange(self.dim)
        # position of each monomial inside its degree block
        self._local = self._cols - np.asarray(self.offsets)[self.degrees]
        # e^a e^S = _sign[a, i] e^{_dst[a, i]} for S = basis[i]; _sign is 0
        # (and _dst is i) where a is in S, so killed sources stay killed
        # under composition.  Contractions are the transposed maps.
        masks = np.array([sum(1 << a for a in s) for s in self.basis])
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
        # quaternion blocks, for d = 4n with n >= 2 (one block has nothing
        # to factor): parts[i, b] is the position of the block-b part of
        # monomial i in the 16-monomial basis of Lambda(H) (same order
        # convention), and _one_block[b, s] the monomial whose only part is
        # the s-th monomial of Lambda(H), placed in block b.  The monomials
        # inside {0, 1, 2, 3} come in that basis order.
        self.quaternion_blocks = d // 4 if d % 4 == 0 and d >= 8 else 0
        if self.quaternion_blocks:
            h_masks = masks[masks < 16]
            h_position = np.empty(16, dtype=np.intp)
            h_position[h_masks] = np.arange(16)
            shifts = 4 * np.arange(self.quaternion_blocks)
            self.parts = h_position[(masks[:, None] >> shifts) & 15]
            self._one_block = position[h_masks[None, :] << shifts[:, None]]

    def _operator(self, rows, cols, vals) -> FiberOperator:
        """Operator with the given entries, each scattered into the block of
        its degree pair; entries sharing a position add up in their order.
        The blocks are views of one buffer, laid out in (k_out, k_in) order."""
        width = self.d + 1
        count = self._count
        deg_in = self.degrees[cols]
        key = self.degrees[rows] * width + deg_in
        occupied = np.zeros(width * width, dtype=bool)
        occupied[key] = True
        present = np.flatnonzero(occupied)
        out_deg, in_deg = np.divmod(present, width)
        sizes = count[out_deg] * count[in_deg]
        start = np.zeros(width * width, dtype=np.intp)
        start[present] = np.cumsum(sizes) - sizes
        buf = np.zeros(int(sizes.sum()), dtype=vals.dtype)
        np.add.at(buf, start[key] + self._local[rows] * count[deg_in]
                  + self._local[cols], vals)
        blocks = {}
        for a, b, s in zip(out_deg.tolist(), in_deg.tolist(),
                           start[present].tolist()):
            blocks[a, b] = buf[s:s + count[a] * count[b]].reshape(
                count[a], count[b])
        return self.blocked(blocks)

    def blocked(self, blocks: dict, label: str = "") -> FiberOperator:
        """The operator on this algebra with the given degree blocks."""
        return FiberOperator._from_blocks(self.offsets, blocks, label, self)

    def _one_form_entries(self, coeffs):
        """(images, sources, values) of sum_a coeffs[a] e^a."""
        a = np.flatnonzero(coeffs)
        vals = coeffs[a][:, None] * self._sign[a]
        keep = vals != 0
        src = np.broadcast_to(self._cols, vals.shape)
        return self._dst[a][keep], src[keep], vals[keep]

    def multi_indices(self, k: int) -> list[tuple[int, ...]]:
        return list(itertools.combinations(range(self.d), k))

    def degree_offset(self, k: int) -> int:
        return self.offsets[k]

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

    def _sum(self, *entries) -> FiberOperator:
        """The sum of several entry lists, scattered at once; where they
        meet, values add up in the order given."""
        return self._operator(*(np.concatenate(parts)
                                for parts in zip(*entries)))

    def wedge_1form(self, coeffs) -> FiberOperator:
        """Left wedge with the 1-form sum_a coeffs[a] e^a."""
        return self._operator(*self._one_form_entries(
            np.asarray(coeffs, dtype=complex)))

    def contraction(self, vec) -> FiberOperator:
        """Interior product with the (complex) vector sum_a vec[a] e_a."""
        rows, cols, vals = self._one_form_entries(
            np.asarray(vec, dtype=complex))
        return self._operator(cols, rows, vals)

    def wedge_2form(self, coeff_matrix) -> FiberOperator:
        """Left wedge with the 2-form sum_{a<b} w[a,b] e^a ^ e^b."""
        return self._operator(*self._two_form_entries(coeff_matrix))

    def wedge_element(self, vec) -> FiberOperator:
        """Left multiplication by an arbitrary element of the algebra."""
        vec = np.asarray(vec, dtype=complex)
        terms = np.flatnonzero(vec)
        # one row per monomial e^S of vec, one column per source e^T; the
        # generators of S act on e^T from the largest index down
        dst = np.tile(self._cols, (len(terms), 1))
        sign = np.ones(dst.shape)
        for a in reversed(range(self.d)):
            rows = self._sign[a, terms] == 0  # a in S
            sign[rows] *= self._sign[a][dst[rows]]
            dst[rows] = self._dst[a][dst[rows]]
        vals = vec[terms][:, None] * sign
        keep = vals != 0
        src = np.broadcast_to(self._cols, dst.shape)
        # monomials sharing a product accumulate, in basis order
        return self._operator(dst[keep], src[keep], vals[keep])

    def derivation(self, A) -> FiberOperator:
        """Degree-0 derivation acting on 1-form coefficients by the matrix A,
        sum_{a,b} A[a,b] e^a iota_b."""
        return self._operator(*self._derivation_entries(A))

    def wedge_minus_contraction(self, coeffs, vec) -> FiberOperator:
        """wedge_1form(coeffs) - contraction(vec), in one scatter."""
        w_rows, w_cols, w_vals = self._one_form_entries(
            np.asarray(coeffs, dtype=complex))
        c_rows, c_cols, c_vals = self._one_form_entries(
            np.asarray(vec, dtype=complex))
        return self._sum((w_rows, w_cols, w_vals), (c_cols, c_rows, -c_vals))

    def quadratic(self, W, A, C, scalar) -> FiberOperator:
        """wedge_2form(W) + derivation(A) + wedge_2form(C)^T + scalar, the
        general even quadratic in wedges and contractions, in one scatter;
        wedge_2form(C)^T is the contraction by the 2-form -C."""
        c_rows, c_cols, c_vals = self._two_form_entries(C)
        parts = [self._two_form_entries(W), self._derivation_entries(A),
                 (c_cols, c_rows, c_vals)]
        if scalar != 0:
            parts.append((self._cols, self._cols,
                          np.full(self.dim, scalar, dtype=complex)))
        return self._sum(*parts)

    def graded_scalar(self, values) -> FiberOperator:
        """Multiplication by values[k] on the degree-k forms."""
        blocks = {}
        for k, v in enumerate(values):
            if v != 0:
                size = self.offsets[k + 1] - self.offsets[k]
                blocks[k, k] = v * np.eye(size, dtype=complex)
        return self.blocked(blocks)

    def degree_projector(self, k: int) -> np.ndarray:
        return np.diag((self.degrees == k).astype(float))

    def _star_entries(self):
        """(images, sources, signs) of the Hodge star, one entry a column."""
        full = set(range(self.d))
        rows = np.empty(self.dim, dtype=np.intp)
        vals = np.empty(self.dim)
        for i, s in enumerate(self.basis):
            comp = tuple(sorted(full - set(s)))
            perm = list(s) + list(comp)
            sign = 1.0
            for a in range(len(perm)):
                for b in range(a + 1, len(perm)):
                    if perm[a] > perm[b]:
                        sign = -sign
            rows[i], vals[i] = self.index[comp], sign
        return rows, self._cols, vals

    def hodge_star(self) -> FiberOperator:
        """Hodge star for the identity metric and volume form e^0 ^ ... ^ e^{d-1}."""
        return self._operator(*self._star_entries())

    def twisted_star(self) -> FiberOperator:
        """Star with the extra (-1)^{k(k+1)/2} sign on each source degree k."""
        signs = np.array([(-1.0) ** ((k * (k + 1) // 2) % 2) for k in self.degrees])
        rows, cols, vals = self._star_entries()
        return self._operator(rows, cols, vals * signs[cols])

    def quaternion_factors(self, op: FiberOperator) -> list[np.ndarray] | None:
        """16 x 16 factors F_b with op = sum_b 1 (x) .. (x) F_b (x) .. (x) 1,
        one per quaternion block, or None when op is not such a sum or the
        algebra has no quaternion blocks to factor.

        F_b is read from op's entries between monomials that lie in block b
        alone; for b > 0 the scalar op[0, 0] is taken off its diagonal, so
        the scalar part is counted once, in F_0.  The test visits each
        stored entry once: an off-diagonal entry must differ from its
        column in one block b and equal F_b's entry there exactly, as many
        off-diagonal entries must be stored as the sum has (none of them
        missing), and the diagonal must match to SPLIT_RTOL, because the
        sum of the factors' diagonals rounds in its own order.
        """
        n = self.quaternion_blocks
        if not n:
            return None
        blocks = op.blocks
        local = self._local[self._one_block]
        h_off = _degree_offsets(16)
        F = np.zeros((n, 16, 16), dtype=complex)
        for (a, b), X in blocks.items():
            if a <= 4 and b <= 4:
                rows = local[:, h_off[a]:h_off[a + 1]]
                cols = local[:, h_off[b]:h_off[b + 1]]
                F[:, h_off[a]:h_off[a + 1], h_off[b]:h_off[b + 1]] = \
                    X[rows[:, :, None], cols[:, None, :]]
        idx = np.arange(16)
        F[1:, idx, idx] -= F[0, 0, 0]
        P = self.parts
        diag = F[0][P[:, 0], P[:, 0]]
        for b in range(1, n):
            diag = diag + F[b][P[:, b], P[:, b]]
        scale = max(1.0, float(np.abs(F).max()))
        if np.abs(op.diagonal() - diag).max() > SPLIT_RTOL * scale:
            return None
        none = np.zeros(0, dtype=np.intp)
        rows, cols, vals = [none], [none], [np.zeros(0)]
        for (a, b), X in blocks.items():
            r, c = np.nonzero(X)
            rows.append(r + self.offsets[a])
            cols.append(c + self.offsets[b])
            vals.append(X[r, c])
        Pr, Pc = P[np.concatenate(rows)], P[np.concatenate(cols)]
        differs = Pr != Pc
        count = differs.sum(axis=1)
        if count.max(initial=0) > 1:
            return None
        pick = np.flatnonzero(count == 1)
        which = differs[pick].argmax(axis=1)
        want = F[which, Pr[pick, which], Pc[pick, which]]
        if not np.array_equal(np.concatenate(vals)[pick], want):
            return None
        off_diagonal = np.count_nonzero(F) - np.count_nonzero(F[:, idx, idx])
        if len(pick) != off_diagonal * 16 ** (n - 1):
            return None
        return list(F)

    def quaternion_product(self, factors) -> FiberOperator:
        """F_0 (x) ... (x) F_{n-1} for 16 x 16 factors, one per quaternion
        block, gathered degree block by degree block: entry (S, T) is the
        product of the factors' entries (S_b, T_b).  A degree block is
        formed only if every factor has a nonzero block of degrees adding
        up to it."""
        h_off = _degree_offsets(16)
        pairs = {(0, 0)}
        for Fb in factors:
            occupied = [(a, b) for a in range(5) for b in range(5)
                        if Fb[h_off[a]:h_off[a + 1],
                              h_off[b]:h_off[b + 1]].any()]
            pairs = {(a + a2, b + b2) for a, b in pairs for a2, b2 in occupied}
        P, off = self.parts, self.offsets
        blocks = {}
        for a, b in sorted(pairs):
            Pa, Pb = P[off[a]:off[a + 1]], P[off[b]:off[b + 1]]
            X = factors[0][Pa[:, 0, None], Pb[None, :, 0]]
            for k in range(1, len(factors)):
                X = X * factors[k][Pa[:, k, None], Pb[None, :, k]]
            blocks[a, b] = X
        return self.blocked(blocks)

    def form_vector(self, k: int, coeffs) -> np.ndarray:
        """Embed degree-k coefficients (lex multi-index order) in the full algebra."""
        coeffs = np.asarray(coeffs, dtype=complex)
        off = self.degree_offset(k)
        v = np.zeros(self.dim, dtype=complex)
        v[off:off + len(coeffs)] = coeffs
        return v
