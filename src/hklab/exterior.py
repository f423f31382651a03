"""Exterior algebra Lambda(V* (x) C) over V = R^d, as dense matrices.

Basis: exterior monomials e^S for subsets S of {0..d-1}, ordered degree-major
with lexicographic multi-indices inside each degree.  The metric is the
identity, so monomials are orthonormal and Hermitian adjoints are conjugate
transposes.

Each wedge generator e^a is a signed partial permutation of this basis:
it sends e^S to +-e^{S + a} when a is not in S and kills it otherwise.  It
is stored as index arrays over the source monomials, never as a dim x dim
matrix; each operator composes these maps and scatters its coefficients
into one dense output.
"""

from __future__ import annotations

import itertools

import numpy as np


class ExteriorAlgebra:
    """Matrix realization of wedge, contraction, derivations and the star."""

    def __init__(self, d: int):
        self.d = d
        self.basis: list[tuple[int, ...]] = []
        for k in range(d + 1):
            self.basis.extend(itertools.combinations(range(d), k))
        self.dim = len(self.basis)
        self.index = {s: i for i, s in enumerate(self.basis)}
        self.degrees = np.array([len(s) for s in self.basis])
        self._cols = np.arange(self.dim)
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

    def _scatter(self, rows, cols, vals) -> np.ndarray:
        """Dense matrix with the given entries; (row, col) pairs are distinct."""
        M = np.zeros((self.dim, self.dim), dtype=complex)
        M[rows, cols] = vals
        return M

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
        return int(np.searchsorted(self.degrees, k))

    def wedge_1form(self, coeffs) -> np.ndarray:
        """Left wedge with the 1-form sum_a coeffs[a] e^a."""
        rows, cols, vals = self._one_form_entries(
            np.asarray(coeffs, dtype=complex))
        return self._scatter(rows, cols, vals)

    def contraction(self, vec) -> np.ndarray:
        """Interior product with the (complex) vector sum_a vec[a] e_a."""
        rows, cols, vals = self._one_form_entries(
            np.asarray(vec, dtype=complex))
        return self._scatter(cols, rows, vals)

    def wedge_2form(self, coeff_matrix) -> np.ndarray:
        """Left wedge with the 2-form sum_{a<b} w[a,b] e^a ^ e^b."""
        w = np.asarray(coeff_matrix, dtype=complex)
        a, b = np.nonzero(w)
        a, b = a[a < b], b[a < b]
        # e^a e^b e^S: first e^b, then e^a on the image
        mid = self._dst[b]
        vals = w[a, b][:, None] * self._sign[b] * self._sign[a[:, None], mid]
        keep = vals != 0
        rows = self._dst[a[:, None], mid]
        src = np.broadcast_to(self._cols, vals.shape)
        return self._scatter(rows[keep], src[keep], vals[keep])

    def wedge_element(self, vec) -> np.ndarray:
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
        M = np.zeros((self.dim, self.dim), dtype=complex)
        src = np.broadcast_to(self._cols, dst.shape)
        # monomials sharing a product accumulate, in basis order
        np.add.at(M, (dst[keep], src[keep]), vals[keep])
        return M

    def derivation(self, A) -> np.ndarray:
        """Degree-0 derivation acting on 1-form coefficients by the matrix A.

        It is sum_{a,b} A[a,b] e^a iota_b: for a != b each term moves e^{S+b}
        to +-e^{S+a}, and the diagonal terms count the members of S.
        """
        A = np.asarray(A, dtype=complex)
        a, b = np.nonzero(A)
        a, b = a[a != b], b[a != b]
        # e^a iota_b e^{S+b} = sign_a(S) sign_b(S) e^{S+a} for a, b not in S
        vals = A[a, b][:, None] * self._sign[a] * self._sign[b]
        keep = vals != 0
        M = self._scatter(self._dst[a][keep], self._dst[b][keep], vals[keep])
        diag = np.zeros(self.dim, dtype=complex)
        for c in np.flatnonzero(A.diagonal()):
            diag += A[c, c] * (self._sign[c] == 0)
        M[self._cols, self._cols] = diag
        return M

    def degree_projector(self, k: int) -> np.ndarray:
        return np.diag((self.degrees == k).astype(float))

    def hodge_star(self) -> np.ndarray:
        """Hodge star for the identity metric and volume form e^0 ^ ... ^ e^{d-1}."""
        M = np.zeros((self.dim, self.dim))
        full = set(range(self.d))
        for s, i in self.index.items():
            comp = tuple(sorted(full - set(s)))
            perm = list(s) + list(comp)
            sign = 1.0
            for a in range(len(perm)):
                for b in range(a + 1, len(perm)):
                    if perm[a] > perm[b]:
                        sign = -sign
            M[self.index[comp], i] = sign
        return M

    def twisted_star(self) -> np.ndarray:
        """Star with the extra (-1)^{k(k+1)/2} sign on each source degree k."""
        signs = np.array([(-1.0) ** ((k * (k + 1) // 2) % 2) for k in self.degrees])
        M = self.hodge_star()
        # scale the one nonzero of each column; zeros stay +0.0
        rows, cols = np.nonzero(M)
        M[rows, cols] *= signs[cols]
        return M

    def form_vector(self, k: int, coeffs) -> np.ndarray:
        """Embed degree-k coefficients (lex multi-index order) in the full algebra."""
        coeffs = np.asarray(coeffs, dtype=complex)
        off = self.degree_offset(k)
        v = np.zeros(self.dim, dtype=complex)
        v[off:off + len(coeffs)] = coeffs
        return v
