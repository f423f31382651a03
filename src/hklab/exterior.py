"""Dense exterior algebra Lambda(V* (x) C) over V = R^d.

Basis: exterior monomials e^S for subsets S of {0..d-1}, ordered degree-major
with lexicographic multi-indices inside each degree.  The metric is the
identity, so monomials are orthonormal and Hermitian adjoints are conjugate
transposes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

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
        # one-generator wedge matrices; contractions are their transposes
        self._eps = [self._wedge_generator(a) for a in range(d)]

    def _wedge_generator(self, a: int) -> np.ndarray:
        M = np.zeros((self.dim, self.dim))
        for s, i in self.index.items():
            if a in s:
                continue
            t = tuple(sorted(s + (a,)))
            sign = -1.0 if sum(1 for x in s if x < a) % 2 else 1.0
            M[self.index[t], i] = sign
        return M

    def multi_indices(self, k: int) -> list[tuple[int, ...]]:
        return list(itertools.combinations(range(self.d), k))

    def degree_offset(self, k: int) -> int:
        return int(np.searchsorted(self.degrees, k))

    def wedge_1form(self, coeffs) -> np.ndarray:
        """Left wedge with the 1-form sum_a coeffs[a] e^a."""
        coeffs = np.asarray(coeffs, dtype=complex)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for a in range(self.d):
            if coeffs[a] != 0:
                M += coeffs[a] * self._eps[a]
        return M

    def contraction(self, vec) -> np.ndarray:
        """Interior product with the (complex) vector sum_a vec[a] e_a."""
        vec = np.asarray(vec, dtype=complex)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for a in range(self.d):
            if vec[a] != 0:
                M += vec[a] * self._eps[a].T
        return M

    def wedge_2form(self, coeff_matrix) -> np.ndarray:
        """Left wedge with the 2-form sum_{a<b} w[a,b] e^a ^ e^b."""
        w = np.asarray(coeff_matrix, dtype=complex)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for a in range(self.d):
            for b in range(a + 1, self.d):
                if w[a, b] != 0:
                    M += w[a, b] * (self._eps[a] @ self._eps[b])
        return M

    def wedge_monomial(self, s: tuple[int, ...]) -> np.ndarray:
        M = np.eye(self.dim, dtype=complex)
        for a in reversed(s):
            M = self._eps[a] @ M
        return M

    def wedge_element(self, vec) -> np.ndarray:
        """Left multiplication by an arbitrary element of the algebra."""
        vec = np.asarray(vec, dtype=complex)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for i, c in enumerate(vec):
            if c != 0:
                M += c * self.wedge_monomial(self.basis[i])
        return M

    def derivation(self, A) -> np.ndarray:
        """Degree-0 derivation acting on 1-form coefficients by the matrix A."""
        A = np.asarray(A, dtype=complex)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for a in range(self.d):
            for b in range(self.d):
                if A[a, b] != 0:
                    M += A[a, b] * (self._eps[a] @ self._eps[b].T)
        return M

    @lru_cache(maxsize=None)
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
        return self.hodge_star() @ np.diag(signs)

    def form_vector(self, k: int, coeffs) -> np.ndarray:
        """Embed degree-k coefficients (lex multi-index order) in the full algebra."""
        coeffs = np.asarray(coeffs, dtype=complex)
        off = self.degree_offset(k)
        v = np.zeros(self.dim, dtype=complex)
        v[off:off + len(coeffs)] = coeffs
        return v
