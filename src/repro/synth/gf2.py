"""GF(2) linear algebra for linear reversible functions (paper Section 4.3).

The paper calls a reversible function *linear* when it is computable by
NOT and CNOT gates alone; equivalently, f(x) = A·x ⊕ c for an invertible
matrix A over GF(2) and a constant vector c (an *affine* map in linear-
algebra terms; we follow the paper's terminology and keep "linear" for
the class, with `is_strictly_linear` for the c = 0 case).

Matrices are stored as tuples of row bitmasks: row ``i`` is an integer
whose bit ``j`` is ``A[i][j]``; the map sends x to the vector whose bit
``i`` is ``parity(row_i & x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bitops import popcount
from repro.errors import InvalidPermutationError


@dataclass(frozen=True)
class AffineMap:
    """An affine map x -> A·x ⊕ c over GF(2)^n.

    Attributes:
        rows: Row bitmasks of A (length n).
        constant: The additive constant c as a bitmask.
    """

    rows: tuple[int, ...]
    constant: int

    @property
    def n(self) -> int:
        return len(self.rows)

    def apply(self, x: int) -> int:
        """Evaluate the map at a bit vector."""
        y = self.constant
        for i, row in enumerate(self.rows):
            y ^= (popcount(row & x) & 1) << i
        return y

    def to_word(self) -> int:
        """Packed-permutation encoding (requires A invertible)."""
        if not self.is_invertible():
            raise InvalidPermutationError("affine map is not invertible")
        word = 0
        for x in range(1 << self.n):
            word |= self.apply(x) << (4 * x)
        return word

    def is_invertible(self) -> bool:
        """True iff A has full rank over GF(2)."""
        return rank(list(self.rows)) == self.n

    def is_strictly_linear(self) -> bool:
        """True iff c = 0 (computable by CNOT gates alone)."""
        return self.constant == 0


def rank(rows: list[int]) -> int:
    """Rank of a GF(2) matrix given as row bitmasks (Gaussian elimination)."""
    rows = [r for r in rows]
    rank_count = 0
    for bit_pos in range(max((r.bit_length() for r in rows), default=0)):
        pivot = None
        for idx in range(rank_count, len(rows)):
            if (rows[idx] >> bit_pos) & 1:
                pivot = idx
                break
        if pivot is None:
            continue
        rows[rank_count], rows[pivot] = rows[pivot], rows[rank_count]
        for idx in range(len(rows)):
            if idx != rank_count and (rows[idx] >> bit_pos) & 1:
                rows[idx] ^= rows[rank_count]
        rank_count += 1
    return rank_count


def matrix_inverse(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of an invertible GF(2) matrix (Gauss-Jordan).

    Raises :class:`InvalidPermutationError` when singular.
    """
    n = len(rows)
    work = list(rows)
    inverse = [1 << i for i in range(n)]
    for col in range(n):
        pivot = None
        for idx in range(col, n):
            if (work[idx] >> col) & 1:
                pivot = idx
                break
        if pivot is None:
            raise InvalidPermutationError("matrix is singular over GF(2)")
        work[col], work[pivot] = work[pivot], work[col]
        inverse[col], inverse[pivot] = inverse[pivot], inverse[col]
        for idx in range(n):
            if idx != col and (work[idx] >> col) & 1:
                work[idx] ^= work[col]
                inverse[idx] ^= inverse[col]
    return tuple(inverse)


def matrix_multiply(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product A·B of GF(2) matrices in row-bitmask form."""
    n = len(a)
    # Column j of the product has bit i = parity(row_i(A) & col_j(B));
    # compute via B transposed.
    bt = transpose(b)
    return tuple(
        sum(((popcount(a[i] & bt[j]) & 1) << j) for j in range(n))
        for i in range(n)
    )


def transpose(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of a GF(2) matrix in row-bitmask form."""
    n = len(rows)
    return tuple(
        sum((((rows[i] >> j) & 1) << i) for i in range(n)) for j in range(n)
    )


def affine_from_permutation(perm) -> "AffineMap | None":
    """Recover the affine map realizing ``perm``, or None when not affine.

    ``perm`` is a :class:`repro.core.permutation.Permutation`.  The
    candidate is read off from f(0) and f(e_i); a full truth-table check
    confirms it.
    """
    n = perm.n_wires
    constant = perm(0)
    columns = [perm(1 << j) ^ constant for j in range(n)]
    rows = tuple(
        sum((((columns[j] >> i) & 1) << j) for j in range(n)) for i in range(n)
    )
    candidate = AffineMap(rows=rows, constant=constant)
    for x in range(1 << n):
        if candidate.apply(x) != perm(x):
            return None
    return candidate


def is_affine_permutation(perm) -> bool:
    """True iff ``perm`` is computable with NOT and CNOT gates only."""
    return affine_from_permutation(perm) is not None


def is_linear_permutation(perm) -> bool:
    """True iff ``perm`` is computable with CNOT gates only (f(0) = 0)."""
    affine = affine_from_permutation(perm)
    return affine is not None and affine.is_strictly_linear()


def count_invertible_matrices(n: int) -> int:
    """|GL(n, 2)| = prod_{i=0}^{n-1} (2^n - 2^i).

    For n = 4 this is 20160; with the 16 translations it gives the paper's
    322,560 linear reversible functions.
    """
    total = 1
    for i in range(n):
        total *= (1 << n) - (1 << i)
    return total


def all_affine_words(n_wires: int) -> "list[int]":
    """Packed words of *all* affine reversible functions on ``n_wires``.

    Enumerates GL(n, 2) by extending partial bases (column by column) and
    crosses with all 2^n constants.  For n = 4: 322,560 words.
    """
    n = n_wires
    size = 1 << n
    matrices: list[tuple[int, ...]] = []

    def extend(columns: list[int], span: set[int]) -> None:
        if len(columns) == n:
            rows = tuple(
                sum((((columns[j] >> i) & 1) << j) for j in range(n))
                for i in range(n)
            )
            matrices.append(rows)
            return
        for candidate in range(1, size):
            if candidate in span:
                continue
            new_span = set(span)
            new_span.update(v ^ candidate for v in span)
            new_span.add(candidate)
            extend(columns + [candidate], new_span)

    extend([], {0})
    words = []
    for rows in matrices:
        base = AffineMap(rows=rows, constant=0)
        values = [base.apply(x) for x in range(size)]
        for constant in range(size):
            word = 0
            for x, v in enumerate(values):
                word |= (v ^ constant) << (4 * x)
            words.append(word)
    return words
