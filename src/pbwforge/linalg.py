"""Exact rational linear algebra.

Dense matrices over the rationals with deterministic Gaussian elimination
(first nonzero pivot in column order), canonical reduced-row-echelon
subspaces, the usual lattice operations, coordinates in a fixed basis,
and a sparse incremental echelon accumulator for large spanning sets.
The sparse echelon keeps its rows as primitive integer vectors and
eliminates fraction-free, so it never divides; only the dense
elimination runs on rationals.  Its stored rows are head-reduced: a new
row is eliminated down to its first free key, the pivot, and its tail
only by rows whose pivot entry is 1.  Dense row operations and subspace
residuals touch only the nonzero entries of the row they subtract, and
an intersection eliminates a kernel with one column per basis vector of
the first subspace, never a block over twice the ambient dimension.

Everything is exact: a rank, a membership bit, or a solution vector is a
theorem, not an approximation.  All values are immutable after
construction and all operations are pure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .rationals import ONE, ZERO, Q, rational

Vector = tuple  # tuple of rationals


def vector(entries: Iterable) -> Vector:
    return tuple(rational(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def dot(a: Sequence, b: Sequence) -> Q:
    return sum((x * y for x, y in zip(a, b) if x), ZERO)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of exact rationals."""

    data: tuple

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.data}
        if len(widths) > 1:
            raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "Matrix":
        return cls(tuple(vector(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(tuple((ZERO,) * cols for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def row(self, i: int) -> Vector:
        return self.data[i]

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.data))) if self.data else Matrix(())

    def mat_vec(self, v: Sequence) -> Vector:
        if self.data and len(v) != self.cols:
            raise ValueError(f"length {len(v)} vector against {self.cols} columns")
        return tuple(dot(row, v) for row in self.data)

    def __iter__(self):
        return iter(self.data)


def _eliminate(rows: list[list], col_limit: Optional[int] = None) -> list[int]:
    """In-place full reduction to RREF; returns pivot column indices.

    Pivoting is deterministic: first row with a nonzero entry, columns in
    order.  ``col_limit`` restricts pivot search (used for augmented
    systems); row operations always span the full width.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    limit = n_cols if col_limit is None else col_limit
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        src = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = ONE / rows[r][c]
        # only the nonzero entries of the pivot row take part in row operations
        support = [(j, x * inv) for j, x in enumerate(rows[r]) if x]
        for j, x in support:
            rows[r][j] = x
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f != 0:
                row = rows[i]
                for j, y in support:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form of ``m``, zero rows dropped."""
    rows = [list(row) for row in m.data]
    pivots = _eliminate(rows)
    return Matrix(tuple(tuple(row) for row in rows[: len(pivots)]))


def rank(m: Matrix) -> int:
    rows = [list(row) for row in m.data]
    return len(_eliminate(rows))


@dataclass(frozen=True)
class Subspace:
    """A subspace of a fixed coordinate space, in canonical RREF basis.

    The basis rows have strictly increasing pivot columns, unit pivots and
    zeros elsewhere in each pivot column, so two ``Subspace`` values are
    equal iff their representations are equal.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self) -> None:
        for row in self.basis.data:
            if len(row) != self.ambient_dim:
                raise ValueError("basis row length does not match ambient dimension")

    @classmethod
    def from_spanning(cls, vectors: Iterable[Iterable], ambient_dim: int) -> "Subspace":
        rows = [list(vector(v)) for v in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("spanning vector length does not match ambient dimension")
        pivots = _eliminate(rows)
        return cls(ambient_dim, Matrix(tuple(tuple(r) for r in rows[: len(pivots)])))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix(()))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x != 0) for row in self.basis.data)

    def reduce(self, v: Sequence) -> Vector:
        """Residual of ``v`` after elimination against the RREF basis.

        The residual is the canonical representative of ``v`` modulo this
        subspace (zero on all pivot columns); it is zero iff ``v`` lies in
        the subspace.
        """
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        res = list(v)
        for p, support in self._sparse_rows:
            f = res[p]
            if f != 0:
                for j, y in support:
                    res[j] -= f * y
        return tuple(res)

    @cached_property
    def _sparse_rows(self) -> tuple:
        """(pivot, nonzero (index, entry) pairs) of each basis row."""
        return tuple(
            (p, tuple((j, y) for j, y in enumerate(row) if y))
            for row, p in zip(self.basis.data, self.pivot_columns())
        )

    def contains(self, v: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_spanning(
            list(self.basis.data) + list(other.basis.data), self.ambient_dim
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection as the combinations of this basis that ``other`` absorbs.

        With a_i this basis, A cap B = {sum c_i a_i : sum c_i
        other.reduce(a_i) = 0}, because the residual is linear and zero
        exactly on B.  So the only elimination is a kernel with dim A
        columns, over the coordinates where some residual is nonzero.
        """
        self._check_ambient(other)
        residuals = [other.reduce(a) for a in self.basis.data]
        rows = tuple(row for row in zip(*residuals) if any(row))
        if not rows:
            return self
        combos = []
        for coeffs in kernel(Matrix(rows)).basis.data:
            v = [ZERO] * self.ambient_dim
            for c, (_, support) in zip(coeffs, self._sparse_rows):
                if c:
                    for j, y in support:
                        v[j] += c * y
            combos.append(v)
        return Subspace.from_spanning(combos, self.ambient_dim)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )


def kernel(m: Matrix) -> Subspace:
    """Null space {v : M v = 0} as a canonical subspace of dimension cols - rank."""
    n = m.cols
    if m.rows == 0 or n == 0:
        return Subspace.full(n) if n else Subspace.zero(0)
    rows = [list(row) for row in m.data]
    return _null_space(rows, _eliminate(rows), n)


def _null_space(rows: list, pivots: list, n: int) -> Subspace:
    """Kernel of the first ``n`` columns of rows already in RREF there."""
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [ZERO] * n
        v[fc] = ONE
        for row, p in zip(rows, pivots):
            v[p] = -row[fc]
        basis.append(v)
    return Subspace.from_spanning(basis, n)


def inverse(m: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or ``None`` when singular."""
    n = m.rows
    if n != m.cols:
        raise ValueError("inverse of a non-square matrix")
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m.data)]
    pivots = _eliminate(aug, col_limit=n)
    if len(pivots) < n:
        return None
    return Matrix(tuple(tuple(row[n:]) for row in aug))


class AffineSolution(NamedTuple):
    particular: Vector
    homogeneous: Subspace


def solve_affine(m: Matrix, rhs: Sequence) -> Optional[AffineSolution]:
    """Full solution set of M x = rhs, or ``None`` when infeasible."""
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    n = m.cols
    aug = [list(row) + [rational(b)] for row, b in zip(m.data, rhs)]
    pivots = _eliminate(aug, col_limit=n)
    for row in aug[len(pivots):]:
        if row[n] != 0:
            return None
    x = [ZERO] * n
    for row, p in zip(aug, pivots):
        x[p] = row[n]
    # the first n columns of the eliminated rows are RREF(m)
    return AffineSolution(tuple(x), _null_space(aug, pivots, n))


class BasisCoordinates:
    """Coordinates in a fixed ordered basis of independent vectors.

    The basis is eliminated once, on construction: ``span`` is the
    canonical subspace it spans.  With P the pivot columns of ``span``,
    v = sum c_i b_i restricts to v_P = S c, where S[j][i] is entry P_j of
    b_i, and S is invertible; so each ``coordinates`` call is a
    membership test and one k x k product, with no elimination.
    """

    def __init__(self, vectors: Sequence[Sequence], ambient_dim: int):
        self.span = Subspace.from_spanning(vectors, ambient_dim)
        if self.span.dim != len(vectors):
            raise ValueError("basis vectors are linearly dependent")
        self._pivots = self.span.pivot_columns()
        restricted = Matrix.from_rows([[v[p] for v in vectors] for p in self._pivots])
        self._inverse = inverse(restricted)

    def coordinates(self, v: Sequence) -> Optional[Vector]:
        """The unique c with sum c_i b_i = v, or ``None`` when v is outside the span."""
        if not self.span.contains(v):
            return None
        return self._inverse.mat_vec(tuple(v[p] for p in self._pivots))


class SparseEchelon:
    """Incremental row-echelon accumulator over sparse rational vectors.

    Rows are dicts keyed by coordinate index under an arbitrary total
    order on keys.  Each stored row is a primitive integer row: its
    entries are Python ints with no common factor, and the entry at its
    pivot (its least key) is positive.  Elimination is fraction-free
    (cross-multiplying, after Bareiss, *Math. Comp.* 22 (1968)): an input
    has its denominators cleared once, and only integer products and
    ``math.gcd`` run in the inner loop, on either rational backend.

    Stored rows are head-reduced, not fully reduced: ``insert`` eliminates
    only until the least key of the row has no stored row, and that key
    is the new pivot.  Under a fixed key order the pivot set of any
    echelon basis depends only on the span, so the pivots and the rank
    are those of the reduced echelon form.  The rest of a new row is then
    reduced only by stored rows whose pivot entry is 1, a plain
    subtraction that never rescales the row.  ``reduce`` still eliminates
    every pivot key.  Built for large, very sparse spanning sets (ideal
    spans) where dense elimination would be wasteful.  Mutable, unlike
    the rest of this module; intended as a local accumulator.
    """

    def __init__(self) -> None:
        self.rows: dict = {}  # pivot key -> primitive {key: int}, row[pivot] > 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Eliminate every pivot key from ``vec``; returns the residual.

        The residual is an integer dict equal to the rational residual
        (``vec`` minus its combination of stored rows) up to a nonzero
        scalar factor; it is empty iff ``vec`` lies in the span.
        """
        v = _integer_row(vec)
        self._eliminate_pivots(v, full=True)
        return v

    def insert(self, vec: dict) -> bool:
        """Head-reduce and, if independent, add ``vec``; True iff rank grew."""
        v = _integer_row(vec)
        p = self._eliminate_pivots(v, full=False)
        if p is None:
            return False
        content = gcd(*v.values())
        if v[p] < 0:
            content = -content
        self.rows[p] = {k: c // content for k, c in v.items()} if content != 1 else v
        return True

    def extend(self, vectors: Iterable[dict]) -> None:
        for v in vectors:
            self.insert(v)

    def _eliminate_pivots(self, v: dict, full: bool):
        """Eliminate stored pivots from the integer row ``v`` in place, in
        increasing key order; returns the least key of ``v`` with no
        stored row (None when there is none).

        With ``full`` every pivot key is eliminated.  Without it, keys
        after that least free key are eliminated only by unit-pivot rows.
        """
        rows = self.rows
        heap = sorted(v)
        lead = None
        while heap:
            k = heapq.heappop(heap)
            c = v.get(k)
            if not c:
                continue
            row = rows.get(k)
            if row is None:
                if lead is None:
                    lead = k
                continue
            # v <- (a/g) v - (c/g) row cancels the key k, with a = row[k] > 0
            a = row[k]
            if a != 1:
                if lead is not None and not full:
                    continue
                g = gcd(a, c)
                if g != a:
                    scale = a // g
                    for vk in v:
                        v[vk] *= scale
                c //= g
            for rk, rc in row.items():
                nv = v.get(rk, 0) - c * rc
                if nv:
                    if rk not in v and rk > k:
                        heapq.heappush(heap, rk)
                    v[rk] = nv
                else:
                    v.pop(rk, None)
        return lead


def _integer_row(vec: dict) -> dict:
    """``vec`` without zeros, as integers: rational entries are scaled by
    the lcm of their denominators; int entries are kept as they are."""
    v = {k: c for k, c in vec.items() if c}
    if all(type(c) is int for c in v.values()):
        return v
    den = lcm(*(int(c.denominator) for c in v.values()))
    return {k: int(c.numerator) * (den // int(c.denominator)) for k, c in v.items()}
