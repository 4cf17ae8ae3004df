"""Exact rational linear algebra.

Dense matrices over the rationals, canonical reduced-row-echelon
subspaces, the usual lattice operations, coordinates in a fixed basis,
and a sparse incremental echelon accumulator for large spanning sets.
Every operation runs one fraction-free elimination loop on primitive
integer rows, which never divides.  A head reduction stops at the row's
first free key, the pivot, and leaves the tail as it is.  The canonical
RREF behind ``Subspace``, ``kernel``, ``solve_affine`` and
``inverse`` comes from back-substitution of those head-reduced rows in
decreasing pivot order, then one division of each row by its pivot
entry; ``residual`` needs no RREF, only the loop's scale.
``BasisCoordinates`` eliminates its basis once and then finds each
vector's coordinates by an integer product and one exact comparison.  An
intersection eliminates a kernel with one column per basis vector of the
first subspace, never a block over twice the ambient dimension.

Everything is exact: a rank, a membership bit, or a solution vector is a
theorem, not an approximation.  All values are immutable after
construction and all operations are pure.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .rationals import ONE, ZERO, Q, rational, times

Vector = tuple  # tuple of rationals


def vector(entries: Iterable) -> Vector:
    return tuple(rational(e) for e in entries)


def dot(a: Sequence, b: Sequence) -> Q:
    return sum((x * y for x, y in zip(a, b) if x), ZERO)


class Frozen:
    """Base of the package's immutable records.

    A subclass's ``__init__`` sets each of its fields, named in
    ``_fields``, once with ``self._set(name, value)``, which is
    ``object.__setattr__``: the value lands in the instance dict, as a
    ``cached_property`` value does, and is read as fast as a plain
    attribute.  Assigning or deleting an attribute otherwise raises
    AttributeError.  Equality and hashing are by identity.
    """

    _fields: tuple = ()
    _set = object.__setattr__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class FrozenValue(Frozen):
    """A :class:`Frozen` record that compares and hashes by its fields."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class Matrix(FrozenValue):
    """Immutable dense matrix of exact rationals."""

    _fields = ("data",)

    def __init__(self, data: tuple) -> None:
        if len({len(row) for row in data}) > 1:
            raise ValueError("ragged rows")
        self._set("data", data)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "Matrix":
        return cls(tuple(vector(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def mat_vec(self, v: Sequence) -> Vector:
        if self.data and len(v) != self.cols:
            raise ValueError(f"length {len(v)} vector against {self.cols} columns")
        return tuple(dot(row, v) for row in self.data)

    def __iter__(self):
        return iter(self.data)


def _sparse(v: Sequence) -> dict:
    """The nonzero entries of a dense vector, keyed by column index."""
    return {j: x for j, x in enumerate(v) if x}


def _dense(row: dict, n: int) -> Vector:
    out = [ZERO] * n
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form of ``m``, zero rows dropped."""
    return Matrix(tuple(_dense(row, m.cols) for _, row in rref_rows(map(_sparse, m.data))))


def rank(m: Matrix) -> int:
    return len(rref_rows(map(_sparse, m.data)))


class Subspace(FrozenValue):
    """A subspace of a fixed coordinate space, in canonical RREF basis.

    The basis rows have strictly increasing pivot columns, unit pivots and
    zeros elsewhere in each pivot column, so two ``Subspace`` values are
    equal iff their representations are equal.
    """

    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix) -> None:
        for row in basis.data:
            if len(row) != ambient_dim:
                raise ValueError("basis row length does not match ambient dimension")
        self._set("ambient_dim", ambient_dim)
        self._set("basis", basis)

    @classmethod
    def from_spanning(cls, vectors: Iterable[Iterable], ambient_dim: int) -> "Subspace":
        rows = [vector(v) for v in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("spanning vector length does not match ambient dimension")
        return cls.from_sparse(map(_sparse, rows), ambient_dim)

    @classmethod
    def from_sparse(cls, rows: Iterable[dict], ambient_dim: int) -> "Subspace":
        """Span of sparse rows {column index < ambient_dim: rational}."""
        return cls(ambient_dim, Matrix(tuple(_dense(row, ambient_dim) for _, row in rref_rows(rows))))

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
        return _dense(reduce_rows(self._rows, _sparse(v)), self.ambient_dim)

    @cached_property
    def _rows(self) -> tuple:
        """The (pivot, nonzero entries) pairs of the basis rows."""
        return tuple(zip(self.pivot_columns(), map(_sparse, self.basis.data)))

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
            for c, (_, row) in zip(coeffs, self._rows):
                if c:
                    for j, y in row.items():
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
    return _null_space(rref_rows(map(_sparse, m.data)), n)


def _null_space(reduced: list, n: int) -> Subspace:
    """Kernel of the first ``n`` columns of the (pivot, row) pairs of an RREF
    whose pivots all lie below ``n``."""
    pivots = {p for p, _ in reduced}
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [ZERO] * n
        v[fc] = ONE
        for p, row in reduced:
            v[p] = -row.get(fc, ZERO)
        basis.append(v)
    return Subspace.from_spanning(basis, n)


def inverse(m: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or ``None`` when singular."""
    n = m.rows
    if n != m.cols:
        raise ValueError("inverse of a non-square matrix")
    # RREF of [M | I]: M is singular iff fewer than n pivots lie below column n
    reduced = rref_rows({**_sparse(row), n + i: ONE} for i, row in enumerate(m.data))
    if sum(p < n for p, _ in reduced) < n:
        return None
    return Matrix(tuple(tuple(row.get(n + j, ZERO) for j in range(n)) for _, row in reduced))


class AffineSolution(NamedTuple):
    particular: Vector
    homogeneous: Subspace


def solve_affine(m: Matrix, rhs: Sequence) -> Optional[AffineSolution]:
    """Full solution set of M x = rhs, or ``None`` when infeasible."""
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    n = m.cols
    reduced = rref_rows(_sparse((*row, rational(b))) for row, b in zip(m.data, rhs))
    # RREF of [M | rhs]: infeasible iff the rhs column n is a pivot
    if reduced and reduced[-1][0] == n:
        return None
    x = [ZERO] * n
    for p, row in reduced:
        x[p] = row.get(n, ZERO)
    return AffineSolution(tuple(x), _null_space(reduced, n))


class BasisCoordinates:
    """Coordinates in a fixed ordered basis of independent sparse vectors,
    computed in integers.

    On construction the basis b_k is cleared to integer rows B_k = L b_k
    over one lcm L (``rows``, ``lcm``).  With P the pivots of its span
    (those of any echelon form), v = sum c_k b_k restricts to v_P = S c,
    where S[j][k] is entry P_j of b_k, and S is invertible; its inverse is
    computed once and cleared to integers T = D S^-1 over one lcm D
    (``den``).  So for an integer vector v the only candidate coordinates
    are c = T v_P over D, and v = sum (c_k / D) b_k iff L D v = sum c_k
    B_k, one exact comparison on sparse ints (:meth:`integer_coordinates`).
    The rational :meth:`coordinates` divides that same result.
    """

    def __init__(self, vectors: Sequence[dict]):
        pivots = sorted(_head_reduced(vectors))
        if len(pivots) != len(vectors):
            raise ValueError("basis vectors are linearly dependent")
        self.lcm = lcm(*(int(c.denominator) for v in vectors for c in v.values()))
        self.rows = tuple({k: times(c, self.lcm) for k, c in v.items() if c} for v in vectors)
        inv = inverse(Matrix.from_rows([[v.get(p, ZERO) for v in vectors] for p in pivots])).data
        self.den = lcm(*(int(c.denominator) for row in inv for c in row))
        self._inverse_ints = tuple([(p, times(c, self.den)) for p, c in zip(pivots, row) if c] for row in inv)

    def integer_coordinates(self, v: dict) -> Optional[list]:
        """The ints c with sum (c_k / ``den``) b_k = v for the int dict v,
        or ``None`` when v is outside the span."""
        c = [sum(t * v.get(p, 0) for p, t in row) for row in self._inverse_ints]
        scale = self.lcm * self.den
        rest = {k: scale * x for k, x in v.items() if x}
        for ck, row in zip(c, self.rows):
            if ck:
                for k, x in row.items():
                    y = rest.get(k, 0) - ck * x
                    if y:
                        rest[k] = y
                    else:
                        del rest[k]
        return None if rest else c

    def coordinates(self, v: dict) -> Optional[Vector]:
        """The unique c with sum c_i b_i = v, or ``None`` when v is outside the span."""
        den = lcm(*(int(x.denominator) for x in v.values() if x))
        c = self.integer_coordinates({k: times(x, den) for k, x in v.items() if x})
        return None if c is None else tuple(Q(x, den * self.den) for x in c)


def reduce_rows(rows: Sequence, vec: dict) -> dict:
    """The canonical residual of the sparse ``vec`` modulo the span of the
    RREF (pivot, row) pairs ``rows``: no row has an entry at another's
    pivot, so one pass clears every pivot.  Empty iff ``vec`` is in the span.
    """
    res = dict(vec)
    for p, row in rows:
        f = res.get(p)
        if f:
            for k, y in row.items():
                res[k] = res.get(k, ZERO) - f * y
    return {k: x for k, x in res.items() if x}


class SparseEchelon:
    """Incremental row-echelon accumulator over sparse rational vectors.

    Rows are dicts keyed by coordinate index under an arbitrary total
    order on keys.  Each stored row is a primitive integer row: its
    entries are Python ints with no common factor, and the entry at its
    pivot (its least key) is positive.  ``insert`` and ``reduce`` run the
    module's one fraction-free elimination loop on these rows, the loop
    the dense operations also run.

    Stored rows are head-reduced, not fully reduced: ``insert`` eliminates
    only until the least key of the row has no stored row, and that key
    is the new pivot; the rest of the row is stored as it stands.  Under a
    fixed key order the pivot set of any echelon basis depends only on
    the span, so the pivots and the rank are those of the reduced echelon
    form.  ``reduce`` still eliminates every pivot key.  Built for large,
    very sparse spanning sets (ideal spans), where a dense matrix would be
    mostly zeros.  Mutable, unlike the rest of this module; intended as a
    local accumulator.
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
        scalar (:func:`residual` tracks it); empty iff ``vec`` is in the span.
        """
        v = _integer_row(vec)
        _eliminate_pivots(self.rows, v, full=True)
        return v

    def insert(self, vec: dict) -> bool:
        """Head-reduce and, if independent, add ``vec``; True iff rank grew."""
        v = _integer_row(vec)
        p = _eliminate_pivots(self.rows, v, full=False)
        if p is None:
            return False
        _store(self.rows, v, p)
        return True


def _eliminate_pivots(rows: dict, v: dict, full: bool):
    """Eliminate the pivots of ``rows`` (pivot key -> primitive integer
    row) from the integer row ``v`` in place, in increasing key order.

    Elimination is fraction-free (cross-multiplying, after Bareiss,
    *Math. Comp.* 22 (1968)): only integer products and ``math.gcd`` run
    here, on either rational backend.  With ``full`` every pivot key is
    eliminated and None is returned.  Without it the loop stops at the
    least key of ``v`` with no row and returns it (None when ``v``
    reduces to zero); the keys after it are left as they are.
    """
    heap = sorted(v)
    while heap:
        k = heapq.heappop(heap)
        c = v.get(k)
        if not c:
            continue
        row = rows.get(k)
        if row is None:
            if full:
                continue
            return k
        # v <- (a/g) v - (c/g) row cancels the key k, with a = row[k] > 0
        a = row[k]
        if a != 1:
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
    return None


def _store(rows: dict, v: dict, p) -> None:
    """Store the nonzero integer row ``v`` under its pivot ``p``, divided
    by its content and signed so that the pivot entry is positive."""
    content = gcd(*v.values())
    if v[p] < 0:
        content = -content
    rows[p] = {k: c // content for k, c in v.items()} if content != 1 else v


def rref_rows(vectors: Iterable[dict]) -> list:
    """Reduced row-echelon form of the span of sparse rows (keys under one
    total order), as (pivot, row) pairs in increasing pivot order: each row
    is a dict of rationals with entry 1 at its pivot and none at another.

    The rows are head-reduced into a local pivot dict, then
    back-substituted in decreasing pivot order, so each row is reduced
    only by rows that are already fully reduced, and last divided by its
    pivot entry.
    """
    rows = _head_reduced(vectors)
    reduced = []
    for p in sorted(rows, reverse=True):
        v = rows.pop(p)
        _eliminate_pivots(rows, v, full=True)
        _store(rows, v, p)
        a = rows[p][p]
        reduced.append((p, {k: Q(c, a) for k, c in rows[p].items()}))
    reduced.reverse()
    return reduced


def _head_reduced(vectors: Iterable[dict]) -> dict:
    """Pivot key -> primitive integer row of the head-reduced span of ``vectors``."""
    rows: dict = {}
    for vec in vectors:
        v = _integer_row(vec)
        p = _eliminate_pivots(rows, v, full=False)
        if p is not None:
            _store(rows, v, p)
    return rows


# a key after every other key, so never a pivot: the loop only rescales its entry
_LAST = type("Last", (), {"__lt__": lambda self, other: False, "__gt__": lambda self, other: True})()


def residual(vectors: Iterable[dict], vec: dict, den: int = 1) -> dict:
    """The canonical residual of vec / den (``vec`` an int dict) modulo
    the span of the sparse ``vectors``, with no RREF: the loop clears each
    pivot of the head-reduced vectors, scaling ``vec`` by s (at ``_LAST``),
    so over s den the result vanishes on every pivot and differs from
    vec / den by an element of the span, which makes it unique."""
    v = {k: c for k, c in vec.items() if c} | {_LAST: den}
    _eliminate_pivots(_head_reduced(vectors), v, full=True)
    den = v.pop(_LAST)
    return {k: Q(c, den) for k, c in v.items()}


def _integer_row(vec: dict) -> dict:
    """``vec`` without zeros, as integers: rational entries are scaled by
    the lcm of their denominators; int entries are kept as they are."""
    v = {k: c for k, c in vec.items() if c}
    if all(type(c) is int for c in v.values()):
        return v
    den = lcm(*(int(c.denominator) for c in v.values()))
    return {k: int(c.numerator) * (den // int(c.denominator)) for k, c in v.items()}
