"""Exact rational linear algebra on sparse rows.

A subspace (``Subspace``) is its canonical sparse rows: the reduced
row-echelon form of any spanning set, as (pivot, {column: rational})
pairs.  Its lattice operations, the solutions of a sparse system
(``solve_rows``), coordinates in a fixed basis (``BasisCoordinates``) and
an incremental echelon for large spanning sets (``SparseEchelon``) stay
on such rows.  ``Matrix`` is the dense edge: ``kernel``, ``solve_affine``,
``inverse``, ``rref`` and ``rank`` take one and ``Subspace.basis`` gives
one, each converting once around the same sparse core.

Every operation runs one fraction-free elimination loop on primitive
integer rows, which never divides and cancels the row's least key at
each step.  A head reduction stops at the first free key, the pivot,
and leaves the tail as it is.  The canonical RREF is back-substitution
of those head-reduced rows in decreasing pivot order, then one division
of each row by its pivot entry; ``residual`` needs only the loop's
scale.  A kernel is one elimination of M under reversed keys, whose
free-column vectors are the kernel's canonical rows (``solve_rows``
proves it); an affine solution adds the forward RREF of [M | rhs] and
sets the free columns to 0.  An intersection eliminates a kernel with
one column per row of the first subspace, never a block over twice the
ambient dimension.

Everything is exact: a rank, a membership bit, or a solution vector is a
theorem, not an approximation.  All values are immutable after
construction and all operations are pure.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .rationals import ONE, ZERO, Q, rational, times

Vector = tuple  # tuple of rationals


def vector(entries: Iterable) -> Vector:
    return tuple(rational(e) for e in entries)


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
    """A subspace of a fixed coordinate space, as its canonical sparse rows.

    ``rows`` are the (pivot, row) pairs of :func:`rref_rows`: strictly
    increasing pivots, each row a dict {column < ambient_dim: rational}
    with entry 1 at its pivot and none at another row's pivot.  That form
    is unique, so two ``Subspace`` values are equal iff their rows are
    equal.  ``basis`` is the same rows as a dense :class:`Matrix`, built
    only when read: the dense edge for callers that want dense vectors.
    """

    _fields = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: tuple) -> None:
        for _, row in rows:
            if not all(0 <= k < ambient_dim for k in row):
                raise ValueError("basis row length does not match ambient dimension")
        self._set("ambient_dim", ambient_dim)
        self._set("rows", rows)

    def __hash__(self):
        return hash((self.ambient_dim, tuple((p, frozenset(row.items())) for p, row in self.rows)))

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
        return cls(ambient_dim, tuple(rref_rows(rows)))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple((j, {j: ONE}) for j in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> Matrix:
        """The rows as a dense matrix."""
        return Matrix(tuple(_dense(row, self.ambient_dim) for _, row in self.rows))

    def reduce(self, v: Sequence) -> Vector:
        """Residual of the dense ``v`` after elimination against the rows.

        The residual is the canonical representative of ``v`` modulo this
        subspace (zero on all pivot columns); it is zero iff ``v`` lies in
        the subspace.
        """
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return _dense(reduce_rows(self.rows, _sparse(v)), self.ambient_dim)

    def contains(self, v: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_sparse([row for _, row in self.rows + other.rows], self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection as the combinations of these rows that ``other`` absorbs.

        With a_i these rows, A cap B = {sum c_i a_i : sum c_i
        other's residual of a_i = 0}, because the residual is linear and
        zero exactly on B.  So the only elimination is a kernel with dim A
        columns, one sparse equation per key where some residual is nonzero.
        """
        self._check_ambient(other)
        equations: dict = {}
        for i, (_, a) in enumerate(self.rows):
            for k, x in reduce_rows(other.rows, a).items():
                equations.setdefault(k, {})[i] = x
        if not equations:
            return self
        combos = []
        # each kernel row scaled by its den: the same span, in int coefficients
        for _, c, _ in kernel_rows(equations.values(), self.dim):
            v: dict = {}
            for i, ci in c.items():
                for k, y in self.rows[i][1].items():
                    v[k] = v.get(k, ZERO) + ci * y
            combos.append(v)
        return Subspace.from_sparse(combos, self.ambient_dim)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )


def kernel(m: Matrix) -> Subspace:
    """Null space {v : M v = 0} as a canonical subspace of dimension cols - rank."""
    return solve_rows(map(_sparse, m.data), m.cols)[1]


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
    sol = solve_rows((_sparse((*row, rational(b))) for row, b in zip(m.data, rhs)), m.cols)
    return None if sol is None else AffineSolution(_dense(sol[0], m.cols), sol[1])


def solve_rows(rows: Iterable[dict], n: int) -> Optional[tuple]:
    """Solutions of the sparse system whose rows hold the coefficients of
    x_0..x_(n-1) at keys below ``n`` and the right-hand side, if any, at
    key n: (a particular solution {column: rational}, the homogeneous
    :class:`Subspace`), or ``None`` when infeasible.

    The homogeneous rows take one elimination (:func:`kernel_rows`): in
    least-key order, the canonical RREF of ker M is the free-column basis
    of the RREF of M under reversed keys (k -> n-1-k), where each row's
    pivot is its greatest column.  Proof: for a free column f of that
    RREF, v_f = e_f - sum of row[f] e_p over its rows (pivot p) lies in
    the kernel, and the v_f span it.  A row has entries only before its
    pivot and at no other pivot, so v_f is 0 before f and at every other
    free column: the v_f are the kernel's RREF, with the free columns as
    pivots.  Only a system with a nonzero right-hand side is also reduced
    forward: it is infeasible iff key n is a pivot of the RREF of
    [M | rhs], and the particular solution is the one that RREF gives,
    with every free column of M in least-key order set to 0.
    """
    rows = list(rows)
    particular = {}
    if any(row.get(n) for row in rows):
        reduced = rref_rows(rows)
        if reduced[-1][0] == n:
            return None
        particular = {p: row[n] for p, row in reduced if n in row}
    kernel = tuple((f, {k: Q(c, den) for k, c in row.items()}) for f, row, den in kernel_rows(rows, n))
    return particular, Subspace(n, kernel)


def kernel_rows(rows: Iterable[dict], n: int) -> list:
    """The canonical rows of {x : M x = 0}, for the sparse rows of M (keys
    below ``n``; a key n is ignored), as (pivot, {column: int}, den)
    triples in increasing pivot order: row / den has entry 1 at its pivot
    and none at another row's pivot.  They are the free-column vectors of
    the RREF of M under reversed keys (see :func:`solve_rows`).
    """
    last = n - 1
    reduced = list(_back_substituted(_head_reduced({last - k: c for k, c in row.items() if k < n} for row in rows)))
    pivots = {last - p for p, _ in reduced}
    entries = {f: [] for f in range(n) if f not in pivots}
    for p, row in reduced:
        a = row[p]
        for k, c in row.items():
            if k != p:
                entries[last - k].append((last - p, c, a))
    kernel = []
    for f, terms in entries.items():
        den = lcm(*(a for _, _, a in terms))
        kernel.append((f, {f: den, **{q: -c * (den // a) for q, c, a in terms}}, den))
    return kernel


class BasisCoordinates:
    """Coordinates in a fixed ordered basis of independent sparse vectors,
    computed in integers.

    On construction the basis b_k is cleared to integer rows B_k = L b_k
    over one lcm L (``rows``, ``lcm``).  With P the pivots of its span
    (those of any echelon form), v = sum c_k b_k restricts to v_P = S c,
    where S[j][k] is entry P_j of b_k, and S is invertible; its inverse is
    computed once and cleared to integers T = D S^-1 over one lcm D
    (``den``).  So for an integer vector v the only candidate coordinates
    are c = T v_P over D, and :meth:`integer_coordinates` returns them with
    rest = L D v - sum c_k B_k, linear in v and with no key in P (there
    sum c_k B_k = L S T v_P = L D v_P): L D times the canonical residual
    of v, empty iff v lies in the span.  :meth:`coordinates` divides it.
    """

    def __init__(self, vectors: Sequence[dict]):
        pivots = sorted(_head_reduced(vectors))
        if len(pivots) != len(vectors):
            raise ValueError("basis vectors are linearly dependent")
        self.lcm = lcm(*(c.denominator for v in vectors for c in v.values()))
        self.rows = tuple({k: times(c, self.lcm) for k, c in v.items() if c} for v in vectors)
        inv = inverse(Matrix.from_rows([[v.get(p, ZERO) for v in vectors] for p in pivots])).data
        self.den = lcm(*(c.denominator for row in inv for c in row))
        self._inverse_ints = tuple([(p, times(c, self.den)) for p, c in zip(pivots, row) if c] for row in inv)

    def integer_coordinates(self, v: dict) -> tuple:
        """(c, rest) for the int dict v: the ints c of the only candidate
        sum (c_k / ``den``) b_k, and rest = ``lcm`` ``den`` v - sum c_k B_k,
        an int dict with no zeros, empty iff v is that combination."""
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
        return c, rest

    def coordinates(self, v: dict) -> Optional[Vector]:
        """The unique c with sum c_i b_i = v, or ``None`` when v is outside the span."""
        den = lcm(*(x.denominator for x in v.values() if x))
        c, rest = self.integer_coordinates({k: times(x, den) for k, x in v.items() if x})
        return None if rest else tuple(Q(x, den * self.den) for x in c)


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
    form.  ``reduce`` still eliminates every pivot key.  A stored row may
    be a read-only mapping view with an ``as_dict()`` method (a left shift
    of the ideal builders), replaced by that dict on first use.  Built for
    large, very sparse spanning sets (ideal spans), where a dense matrix
    would be mostly zeros.  Mutable, unlike the rest of this module;
    intended as a local accumulator.
    """

    def __init__(self) -> None:
        self.rows: dict = {}  # pivot key -> primitive {key: int} or a view, row[pivot] > 0

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
    row) from the int row ``v`` with no zeros, in place, by increasing key.

    Elimination is fraction-free (cross-multiplying, after Bareiss,
    *Math. Comp.* 22 (1968)): only integer products and ``math.gcd`` run
    here.  With ``full`` every pivot key is eliminated (a key with no row
    is set aside, scaled with ``v``) and None is returned.  Without it the
    loop stops at the least key of ``v`` with no row and returns it (None
    when ``v`` reduces to zero); the keys after it are left as they are.
    A view row becomes its ``as_dict()``.
    """
    free = {}
    get = v.get
    while v:
        k = min(v)
        row = rows.get(k)
        if row is None:
            if not full:
                return k
            free[k] = v.pop(k)
            continue
        if row.__class__ is not dict:
            rows[k] = row = row.as_dict()
        # v <- (a/g) v - (c/g) row cancels the key k, with a = row[k] > 0
        a, c = row[k], v[k]
        if a != 1:
            g = gcd(a, c)
            if g != a:
                scale = a // g
                for vk in v:
                    v[vk] *= scale
                for fk in free:
                    free[fk] *= scale
            c //= g
        for rk, rc in row.items():
            nv = get(rk, 0) - c * rc
            if nv:
                v[rk] = nv
            else:  # only an entry of v cancels
                del v[rk]
    v.update(free)
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

    The rows are head-reduced into a local pivot dict, back-substituted
    (:func:`_back_substituted`) and each divided by its pivot entry.
    """
    reduced = [(p, {k: Q(c, row[p]) for k, c in row.items()}) for p, row in _back_substituted(_head_reduced(vectors))]
    reduced.reverse()
    return reduced


def _back_substituted(rows: dict):
    """Yield (pivot, primitive integer row) for the head-reduced ``rows``
    (pivot key -> primitive integer row) in decreasing pivot order, each
    fully reduced: it is reduced only by rows that already are, and
    stored back under its pivot."""
    for p in sorted(rows, reverse=True):
        v = rows.pop(p)
        _eliminate_pivots(rows, v, full=True)
        _store(rows, v, p)
        yield p, rows[p]


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
    if set(map(type, v.values())) <= {int}:
        return v
    den = lcm(*(c.denominator for c in v.values()))
    return {k: times(c, den) for k, c in v.items()}
