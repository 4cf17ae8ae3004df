"""Super Yang-Mills algebras and their currents.

Same cubic machinery as the Yang-Mills side with the anti-cyclic
relation tensor; equivalently, the quadratic element g^{lam mu} S_lam
S_mu is central.  The regular current family here is parametrized by a
covector b and an antisymmetric 2-tensor only.  No Z2-graded sign
calculus is involved: the relations are ordinary tensors, "super" is
nomenclature.  The half-integer shifts require characteristic != 2,
which the rational ground field guarantees.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .algebra import AlgebraPresentation, ideal_component
from .linalg import Subspace, rref_rows
from .rationals import HALF, ONE, ZERO, rational
from .tensors import TensorElement, anticommutator, commutator, filtered_terms, words
from .yang_mills import (
    Current,
    Metric,
    b_family_block,
    b_family_generators,
    build_cubic,
    current_to_deformation,
    overlap_identities,
    swap_sign_holds,
)


def sym_coefficients(metric: Metric) -> tuple:
    """The relation coefficient array Wt[rho][lam][mu][nu]."""
    n = metric.dim
    G = metric.g_inv.data
    return tuple(
        tuple(
            tuple(
                tuple(G[rho][lam] * G[mu][nu] - G[rho][nu] * G[lam][mu] for nu in range(n))
                for mu in range(n)
            )
            for lam in range(n)
        )
        for rho in range(n)
    )


def build_sym(s: int, metric: Metric) -> AlgebraPresentation:
    """The cubic super Yang-Mills presentation on s+1 generators."""
    return build_cubic(s, metric, sym_coefficients(metric))


def relations_from_mixed_brackets(metric: Metric) -> tuple:
    """The relations written as g^{lam mu} [{S_nu, S_lam}, S_mu], with the
    free index raised by the metric to match the distinguished basis.
    Expanding the mixed bracket in this order reproduces the coefficient
    array exactly; the opposite order gives its negative."""
    n = metric.dim
    G = metric.g_inv.data
    gens = [TensorElement.generator(n, i) for i in range(n)]
    lowered = []
    for nu in range(n):
        acc = TensorElement.zero(n)
        for lam in range(n):
            for mu in range(n):
                c = G[lam][mu]
                if c != 0:
                    acc = acc + commutator(anticommutator(gens[nu], gens[lam]), gens[mu]).scale(c)
        lowered.append(acc)
    out = []
    for rho in range(n):
        acc = TensorElement.zero(n)
        for nu in range(n):
            c = G[rho][nu]
            if c != 0:
                acc = acc + lowered[nu].scale(c)
        out.append(acc)
    return tuple(out)


class SuperIdentityReport(NamedTuple):
    anti_cyclic: bool          # Wt^{lam mu nu rho} = -Wt^{rho lam mu nu}
    two_sided_overlap: bool    # sum S_rho (x) Wt^rho = -sum Wt^rho (x) S_rho
    bracket_form: bool         # relations match the mixed-bracket expansion
    overlap_is_line: bool      # dim W_4 = 1, spanned by the two-sided element

    @property
    def all_pass(self) -> bool:
        return self.anti_cyclic and self.two_sided_overlap and self.bracket_form and self.overlap_is_line


def verify_super_identities(
    metric: Metric, coefficients=None, presentation=None
) -> SuperIdentityReport:
    """The super analogue of :func:`verify_identities`, with the same
    ``coefficients`` and ``presentation`` arguments."""
    n = metric.dim
    w = coefficients if coefficients is not None else sym_coefficients(metric)
    idx = range(n)
    anti_cyclic = all(
        w[l][m][nu][r] == -w[r][l][m][nu] for r in idx for l in idx for m in idx for nu in idx
    )
    basis, two_sided, overlap_ok = overlap_identities(w, -1, presentation)
    bracket_ok = basis == relations_from_mixed_brackets(metric) if coefficients is None else True
    return SuperIdentityReport(anti_cyclic, two_sided, bracket_ok, overlap_ok)


def quadratic_casimir(metric: Metric) -> TensorElement:
    """The quadratic element g^{lam mu} S_lam (x) S_mu."""
    n = metric.dim
    terms = {}
    G = metric.g_inv.data
    for lam in range(n):
        for mu in range(n):
            if G[lam][mu] != 0:
                terms[(lam, mu)] = G[lam][mu]
    return TensorElement.from_terms(n, terms)


def centrality_check(a: AlgebraPresentation, metric: Metric, n_max: int = 3) -> bool:
    """The commutators of the quadratic element with the generators span
    exactly R, and commutators with all monomials up to degree n_max land
    in the ideal."""
    n = a.dim_v
    q = quadratic_casimir(metric)
    gens = [TensorElement.generator(n, i) for i in range(n)]
    span = [commutator(q, g).to_degree_vector(3) for g in gens]
    if Subspace.from_spanning(span, n**3) != a.relation_space:
        return False
    for deg in range(4, n_max + 1):
        component = ideal_component(a, deg)
        for word in words(n, deg - 2):
            monomial = TensorElement.from_terms(n, {word: ONE})
            c = commutator(q, monomial)
            if not component.contains(c.to_degree_vector(deg)):
                return False
    return True


def super_current_from_parameters(b: Sequence, omega2, metric: Metric) -> Current:
    """The closed-form regular super current for parameters (b, omega2)."""
    n = metric.dim
    b = tuple(rational(x) for x in b)
    if not swap_sign_holds(omega2, n, 2, -1):
        raise ValueError("omega2 must be antisymmetric")
    j3 = b_family_block(b, metric, -1)
    j2 = tuple(tuple(rational(omega2[a][b_]) for b_ in range(n)) for a in range(n))
    # the scalar part contracts b against the *first* slot of omega2
    j1 = tuple(
        HALF * sum((rational(omega2[a][r]) * b[r] for r in range(n)), ZERO) for a in range(n)
    )
    return Current(j3, j2, j1)


def isym_family_generators(metric: Metric) -> list:
    """Generators of the regular super family's top block (the b-family
    only), flattened into stage-1 classifier coordinates."""
    return b_family_generators(metric, -1)


# A super current attaches its tails by the same relation-label convention.
super_current_to_deformation = current_to_deformation


class ShiftReport(NamedTuple):
    centrality_form_matches: bool  # the commutator rewriting spans P
    shifted_form_matches: bool     # the shifted-generator rewriting spans P

    @property
    def all_pass(self) -> bool:
        return self.centrality_form_matches and self.shifted_form_matches


def shifted_generator_check(
    b: Sequence, omega2, metric: Metric, shift=HALF
) -> ShiftReport:
    """Span-equality of the two rewritings of the deformed relations.

    The first rewriting keeps the original generators; the second absorbs
    b into shifted generators S - shift * b * 1 (the correct shift factor
    is one half; passing a wrong factor is the negative control).
    """
    n = metric.dim
    b = tuple(rational(x) for x in b)
    shift = rational(shift)
    G = metric.g_inv.data
    g = metric.g.data
    a = build_sym(n - 1, metric)
    current = super_current_from_parameters(b, omega2, metric)
    d = super_current_to_deformation(current, a)
    # each span as its canonical sparse RREF, keyed in the filtered order
    p_span = rref_rows(map(filtered_terms, d.deformed_relations()))

    q = quadratic_casimir(metric)
    gens = [TensorElement.generator(n, i) for i in range(n)]
    unit = TensorElement.unit(n)

    # first rewriting: [q, S_nu] - [g^{lam mu} b_lam S_mu, S_nu]
    #                  + omega^{lam rho} g_{rho nu} (S_lam - b_lam/2)
    b_vec = TensorElement.zero(n)
    for lam in range(n):
        for mu in range(n):
            c = G[lam][mu] * b[lam]
            if c != 0:
                b_vec = b_vec + gens[mu].scale(c)
    first = []
    for nu in range(n):
        rel = commutator(q, gens[nu]) - commutator(b_vec, gens[nu])
        for lam in range(n):
            for rho in range(n):
                c = rational(omega2[lam][rho]) * g[rho][nu]
                if c != 0:
                    rel = rel + (gens[lam] - unit.scale(HALF * b[lam])).scale(c)
        first.append(filtered_terms(rel))
    first_span = rref_rows(first)

    # second rewriting in the shifted generators
    shifted = [gens[lam] - unit.scale(shift * b[lam]) for lam in range(n)]
    q_hat = TensorElement.zero(n)
    for lam in range(n):
        for mu in range(n):
            if G[lam][mu] != 0:
                q_hat = q_hat + shifted[lam].tensor(shifted[mu]).scale(G[lam][mu])
    second = []
    for nu in range(n):
        rel = commutator(q_hat, shifted[nu])
        for tau in range(n):
            for rho in range(n):
                c = rational(omega2[tau][rho]) * g[rho][nu]
                if c != 0:
                    rel = rel + shifted[tau].scale(c)
        second.append(filtered_terms(rel))
    second_span = rref_rows(second)

    return ShiftReport(first_span == p_span, second_span == p_span)
