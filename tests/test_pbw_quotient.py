"""Enveloping algebra normal forms, the twisted quotient, and the corrected
symmetrization map.  Key oracles: the commutator of degree-one elements must
equal the bracket (the defining relation), every multiple of a shifted
generator must die in the quotient, and the correction constant for the
quadratic invariant on the swap pair is recomputed here with a hand-rolled
derivative pairing."""

import itertools
import random
from fractions import Fraction as Q

import pytest

from sympair.errors import NotInvariant
from sympair.pbw_quotient import (
    PBWElement,
    QuotientClass,
    beta_class,
    class_k_action,
    class_multiply,
    commutativity_check,
    element_to_pbw,
    invariant_class_basis,
    invariant_class_filtered_dims,
    is_invariant_class,
    pbw_context,
    pbw_multiply,
    poly_to_pbw,
    reduce_mod_ideal,
    rouviere,
    symmetrize,
    verify_rouviere_homomorphism,
)
from sympair.pairs import delta_character
from sympair.poly_series import MultiPoly, invariants_up_to_degree, j_half


def rand_vector(rng, n):
    return tuple(Q(rng.randint(-3, 3)) for _ in range(n))


def rand_pbw(rng, ctx, max_letters=2, nwords=3):
    out = PBWElement.zero(ctx)
    for _ in range(nwords):
        word = tuple(
            rng.randrange(ctx.m + ctx.n) for _ in range(rng.randint(0, max_letters))
        )
        acc = PBWElement.one(ctx)
        for t in word:
            acc = acc * PBWElement.generator(ctx, t)
        out = out + acc.scale(Q(rng.randint(-2, 2)))
    return out


def ideal_generator(pair, t):
    """The shifted generator X_t - delta(X_t) as a PBW element."""
    ctx = pbw_context(pair)
    delta = delta_character(pair)
    return PBWElement.generator(ctx, ctx.m + t) - PBWElement.one(ctx).scale(delta[t])


# ------------------------------------------------------------ normal form

def test_context_layout(cot_aff1):
    ctx = pbw_context(cot_aff1)
    assert ctx.m == 2 and ctx.n == 2
    assert ctx.delta == (Q(-1, 2), Q(0))


def test_straightening_frozen_example(cot_aff1):
    ctx = pbw_context(cot_aff1)
    e1 = PBWElement.generator(ctx, 2)
    f2 = PBWElement.generator(ctx, 1)
    # moving the k generator past the p generator picks up [e1, e2*] = -e2*
    assert (e1 * f2).terms == {(0, 1, 0, 0): Q(-1), (0, 1, 1, 0): Q(1)}
    assert (f2 * e1).terms == {(0, 1, 1, 0): Q(1)}


def test_degree_one_commutators_realize_brackets(pairs):
    rng = random.Random(22)
    for pair in pairs.values():
        for _ in range(8):
            x = rand_vector(rng, pair.g.dim)
            y = rand_vector(rng, pair.g.dim)
            ux, uy = element_to_pbw(pair, x), element_to_pbw(pair, y)
            commutator = pbw_multiply(ux, uy) - pbw_multiply(uy, ux)
            assert commutator == element_to_pbw(pair, pair.g.bracket(x, y))


def test_pbw_multiplication_is_associative(pairs):
    rng = random.Random(23)
    for name in ("cotangent:aff1", "swap:sl2"):
        ctx = pbw_context(pairs[name])
        for _ in range(6):
            u = rand_pbw(rng, ctx)
            v = rand_pbw(rng, ctx)
            w = rand_pbw(rng, ctx)
            assert (u * v) * w == u * (v * w)


def test_pbw_scalars_and_degree(cot_aff1):
    ctx = pbw_context(cot_aff1)
    u = PBWElement.generator(ctx, 0)
    assert (u + u).terms == {(1, 0, 0, 0): Q(2)}
    assert u.scale(Q(0)).is_zero()
    assert (u * u * u).degree == 3
    assert PBWElement.one(ctx).degree == 0


# ---------------------------------------------------------------- quotient

def test_reduce_frozen_examples(cot_aff1):
    ctx = pbw_context(cot_aff1)
    e1 = PBWElement.generator(ctx, 2)
    cls = reduce_mod_ideal(cot_aff1, e1)
    assert cls.rep == MultiPoly.constant(2, Q(-1, 2))
    f1e1 = PBWElement.generator(ctx, 0) * e1
    cls2 = reduce_mod_ideal(cot_aff1, f1e1)
    assert cls2.rep == MultiPoly.variable(2, 0).scale(Q(-1, 2))


def test_ideal_annihilation(pairs):
    rng = random.Random(24)
    for pair in pairs.values():
        ctx = pbw_context(pair)
        for t in range(ctx.n):
            gen = ideal_generator(pair, t)
            for _ in range(10):
                u = rand_pbw(rng, ctx)
                assert reduce_mod_ideal(pair, pbw_multiply(u, gen)).is_zero()


def test_representative_independence_of_products(pairs):
    rng = random.Random(25)
    for pair in pairs.values():
        ctx = pbw_context(pair)
        classes = invariant_class_basis(pair, 3)
        for _ in range(6):
            a = classes[rng.randrange(len(classes))]
            b = classes[rng.randrange(len(classes))]
            expected = class_multiply(pair, a, b)
            w = rand_pbw(rng, ctx, max_letters=1)
            noise = pbw_multiply(w, ideal_generator(pair, rng.randrange(ctx.n)))
            # perturb either factor's lift by a left multiple of a generator
            lifted_a = poly_to_pbw(pair, a.rep) + noise
            got = reduce_mod_ideal(
                pair, pbw_multiply(lifted_a, poly_to_pbw(pair, b.rep))
            )
            assert got == expected
            lifted_b = poly_to_pbw(pair, b.rep) + noise
            got2 = reduce_mod_ideal(
                pair, pbw_multiply(poly_to_pbw(pair, a.rep), lifted_b)
            )
            assert got2 == expected


# ------------------------------------------------------------ symmetrization

def test_symmetrize_low_degree(cot_aff1):
    ctx = pbw_context(cot_aff1)
    one = MultiPoly.constant(2, 1)
    assert symmetrize(cot_aff1, one) == PBWElement.one(ctx)
    y1 = MultiPoly.variable(2, 0)
    assert symmetrize(cot_aff1, y1) == PBWElement.generator(ctx, 0)
    sq = symmetrize(cot_aff1, y1 * y1)
    assert sq.terms == {(2, 0, 0, 0): Q(1)}


def brute_force_symmetrize(pair, poly):
    """Average of each monomial over all d! orderings of its letters, every
    ordering multiplied out from the generators."""
    ctx = pbw_context(pair)
    out = PBWElement.zero(ctx)
    for exp, c in poly.terms.items():
        letters = [t for t, e in enumerate(exp) for _ in range(e)]
        orderings = list(itertools.permutations(letters))
        for order in orderings:
            prod = PBWElement.one(ctx)
            for t in order:
                prod = pbw_multiply(prod, PBWElement.generator(ctx, t))
            out = out + prod.scale(c / len(orderings))
    return out


def test_symmetrize_matches_average_over_orderings(pairs):
    rng = random.Random(26)
    for pair in pairs.values():
        m = pair.p_dim
        for _ in range(3):
            poly = MultiPoly(m)
            for _ in range(3):
                exp = [0] * m
                for _ in range(rng.randint(0, 4)):
                    exp[rng.randrange(m)] += 1
                poly = poly + MultiPoly.monomial(exp, rng.randint(1, 5))
            assert symmetrize(pair, poly) == brute_force_symmetrize(pair, poly)


def test_symmetrize_frozen_swap_example(swap_sl2):
    y1 = MultiPoly.variable(3, 0)
    y2 = MultiPoly.variable(3, 1)
    sym = symmetrize(swap_sl2, y1 * y2)
    assert sym.terms == {
        (1, 1, 0, 0, 0, 0): Q(1),
        (0, 0, 0, 0, 1, 0): Q(-1),
    }


def test_class_action_frozen_example(cot_aff1):
    e1 = cot_aff1.g.basis_vector(0)
    y2 = QuotientClass(cot_aff1, MultiPoly.variable(2, 1))
    acted = class_k_action(cot_aff1, e1, y2)
    assert acted.rep == -MultiPoly.variable(2, 1)
    y1 = QuotientClass(cot_aff1, MultiPoly.variable(2, 0))
    assert is_invariant_class(cot_aff1, y1)
    assert not is_invariant_class(cot_aff1, y2)
    with pytest.raises(ValueError):
        class_k_action(cot_aff1, cot_aff1.g.basis_vector(2), y1)


def test_class_multiply_requires_invariance(swap_sl2):
    y1 = QuotientClass(swap_sl2, MultiPoly.variable(3, 0))
    assert not is_invariant_class(swap_sl2, y1)
    with pytest.raises(NotInvariant):
        class_multiply(swap_sl2, y1, y1)


def test_class_multiply_on_polynomial_invariants(cot_aff1):
    y1 = MultiPoly.variable(2, 0)
    a = QuotientClass(cot_aff1, y1)
    prod = class_multiply(cot_aff1, a, a)
    assert prod.rep == y1 * y1


# ------------------------------------------------------------ corrected map

def cc_pairing_oracle(series_terms, poly):
    """Independent constant-coefficient pairing with falling factorials."""
    acc = {}
    for sexp, sc in series_terms.items():
        for pexp, pc in poly.terms.items():
            if any(s > p for s, p in zip(sexp, pexp)):
                continue
            coeff = sc * pc
            out = []
            for s, p in zip(sexp, pexp):
                for i in range(s):
                    coeff *= p - i
                out.append(p - s)
            key = tuple(out)
            acc[key] = acc.get(key, Q(0)) + coeff
    return MultiPoly(poly.nvars, {k: v for k, v in acc.items() if v != 0})


def swap_casimir():
    y = [MultiPoly.variable(3, j) for j in range(3)]
    return y[0] * y[0] + 4 * (y[1] * y[2])


def test_rouviere_correction_constant_oracle(swap_sl2):
    cas = swap_casimir()
    corrected = cc_pairing_oracle(j_half(swap_sl2, 2).terms, cas)
    assert corrected == cas + MultiPoly.constant(3, 4)
    image = rouviere(swap_sl2, cas)
    expected = beta_class(swap_sl2, cas) + QuotientClass(
        swap_sl2, MultiPoly.constant(3, 4)
    )
    assert image == expected


def test_rouviere_equals_symmetrization_on_cotangent(cot_heis3):
    for p in invariants_up_to_degree(cot_heis3, 3):
        assert rouviere(cot_heis3, p) == beta_class(cot_heis3, p)


def test_rouviere_rejects_non_invariants(swap_sl2):
    with pytest.raises(NotInvariant):
        rouviere(swap_sl2, MultiPoly.variable(3, 0))


def test_homomorphism_reports_pass_at_degree_four(pairs):
    for name, pair in pairs.items():
        report = verify_rouviere_homomorphism(pair, 4)
        assert report.passed, (name, report.as_dict())
        assert report.defects == []
        assert report.injective and report.images_invariant
        for _, npolys, nclasses in report.graded:
            assert npolys == nclasses


def test_uncorrected_map_fails_on_swap(swap_sl2):
    report = verify_rouviere_homomorphism(swap_sl2, 4)
    assert len(report.beta_defects) == 1
    i, j, defect = report.beta_defects[0]
    assert (i, j) == (1, 1)
    assert defect.terms == {(2, 0, 0): Q(16, 3), (0, 1, 1): Q(64, 3)}
    # the defect is itself a multiple of the quadratic invariant
    assert defect == swap_casimir().scale(Q(16, 3))


def test_uncorrected_map_is_fine_on_cotangent(cot_heis3):
    report = verify_rouviere_homomorphism(cot_heis3, 4)
    assert report.beta_defects == []


def test_commutativity_reports(pairs):
    for name, pair in pairs.items():
        report = commutativity_check(pair, 4)
        assert report.passed, name
        assert report.defects == []
    assert commutativity_check(pairs["cotangent:heis3"], 4).basis_size == 15
    assert commutativity_check(pairs["swap:sl2"], 4).basis_size == 3


def test_filtered_class_dimensions(pairs):
    dims = invariant_class_filtered_dims(pairs["cotangent:abelian2"], 4)
    assert dims == [1, 3, 6, 10, 15]
    dims2 = invariant_class_filtered_dims(pairs["swap:sl2"], 4)
    assert dims2 == [1, 1, 2, 2, 3]
    assert invariant_class_filtered_dims(pairs["cotangent:heis3"], 6) == [
        1, 3, 6, 10, 15, 21, 28]
    assert invariant_class_filtered_dims(pairs["swap:sl2"], 6) == [
        1, 1, 2, 2, 3, 3, 4]
    assert invariant_class_filtered_dims(pairs["cotangent:sl2"], 4) == [
        1, 1, 2, 2, 3]


def test_invariant_class_basis_is_filtration_adapted(pairs):
    degrees = [c.rep.degree for c in invariant_class_basis(pairs["swap:sl2"], 6)]
    assert degrees == [0, 2, 4, 6]
    # so the commutativity check multiplies non-constant classes
    assert commutativity_check(pairs["swap:sl2"], 6).passed
    for pair in pairs.values():
        degrees = [c.rep.degree for c in invariant_class_basis(pair, 4)]
        assert degrees == sorted(degrees)
        assert invariant_class_filtered_dims(pair, 4) == [
            sum(1 for d in degrees if d <= e) for e in range(5)]


def test_invariant_class_basis_is_invariant(pairs):
    for pair in pairs.values():
        for cls in invariant_class_basis(pair, 3):
            assert is_invariant_class(pair, cls)
