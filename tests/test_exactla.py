"""Exact linear algebra kernel: independent oracles for determinant-based
characteristic polynomials, root finding, and the Jordan decomposition."""

import random
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympair.errors import NonRationalSpectrum
from sympair.exactla import (
    Mat,
    UniPoly,
    charpoly,
    echelon_basis,
    in_span,
    intersect_spans,
    jordan_chevalley,
    kernel,
    minpoly,
    poly_xgcd,
    rank,
    rational_roots,
    rref,
    solve,
    sum_spans,
    vec_is_zero,
)


# ---------------------------------------------------------------- oracles

def det_oracle(rows):
    """Cofactor expansion along the first row; entries are any ring scalars
    supporting +, *, and unary -."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [list(r[:j]) + list(r[j + 1:]) for r in rows[1:]]
        term = rows[0][j] * det_oracle(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def pt_trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def pt_add(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (Q(0),) * (n - len(a))
    b = tuple(b) + (Q(0),) * (n - len(b))
    return pt_trim(x + y for x, y in zip(a, b))


def pt_mul(a, b):
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return pt_trim(out)


class PolyTuple:
    """Tiny wrapper so det_oracle can run over polynomial entries without
    touching the package's own UniPoly arithmetic."""

    def __init__(self, coeffs):
        self.coeffs = pt_trim(coeffs)

    def __add__(self, other):
        return PolyTuple(pt_add(self.coeffs, other.coeffs))

    def __mul__(self, other):
        return PolyTuple(pt_mul(self.coeffs, other.coeffs))

    def __neg__(self):
        return PolyTuple(tuple(-c for c in self.coeffs))


def charpoly_oracle(m):
    """det(t I - m) expanded by cofactors with hand-rolled tuple polys."""
    n = m.rows
    if n == 0:
        return (Q(1),)
    rows = [
        [
            PolyTuple((-m.entries[i][j], Q(1)) if i == j else (-m.entries[i][j],))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det_oracle(rows).coeffs


def rand_mat(rng, n, lo=-5, hi=5, dens=3):
    return Mat(
        [
            [Q(rng.randint(lo, hi), rng.choice((1, 1, 2, dens))) for _ in range(n)]
            for _ in range(n)
        ]
    )


def rref_oracle(m):
    """Gauss-Jordan over Fraction: scale each pivot row to a leading 1 and
    clear its column in every other row."""
    rows = [list(r) for r in m.entries]
    nr, nc = len(rows), m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Mat(rows), tuple(pivots)


def rand_rational(rng, density=1.0):
    if rng.random() >= density:
        return Q(0)
    return Q(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12, 97)))


# -------------------------------------------------------------- charpoly

def test_charpoly_matches_cofactor_oracle():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rand_mat(rng, n)
        assert charpoly(m).coeffs == charpoly_oracle(m)
    for n in (0, 6, 6, 6, 4, 3):
        m = rand_mat(rng, n, lo=-97, hi=97, dens=rng.choice((13, 45, 97)))
        assert charpoly(m).coeffs == charpoly_oracle(m)


def test_charpoly_known_example():
    m = Mat([[Q(0), Q(0)], [Q(-1), Q(1)]])
    assert charpoly(m).coeffs == (Q(0), Q(-1), Q(1))


def test_cayley_hamilton():
    rng = random.Random(2)
    for _ in range(25):
        m = rand_mat(rng, rng.randint(1, 5))
        assert charpoly(m).eval_matrix(m).is_zero()


def test_charpoly_of_transpose_agrees():
    rng = random.Random(3)
    for _ in range(15):
        m = rand_mat(rng, rng.randint(1, 4))
        assert charpoly(m).coeffs == charpoly(m.transpose()).coeffs


# ---------------------------------------------------------- linear solve

def test_rref_postconditions():
    rng = random.Random(4)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = Mat([[Q(rng.randint(-4, 4)) for _ in range(nc)] for _ in range(nr)])
        r, pivots = rref(m)
        # pivot entries are 1 and alone in their column
        for pr, pc in enumerate(pivots):
            assert r.entries[pr][pc] == 1
            assert all(r.entries[i][pc] == 0 for i in range(nr) if i != pr)
        # idempotent
        r2, pivots2 = rref(r)
        assert r2 == r and pivots2 == pivots
        # row spaces agree in both directions
        mrows = echelon_basis([row for row in m.entries if any(row)])
        rrows = echelon_basis([row for row in r.entries if any(row)])
        assert all(in_span(rrows, row) for row in mrows)
        assert all(in_span(mrows, row) for row in rrows)


def test_rref_matches_fraction_oracle():
    rng = random.Random(14)
    # Mat([]) is the 0 x n case: a Mat with no rows has no width to keep
    cases = [Mat([]), Mat([[]]), Mat([[], [], []])]
    for _ in range(60):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        rows = [[rand_rational(rng, rng.choice((0.3, 1.0))) for _ in range(nc)]
                for _ in range(nr)]
        if nr > 1 and rng.random() < 0.5:
            # a dependent row: forces a zero row in the reduced form
            a, b = rng.sample(range(nr), 2)
            rows[b] = [Q(rng.randint(-3, 3), rng.choice((1, 7))) * x for x in rows[a]]
        if rng.random() < 0.3:
            rows[rng.randrange(nr)] = [Q(0)] * nc
        cases.append(Mat(rows))
    # tall and wide full shapes at the size limit
    cases.append(Mat([[rand_rational(rng) for _ in range(5)] for _ in range(12)]))
    cases.append(Mat([[rand_rational(rng) for _ in range(12)] for _ in range(5)]))
    # one large sparse matrix, rank deficient through repeated rows
    big = [[rand_rational(rng, 0.04) for _ in range(80)] for _ in range(200)]
    big[150:] = big[:50]
    cases.append(Mat(big))
    for m in cases:
        red, pivots = rref(m)
        assert (red, pivots) == rref_oracle(m)
        assert red.rows == m.rows and red.cols == m.cols


def test_kernel_and_rank():
    rng = random.Random(5)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = Mat([[Q(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)])
        ker = kernel(m)
        assert rank(m) + len(ker) == nc
        for v in ker:
            assert vec_is_zero(m.apply(v))
        # kernel basis is linearly independent
        assert len(echelon_basis(ker)) == len(ker)


def test_kernel_known_example():
    ker = kernel(Mat([[Q(1), Q(1)], [Q(2), Q(2)]]))
    assert len(ker) == 1
    assert in_span(echelon_basis(ker), (Q(1), Q(-1)))


def test_solve_and_inconsistency():
    rng = random.Random(6)
    hits = misses = 0
    for _ in range(60):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = Mat([[Q(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)])
        b = tuple(Q(rng.randint(-3, 3)) for _ in range(nr))
        x = solve(m, b)
        if x is None:
            misses += 1
            # b must really be outside the column space
            assert not in_span(echelon_basis(m.transpose().entries), b)
        else:
            hits += 1
            assert m.apply(x) == b
    assert hits > 0 and misses > 0


def test_span_operations():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = [tuple(Q(rng.randint(-2, 2)) for _ in range(n)) for _ in range(2)]
        b = [tuple(Q(rng.randint(-2, 2)) for _ in range(n)) for _ in range(2)]
        ea, eb = echelon_basis(a), echelon_basis(b)
        cap = intersect_spans(ea, eb)
        tot = sum_spans(a, b)
        assert len(cap) + len(tot) == len(ea) + len(eb)
        for v in cap:
            assert in_span(ea, v) and in_span(eb, v)
        for v in a + b:
            assert in_span(tot, v)


# ------------------------------------------------------------ polynomials

def test_unipoly_divmod_and_gcd():
    rng = random.Random(8)
    for _ in range(25):
        a = UniPoly([Q(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))])
        b = UniPoly([Q(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree
        g = a.gcd(b)
        if not g.is_zero():
            assert divmod(a, g)[1].is_zero() and divmod(b, g)[1].is_zero()
        g2, s, t = poly_xgcd(a, b)
        assert s * a + t * b == g2


def test_squarefree_part():
    t = UniPoly((Q(0), Q(1)))
    lin1 = t - UniPoly((Q(1),))
    lin2 = t + UniPoly((Q(2),))
    sf = (lin1 * lin1 * lin2).squarefree_part()
    assert sf == lin1 * lin2


def test_rational_roots_known_and_multiplicity():
    t = UniPoly((Q(0), Q(1)))
    cubic = t * (t - UniPoly((Q(1),))) * (t + UniPoly((Q(1),)))
    assert rational_roots(cubic) == [Q(-1), Q(0), Q(1)]
    lin = t - UniPoly((Q(2, 3),))
    rep = lin * lin * (t + UniPoly((Q(5),)))
    assert rational_roots(rep) == [Q(-5), Q(2, 3), Q(2, 3)]


def test_rational_roots_oracle_reconstruction():
    """Roots returned must re-assemble the polynomial: prod (t - r) times
    the leading coefficient, checked with the hand-rolled tuple arithmetic."""
    rng = random.Random(9)
    for _ in range(20):
        roots = sorted(
            Q(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 4))
        )
        lead = Q(rng.choice((1, 2, -3)))
        coeffs = (lead,)
        for r in roots:
            coeffs = pt_mul(coeffs, (-r, Q(1)))
        assert rational_roots(UniPoly(coeffs)) == roots


def test_rational_roots_raises_on_irrational():
    t2 = UniPoly((Q(-2), Q(0), Q(1)))
    with pytest.raises(NonRationalSpectrum):
        rational_roots(t2)


def test_rational_roots_bounded_time_on_large_coefficients():
    """Divisor enumeration would trial-divide up to sqrt(|a0|) ~ 1e12 here;
    the roots +-sqrt(1000009999941)/8 are real, double and irrational."""
    t = UniPoly((Q(0), Q(1)))
    quartic = UniPoly((Q(1000019999981998820003481), Q(0),
                       Q(-128 * 1000009999941), Q(0), Q(4096)))
    start = time.perf_counter()
    with pytest.raises(NonRationalSpectrum):
        rational_roots(t * t * quartic)
    assert time.perf_counter() - start < 1.0
    roots = [Q(-999983), Q(1, 4096), Q(1000003, 999983), Q(1000003, 999983)]
    poly = UniPoly((Q(1),))
    for r in roots:
        poly = poly * UniPoly((-r, Q(1)))
    start = time.perf_counter()
    assert rational_roots(poly.scale(Q(7, 3))) == roots
    assert time.perf_counter() - start < 1.0


def test_eval_matrix_is_horner_consistent():
    rng = random.Random(10)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = rand_mat(rng, n)
        p = UniPoly([Q(rng.randint(-3, 3)) for _ in range(4)])
        acc = Mat.zeros(n, n)
        mp = Mat.identity(n)
        for c in p.coeffs:
            acc = acc + mp.scale(c)
            mp = mp * m
        assert p.eval_matrix(m) == acc


# ------------------------------------------------- Jordan decomposition

def test_jordan_chevalley_trivial_cases():
    nil = Mat([[Q(0), Q(1)], [Q(0), Q(0)]])
    s, n = jordan_chevalley(nil)
    assert s.is_zero() and n == nil
    uni = Mat([[Q(1), Q(1)], [Q(0), Q(1)]])
    s, n = jordan_chevalley(uni)
    assert s == Mat.identity(2) and n == uni - Mat.identity(2)
    dia = Mat([[Q(2), Q(0)], [Q(0), Q(3)]])
    s, n = jordan_chevalley(dia)
    assert s == dia and n.is_zero()


def test_jordan_chevalley_irrational_semisimple():
    rot = Mat([[Q(0), Q(-1)], [Q(1), Q(0)]])
    s, n = jordan_chevalley(rot)
    assert s == rot and n.is_zero()


def test_jordan_chevalley_postconditions():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rand_mat(rng, n, lo=-3, hi=3)
        s, u = jordan_chevalley(m)
        assert s + u == m
        assert s * u == u * s
        assert (u ** n).is_zero()
        mp = minpoly(s)
        assert mp.squarefree_part() == mp.monic()


def test_minpoly_divides_charpoly_and_annihilates():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_mat(rng, n, lo=-3, hi=3)
        mp = minpoly(m)
        assert mp.eval_matrix(m).is_zero()
        assert divmod(charpoly(m), mp)[1].is_zero()
    assert minpoly(Mat([[Q(1), Q(0), Q(0)],
                        [Q(0), Q(1), Q(0)],
                        [Q(0), Q(0), Q(2)]])).degree == 2


# ------------------------------------------------------------ hypothesis

small_q = st.integers(min_value=-6, max_value=6).map(Q)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_q, min_size=3, max_size=3), min_size=3, max_size=3))
def test_rank_nullity_property(rows):
    m = Mat(rows)
    assert rank(m) + len(kernel(m)) == 3


small_rational = st.builds(Q, st.integers(min_value=-6, max_value=6),
                           st.sampled_from((1, 2, 3, 7)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda nc: st.lists(st.lists(small_rational, min_size=nc, max_size=nc),
                        min_size=1, max_size=5)))
def test_rref_idempotent_and_rank_of_transpose(rows):
    m = Mat(rows)
    red, pivots = rref(m)
    assert rref(red) == (red, pivots)
    assert rank(m) == rank(m.transpose())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(small_q, min_size=2, max_size=2), min_size=2, max_size=2))
def test_charpoly_trace_det_property(rows):
    m = Mat(rows)
    c = charpoly(m).coeffs
    assert c[2] == 1 and c[1] == -m.trace()
    assert c[0] == m.entries[0][0] * m.entries[1][1] - m.entries[0][1] * m.entries[1][0]
