"""Multivariate polynomials on p and truncated power series on p.

MultiPoly models the symmetric algebra S[p]: variables y1..ym stand for the
p basis vectors, exponent tuples index monomials.  TruncSeries models formal
series in the dual variables xi1..xim truncated at a fixed total degree; it
is what the determinant series J and its square root live in.

The k action on S[p] is by derivations extending [x, .] on p; its polynomial
invariants are computed degree by degree as exact kernels.  apply_cc_operator
pairs a series in xi with a polynomial in y through xi_i -> d/dy_i (constant
coefficient differential operators, no factorial renormalization).
"""

import math
from fractions import Fraction

from .errors import VariableCountMismatch
from .exactla import Mat, echelon_basis, kernel, vec_is_zero, zero_vec


def _norm_terms(terms):
    return {tuple(int(e) for e in k): Fraction(v) for k, v in terms.items()
            if Fraction(v) != 0}


def _add_terms(a, b):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, Fraction(0)) + v
        if w == 0:
            out.pop(k, None)
        else:
            out[k] = w
    return out


def _mul_terms(a, b, cap=None):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if cap is not None and sum(k) > cap:
                continue
            w = out.get(k, Fraction(0)) + va * vb
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
    return out


def _term_str(exp, coeff, prefix):
    parts = []
    for i, e in enumerate(exp):
        if e == 1:
            parts.append("%s%d" % (prefix, i + 1))
        elif e > 1:
            parts.append("%s%d^%d" % (prefix, i + 1, e))
    head = "*".join(parts)
    c = str(coeff)
    return c if not head else ("%s*%s" % (c, head))


def _poly_str(terms, prefix):
    if not terms:
        return "0"
    keys = sorted(terms, key=lambda k: (sum(k), tuple(-e for e in k)))
    return " + ".join(_term_str(k, terms[k], prefix) for k in keys)


class MultiPoly:
    """Element of S[p]: finitely many monomials with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = _norm_terms(terms or {})
        if any(len(k) != nvars for k in self.terms):
            raise VariableCountMismatch("exponent length != variable count")

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, j):
        return cls(nvars, {tuple(1 if i == j else 0 for i in range(nvars)): 1})

    @classmethod
    def monomial(cls, exp, c=1):
        return cls(len(exp), {tuple(exp): c})

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        return max((sum(k) for k in self.terms), default=0)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise VariableCountMismatch("mixed variable counts")

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __add__(self, other):
        self._check(other)
        return MultiPoly(self.nvars, _add_terms(self.terms, other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return MultiPoly(self.nvars, _mul_terms(self.terms, other.terms))
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return MultiPoly(self.nvars, {k: c * v for k, v in self.terms.items()})

    def partial(self, j):
        out = {}
        for k, v in self.terms.items():
            if k[j] == 0:
                continue
            nk = tuple(e - 1 if i == j else e for i, e in enumerate(k))
            out[nk] = out.get(nk, Fraction(0)) + v * k[j]
        return MultiPoly(self.nvars, out)

    def homogeneous_part(self, e):
        return MultiPoly(self.nvars,
                         {k: v for k, v in self.terms.items() if sum(k) == e})

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def __str__(self):
        return _poly_str(self.terms, "y")

    def __repr__(self):
        return "MultiPoly(%s)" % self


class TruncSeries:
    """Series in xi1..xim truncated beyond total degree `order`."""

    __slots__ = ("nvars", "order", "terms")

    def __init__(self, nvars, order, terms=None):
        self.nvars = nvars
        self.order = order
        raw = _norm_terms(terms or {})
        self.terms = {k: v for k, v in raw.items() if sum(k) <= order}
        if any(len(k) != nvars for k in self.terms):
            raise VariableCountMismatch("exponent length != variable count")

    @classmethod
    def constant(cls, nvars, order, c):
        return cls(nvars, order, {(0,) * nvars: c})

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def _check(self, other):
        if self.nvars != other.nvars or self.order != other.order:
            raise VariableCountMismatch("mixed variable counts or truncations")

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.nvars == other.nvars
                and self.order == other.order and self.terms == other.terms)

    def __add__(self, other):
        self._check(other)
        return TruncSeries(self.nvars, self.order,
                           _add_terms(self.terms, other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            self._check(other)
            return TruncSeries(self.nvars, self.order,
                               _mul_terms(self.terms, other.terms, cap=self.order))
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def scale(self, c):
        c = Fraction(c)
        return TruncSeries(self.nvars, self.order,
                           {k: c * v for k, v in self.terms.items()})

    def min_degree(self):
        return min((sum(k) for k in self.terms), default=None)

    def __str__(self):
        return _poly_str(self.terms, "xi")

    def __repr__(self):
        return "TruncSeries(order=%d, %s)" % (self.order, self)


def series_exp(s):
    """exp of a series with zero constant term, within its truncation."""
    if s.constant_term() != 0:
        raise ValueError("exp needs zero constant term")
    acc = TruncSeries.constant(s.nvars, s.order, 1)
    power = TruncSeries.constant(s.nvars, s.order, 1)
    md = s.min_degree()
    steps = s.order // md if md else 0
    for r in range(1, steps + 1):
        power = power * s
        acc = acc + power.scale(Fraction(1, math.factorial(r)))
    return acc


# ---------------------------------------------------------------------------
# k action on S[p]


def p_action_matrix(pair, x):
    """Matrix of [x, .] on the p basis for x in k."""
    kc, pc = pair.decompose(x)
    if not vec_is_zero(pc):
        raise ValueError("derivation element must lie in k")
    cols = []
    for b in pair.p_basis.basis:
        _, w = pair.decompose(pair.g.bracket(x, b))
        cols.append(w)
    return Mat.from_columns(cols)


def _derivation_forms(pair, x):
    """The images [x, p_j], j = 1..m, as linear polynomials on p, built once
    per pair and k element."""
    key = ("derivation", tuple(x))
    if key not in pair._caches:
        m = pair.p_dim
        act = p_action_matrix(pair, x)
        pair._caches[key] = [
            MultiPoly(m, {tuple(1 if i == t else 0 for i in range(m)):
                          act.entries[t][j] for t in range(m)})
            for j in range(m)]
    return pair._caches[key]


def k_derivation(pair, x, poly):
    """Derivation of S[p] extending [x, .] on p, applied to poly."""
    if poly.nvars != pair.p_dim:
        raise VariableCountMismatch("polynomial does not live on p")
    out = MultiPoly(poly.nvars)
    for j, lin in enumerate(_derivation_forms(pair, x)):
        out = out + lin * poly.partial(j)
    return out


def monomials_of_degree(nvars, degree):
    """All exponent tuples of the given total degree, lexicographically
    decreasing, so y1-heavy monomials come first."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - e):
            out.append((e,) + rest)
    return out


def invariants_up_to_degree(pair, degree):
    """Echelonized basis of k-invariant polynomials of degree <= degree,
    listed degree by degree."""
    m = pair.p_dim
    kvecs = pair.k_basis.basis
    found = []
    for e in range(degree + 1):
        mons = monomials_of_degree(m, e)
        index = {mon: i for i, mon in enumerate(mons)}
        rows = []
        for x in kvecs:
            images = [k_derivation(pair, x, MultiPoly.monomial(mon))
                      for mon in mons]
            for target in mons:
                rows.append(tuple(img.coefficient(target) for img in images))
        coeff_vectors = kernel(Mat(rows or [zero_vec(len(mons))]))
        for vec in echelon_basis(coeff_vectors):
            found.append(MultiPoly(m, {mon: vec[index[mon]] for mon in mons}))
    return found


# ---------------------------------------------------------------------------
# the determinant series J and its square root


def _sq_ad_forms(pair):
    """C[a][b]: matrix of ad(p_a) ad(p_b) restricted to p, exact entries."""
    key = "sqad"
    if key not in pair._caches:
        m = pair.p_dim
        pb = pair.p_basis.basis
        cmats = [[None] * m for _ in range(m)]
        for a in range(m):
            for b in range(m):
                cols = []
                for j in range(m):
                    w = pair.g.bracket(pb[a], pair.g.bracket(pb[b], pb[j]))
                    _, pc = pair.decompose(w)
                    cols.append(pc)
                cmats[a][b] = Mat.from_columns(cols)
        pair._caches[key] = cmats
    return pair._caches[key]


def _series_matrix_mul(A, B, nvars, order):
    m = len(A)
    out = [[TruncSeries(nvars, order) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            acc = TruncSeries(nvars, order)
            for t in range(m):
                acc = acc + A[i][t] * B[t][j]
            out[i][j] = acc
    return out


def _log_j_half(pair, order):
    """(1/2) tr log of the sinh-quotient matrix series, truncated."""
    key = ("jlog", order)
    if key in pair._caches:
        return pair._caches[key]
    m = pair.p_dim
    cmats = _sq_ad_forms(pair)
    # A[i][j] = sum_ab xi_a xi_b (ad p_a ad p_b)|p [i][j], a quadratic entry
    A = [[TruncSeries(m, order) for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(m):
            exp = tuple((1 if t == a else 0) + (1 if t == b else 0)
                        for t in range(m))
            for i in range(m):
                for j in range(m):
                    c = cmats[a][b].entries[i][j]
                    if c != 0:
                        A[i][j] = A[i][j] + TruncSeries(m, order, {exp: c})
    # U = M - I where M = sum_{n>=0} A^n / (2n+1)!
    U = [[TruncSeries(m, order) for _ in range(m)] for _ in range(m)]
    power = None
    for n in range(1, order // 2 + 1):
        power = A if power is None else _series_matrix_mul(power, A, m, order)
        w = Fraction(1, math.factorial(2 * n + 1))
        for i in range(m):
            for j in range(m):
                U[i][j] = U[i][j] + power[i][j].scale(w)
    # tr log(I + U) = sum (-1)^(v+1) tr(U^v) / v
    trlog = TruncSeries(m, order)
    upow = None
    for v in range(1, order // 2 + 1):
        upow = U if upow is None else _series_matrix_mul(upow, U, m, order)
        tr = TruncSeries(m, order)
        for i in range(m):
            tr = tr + upow[i][i]
        trlog = trlog + tr.scale(Fraction((-1) ** (v + 1), v))
    half = trlog.scale(Fraction(1, 2))
    pair._caches[key] = half
    return half


def j_series(pair, order):
    """Truncation of J(xi) = det over p of sinh(ad X)/(ad X) at X = sum xi_a p_a."""
    return series_exp(_log_j_half(pair, order).scale(2))


def j_half(pair, order):
    """Truncation of J(xi)^(1/2); well defined since the constant term of J is 1."""
    return series_exp(_log_j_half(pair, order))


# ---------------------------------------------------------------------------
# constant coefficient operators


def apply_cc_operator(series, poly):
    """Apply the operator obtained from `series` by xi_i -> d/dy_i to poly.

    A monomial xi^alpha acts as the iterated partial derivative d^alpha, so
    the image of y^beta is (beta falling alpha) y^(beta-alpha).
    """
    if series.nvars != poly.nvars:
        raise VariableCountMismatch("series and polynomial variable counts differ")
    if series.order < poly.degree:
        raise ValueError("series truncation below polynomial degree")
    out = {}
    for alpha, c in series.terms.items():
        for beta, d in poly.terms.items():
            if any(b < a for a, b in zip(alpha, beta)):
                continue
            coeff = c * d
            for a, b in zip(alpha, beta):
                if a:
                    coeff *= math.perm(b, a)
            exp = tuple(b - a for a, b in zip(alpha, beta))
            out[exp] = out.get(exp, Fraction(0)) + coeff
    return MultiPoly(poly.nvars, out)
