"""Exact linear algebra over the rationals.

Scalars are fractions.Fraction at every interface, so every result is exact
and in lowest terms.  Vectors are plain tuples of Fractions; matrices are
small dense immutable objects.  The hot kernels compute over Python ints
and normalize to Fractions only at the boundary: rref clears each row to a
primitive integer row, eliminates fraction-free and divides by the pivots
at the end, which gives the unique reduced echelon form; charpoly runs
Berkowitz's division-free algorithm on d*m, d the lcm of the entries'
denominators, and rescales the coefficients; matrix products clear
denominators the same way.  Everything downstream (Lie brackets, spectral
splits, series) is built on the handful of kernels here: rref, kernel,
solve, lin_comb, charpoly and rational_roots, whose exact Sturm isolation
answers in time bounded by the degree and the coefficient sizes.
jordan_chevalley (a Newton iteration on the squarefree part), poly_xgcd
and minpoly are kept as independently tested kernels; the polarization
recursion reads its Jordan parts off the generalized eigenspaces instead.
"""

import math
import operator
from fractions import Fraction

from .errors import NonRationalSpectrum

Q = Fraction


def qvec(values):
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def zero_vec(n):
    return (Fraction(0),) * n


def unit_vec(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def vec_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_is_zero(u):
    return all(a == 0 for a in u)


def lin_comb(coeffs, vectors):
    """sum_i coeffs[i] * vectors[i]; there must be at least one vector."""
    return tuple(sum((c * x for c, x in zip(coeffs, col) if c), Fraction(0))
                 for col in zip(*vectors))


class Mat:
    """Dense rectangular matrix with Fraction entries, immutable after init."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        entries = tuple(qvec(row) for row in rows)
        if entries:
            width = len(entries[0])
            if any(len(r) != width for r in entries):
                raise ValueError("ragged rows")
        self.entries = entries

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r, c):
        return cls([[0] * c for _ in range(r)])

    @classmethod
    def from_columns(cls, cols):
        cols = [qvec(c) for c in cols]
        if not cols:
            return cls([])
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))])

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.entries == other.entries

    def __add__(self, other):
        return Mat([vec_add(a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return Mat([vec_sub(a, b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Mat([vec_scale(-1, r) for r in self.entries])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            a, da = _clear_denominators(self.entries)
            b, db = _clear_denominators(other.entries)
            bcols = list(zip(*b))
            d = da * db
            return Mat([[Fraction(sum(map(operator.mul, r, c)), d) for c in bcols]
                        for r in a])
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def scale(self, c):
        c = Fraction(c)
        return Mat([[c * x for x in r] for r in self.entries])

    def __pow__(self, k):
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        acc = Mat.identity(self.rows)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def apply(self, v):
        return tuple(vec_dot(r, v) for r in self.entries)

    def transpose(self):
        return Mat([self.column(j) for j in range(self.cols)])

    def trace(self):
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def is_zero(self):
        return all(x == 0 for r in self.entries for x in r)

    def vec(self):
        """Flatten row-major into a single tuple."""
        return tuple(x for r in self.entries for x in r)

    def __repr__(self):
        return "Mat(%r)" % [[str(x) for x in r] for r in self.entries]


def _clear_denominators(rows):
    """(A, d): d is the lcm of the entries' denominators and A = d*rows over int."""
    d = math.lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in rows], d


def _primitive(row):
    """Integer row with the direction of row and coprime entries."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rref(m):
    """Reduced row echelon form.  Returns (Mat, pivot column tuple).

    Each row is cleared to a primitive integer row and eliminated over the
    integers, dividing out the content after every update; the pivots are
    divided out only at the end.  The reduced echelon form is unique, so
    this is the same Mat as Gauss-Jordan over Fraction.
    """
    rows = [_primitive(r) for r in _clear_denominators(m.entries)[0]]
    nr, nc = len(rows), m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nr):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _primitive([p * a - f * b for a, b in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
    zero = Fraction(0)
    out = [tuple(Fraction(x, row[c]) if x else zero for x in row)
           for row, c in zip(rows, pivots)]
    out += [(zero,) * nc] * (nr - r)
    return Mat(out), tuple(pivots)


def rank(m):
    return len(rref(m)[1])


def kernel(m):
    """Basis of the right null space, one vector per free column."""
    red, pivots = rref(m)
    nc = m.cols
    free = [j for j in range(nc) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * nc
        v[j] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red.entries[r][j]
        basis.append(tuple(v))
    return basis


def solve(m, b):
    """One solution of m x = b (free variables set to zero), or None."""
    aug = Mat([list(r) + [bv] for r, bv in zip(m.entries, qvec(b))])
    red, pivots = rref(aug)
    nc = m.cols
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for r, c in enumerate(pivots):
        x[c] = red.entries[r][nc]
    return tuple(x)


def echelon_basis(vectors):
    """Canonical reduced basis of the span of the given vectors."""
    vectors = [qvec(v) for v in vectors]
    if not vectors:
        return ()
    red, pivots = rref(Mat(vectors))
    return tuple(red.entries[i] for i in range(len(pivots)))


def reduce_against(basis, pivots, v):
    """Subtract the projection of v onto an echelonized basis."""
    v = list(v)
    for row, c in zip(basis, pivots):
        if v[c] != 0:
            f = v[c]
            v = [a - f * b for a, b in zip(v, row)]
    return tuple(v)


def pivot_columns(basis):
    return tuple(next(j for j, x in enumerate(row) if x != 0) for row in basis)


def in_span(basis, v):
    if not basis:
        return vec_is_zero(v)
    return vec_is_zero(reduce_against(basis, pivot_columns(basis), v))


def intersect_spans(abasis, bbasis):
    """Echelon basis of span(A) intersect span(B)."""
    if not abasis or not bbasis:
        return ()
    cols = [list(v) for v in abasis] + [list(vec_scale(-1, v)) for v in bbasis]
    ker = kernel(Mat.from_columns(cols))
    return echelon_basis([lin_comb(w[: len(abasis)], abasis) for w in ker])


def sum_spans(abasis, bbasis):
    return echelon_basis(list(abasis) + list(bbasis))


class UniPoly:
    """Univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, deg, c=1):
        return cls([0] * deg + [c])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return UniPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def scale(self, c):
        c = Fraction(c)
        return UniPoly([c * a for a in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.coeffs[-1]
        dd = other.degree
        while len(rem) - 1 >= dd and any(x != 0 for x in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            f = rem[-1] / dlead
            shift = len(rem) - 1 - dd
            q[shift] = f
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= f * c
            rem.pop()
        return UniPoly(q), UniPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(Fraction(1) / self.coeffs[-1])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def squarefree_part(self):
        if self.degree <= 0:
            return self.monic()
        g = self.gcd(self.derivative())
        return (self // g).monic()

    def eval_scalar(self, x):
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, m):
        n = m.rows
        acc = Mat.zeros(n, n)
        for c in reversed(self.coeffs):
            acc = acc * m + Mat.identity(n).scale(c)
        return acc

    def __repr__(self):
        return "UniPoly(%r)" % [str(c) for c in self.coeffs]


def poly_xgcd(a, b):
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g."""
    r0, r1 = a, b
    u0, u1 = UniPoly([1]), UniPoly([])
    v0, v1 = UniPoly([]), UniPoly([1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return r0, u0, v0


def charpoly(m):
    """det(t*I - m), exact and monic, by Berkowitz's division-free algorithm.

    With d the lcm of the entries' denominators, A = d*m is an integer
    matrix.  Berkowitz builds the characteristic polynomial of each leading
    principal block of A from the previous one by a Toeplitz product, using
    only ring operations; the coefficient of t^i is then c_i / d^(n-i).
    """
    n = m.rows
    if n != m.cols:
        raise ValueError("charpoly of non-square matrix")
    a, d = _clear_denominators(m.entries)
    poly = [1]  # highest degree first
    for k in range(n):
        # Toeplitz column 1, -a_kk, -R C, -R M C, ..., -R M^(k-1) C for the
        # block [[M, C], [R, a_kk]] of the leading (k+1) x (k+1) minor.
        block = [r[:k] for r in a[:k]]
        row = a[k][:k]
        col = [r[k] for r in a[:k]]
        toep = [1, -a[k][k]]
        for _ in range(k):
            toep.append(-sum(map(operator.mul, row, col)))
            col = [sum(map(operator.mul, r, col)) for r in block]
        poly = [sum(toep[i - j] * poly[j]
                    for j in range(max(0, i - k - 1), min(i, k) + 1))
                for i in range(k + 2)]
    return UniPoly([Fraction(c, d ** i) for i, c in enumerate(poly)][::-1])


def _integer_form(p):
    """Positive multiple of p with coprime integer coefficients."""
    return _primitive(_clear_denominators([p.coeffs])[0][0])


def _sturm_sequence(p):
    """Sturm sequence of a squarefree p, each term in integer form."""
    seq = [p, p.derivative()]
    while seq[-1].degree > 0:
        seq.append((seq[-2] % seq[-1]).scale(-1))
    return [_integer_form(q) for q in seq]


def _sign_variations(seq, x):
    n, d = x.numerator, x.denominator
    values = [sum(c * n ** i * d ** (len(q) - 1 - i) for i, c in enumerate(q))
              for q in seq]
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _real_root_midpoints(seq, bound, width):
    """Increasing midpoints of intervals narrower than width, one around
    each real root of seq[0] in (-bound, bound].  By Sturm's theorem seq[0]
    has V(a) - V(b) roots in (a, b]."""
    lo, hi = Fraction(-bound), Fraction(bound)
    stack = [(lo, hi, _sign_variations(seq, lo), _sign_variations(seq, hi))]
    mids = []
    while stack:
        a, b, va, vb = stack.pop()
        m = (a + b) / 2
        if va - vb == 1 and b - a < width:
            mids.append(m)
        elif va != vb:
            vm = _sign_variations(seq, m)
            stack += [(m, b, vm, vb), (a, m, va, vm)]
    return mids


def rational_roots(p):
    """All roots with multiplicity, sorted; NonRationalSpectrum if any escape Q.

    In integer form with leading coefficient L, the squarefree part q has
    its rational roots among fractions with denominator dividing L, at
    least 1/L^2 apart.  So each real root of q is isolated from Cauchy's
    bound by Sturm bisection to width 1/(2 L^2), snapped to the nearest
    fraction with denominator at most L and checked exactly: the time is
    bounded by the degree and the coefficient sizes.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    roots = []
    work = p
    while work.degree > 0 and work.coeffs[0] == 0:
        roots.append(Fraction(0))
        work = UniPoly(work.coeffs[1:])
    if work.degree > 0:
        q = work.squarefree_part()
        seq = _sturm_sequence(q)
        lead = seq[0][-1]
        bound = 2 + int(max(abs(c) for c in q.coeffs[:-1]))
        for mid in _real_root_midpoints(seq, bound, Fraction(1, 2 * lead * lead)):
            r = mid.limit_denominator(lead)
            while work.degree > 0 and work.eval_scalar(r) == 0:
                roots.append(r)
                work = work // UniPoly([-r, 1])
    if work.degree > 0:
        raise NonRationalSpectrum(
            "polynomial of degree %d has no rational root" % work.degree
        )
    return sorted(roots)


def jordan_chevalley(m):
    """Split m = s + n with s semisimple, n nilpotent, [s, n] = 0.

    Newton iteration against the squarefree part q of the characteristic
    polynomial: x <- x - v(x) q(x) where v inverts q' modulo q.  Converges
    quadratically, and s is by construction a polynomial in m.
    """
    n = m.rows
    p = charpoly(m)
    q = p.squarefree_part()
    x = m
    if q.eval_matrix(x).is_zero():
        return x, m - x
    g, _, v = poly_xgcd(q, q.derivative())
    if g.degree != 0:
        raise AssertionError("squarefree part not coprime with its derivative")
    v = v.scale(Fraction(1) / g.coeffs[0])
    for _ in range(n + 1):
        qx = q.eval_matrix(x)
        if qx.is_zero():
            break
        x = x - v.eval_matrix(x) * qx
    else:
        raise AssertionError("Newton iteration did not converge")
    return x, m - x


def minpoly(m):
    """Monic minimal polynomial via the first Krylov dependence of powers."""
    n = m.rows
    powers = [Mat.identity(n).vec()]
    mk = Mat.identity(n)
    for k in range(1, n + 1):
        mk = mk * m
        target = mk.vec()
        coeffs = solve(Mat.from_columns(powers), target)
        if coeffs is not None:
            return UniPoly(list(vec_scale(-1, coeffs)) + [1])
        powers.append(target)
    raise AssertionError("no dependence up to the matrix size")
