"""Lie algebras over Q given by structure constants, and the algorithms on
them the rest of the toolkit leans on: axiom checking, centralizers of
bilinear forms, generated subalgebras, nilpotency and solvability, radical
and nilradical with verification, and the spectral splitting of
ad-operators into generalized eigenspaces.

Elements are coordinate tuples in the defining basis.  Besides the dense
table, an algebra keeps its structure constants sparse: for each pair of
basis vectors, the nonzero (l, c) of their bracket.  bracket, ad_matrix and
form_matrix iterate over those alone.  Subspaces carry a canonical reduced
echelon basis so equality and membership are exact.
"""

from fractions import Fraction

from .errors import (
    NilradicalVerificationFailed,
    NotASubalgebra,
    NotSemisimple,
    RadicalVerificationFailed,
)
from .exactla import (
    Mat,
    charpoly,
    echelon_basis,
    intersect_spans,
    kernel,
    lin_comb,
    pivot_columns,
    qvec,
    rational_roots,
    reduce_against,
    sum_spans,
    unit_vec,
    vec_add,
    vec_dot,
    vec_is_zero,
    vec_scale,
    zero_vec,
)


class LieAlgebra:
    """Structure-constant Lie algebra; table[i][j] = coordinates of [b_i, b_j]."""

    def __init__(self, dim, table, labels=None, name="g"):
        self.dim = dim
        self.table = tuple(tuple(qvec(v) for v in row) for row in table)
        if len(self.table) != dim or any(len(r) != dim for r in self.table):
            raise ValueError("structure table shape mismatch")
        if any(len(v) != dim for row in self.table for v in row):
            raise ValueError("structure constant vector length mismatch")
        # constants[i][j]: the nonzero (l, c) with c the b_l coordinate of [b_i, b_j]
        self.constants = tuple(
            tuple(tuple((l, c) for l, c in enumerate(v) if c) for v in row)
            for row in self.table
        )
        self.labels = tuple(labels) if labels else tuple(
            "b%d" % (i + 1) for i in range(dim)
        )
        if len(self.labels) != dim:
            raise ValueError("label count mismatch")
        self.name = name

    @classmethod
    def from_sparse(cls, dim, brackets, labels=None, name="g"):
        """brackets: iterable of (i, j, coords) for i < j; the rest is filled in."""
        table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
        for i, j, coords in brackets:
            v = qvec(coords)
            table[i][j] = v
            table[j][i] = vec_scale(-1, v)
        return cls(dim, table, labels=labels, name=name)

    def zero(self):
        return zero_vec(self.dim)

    def basis_vector(self, i):
        return unit_vec(self.dim, i)

    def bracket(self, x, y):
        out = [Fraction(0)] * self.dim
        for xi, row in zip(x, self.constants):
            if not xi:
                continue
            for yj, consts in zip(y, row):
                if yj:
                    xy = xi * yj
                    for l, c in consts:
                        out[l] += xy * c
        return tuple(out)

    def ad_matrix(self, x):
        """Matrix of ad(x) = [x, .] acting on coordinate columns."""
        rows = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for xi, row in zip(x, self.constants):
            if not xi:
                continue
            for j, consts in enumerate(row):
                for l, c in consts:
                    rows[l][j] += xi * c
        return Mat(rows)

    def __repr__(self):
        return "LieAlgebra(%s, dim=%d)" % (self.name, self.dim)


def check_axioms(g):
    """List of violated axiom descriptions; empty means a genuine Lie algebra."""
    bad = []
    for i in range(g.dim):
        if not vec_is_zero(g.table[i][i]):
            bad.append("antisymmetry: [b%d, b%d] != 0" % (i + 1, i + 1))
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            if g.table[i][j] != vec_scale(-1, g.table[j][i]):
                bad.append("antisymmetry: [b%d, b%d] != -[b%d, b%d]"
                           % (i + 1, j + 1, j + 1, i + 1))
    for i in range(g.dim):
        bi = g.basis_vector(i)
        for j in range(i + 1, g.dim):
            bj = g.basis_vector(j)
            for k in range(j + 1, g.dim):
                bk = g.basis_vector(k)
                s = vec_add(
                    vec_add(
                        g.bracket(bi, g.bracket(bj, bk)),
                        g.bracket(bj, g.bracket(bk, bi)),
                    ),
                    g.bracket(bk, g.bracket(bi, bj)),
                )
                if not vec_is_zero(s):
                    bad.append("jacobi: triple (%d, %d, %d)" % (i + 1, j + 1, k + 1))
    return bad


class Subspace:
    """Subspace of a LieAlgebra's underlying space, canonical echelon basis."""

    def __init__(self, parent, basis_rows):
        self.parent = parent
        self.basis = echelon_basis(basis_rows)
        self.pivots = pivot_columns(self.basis)

    @classmethod
    def span(cls, parent, vectors):
        return cls(parent, list(vectors))

    @classmethod
    def whole(cls, parent):
        return cls(parent, [unit_vec(parent.dim, i) for i in range(parent.dim)])

    @classmethod
    def zero(cls, parent):
        return cls(parent, [])

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        if not self.basis:
            return vec_is_zero(v)
        return vec_is_zero(reduce_against(self.basis, self.pivots, v))

    def coords_of(self, v):
        """Coefficients of v in the echelon basis, or None if outside."""
        return tuple(v[c] for c in self.pivots) if self.contains(v) else None

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.parent is other.parent
            and self.basis == other.basis
        )

    def intersect(self, other):
        return Subspace(self.parent, intersect_spans(self.basis, other.basis))

    def add(self, other):
        return Subspace(self.parent, sum_spans(self.basis, other.basis))

    def __repr__(self):
        return "Subspace(dim=%d of %s)" % (self.dim, self.parent.name)


def _bracket_span(g, avecs, bvecs):
    return [g.bracket(a, b) for a in avecs for b in bvecs]


def is_subalgebra(s):
    g = s.parent
    return all(s.contains(w) for w in _bracket_span(g, s.basis, s.basis))


def subalgebra_generated(s):
    """Smallest bracket-closed subspace containing s, by fixed point."""
    g = s.parent
    cur = s
    while True:
        nxt = Subspace(g, list(cur.basis) + _bracket_span(g, cur.basis, cur.basis))
        if nxt.dim == cur.dim:
            return cur
        cur = nxt


def lower_central_series(s):
    g = s.parent
    series = [s]
    while series[-1].dim > 0:
        nxt = Subspace(g, _bracket_span(g, s.basis, series[-1].basis))
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def derived_series(s):
    g = s.parent
    series = [s]
    while series[-1].dim > 0:
        cur = series[-1]
        nxt = Subspace(g, _bracket_span(g, cur.basis, cur.basis))
        if nxt.dim == cur.dim:
            break
        series.append(nxt)
    return series


def is_nilpotent(s):
    """Whether the subalgebra s is nilpotent (lower central series dies)."""
    if not is_subalgebra(s):
        raise NotASubalgebra("nilpotency asked of a non-closed subspace")
    return lower_central_series(s)[-1].dim == 0


def is_solvable(s):
    if not is_subalgebra(s):
        raise NotASubalgebra("solvability asked of a non-closed subspace")
    return derived_series(s)[-1].dim == 0


def induced_structure(s):
    """Abstract LieAlgebra on the basis of s, NotASubalgebra if not closed."""
    g = s.parent
    d = s.dim
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            w = g.bracket(s.basis[i], s.basis[j])
            coords = s.coords_of(w)
            if coords is None:
                raise NotASubalgebra("bracket leaves the subspace")
            table[i][j] = coords
    return LieAlgebra(d, table, name=g.name + "|sub")


def form_matrix(g, f):
    """Gram matrix of the skew form (x, y) -> f([x, y]) on the basis of g;
    f is a coordinate form on g."""
    f = qvec(f)
    return Mat([[sum((f[l] * c for l, c in consts), Fraction(0)) for consts in row]
                for row in g.constants])


def centralizer_of_form(g, f):
    """Kernel of the skew form (x, y) -> f([x, y]); f is a coordinate form on g."""
    return Subspace(g, kernel(form_matrix(g, f)))


def _trace_form_kernel(h, domain_vectors, test_vectors):
    """Vectors x in span(domain) with tr(ad x ad y) = 0 for all test y; h abstract."""
    ads = {v: h.ad_matrix(v) for v in list(domain_vectors) + list(test_vectors)}
    # tr(X Y) is the dot product of X and Y^T flattened: no matrix product
    flat = [ads[x].vec() for x in domain_vectors]
    rows = [tuple(vec_dot(fx, yt) for fx in flat)
            for yt in (ads[y].transpose().vec() for y in test_vectors)]
    if not rows:
        return list(domain_vectors)
    return [lin_comb(w, domain_vectors) for w in kernel(Mat(rows))]


def solvable_radical(s):
    """Largest solvable ideal of the subalgebra s, certified solvable.

    Candidate by the Cartan-criterion orthogonal: x in s with
    tr(ad x ad y) = 0 for every y in [s, s], taken inside s's own structure.
    The candidate is then verified to be a solvable ideal, and
    RadicalVerificationFailed is raised if the certificate fails.
    """
    if not is_subalgebra(s):
        raise NotASubalgebra("radical asked of a non-closed subspace")
    g = s.parent
    h = induced_structure(s)
    whole = Subspace.whole(h)
    derived = Subspace(h, _bracket_span(h, whole.basis, whole.basis))
    cand = _trace_form_kernel(h, whole.basis, list(derived.basis))
    rad_h = Subspace(h, cand)
    if derived_series(rad_h)[-1].dim != 0:
        raise RadicalVerificationFailed("candidate radical is not solvable")
    if not all(rad_h.contains(w)
               for w in _bracket_span(h, whole.basis, rad_h.basis)):
        raise RadicalVerificationFailed("candidate radical is not an ideal")
    return Subspace(g, [lin_comb(v, s.basis) for v in rad_h.basis])


def nilradical(s):
    """Largest nilpotent ideal of the subalgebra s, with verification.

    Candidate: elements of the radical orthogonal to the whole radical for
    the trace form of s.  Verified nilpotent and an ideal of s; raises
    NilradicalVerificationFailed otherwise.
    """
    g = s.parent
    rad = solvable_radical(s)
    h = induced_structure(s)
    rad_in_h = Subspace(h, [s.coords_of(v) for v in rad.basis])
    cand = _trace_form_kernel(h, list(rad_in_h.basis), list(rad_in_h.basis))
    nil_h = Subspace(h, cand)
    if lower_central_series(nil_h)[-1].dim != 0:
        raise NilradicalVerificationFailed("candidate nilradical is not nilpotent")
    whole = Subspace.whole(h)
    if not all(nil_h.contains(w)
               for w in _bracket_span(h, whole.basis, nil_h.basis)):
        raise NilradicalVerificationFailed("candidate nilradical is not an ideal")
    return Subspace(g, [lin_comb(v, s.basis) for v in nil_h.basis])


def spectral_split(g, x):
    """Generalized eigenspaces of ad(x) over Q, which together fill g.

    Returns the list of (lambda, ker (ad x - lambda)^m) sorted by lambda,
    one entry per distinct root lambda, of multiplicity m, of the
    characteristic polynomial of ad(x).  Raises NonRationalSpectrum if the
    spectrum escapes Q.
    """
    ad = g.ad_matrix(x)
    roots = rational_roots(charpoly(ad))
    return [
        (lam, Subspace(g, kernel((ad - Mat.identity(g.dim).scale(lam))
                                 ** roots.count(lam))))
        for lam in sorted(set(roots))
    ]


def eigensplit(g, x):
    """Split g into ad(x)-eigenspaces over Q.

    Returns (g0, parts) where g0 is the kernel of ad(x) and parts is a sorted
    list of (lambda, eigenspace) for the nonzero eigenvalues.  Raises
    NonRationalSpectrum if the spectrum escapes Q and NotSemisimple if the
    eigenspaces do not fill the whole space.
    """
    spaces = spectral_split(g, x)
    for lam, spc in spaces:
        if any(g.bracket(x, v) != vec_scale(lam, v) for v in spc.basis):
            raise NotSemisimple("ad operator has a nonzero nilpotent part")
    g0 = dict(spaces).get(Fraction(0), Subspace.zero(g))
    return g0, [(lam, spc) for lam, spc in spaces if lam != 0]
