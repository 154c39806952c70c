"""Symmetric pairs (g, sigma) with an invariant scalar product B.

A pair splits g into the +1 eigenspace k and the -1 eigenspace p of the
involution sigma.  The pairs built here carry an anti-invariant B, meaning
B(sigma x, sigma y) = -B(x, y): then k and p are both isotropic and B puts
them in perfect duality, which is what drives everything downstream (dual
elements x_f, the half-trace character on k, the polarization recursion).

Two constructions are provided: the cotangent pair g = h + h* with the
coadjoint bracket, and the swap pair g = h + h with sigma exchanging the
summands.  Linear forms on p ("PForm") are plain coordinate tuples in the
p basis.
"""

import random
from fractions import Fraction

from .errors import FormDegenerate, FormNotInvariant, ValidationError
from . import lie_core
from .exactla import (
    Mat,
    kernel,
    lin_comb,
    qvec,
    rank,
    solve,
    unit_vec,
    vec_is_zero,
    vec_scale,
    zero_vec,
)
from .lie_core import LieAlgebra, Subspace, centralizer_of_form, form_matrix


class SymmetricPair:
    """Lie algebra with involution and (optionally anti-invariant) form B."""

    def __init__(self, g, sigma, B, anti_invariant=True, name=None, validate=True):
        self.g = g
        self.sigma = sigma if isinstance(sigma, Mat) else Mat(sigma)
        self.B = B if isinstance(B, Mat) else Mat(B)
        self.anti_invariant = bool(anti_invariant)
        self.name = name or g.name
        self.k_basis = Subspace(g, kernel(self.sigma - Mat.identity(g.dim)))
        self.p_basis = Subspace(g, kernel(self.sigma + Mat.identity(g.dim)))
        self._split = None
        self._delta = None
        self._caches = {}
        if validate:
            report = pair_invariant_report(self)
            if report:
                raise ValidationError("; ".join(report))

    @property
    def k_dim(self):
        return self.k_basis.dim

    @property
    def p_dim(self):
        return self.p_basis.dim

    def sigma_apply(self, v):
        return self.sigma.apply(v)

    def b_value(self, x, y):
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.B.entries[i]
            for j, yj in enumerate(y):
                if yj != 0:
                    total += xi * row[j] * yj
        return total

    def _split_matrix(self):
        # columns: k basis then p basis; inverse turns g coords into (k|p) coords
        if self._split is None:
            t = Mat.from_columns(list(self.k_basis.basis) + list(self.p_basis.basis))
            tinv_cols = [solve(t, unit_vec(self.g.dim, i)) for i in range(self.g.dim)]
            self._split = (t, Mat.from_columns(tinv_cols))
        return self._split

    def decompose(self, v):
        """Coordinates of v split as (k part coords, p part coords)."""
        _, tinv = self._split_matrix()
        w = tinv.apply(v)
        return w[: self.k_dim], w[self.k_dim:]

    def from_k_coords(self, kc):
        return lin_comb(kc, self.k_basis.basis) or self.g.zero()

    def from_p_coords(self, pc):
        return lin_comb(pc, self.p_basis.basis) or self.g.zero()

    def __repr__(self):
        return "SymmetricPair(%s, dim=%d, k=%d, p=%d)" % (
            self.name, self.g.dim, self.k_dim, self.p_dim)


def pair_invariant_report(pair):
    """All violated structural invariants of the pair, as strings."""
    g, sig, B = pair.g, pair.sigma, pair.B
    n = g.dim
    bad = []
    bad.extend(lie_core.check_axioms(g))
    if (sig * sig) != Mat.identity(n):
        bad.append("sigma is not an involution")
    for i in range(n):
        bi = g.basis_vector(i)
        for j in range(i + 1, n):
            lhs = sig.apply(g.bracket(bi, g.basis_vector(j)))
            rhs = g.bracket(sig.apply(bi), sig.apply(g.basis_vector(j)))
            if lhs != rhs:
                bad.append("sigma not an automorphism at (%d, %d)" % (i + 1, j + 1))
    if pair.k_dim + pair.p_dim != n:
        bad.append("eigenspaces of sigma do not fill g")
    kb, pb = pair.k_basis.basis, pair.p_basis.basis
    for a in kb:
        for b in kb:
            if not pair.k_basis.contains(g.bracket(a, b)):
                bad.append("[k, k] escapes k")
        for b in pb:
            if not pair.p_basis.contains(g.bracket(a, b)):
                bad.append("[k, p] escapes p")
    for a in pb:
        for b in pb:
            if not pair.k_basis.contains(g.bracket(a, b)):
                bad.append("[p, p] escapes k")
    if rank(B) != n:
        bad.append("B is degenerate")
    for i in range(n):
        bi = g.basis_vector(i)
        for j in range(n):
            bj = g.basis_vector(j)
            for l in range(n):
                lhs = pair.b_value(g.bracket(bi, bj), g.basis_vector(l))
                rhs = pair.b_value(bi, g.bracket(bj, g.basis_vector(l)))
                if lhs != rhs:
                    bad.append("B not invariant at (%d, %d, %d)" % (i + 1, j + 1, l + 1))
                    break
            else:
                continue
            break
    if pair.anti_invariant:
        for i in range(n):
            si = sig.apply(g.basis_vector(i))
            for j in range(n):
                lhs = pair.b_value(si, sig.apply(g.basis_vector(j)))
                if lhs != -pair.B.entries[i][j]:
                    bad.append("B not anti-invariant at (%d, %d)" % (i + 1, j + 1))
        for a in kb:
            for b in kb:
                if pair.b_value(a, b) != 0:
                    bad.append("k not B-isotropic")
        for a in pb:
            for b in pb:
                if pair.b_value(a, b) != 0:
                    bad.append("p not B-isotropic")
        if pair.k_dim == pair.p_dim:
            gram = Mat([[pair.b_value(a, b) for b in pb] for a in kb])
            if pair.k_dim and rank(gram) != pair.k_dim:
                bad.append("B does not pair k with p perfectly")
        else:
            bad.append("k and p dimensions differ")
    return sorted(set(bad))


def delta_character(pair):
    """Half-trace character on k: delta(x) = (1/2) tr of ad(x) acting on p.

    Values are returned in the order of pair.k_basis.  The character kills
    [k, k] (a trace of a commutator), which is what makes the quotient
    reduction downstream well defined.
    """
    if pair._delta is None:
        vals = []
        for x in pair.k_basis.basis:
            tr = Fraction(0)
            for j, b in enumerate(pair.p_basis.basis):
                _, pc = pair.decompose(pair.g.bracket(x, b))
                tr += pc[j]
            vals.append(tr / 2)
        pair._delta = tuple(vals)
    return pair._delta


def form_on_g(pair, f):
    """Extend a p-form by zero on k to a coordinate form on all of g."""
    _, tinv = pair._split_matrix()
    return lin_comb(qvec(f), tinv.entries[pair.k_dim:]) or pair.g.zero()


def form_value(pair, f, v):
    fg = form_on_g(pair, f)
    return sum((a * b for a, b in zip(fg, v)), Fraction(0))


def xf_of_form(pair, f):
    """The element x_f of k with B(x_f, y) = f(y) for all y in p.

    Exists and is unique because B pairs k and p perfectly.
    """
    f = qvec(f)
    gram = Mat([[pair.b_value(a, b) for b in pair.p_basis.basis]
                for a in pair.k_basis.basis])
    coeffs = solve(gram.transpose(), f)
    if coeffs is None:
        raise FormDegenerate("B does not realize the form inside k")
    return pair.from_k_coords(coeffs)


def bf_matrix(pair, f):
    """Gram matrix of the skew form (x, y) -> f([x, y]) on the g basis."""
    return form_matrix(pair.g, form_on_g(pair, f))


def form_centralizer(pair, f):
    """g^f: the radical of the form f([., .]), a subalgebra of g."""
    return centralizer_of_form(pair.g, form_on_g(pair, f))


def kf_pf(pair, f):
    gf = form_centralizer(pair, f)
    return gf.intersect(pair.k_basis), gf.intersect(pair.p_basis)


def random_form(pair, rng):
    return tuple(
        Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        for _ in range(pair.p_dim)
    )


def _centralizer_dim(pair, f):
    """dim g^f, the corank of the skew form f([., .])."""
    return pair.g.dim - rank(bf_matrix(pair, f))


def regular_min_dim(pair, seed=0, samples=200):
    """Smallest dim g^f seen over a seeded sample; cached per (seed, samples)."""
    key = ("regmin", seed, samples)
    if key not in pair._caches:
        rng = random.Random(seed)
        best = pair.g.dim + 1
        best_f = None
        for _ in range(samples):
            f = random_form(pair, rng)
            d = _centralizer_dim(pair, f)
            if d < best:
                best, best_f = d, f
        pair._caches[key] = (best, best_f)
    return pair._caches[key]


def sample_regular(pair, seed=0, samples=200):
    """A form realizing the smallest sampled centralizer dimension."""
    return regular_min_dim(pair, seed, samples)[1]


def is_regular(pair, f, seed=0, samples=200):
    """Whether dim g^f matches the sampled minimum.  A sampling certificate,
    not a proof of genericity."""
    best, _ = regular_min_dim(pair, seed, samples)
    return _centralizer_dim(pair, f) == best


class RegularityConditions:
    """Outcome of the two structure conditions on a linear form."""

    def __init__(self, commutes, pf_nilpotent, kf_dim, pf_dim):
        self.commutes = commutes
        self.pf_nilpotent = pf_nilpotent
        self.kf_dim = kf_dim
        self.pf_dim = pf_dim

    @property
    def satisfied(self):
        return self.commutes and self.pf_nilpotent

    def as_dict(self):
        return {
            "kf_pf_commute": self.commutes,
            "pf_generates_nilpotent": self.pf_nilpotent,
            "dim_kf": self.kf_dim,
            "dim_pf": self.pf_dim,
        }


def regularity_conditions(pair, f):
    """Check [k^f, p^f] = 0 and nilpotency of the subalgebra generated by p^f."""
    kf, pf = kf_pf(pair, f)
    commutes = all(
        vec_is_zero(pair.g.bracket(a, b)) for a in kf.basis for b in pf.basis
    )
    gen = lie_core.subalgebra_generated(pf)
    nilp = lie_core.is_nilpotent(gen)
    return RegularityConditions(commutes, nilp, kf.dim, pf.dim)


# ---------------------------------------------------------------------------
# constructions


def make_cotangent_pair(h, name=None):
    """Cotangent pair g = h + h* with the coadjoint action on h*.

    Basis order: the basis of h (this is k) followed by its dual basis
    (this is p).  The coadjoint convention is (x . xi)(y) = -xi([x, y]),
    so [e_i, f_j] = -sum_k c^j_ik f_k in terms of the structure constants
    c of h.  B pairs e_i with f_i.
    """
    n = h.dim
    dim = 2 * n
    table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            table[i][j] = tuple(h.table[i][j]) + zero_vec(n)
    for i in range(n):
        for j in range(n):
            col = [Fraction(0)] * dim
            for k in range(n):
                col[n + k] = -h.table[i][k][j]
            table[i][n + j] = tuple(col)
            table[n + j][i] = vec_scale(-1, tuple(col))
    labels = list(h.labels) + [lab + "*" for lab in h.labels]
    g = LieAlgebra(dim, table, labels=labels,
                   name=name or ("T*" + h.name))
    sigma = Mat([[
        (1 if i == j and i < n else -1 if i == j else 0) for j in range(dim)]
        for i in range(dim)])
    B = Mat([[
        (1 if abs(i - j) == n else 0) for j in range(dim)] for i in range(dim)])
    return SymmetricPair(g, sigma, B, anti_invariant=True,
                         name=name or ("cotangent:" + h.name))


def make_swap_pair(h, q, name=None):
    """Swap pair g = h + h with sigma exchanging the two copies.

    q must be a symmetric invariant nondegenerate form on h; then
    B((a, b), (c, d)) = q(a, c) - q(b, d) is anti-invariant for the swap.
    k is the diagonal copy of h and p the antidiagonal one.
    """
    q = q if isinstance(q, Mat) else Mat(q)
    n = h.dim
    if q.rows != n or q.cols != n:
        raise ValidationError("form size does not match the algebra")
    if q.transpose() != q:
        raise FormNotInvariant("form on h is not symmetric")
    if rank(q) != n:
        raise FormDegenerate("form on h is degenerate")
    for i in range(n):
        bi = h.basis_vector(i)
        for j in range(n):
            bj = h.basis_vector(j)
            for l in range(n):
                bl = h.basis_vector(l)
                lhs = _form_val(q, h.bracket(bi, bj), bl)
                rhs = _form_val(q, bi, h.bracket(bj, bl))
                if lhs != rhs:
                    raise FormNotInvariant(
                        "q([x,y],z) != q(x,[y,z]) at (%d, %d, %d)" % (i, j, l))
    dim = 2 * n
    table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            v = h.table[i][j]
            table[i][j] = tuple(v) + zero_vec(n)
            table[n + i][n + j] = zero_vec(n) + tuple(v)
    labels = [lab + "_1" for lab in h.labels] + [lab + "_2" for lab in h.labels]
    g = LieAlgebra(dim, table, labels=labels, name=name or (h.name + "+" + h.name))
    sigma = Mat([[
        (1 if abs(i - j) == n else 0) for j in range(dim)] for i in range(dim)])
    brows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < n and j < n:
                row.append(q.entries[i][j])
            elif i >= n and j >= n:
                row.append(-q.entries[i - n][j - n])
            else:
                row.append(Fraction(0))
        brows.append(row)
    return SymmetricPair(g, sigma, Mat(brows), anti_invariant=True,
                         name=name or ("swap:" + h.name))


def _form_val(q, x, y):
    return sum(
        (xi * q.entries[i][j] * yj
         for i, xi in enumerate(x) if xi != 0
         for j, yj in enumerate(y) if yj != 0),
        Fraction(0),
    )


def subpair(pair, sub, name=None):
    """Restrict the pair to a sigma-stable subalgebra with nondegenerate B.

    Returns (SymmetricPair, embed) where embed is the tuple of parent
    coordinates of the sub basis; the new pair's coordinates refer to it.
    """
    g = pair.g
    basis = sub.basis
    d = len(basis)
    h = lie_core.induced_structure(sub)
    sig_cols = []
    for b in basis:
        coords = sub.coords_of(pair.sigma_apply(b))
        if coords is None:
            raise ValidationError("subspace is not sigma-stable")
        sig_cols.append(coords)
    bmat = Mat([[pair.b_value(a, b) for b in basis] for a in basis])
    restricted = SymmetricPair(
        h, Mat.from_columns(sig_cols), bmat,
        anti_invariant=pair.anti_invariant,
        name=name or (pair.name + "|%d" % d),
    )
    return restricted, basis


def restrict_form(pair, f, restricted, embed):
    """Coordinates of f on the p basis of a restricted pair."""
    fg = form_on_g(pair, f)
    return tuple(sum((a * w for a, w in zip(fg, lin_comb(pb, embed))), Fraction(0))
                 for pb in restricted.p_basis.basis)


# ---------------------------------------------------------------------------
# builtin catalog


def abelian2():
    return LieAlgebra.from_sparse(2, [], labels=("e1", "e2"), name="abelian2")


def aff1():
    return LieAlgebra.from_sparse(
        2, [(0, 1, (0, 1))], labels=("e1", "e2"), name="aff1")


def heis3():
    return LieAlgebra.from_sparse(
        3, [(0, 1, (0, 0, 1))], labels=("e1", "e2", "e3"), name="heis3")


def sl2():
    return LieAlgebra.from_sparse(
        3,
        [(0, 1, (0, 2, 0)), (0, 2, (0, 0, -2)), (1, 2, (1, 0, 0))],
        labels=("H", "E", "F"),
        name="sl2",
    )


def killing_form(g):
    ads = [g.ad_matrix(g.basis_vector(i)) for i in range(g.dim)]
    return Mat([[(ads[i] * ads[j]).trace() for j in range(g.dim)]
                for i in range(g.dim)])


_BASE_ALGEBRAS = {
    "abelian2": abelian2,
    "aff1": aff1,
    "heis3": heis3,
    "sl2": sl2,
}

BUILTIN_PAIRS = (
    "cotangent:abelian2",
    "cotangent:aff1",
    "cotangent:heis3",
    "cotangent:sl2",
    "swap:sl2",
)


def builtin_algebra(name):
    if name not in _BASE_ALGEBRAS:
        raise KeyError("unknown builtin algebra %r" % name)
    return _BASE_ALGEBRAS[name]()


def builtin_pair(name):
    """Builtin pairs named family:algebra, e.g. cotangent:aff1 or swap:sl2."""
    if ":" not in name:
        raise KeyError("builtin pair names look like family:algebra")
    family, base = name.split(":", 1)
    h = builtin_algebra(base)
    if family == "cotangent":
        return make_cotangent_pair(h, name=name)
    if family == "swap":
        return make_swap_pair(h, killing_form(h), name=name)
    raise KeyError("unknown pair family %r" % family)
