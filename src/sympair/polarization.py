"""Recursive construction of polarizations adapted to a symmetric pair.

Given a regular form f on p, each level takes one spectral split of
ad(x_f), for the dual element x_f in k: one characteristic polynomial,
its rational roots, and the generalized eigenspaces V_lambda.  The
semisimple part x_s of x_f is the k element acting by lambda on each
V_lambda, found by one linear solve, and the V_lambda are the
ad(x_s)-eigenspaces.  When x_s acts nontrivially, the sum n of the
positive ones is bracket-closed and sigma-stable, and the construction
recurses on V_0, which inherits the whole structure.  At the bottom, either
p brackets to zero (then p + k^f works) or the form's centralizer is
everything (then the whole algebra is the answer); anything else is
reported as unsupported rather than guessed at.

Every returned subalgebra is certified after the fact: verify_polarization
checks closure, sigma-stability, isotropy and the dimension formula, and
pukanszky_check certifies b = g^f + (nilradical of b) exactly.
"""

import random
from fractions import Fraction

from .errors import (
    AdjointNotInK,
    BaseCaseUnsupported,
    NonRationalSpectrum,
    NotSemisimple,
)
from .exactla import Mat, lin_comb, solve, vec_is_zero, vec_sub
from .lie_core import Subspace, nilradical, spectral_split
from .pairs import (
    bf_matrix,
    form_centralizer,
    form_on_g,
    is_regular,
    random_form,
    restrict_form,
    subpair,
    xf_of_form,
)


class RecursionStep:
    """Snapshot of one level of the construction, kept for re-verification."""

    def __init__(self, pair, f, x_f, x_s, x_u, eigenvalues, delta, dim_n,
                 g0=None, parts=None, sub=None, f_sub=None, embed=None):
        self.pair = pair
        self.f = f
        self.x_f = x_f
        self.x_s = x_s
        self.x_u = x_u
        self.eigenvalues = eigenvalues
        self.delta = delta
        self.dim_g = pair.g.dim
        self.dim_n = dim_n
        self.g0 = g0
        self.parts = parts
        self.sub = sub
        self.f_sub = f_sub
        self.embed = embed

    @property
    def terminal(self):
        return self.sub is None

    def as_dict(self):
        return {
            "dim_g": self.dim_g,
            "x_f": [str(c) for c in self.x_f],
            "x_s": [str(c) for c in self.x_s],
            "x_u": [str(c) for c in self.x_u],
            "eigenvalues": [str(v) for v in self.eigenvalues],
            "delta": [str(v) for v in self.delta],
            "dim_n": self.dim_n,
            "terminal": self.terminal,
        }


class Polarization:
    def __init__(self, b, trace, base_case):
        self.b = b
        self.trace = trace
        self.base_case = base_case

    def __repr__(self):
        return "Polarization(dim=%d, base_case=%s, levels=%d)" % (
            self.b.dim, self.base_case, len(self.trace))


def _semisimple_part_in_k(pair, spaces):
    """x_s in k with ad(x_s) v = lambda v on each generalized eigenspace
    V_lambda of ad(x_f), which makes ad(x_s) the semisimple part of ad(x_f):
    one solve over the columns ad(k_i) v, stacked over the bases of the V's."""
    g = pair.g
    vectors = [(lam, v) for lam, spc in spaces for v in spc.basis]
    cols = [[c for _, v in vectors for c in g.bracket(k, v)]
            for k in pair.k_basis.basis]
    rhs = [lam * c for lam, v in vectors for c in v]
    coeffs = solve(Mat.from_columns(cols), rhs)
    if coeffs is None:
        raise AdjointNotInK("semisimple part of ad(x_f) is not ad of any k element")
    return pair.from_k_coords(coeffs)


def _construct(pair, f, steps):
    g = pair.g
    x_f = xf_of_form(pair, f)
    spaces = spectral_split(g, x_f)
    if all(lam == 0 for lam, _ in spaces):
        steps.append(RecursionStep(pair, f, x_f, g.zero(), x_f, (), (), 0))
        pb = pair.p_basis.basis
        if all(vec_is_zero(g.bracket(a, b)) for a in pb for b in pb):
            gf = form_centralizer(pair, f)
            kf = gf.intersect(pair.k_basis)
            return list(pb) + list(kf.basis), "AbelianIdealP"
        if bf_matrix(pair, f).is_zero():
            return [g.basis_vector(i) for i in range(g.dim)], "CentralSemisimplePart"
        raise BaseCaseUnsupported(
            "x_s acts trivially but [p, p] != 0 and the form is nonzero")
    x_s = _semisimple_part_in_k(pair, spaces)
    x_u = vec_sub(x_f, x_s)
    if not vec_is_zero(g.bracket(x_s, x_u)):
        raise NotSemisimple("extracted Jordan parts do not commute in g")
    if not all(spc.contains(pair.sigma_apply(v)) for _, spc in spaces for v in spc.basis):
        raise AssertionError("eigenspace of a k element not sigma-stable")
    # x_f != 0 here, and ad(x_f) kills it, so 0 is always an eigenvalue.
    g0 = dict(spaces)[0]
    parts = [(lam, spc) for lam, spc in spaces if lam != 0]
    eigenvalues = tuple(lam for lam, spc in parts for _ in spc.basis)
    delta = tuple(lam for lam, _ in parts if lam > 0)
    n_vectors = [v for lam, spc in parts if lam > 0 for v in spc.basis]
    sub, embed = subpair(pair, g0)
    if sub.g.dim >= g.dim:
        raise AssertionError("recursion did not shrink the algebra")
    f_sub = restrict_form(pair, f, sub, embed)
    steps.append(RecursionStep(pair, f, x_f, x_s, x_u, eigenvalues,
                               delta, len(n_vectors), g0=g0, parts=parts,
                               sub=sub, f_sub=f_sub, embed=embed))
    sub_vectors, tag = _construct(sub, f_sub, steps)
    return [lin_comb(w, embed) for w in sub_vectors] + n_vectors, tag


def construct_polarization(pair, f):
    """Polarization of f, with the recursion trace and terminal tag."""
    steps = []
    vectors, tag = _construct(pair, f, steps)
    return Polarization(Subspace(pair.g, vectors), steps, tag)


class Certificate:
    """Named pass/fail checks with optional witnesses."""

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def as_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {"name": name, "ok": ok, "witness": witness}
                for name, ok, witness in self.checks
            ],
        }

    def __repr__(self):
        return "Certificate(passed=%s)" % self.passed


def verify_polarization(pair, f, b):
    """Certify that b is a polarization of f: sigma-stable isotropic
    subalgebra of the right dimension."""
    g = pair.g
    checks = []
    closed = True
    witness = None
    for i, x in enumerate(b.basis):
        for j, y in enumerate(b.basis):
            if j <= i:
                continue
            if not b.contains(g.bracket(x, y)):
                closed, witness = False, "bracket of basis %d, %d escapes" % (i, j)
                break
        if not closed:
            break
    checks.append(("subalgebra", closed, witness))
    stable = all(b.contains(pair.sigma_apply(x)) for x in b.basis)
    checks.append(("sigma_stable", stable, None))
    fg = form_on_g(pair, f)
    iso = True
    witness = None
    for i, x in enumerate(b.basis):
        for j, y in enumerate(b.basis):
            if j < i:
                continue
            val = sum((a * w for a, w in zip(fg, g.bracket(x, y))), Fraction(0))
            if val != 0:
                iso, witness = False, "f([b_%d, b_%d]) = %s" % (i, j, val)
                break
        if not iso:
            break
    checks.append(("bf_isotropic", iso, witness))
    gf = form_centralizer(pair, f)
    want = Fraction(g.dim + gf.dim, 2)
    checks.append(("dimension", Fraction(b.dim) == want,
                   "dim b = %d, (dim g + dim g^f)/2 = %s" % (b.dim, want)))
    return Certificate(checks)


def pukanszky_check(pair, f, b):
    """Certify b = g^f + nilradical(b); the nilradical computation itself
    verifies nilpotency and ideal-ness before returning."""
    gf = form_centralizer(pair, f)
    bu = nilradical(b)
    ok = gf.add(bu) == b
    witness = "dim g^f = %d, dim b_u = %d, dim b = %d" % (gf.dim, bu.dim, b.dim)
    return Certificate([("pukanszky_sum", ok, witness)])


def sample_polarizable_forms(pair, seed, count, max_attempts=None):
    """Seeded regular forms on which the construction succeeds.

    Draws candidates, keeps the regular ones, and skips the two documented
    error classes (irrational spectrum, unsupported base case).  Returns
    (list of (form, Polarization), skip statistics dict).
    """
    rng = random.Random(seed)
    limit = max_attempts or max(200, 100 * count)
    found = []
    skipped = {"not_regular": 0, "non_rational_spectrum": 0,
               "base_case_unsupported": 0}
    attempts = 0
    while len(found) < count and attempts < limit:
        attempts += 1
        f = random_form(pair, rng)
        if not is_regular(pair, f, seed=seed):
            skipped["not_regular"] += 1
            continue
        try:
            pol = construct_polarization(pair, f)
        except NonRationalSpectrum:
            skipped["non_rational_spectrum"] += 1
            continue
        except BaseCaseUnsupported:
            skipped["base_case_unsupported"] += 1
            continue
        found.append((f, pol))
    skipped["attempts"] = attempts
    return found, skipped
