"""Normal forms in the enveloping algebra and the invariant quotient.

Words in the basis p1 < ... < pm < k1 < ... < kn of g are straightened into
the PBW basis by the rewrite x y -> y x + [x, y] at out-of-order adjacent
positions; results are memoized per pair.  The quotient divides by the left
ideal generated by X - delta(X) for X in k, which concretely substitutes the
half-trace character value for every rightmost k factor, so each class has a
canonical polynomial representative on p.

Symmetrization averages the orderings of a monomial without listing them:
the first letter of a uniformly random ordering of y^a is p_i with
probability a_i/d, so sym(y^a) = sum_i (a_i/d) p_i sym(y^(a - e_i)), and
this recursion is memoized per pair.

rouviere composes the three stages: pair the square root of the determinant
series J with an invariant polynomial (constant coefficient operators), then
symmetrize into the enveloping algebra, then reduce to the quotient.  The
verification routines check that this map is an algebra isomorphism onto the
invariant classes in the exact sense, degree by degree.  Both verifiers read
the invariant classes from one exact kernel of the k action per pair and
degree, and certify the invariance of each factor once.
"""

from fractions import Fraction

from .errors import NotInvariant
from .exactla import (
    Mat,
    echelon_basis,
    kernel,
    pivot_columns,
    rank,
    vec_is_zero,
    zero_vec,
)
from .pairs import delta_character
from .poly_series import (
    MultiPoly,
    apply_cc_operator,
    invariants_up_to_degree,
    j_half,
    k_derivation,
    monomials_of_degree,
)


def _add_into(out, key, value):
    """out[key] += value, dropping the key when the sum vanishes."""
    acc = out.get(key, 0) + value
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


class PBWContext:
    """Generator table, bracket table and straightening memo for one pair."""

    def __init__(self, pair):
        self.pair = pair
        self.m = pair.p_dim
        self.n = pair.k_dim
        self.ngens = self.m + self.n
        gens = list(pair.p_basis.basis) + list(pair.k_basis.basis)
        bracket = {}
        for a in range(self.ngens):
            for b in range(self.ngens):
                w = pair.g.bracket(gens[a], gens[b])
                kc, pc = pair.decompose(w)
                sparse = [(t, c) for t, c in enumerate(pc) if c != 0]
                sparse += [(self.m + t, c) for t, c in enumerate(kc) if c != 0]
                bracket[(a, b)] = tuple(sparse)
        self.gen_bracket = bracket
        self.delta = delta_character(pair)
        self._memo = {}

    def exponent_of_word(self, word):
        exp = [0] * self.ngens
        for t in word:
            exp[t] += 1
        return tuple(exp)

    def word_of_exponent(self, exp):
        word = []
        for t, e in enumerate(exp):
            word.extend([t] * e)
        return tuple(word)

    def straighten(self, word):
        """Expand a generator word in the PBW basis: dict exponent -> coeff."""
        memo = self._memo
        found = memo.get(word)
        if found is not None:
            return found
        pos = None
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                pos = i
                break
        if pos is None:
            result = {self.exponent_of_word(word): Fraction(1)}
            memo[word] = result
            return result
        a, b = word[pos], word[pos + 1]
        total = dict(self.straighten(word[:pos] + (b, a) + word[pos + 2:]))
        for t, c in self.gen_bracket[(a, b)]:
            sub = self.straighten(word[:pos] + (t,) + word[pos + 2:])
            for exp, v in sub.items():
                _add_into(total, exp, c * v)
        memo[word] = total
        return total


def pbw_context(pair):
    if "pbw" not in pair._caches:
        pair._caches["pbw"] = PBWContext(pair)
    return pair._caches["pbw"]


class PBWElement:
    """Element of the enveloping algebra in PBW normal form.

    Exponent tuples have one slot per generator, p generators first.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {tuple(k): Fraction(v) for k, v in (terms or {}).items()
                      if Fraction(v) != 0}

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def one(cls, ctx):
        return cls(ctx, {(0,) * ctx.ngens: 1})

    @classmethod
    def generator(cls, ctx, t):
        exp = tuple(1 if i == t else 0 for i in range(ctx.ngens))
        return cls(ctx, {exp: 1})

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        return max((sum(k) for k in self.terms), default=0)

    def __eq__(self, other):
        return (isinstance(other, PBWElement) and self.ctx is other.ctx
                and self.terms == other.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            _add_into(out, k, v)
        return PBWElement(self.ctx, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return PBWElement(self.ctx, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PBWElement):
            return pbw_multiply(self, other)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def __repr__(self):
        return "PBWElement(%d terms, degree %d)" % (len(self.terms), self.degree)


def pbw_multiply(u, v):
    """Product in the enveloping algebra, straightened to normal form."""
    ctx = u.ctx
    out = {}
    for eu, cu in u.terms.items():
        wu = ctx.word_of_exponent(eu)
        for ev, cv in v.terms.items():
            word = wu + ctx.word_of_exponent(ev)
            c = cu * cv
            for exp, w in ctx.straighten(word).items():
                _add_into(out, exp, c * w)
    return PBWElement(ctx, out)


class QuotientClass:
    """Class in the quotient by the left ideal of X - delta(X), X in k.

    Stored as its canonical polynomial representative on p; two classes are
    equal exactly when the representatives coincide.
    """

    __slots__ = ("pair", "rep")

    def __init__(self, pair, rep):
        self.pair = pair
        self.rep = rep

    def is_zero(self):
        return self.rep.is_zero()

    def __eq__(self, other):
        return (isinstance(other, QuotientClass) and self.pair is other.pair
                and self.rep == other.rep)

    def __add__(self, other):
        return QuotientClass(self.pair, self.rep + other.rep)

    def __sub__(self, other):
        return QuotientClass(self.pair, self.rep - other.rep)

    def scale(self, c):
        return QuotientClass(self.pair, self.rep.scale(c))

    def __repr__(self):
        return "QuotientClass(%s)" % self.rep


def reduce_mod_ideal(pair, u):
    """Canonical representative: substitute delta values for the k block."""
    ctx = pbw_context(pair)
    m, delta = ctx.m, ctx.delta
    out = {}
    for exp, c in u.terms.items():
        for t in range(ctx.n):
            e = exp[m + t]
            if e:
                c = c * delta[t] ** e
        _add_into(out, exp[:m], c)
    return QuotientClass(pair, MultiPoly(m, out))


def poly_to_pbw(pair, poly):
    """Ordered monomial lift of a polynomial on p (no symmetrization)."""
    ctx = pbw_context(pair)
    return PBWElement(ctx, {exp + (0,) * ctx.n: c
                            for exp, c in poly.terms.items()})


def element_to_pbw(pair, x):
    """Degree one element of the enveloping algebra from a g vector."""
    ctx = pbw_context(pair)
    kc, pc = pair.decompose(x)
    return PBWElement(ctx, {
        tuple(1 if i == t else 0 for i in range(ctx.ngens)): c
        for t, c in enumerate(tuple(pc) + tuple(kc))})


def _symmetrized_monomial(pair, exp):
    """sym(y^exp) as PBW terms, by the first-letter recursion (memoized)."""
    memo = pair._caches.setdefault("sym", {})
    found = memo.get(exp)
    if found is not None:
        return found
    ctx = pbw_context(pair)
    d = sum(exp)
    out = {} if d else {(0,) * ctx.ngens: Fraction(1)}
    for i, a in enumerate(exp):
        if not a:
            continue
        weight = Fraction(a, d)
        rest = exp[:i] + (a - 1,) + exp[i + 1:]
        for e, c in _symmetrized_monomial(pair, rest).items():
            for e2, v in ctx.straighten((i,) + ctx.word_of_exponent(e)).items():
                _add_into(out, e2, weight * c * v)
    memo[exp] = out
    return out


def symmetrize(pair, poly):
    """Symmetrization S[p] -> U(g): average the orderings of each monomial."""
    out = {}
    for exp, c in poly.terms.items():
        for e, v in _symmetrized_monomial(pair, exp).items():
            _add_into(out, e, c * v)
    return PBWElement(pbw_context(pair), out)


def class_k_action(pair, x, cls):
    """Action of x in k on a class: the class of x u - u x."""
    if not vec_is_zero(pair.decompose(x)[1]):
        raise ValueError("class action element must lie in k")
    xe = element_to_pbw(pair, x)
    u = poly_to_pbw(pair, cls.rep)
    return reduce_mod_ideal(pair, pbw_multiply(xe, u) - pbw_multiply(u, xe))


def is_invariant_class(pair, cls):
    return all(class_k_action(pair, x, cls).is_zero()
               for x in pair.k_basis.basis)


def _require_invariant(pair, classes):
    for cls in classes:
        if not is_invariant_class(pair, cls):
            raise NotInvariant("class product needs invariant factors")


def _product(pair, a, b):
    """Product of classes whose invariance the caller has certified."""
    prod = pbw_multiply(poly_to_pbw(pair, a.rep), poly_to_pbw(pair, b.rep))
    return reduce_mod_ideal(pair, prod)


def class_multiply(pair, a, b):
    """Product of invariant classes; NotInvariant if either input is not."""
    _require_invariant(pair, (a, b))
    return _product(pair, a, b)


def _check_poly_invariant(pair, poly):
    for x in pair.k_basis.basis:
        if not k_derivation(pair, x, poly).is_zero():
            raise NotInvariant("polynomial is not k-invariant")


def rouviere(pair, poly):
    """The corrected symmetrization map on invariant polynomials.

    Pairs J^(1/2), truncated at the even ceiling of deg(poly), with poly via
    constant coefficient operators, symmetrizes the result and reduces it to
    the invariant quotient.
    """
    _check_poly_invariant(pair, poly)
    d = poly.degree
    order = d + (d % 2)
    corrected = apply_cc_operator(j_half(pair, order), poly)
    return reduce_mod_ideal(pair, symmetrize(pair, corrected))


def beta_class(pair, poly):
    """Uncorrected symmetrization into the quotient (diagnostic companion)."""
    return reduce_mod_ideal(pair, symmetrize(pair, poly))


def _invariant_classes(pair, degree):
    """Invariant classes with representatives of degree <= degree, from one
    exact kernel of the k action, cached per pair and degree.

    Returns (monomials, rows): the monomials are listed degree-descending and
    the rows are the reduced echelon basis of the kernel in their
    coordinates.  The action only drops filtration degree, and each row is
    zero above its pivot, so a row's pivot monomial has the row's degree."""
    key = ("invariant_classes", degree)
    if key not in pair._caches:
        mons = []
        for e in range(degree, -1, -1):
            mons.extend(monomials_of_degree(pair.p_dim, e))
        rows = []
        for x in pair.k_basis.basis:
            images = [class_k_action(
                pair, x, QuotientClass(pair, MultiPoly.monomial(mon))).rep
                for mon in mons]
            for target in mons:
                rows.append(tuple(img.coefficient(target) for img in images))
        vectors = kernel(Mat(rows or [zero_vec(len(mons))]))
        pair._caches[key] = (mons, echelon_basis(vectors))
    return pair._caches[key]


def invariant_class_filtered_dims(pair, degree):
    """dim of invariant classes with representatives of degree <= e, per e."""
    mons, rows = _invariant_classes(pair, degree)
    pivot_degrees = [sum(mons[c]) for c in pivot_columns(rows)]
    return [sum(1 for p in pivot_degrees if p <= e) for e in range(degree + 1)]


def invariant_class_basis(pair, degree):
    """Basis of invariant classes with representatives of degree <= degree,
    lowest degree first and adapted to the degree filtration: the classes
    of degree <= e are a basis of that filtration step, for every e."""
    mons, rows = _invariant_classes(pair, degree)
    return [QuotientClass(pair, MultiPoly(pair.p_dim, dict(zip(mons, row))))
            for row in reversed(rows)]


class HomomorphismReport:
    """Outcome of the degree-bounded homomorphism and isomorphism checks."""

    def __init__(self, degree, invariants, images, defects, injective,
                 graded, beta_defects, images_invariant):
        self.degree = degree
        self.invariants = invariants
        self.images = images
        self.defects = defects
        self.injective = injective
        self.graded = graded
        self.beta_defects = beta_defects
        self.images_invariant = images_invariant

    @property
    def graded_ok(self):
        return all(a == b for _, a, b in self.graded)

    @property
    def passed(self):
        return (not self.defects and self.injective and self.graded_ok
                and self.images_invariant)

    def as_dict(self):
        return {
            "degree": self.degree,
            "invariant_count": len(self.invariants),
            "defects": [
                {"i": i, "j": j, "defect": str(poly)}
                for i, j, poly in self.defects
            ],
            "injective": self.injective,
            "images_invariant": self.images_invariant,
            "graded_dimensions": [
                {"degree": e, "invariant_polys": a, "invariant_classes": b}
                for e, a, b in self.graded
            ],
            "uncorrected_defects": len(self.beta_defects),
            "passed": self.passed,
        }


def verify_rouviere_homomorphism(pair, degree):
    """Exact check that the corrected symmetrization is an isomorphism of
    algebras onto the invariant classes, through the given degree."""
    invs = invariants_up_to_degree(pair, degree)
    images = [rouviere(pair, p) for p in invs]
    betas = [beta_class(pair, p) for p in invs]
    # invs[0] is the constant 1, so every image and beta class is a factor
    # of some product below; each is certified once, and a failure raises.
    _require_invariant(pair, images + betas)
    defects = []
    beta_defects = []
    for i in range(len(invs)):
        for j in range(i, len(invs)):
            if invs[i].degree + invs[j].degree > degree:
                continue
            lhs = _product(pair, images[i], images[j])
            rhs = rouviere(pair, invs[i] * invs[j])
            if lhs != rhs:
                defects.append((i, j, (lhs - rhs).rep))
            blhs = _product(pair, betas[i], betas[j])
            brhs = beta_class(pair, invs[i] * invs[j])
            if blhs != brhs:
                beta_defects.append((i, j, (blhs - brhs).rep))
    support = sorted({mon for c in images for mon in c.rep.terms})
    rows = [tuple(c.rep.coefficient(mon) for mon in support) for c in images]
    injective = (not rows) or rank(Mat(rows)) == len(rows)
    filtered = [0] + invariant_class_filtered_dims(pair, degree)
    graded = [(e, sum(1 for p in invs if p.degree == e),
               filtered[e + 1] - filtered[e]) for e in range(degree + 1)]
    return HomomorphismReport(degree, invs, images, defects, injective,
                              graded, beta_defects, True)


class CommutativityReport:
    def __init__(self, degree, basis_size, defects):
        self.degree = degree
        self.basis_size = basis_size
        self.defects = defects

    @property
    def passed(self):
        return not self.defects

    def as_dict(self):
        return {
            "degree": self.degree,
            "class_basis_size": self.basis_size,
            "defects": [
                {"i": i, "j": j, "defect": str(poly)}
                for i, j, poly in self.defects
            ],
            "passed": self.passed,
        }


def commutativity_check(pair, degree):
    """Exact commutativity of the invariant class algebra through degree."""
    classes = invariant_class_basis(pair, degree)
    _require_invariant(pair, classes)
    defects = []
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if classes[i].rep.degree + classes[j].rep.degree > degree:
                continue
            ab = _product(pair, classes[i], classes[j])
            ba = _product(pair, classes[j], classes[i])
            if ab != ba:
                defects.append((i, j, (ab - ba).rep))
    return CommutativityReport(degree, len(classes), defects)
