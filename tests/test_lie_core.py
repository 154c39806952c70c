"""Structure-constant Lie algebras: axioms, series, radicals, eigensplits.
The Jacobi oracle below loops over all index triples independently of the
package's own check."""

import random
from fractions import Fraction as Q

import pytest

from sympair.errors import (
    NonRationalSpectrum,
    NotASubalgebra,
    NotSemisimple,
)
from sympair.lie_core import (
    LieAlgebra,
    Subspace,
    centralizer_of_form,
    check_axioms,
    derived_series,
    eigensplit,
    induced_structure,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    lower_central_series,
    nilradical,
    solvable_radical,
    spectral_split,
    subalgebra_generated,
)
from sympair.exactla import Mat
from sympair.pairs import (
    BUILTIN_PAIRS,
    abelian2,
    aff1,
    builtin_pair,
    heis3,
    killing_form,
    sl2,
)
from sympair.polarization import construct_polarization, sample_polarizable_forms


def so3():
    return LieAlgebra.from_sparse(
        3,
        [(0, 1, (0, 0, 1)), (1, 2, (1, 0, 0)), (0, 2, (0, -1, 0))],
        labels=("x", "y", "z"),
        name="so3",
    )


def sl2_plus_aff1():
    return LieAlgebra.from_sparse(
        5,
        [
            (0, 1, (0, 2, 0, 0, 0)),
            (0, 2, (0, 0, -2, 0, 0)),
            (1, 2, (1, 0, 0, 0, 0)),
            (3, 4, (0, 0, 0, 0, 1)),
        ],
        labels=("H", "E", "F", "a", "b"),
        name="sl2+aff1",
    )


# ----------------------------------------------------------------- axioms

def jacobi_oracle(g):
    """Brute force over every triple, not just i < j < k."""
    for i in range(g.dim):
        x = g.basis_vector(i)
        for j in range(g.dim):
            y = g.basis_vector(j)
            for k in range(g.dim):
                z = g.basis_vector(k)
                total = g.bracket(x, g.bracket(y, z))
                total = tuple(
                    a + b for a, b in zip(total, g.bracket(y, g.bracket(z, x)))
                )
                total = tuple(
                    a + b for a, b in zip(total, g.bracket(z, g.bracket(x, y)))
                )
                if any(c != 0 for c in total):
                    return False
    return True


def test_axioms_hold_on_known_algebras():
    for g in (abelian2(), aff1(), heis3(), sl2(), so3(), sl2_plus_aff1()):
        assert check_axioms(g) == []
        assert jacobi_oracle(g)


def test_axioms_catch_corrupted_table():
    g = heis3()
    table = [list(map(list, row)) for row in g.table]
    table[0][1][2] = Q(1)
    table[1][0][2] = Q(1)  # breaks antisymmetry
    bad = LieAlgebra(3, table)
    assert any("antisymmetry" in msg for msg in check_axioms(bad))
    # break Jacobi: [x,y] = z, [y,z] = x, [x,z] = x is not a Lie bracket
    bad2 = LieAlgebra.from_sparse(
        3,
        [(0, 1, (0, 0, 1)), (1, 2, (1, 0, 0)), (0, 2, (1, 0, 0))],
        name="nonjacobi",
    )
    msgs = check_axioms(bad2)
    assert any("jacobi" in msg.lower() for msg in msgs)
    assert not jacobi_oracle(bad2)


def test_bracket_and_ad_agree():
    rng = random.Random(13)
    for g in (sl2(), heis3(), so3()):
        for _ in range(10):
            x = tuple(Q(rng.randint(-3, 3)) for _ in range(g.dim))
            y = tuple(Q(rng.randint(-3, 3)) for _ in range(g.dim))
            assert g.ad_matrix(x).apply(y) == g.bracket(x, y)


def dense_bracket(g, x, y):
    """The defining sum of x_i y_j table[i][j] over every index pair."""
    out = [Q(0)] * g.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for l, c in enumerate(g.table[i][j]):
                out[l] += xi * yj * c
    return tuple(out)


class DenseBracketAlgebra(LieAlgebra):
    def bracket(self, x, y):
        return dense_bracket(self, x, y)


def conjugated_borel():
    """exp(3 ad E) applied to span{H, F} in sl2: its echelon basis
    a = H + 2/3 F, b = E + 1/9 F has [a, b] = -2/3 a + 2 b."""
    g = sl2()
    return induced_structure(Subspace.span(
        g, [(Q(1), Q(-6), Q(0)), (Q(3), Q(-9), Q(1))]))


def test_sparse_bracket_matches_dense_definition():
    rng = random.Random(17)
    algebras = [builtin_pair(name).g for name in BUILTIN_PAIRS]
    pair = builtin_pair("swap:sl2")
    f = sample_polarizable_forms(pair, seed=0, count=1)[0][0][0]
    algebras += [step.sub.g for step in construct_polarization(pair, f).trace
                 if step.sub is not None]
    borel = conjugated_borel()
    assert any(c.denominator > 1 for row in borel.table for v in row for c in v)
    algebras.append(borel)
    corrupt = [list(map(list, row)) for row in heis3().table]
    corrupt[0][1][2] = Q(1, 2)
    algebras.append(LieAlgebra(3, corrupt))
    algebras.append(LieAlgebra.from_sparse(
        3, [(0, 1, (0, 0, Q(1, 3))), (1, 2, (1, 0, 0)), (0, 2, (1, 0, 0))]))
    for g in algebras:
        dense = DenseBracketAlgebra(g.dim, g.table)
        assert check_axioms(g) == check_axioms(dense)
        for _ in range(10):
            x, y = (tuple(Q(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
                          for _ in range(g.dim)) for _ in range(2))
            assert g.bracket(x, y) == dense_bracket(g, x, y)
            assert g.ad_matrix(x) == Mat.from_columns(
                [dense_bracket(g, x, g.basis_vector(j)) for j in range(g.dim)])
    assert check_axioms(algebras[-1]) and check_axioms(algebras[-2])


def test_sl2_bracket_table():
    g = sl2()
    h, e, f = (g.basis_vector(i) for i in range(3))
    assert g.bracket(h, e) == (Q(0), Q(2), Q(0))
    assert g.bracket(h, f) == (Q(0), Q(0), Q(-2))
    assert g.bracket(e, f) == (Q(1), Q(0), Q(0))


# ------------------------------------------------------------- subspaces

def test_subspace_membership_and_coords():
    g = sl2()
    s = Subspace.span(g, [(Q(1), Q(1), Q(0)), (Q(2), Q(2), Q(0)), (Q(0), Q(0), Q(3))])
    assert s.dim == 2
    v = (Q(5), Q(5), Q(-7))
    assert s.contains(v)
    coords = s.coords_of(v)
    rebuilt = tuple(
        sum((c * b[i] for c, b in zip(coords, s.basis)), Q(0)) for i in range(3)
    )
    assert rebuilt == v
    assert not s.contains((Q(1), Q(0), Q(0)))
    assert s.coords_of((Q(1), Q(0), Q(0))) is None


def test_subspace_equality_and_lattice():
    g = heis3()
    a = Subspace.span(g, [(Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0))])
    b = Subspace.span(g, [(Q(1), Q(1), Q(0)), (Q(1), Q(-1), Q(0))])
    assert a == b
    c = Subspace.span(g, [(Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))])
    assert a.intersect(c).dim == 1
    assert a.add(c).dim == 3
    assert Subspace.whole(g).dim == 3 and Subspace.zero(g).dim == 0


def test_subalgebra_predicates():
    g = sl2()
    borel = Subspace.span(g, [(Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0))])
    assert is_subalgebra(borel)
    ef = Subspace.span(g, [(Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))])
    assert not is_subalgebra(ef)
    assert subalgebra_generated(ef) == Subspace.whole(g)


def test_induced_structure_of_borel():
    g = sl2()
    borel = Subspace.span(g, [(Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0))])
    sub = induced_structure(borel)
    assert sub.dim == 2
    # [H, E] = 2E in the induced coordinates
    assert sub.bracket((Q(1), Q(0)), (Q(0), Q(1))) == (Q(0), Q(2))
    with pytest.raises(NotASubalgebra):
        induced_structure(Subspace.span(g, [(Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))]))


# --------------------------------------------------------------- series

def test_series_dims():
    lcs = lower_central_series(Subspace.whole(heis3()))
    assert [s.dim for s in lcs] == [3, 1, 0]
    ds = derived_series(Subspace.whole(aff1()))
    assert [s.dim for s in ds] == [2, 1, 0]


def test_nilpotency_and_solvability():
    assert is_nilpotent(Subspace.whole(heis3()))
    assert is_solvable(Subspace.whole(heis3()))
    assert is_solvable(Subspace.whole(aff1()))
    assert not is_nilpotent(Subspace.whole(aff1()))
    assert not is_solvable(Subspace.whole(sl2()))
    with pytest.raises(NotASubalgebra):
        is_nilpotent(Subspace.span(sl2(), [(Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))]))


def nilpotent_oracle(g):
    """Lower central series by hand: iterate full bracket spans."""
    current = [g.basis_vector(i) for i in range(g.dim)]
    for _ in range(g.dim + 1):
        nxt = []
        for x in current:
            for i in range(g.dim):
                nxt.append(g.bracket(g.basis_vector(i), x))
        from sympair.exactla import echelon_basis

        nxt = list(echelon_basis(nxt))
        if not nxt:
            return True
        if len(nxt) == len(current) and all(v in current for v in nxt):
            return False
        current = nxt
    return False


def test_nilpotency_against_oracle():
    for g, expect in ((heis3(), True), (abelian2(), True), (aff1(), False),
                      (sl2(), False)):
        assert nilpotent_oracle(g) is expect
        assert is_nilpotent(Subspace.whole(g)) is expect


# -------------------------------------------------------------- radicals

def test_radicals_of_classical_examples():
    assert solvable_radical(Subspace.whole(sl2())).dim == 0
    assert nilradical(Subspace.whole(sl2())).dim == 0
    assert solvable_radical(Subspace.whole(so3())).dim == 0
    assert solvable_radical(Subspace.whole(heis3())).dim == 3
    assert nilradical(Subspace.whole(heis3())).dim == 3
    assert solvable_radical(Subspace.whole(aff1())).dim == 2
    nr = nilradical(Subspace.whole(aff1()))
    assert nr.dim == 1 and nr.contains((Q(0), Q(1)))


def test_radicals_of_direct_sum():
    g = sl2_plus_aff1()
    rad = solvable_radical(Subspace.whole(g))
    assert rad.dim == 2
    assert rad.contains((Q(0),) * 3 + (Q(1), Q(0)))
    assert rad.contains((Q(0),) * 4 + (Q(1),))
    nil = nilradical(Subspace.whole(g))
    assert nil.dim == 1
    assert nil.contains((Q(0),) * 4 + (Q(1),))
    assert not nil.contains((Q(0),) * 3 + (Q(1), Q(0)))


def test_killing_form_of_sl2():
    k = killing_form(sl2())
    assert k.entries[0][0] == 8
    assert k.entries[1][2] == 4 and k.entries[2][1] == 4
    assert k.entries[0][1] == 0 and k.entries[1][1] == 0


# ---------------------------------------------------- form centralizers

def test_centralizer_of_form_on_heis3():
    g = heis3()
    center = centralizer_of_form(g, (Q(0), Q(0), Q(1)))
    assert center.dim == 1
    assert center.contains((Q(0), Q(0), Q(1)))
    everything = centralizer_of_form(g, (Q(0), Q(0), Q(0)))
    assert everything.dim == 3


# -------------------------------------------------------------- eigensplit

def test_eigensplit_of_sl2_cartan():
    g = sl2()
    g0, parts = eigensplit(g, (Q(1), Q(0), Q(0)))
    assert g0.dim == 1 and g0.contains((Q(1), Q(0), Q(0)))
    assert [(lam, spc.dim) for lam, spc in parts] == [(Q(-2), 1), (Q(2), 1)]
    assert parts[1][1].contains((Q(0), Q(1), Q(0)))


def test_eigensplit_grading_property():
    g = sl2_plus_aff1()
    x = (Q(1), Q(0), Q(0), Q(2), Q(0))
    g0, parts = eigensplit(g, x)
    spaces = [(Q(0), g0)] + list(parts)
    total = sum(spc.dim for _, spc in spaces)
    assert total == g.dim
    for lam, sa in spaces:
        for mu, sb in spaces:
            target = [spc for nu, spc in spaces if nu == lam + mu]
            tgt = target[0] if target else Subspace.zero(g)
            for a in sa.basis:
                for b in sb.basis:
                    assert tgt.contains(g.bracket(a, b))


def test_spectral_split_of_non_semisimple_element():
    # ad(t) is a Jordan block of eigenvalue 1 on the abelian ideal <a, b>
    g = LieAlgebra.from_sparse(
        3, [(0, 1, (0, 1, 0)), (0, 2, (0, 1, 1))], labels=("t", "a", "b"))
    assert check_axioms(g) == []
    t = (Q(1), Q(0), Q(0))
    spaces = spectral_split(g, t)
    assert [(lam, spc.dim) for lam, spc in spaces] == [(Q(0), 1), (Q(1), 2)]
    assert spaces[0][1].contains(t)
    assert sum(spc.dim for _, spc in spaces) == g.dim
    with pytest.raises(NotSemisimple):
        eigensplit(g, t)
    # nilpotent E of sl2: one generalized space, all of g
    e_spaces = spectral_split(sl2(), (Q(0), Q(1), Q(0)))
    assert [(lam, spc.dim) for lam, spc in e_spaces] == [(Q(0), 3)]
    # semisimple x: the generalized spaces are the eigensplit's pieces
    x = (Q(1), Q(0), Q(0), Q(2), Q(0))
    g2 = sl2_plus_aff1()
    g0, parts = eigensplit(g2, x)
    assert spectral_split(g2, x) == sorted([(Q(0), g0)] + parts,
                                           key=lambda item: item[0])


def test_eigensplit_error_paths():
    with pytest.raises(NonRationalSpectrum):
        eigensplit(so3(), (Q(1), Q(0), Q(0)))
    with pytest.raises(NotSemisimple):
        eigensplit(sl2(), (Q(0), Q(1), Q(0)))
