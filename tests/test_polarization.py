"""Recursive polarization construction with certificates.  The worked
example below is traced by hand: for the cotangent pair over the
nonabelian 2-dim algebra and the form dual to the first cotangent
direction, the semisimple anchor is the first base vector, the graded
pieces are one-dimensional of weights +1 and -1, and the polarization is
spanned by both plus-weight vectors and the fixed line."""

import random
import sys
from fractions import Fraction as Q

import pytest

from sympair import exactla
from sympair.errors import BaseCaseUnsupported, NonRationalSpectrum
from sympair.exactla import Mat, jordan_chevalley, solve, vec_sub
from sympair.lie_core import Subspace, eigensplit
from sympair.pairs import (
    form_centralizer,
    is_regular,
    kf_pf,
    random_form,
    xf_of_form,
)
from sympair.polarization import (
    _construct,
    construct_polarization,
    pukanszky_check,
    sample_polarizable_forms,
    verify_polarization,
)


def q(*vals):
    return tuple(Q(v) for v in vals)


# ----------------------------------------------------------- worked example

def test_aff1_cotangent_worked_example(cot_aff1):
    f = q(1, 0)
    pol = construct_polarization(cot_aff1, f)
    assert pol.base_case == "AbelianIdealP"
    assert pol.b.dim == 3
    assert pol.b == Subspace.span(
        cot_aff1.g, [q(1, 0, 0, 0), q(0, 1, 0, 0), q(0, 0, 1, 0)]
    )
    assert len(pol.trace) == 2
    first = pol.trace[0]
    assert first.x_f == q(1, 0, 0, 0)
    assert first.x_s == q(1, 0, 0, 0)
    assert first.x_u == q(0, 0, 0, 0)
    assert sorted(first.eigenvalues) == [Q(-1), Q(1)]
    assert first.delta == (Q(1),)
    assert first.dim_n == 1
    assert first.g0.dim == 2
    assert pol.trace[1].terminal
    cert = verify_polarization(cot_aff1, f, pol.b)
    assert cert.passed, cert.checks
    assert [name for name, _, _ in cert.checks] == [
        "subalgebra",
        "sigma_stable",
        "bf_isotropic",
        "dimension",
    ]
    puk = pukanszky_check(cot_aff1, f, pol.b)
    assert puk.passed
    assert form_centralizer(cot_aff1, f).dim == 2


def test_abelian_cotangent_polarization_is_everything(cot_abelian2):
    f = q(3, -2)
    pol = construct_polarization(cot_abelian2, f)
    assert pol.base_case == "AbelianIdealP"
    assert pol.b.dim == 4
    assert verify_polarization(cot_abelian2, f, pol.b).passed
    assert pukanszky_check(cot_abelian2, f, pol.b).passed


def test_zero_form_on_swap_gives_whole_algebra(swap_sl2):
    f = q(0, 0, 0)
    pol = construct_polarization(swap_sl2, f)
    assert pol.base_case == "CentralSemisimplePart"
    assert pol.b.dim == 6
    assert verify_polarization(swap_sl2, f, pol.b).passed
    assert pukanszky_check(swap_sl2, f, pol.b).passed


def test_nilpotent_anchor_is_unsupported(swap_sl2):
    x = q(0, 1, 0, 0, 1, 0)  # nilpotent in both factors
    f = tuple(swap_sl2.b_value(x, v) for v in swap_sl2.p_basis.basis)
    assert xf_of_form(swap_sl2, f) == x
    with pytest.raises(BaseCaseUnsupported):
        construct_polarization(swap_sl2, f)


# ------------------------------------------------------- certificate checks

def test_certificates_reject_wrong_subspaces(cot_aff1):
    f = q(1, 0)
    g = cot_aff1.g
    k_only = cot_aff1.k_basis
    cert = verify_polarization(cot_aff1, f, k_only)
    assert not cert.passed
    failed = {name for name, ok, _ in cert.checks if not ok}
    assert "dimension" in failed
    whole = Subspace.whole(g)
    cert2 = verify_polarization(cot_aff1, f, whole)
    failed2 = {name for name, ok, _ in cert2.checks if not ok}
    assert "bf_isotropic" in failed2 and "dimension" in failed2
    # an abelian sigma-stable plane that misses the centralizer direction
    plane = Subspace.span(g, [q(0, 0, 1, 0), q(0, 0, 0, 1)])
    puk = pukanszky_check(cot_aff1, f, plane)
    assert not puk.passed


def test_certificate_as_dict_shape(cot_aff1):
    f = q(1, 0)
    pol = construct_polarization(cot_aff1, f)
    d = verify_polarization(cot_aff1, f, pol.b).as_dict()
    assert {c["name"] for c in d["checks"]} >= {"subalgebra", "dimension"}
    assert d["passed"] is True
    t = pol.trace[0].as_dict()
    assert t["dim_g"] == 4 and t["terminal"] is False


# -------------------------------------------------------- trace invariants

def assert_trace_invariants(pair, pol):
    for step in pol.trace:
        if step.terminal:
            continue
        g = step.pair.g
        spaces = [(Q(0), step.g0)] + list(step.parts)
        # the pieces fill the algebra
        assert sum(spc.dim for _, spc in spaces) == g.dim
        for lam, sa in spaces:
            for mu, sb in spaces:
                # pairing vanishes unless the weights cancel
                if lam + mu != 0:
                    for a in sa.basis:
                        for b in sb.basis:
                            assert step.pair.b_value(a, b) == 0
                # brackets respect the grading
                matches = [spc for nu, spc in spaces if nu == lam + mu]
                tgt = matches[0] if matches else Subspace.zero(g)
                for a in sa.basis:
                    for b in sb.basis:
                        assert tgt.contains(g.bracket(a, b))
        # strict shrink into the recursion
        assert step.sub.g.dim < g.dim
        assert step.sub.g.dim == step.g0.dim


def test_trace_invariants_on_sampled_forms(pairs):
    for name, pair in pairs.items():
        found, skipped = sample_polarizable_forms(pair, seed=5, count=4)
        assert len(found) == 4
        for f, pol in found:
            assert_trace_invariants(pair, pol)


# ------------------------------------------------------------- bulk sampling

def test_sampled_polarizations_certify(pairs):
    for name, pair in pairs.items():
        found, skipped = sample_polarizable_forms(pair, seed=3, count=5)
        assert len(found) == 5
        assert skipped["attempts"] >= 5
        for f, pol in found:
            assert verify_polarization(pair, f, pol.b).passed
            assert pukanszky_check(pair, f, pol.b).passed
            kf, pf = kf_pf(pair, f)
            assert kf.dim == pf.dim
            gf = form_centralizer(pair, f)
            assert all(gf.contains(pair.sigma_apply(v)) for v in gf.basis)


def test_sampling_is_deterministic(swap_sl2):
    a, sk_a = sample_polarizable_forms(swap_sl2, seed=11, count=3)
    b, sk_b = sample_polarizable_forms(swap_sl2, seed=11, count=3)
    assert [f for f, _ in a] == [f for f, _ in b]
    assert sk_a == sk_b


def test_polarization_dimension_formula_holds(pairs):
    for pair in pairs.values():
        found, _ = sample_polarizable_forms(pair, seed=18, count=2)
        for f, pol in found:
            gf = form_centralizer(pair, f)
            assert 2 * pol.b.dim == pair.g.dim + gf.dim


# ------------------------------------------------ one spectral split a level

def newton_split(pair, x_f):
    """Oracle: the semisimple part of ad(x_f) by the Newton Jordan split,
    solved for in k, then the eigensplit of ad(x_s).  Returns
    (x_s, x_u, g0, parts), with g0 and parts None when ad(x_f) is nilpotent."""
    g = pair.g
    s_mat, _ = jordan_chevalley(g.ad_matrix(x_f))
    if s_mat.is_zero():
        return g.zero(), x_f, None, None
    cols = [g.ad_matrix(k).vec() for k in pair.k_basis.basis]
    x_s = pair.from_k_coords(solve(Mat.from_columns(cols), s_mat.vec()))
    g0, parts = eigensplit(g, x_s)
    return x_s, vec_sub(x_f, x_s), g0, parts


def test_spectral_levels_match_newton_jordan_oracle(pairs):
    """Every level of accepted and rejected regular forms alike; a rejected
    form fails at the level below its last recorded step."""
    for pair in pairs.values():
        rng = random.Random(4)
        for _ in range(20):
            f = random_form(pair, rng)
            if not is_regular(pair, f):
                continue
            steps = []
            try:
                _construct(pair, f, steps)
            except NonRationalSpectrum:
                sub, f_sub = (steps[-1].sub, steps[-1].f_sub) if steps else (pair, f)
                with pytest.raises(NonRationalSpectrum):
                    newton_split(sub, xf_of_form(sub, f_sub))
            except BaseCaseUnsupported:
                pass
            for step in steps:
                assert newton_split(step.pair, step.x_f) == (
                    step.x_s, step.x_u, step.g0, step.parts)


def test_one_charpoly_per_level_and_no_newton_split(pairs, monkeypatch):
    calls = {"charpoly": 0, "jordan_chevalley": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        fn = getattr(exactla, name)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("sympair") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    for pair in pairs.values():
        found, _ = sample_polarizable_forms(pair, seed=1, count=2)
        for f, _ in found:
            calls["charpoly"] = 0
            pol = construct_polarization(pair, f)
            assert calls["charpoly"] == len(pol.trace)
    assert calls["jordan_chevalley"] == 0
