"""Command line front end.

Subcommands: check-pair, polarize, rouviere, jfunction.  Targets are either
builtin pair names (family:algebra, see pairs.BUILTIN_PAIRS) or paths to
JSON algebra documents; reports are deterministic JSON (or --text) so a
fixed seed reproduces byte-identical output.  Exit codes: 0 all checks
passed, 1 at least one check failed, 2 structured error.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import lie_core
from .errors import ParseError, SympairError, UsageError
from .exactla import qvec
from .lie_core import LieAlgebra
from .pairs import (
    BUILTIN_PAIRS,
    SymmetricPair,
    builtin_pair,
    delta_character,
    form_centralizer,
    kf_pf,
    pair_invariant_report,
    regularity_conditions,
)
from .pbw_quotient import commutativity_check, verify_rouviere_homomorphism
from .polarization import (
    construct_polarization,
    pukanszky_check,
    sample_polarizable_forms,
    verify_polarization,
)
from .poly_series import TruncSeries, j_half, j_series

SCHEMA_VERSION = 1


def fmt_q(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_q(value):
    if isinstance(value, bool):
        raise ParseError("boolean where a rational was expected")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("bad rational %r: %s" % (value, exc)) from None
    raise ParseError("bad rational %r" % (value,))


def _parse_matrix(doc, key, dim):
    rows = doc.get(key)
    if (not isinstance(rows, list) or len(rows) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in rows)):
        raise ParseError("%r must be a %dx%d matrix" % (key, dim, dim))
    return [[parse_q(x) for x in r] for r in rows]


def pair_from_doc(doc, name=None, validate=True):
    """Build a SymmetricPair from a JSON algebra document."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError("unsupported schema_version %r" % doc.get("schema_version"))
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim <= 0:
        raise ParseError("'dim' must be a positive integer")
    labels = doc.get("labels")
    if labels is not None and (
            not isinstance(labels, list) or len(labels) != dim
            or any(not isinstance(x, str) for x in labels)):
        raise ParseError("'labels' must list %d strings" % dim)
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError("'brackets' must be a list")
    sparse = []
    for item in brackets:
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError("each bracket is [i, j, coords]")
        i, j, coords = item
        if not (isinstance(i, int) and isinstance(j, int)
                and 0 <= i < dim and 0 <= j < dim and i < j):
            raise ParseError("bracket indices must satisfy 0 <= i < j < dim")
        if not isinstance(coords, list) or len(coords) != dim:
            raise ParseError("bracket coords must have length %d" % dim)
        sparse.append((i, j, [parse_q(x) for x in coords]))
    g = LieAlgebra.from_sparse(dim, sparse, labels=labels,
                               name=doc.get("name", name or "g"))
    sigma = _parse_matrix(doc, "sigma", dim)
    bmat = _parse_matrix(doc, "B", dim)
    flags = doc.get("flags", {})
    if not isinstance(flags, dict):
        raise ParseError("'flags' must be an object")
    anti = bool(flags.get("anti_invariant", True))
    return SymmetricPair(g, sigma, bmat, anti_invariant=anti,
                         name=doc.get("name", name), validate=validate)


def pair_to_doc(pair):
    """Canonical JSON document for a pair (used for input digests)."""
    g = pair.g
    brackets = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            v = g.table[i][j]
            if any(c != 0 for c in v):
                brackets.append([i, j, [fmt_q(c) for c in v]])
    return {
        "schema_version": SCHEMA_VERSION,
        "name": pair.name,
        "dim": g.dim,
        "labels": list(g.labels),
        "brackets": brackets,
        "sigma": [[fmt_q(c) for c in row] for row in pair.sigma.entries],
        "B": [[fmt_q(c) for c in row] for row in pair.B.entries],
        "flags": {"anti_invariant": pair.anti_invariant},
    }


def input_digest(doc):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def load_pair(target, validate=True):
    """Resolve a builtin name or a JSON file path to (pair, digest)."""
    if ":" in target and not os.path.exists(target):
        try:
            pair = builtin_pair(target)
        except KeyError as exc:
            raise ParseError(
                "%s (builtins: %s)" % (exc.args[0], ", ".join(BUILTIN_PAIRS)))
        return pair, input_digest(pair_to_doc(pair))
    try:
        with open(target, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %r: %s" % (target, exc))
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON in %r: %s" % (target, exc))
    pair = pair_from_doc(doc, name=os.path.basename(target), validate=validate)
    return pair, input_digest(pair_to_doc(pair))


def parse_form(text, p_dim):
    """--form values: 'fN' for the N-th dual basis form, or comma rationals."""
    if text.startswith("f") and text[1:].isdigit():
        idx = int(text[1:])
        if not 1 <= idx <= p_dim:
            raise ParseError("form index out of range 1..%d" % p_dim)
        return tuple(Fraction(1 if i == idx - 1 else 0) for i in range(p_dim))
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != p_dim:
        raise ParseError("form needs %d coordinates, got %d" % (p_dim, len(parts)))
    return qvec([parse_q(s) for s in parts])


# ---------------------------------------------------------------------------
# report assembly


def _check(cid, ok, detail=None):
    entry = {"id": cid, "status": "pass" if ok else "fail"}
    if detail is not None:
        entry["detail"] = detail
    return entry


def _report(command, target, digest, options, checks, info=None):
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "target": target,
        "input_digest": digest,
        "options": options,
        "checks": sorted(checks, key=lambda c: c["id"]),
        "passed": all(c["status"] == "pass" for c in checks),
    }
    if info:
        report["info"] = info
    return report


def cmd_check_pair(args):
    pair, digest = load_pair(args.target, validate=False)
    axioms = lie_core.check_axioms(pair.g)
    full = pair_invariant_report(pair)
    pair_level = [m for m in full
                  if not m.startswith(("antisymmetry", "jacobi"))]
    checks = [
        _check("lie_axioms", not axioms, {"violations": axioms}),
        _check("pair_invariants", not pair_level, {"violations": pair_level}),
    ]
    info = {
        "dim": pair.g.dim,
        "dim_k": pair.k_dim,
        "dim_p": pair.p_dim,
        "labels": list(pair.g.labels),
    }
    if not full:
        info["delta"] = [fmt_q(v) for v in delta_character(pair)]
    return _report("check-pair", args.target, digest,
                   {"seed": args.seed}, checks, info)


def _polarize_one(pair, f, pol, tag, checks):
    cert = verify_polarization(pair, f, pol.b)
    puk = pukanszky_check(pair, f, pol.b)
    kf, pf = kf_pf(pair, f)
    gf = form_centralizer(pair, f)
    stable = all(gf.contains(pair.sigma_apply(v)) for v in gf.basis)
    cond = regularity_conditions(pair, f)
    checks.append(_check("%s.construct" % tag, True, {
        "form": [fmt_q(c) for c in f],
        "base_case": pol.base_case,
        "levels": len(pol.trace),
        "dim_b": pol.b.dim,
        "step_dims": [s.dim_g for s in pol.trace],
    }))
    checks.append(_check("%s.verify" % tag, cert.passed, cert.as_dict()))
    checks.append(_check("%s.pukanszky" % tag, puk.passed, puk.as_dict()))
    checks.append(_check("%s.duality" % tag, kf.dim == pf.dim and stable, {
        "dim_kf": kf.dim,
        "dim_pf": pf.dim,
        "gf_sigma_stable": stable,
    }))
    checks.append(_check("%s.conditions" % tag,
                         cond.satisfied, cond.as_dict()))


def cmd_polarize(args):
    pair, digest = load_pair(args.target)
    checks = []
    options = {"seed": args.seed, "count": args.count, "form": args.form}
    if args.form is not None:
        f = parse_form(args.form, pair.p_dim)
        _polarize_one(pair, f, construct_polarization(pair, f), "form[000]",
                      checks)
    else:
        found, skipped = sample_polarizable_forms(pair, args.seed, args.count)
        checks.append(_check("sampling", len(found) == args.count, {
            "requested": args.count,
            "found": len(found),
            "skipped": skipped,
        }))
        for idx, (f, pol) in enumerate(found):
            _polarize_one(pair, f, pol, "form[%03d]" % idx, checks)
    return _report("polarize", args.target, digest, options, checks)


def cmd_rouviere(args):
    pair, digest = load_pair(args.target)
    hom = verify_rouviere_homomorphism(pair, args.degree)
    comm = commutativity_check(pair, args.degree)
    jseries = j_series(pair, args.degree + (args.degree % 2))
    checks = [
        _check("homomorphism", not hom.defects,
               {"defects": hom.as_dict()["defects"],
                "uncorrected_defects": hom.as_dict()["uncorrected_defects"]}),
        _check("injective", hom.injective,
               {"invariant_count": len(hom.invariants)}),
        _check("images_invariant", hom.images_invariant, None),
        _check("graded_dimensions", hom.graded_ok,
               {"rows": hom.as_dict()["graded_dimensions"]}),
        _check("commutativity", comm.passed, comm.as_dict()),
    ]
    info = {
        "invariants": [str(p) for p in hom.invariants],
        "images": [str(c.rep) for c in hom.images],
        "j_is_one": jseries == TruncSeries.constant(
            jseries.nvars, jseries.order, 1),
    }
    return _report("rouviere", args.target, digest,
                   {"degree": args.degree, "seed": args.seed}, checks, info)


def _series_table(series):
    keys = sorted(series.terms, key=lambda k: (sum(k), tuple(-e for e in k)))
    return [{"exponent": list(k), "coeff": fmt_q(series.terms[k])} for k in keys]


def cmd_jfunction(args):
    if args.degree % 2 != 0 or args.degree < 0:
        raise UsageError("jfunction degree must be even and nonnegative")
    pair, digest = load_pair(args.target)
    js = j_series(pair, args.degree)
    jh = j_half(pair, args.degree)
    even = all(sum(k) % 2 == 0 for k in js.terms)
    square = (jh * jh) == js
    checks = [
        _check("constant_term_one", js.constant_term() == 1, None),
        _check("even_degrees_only", even, None),
        _check("square_root_consistent", square, None),
    ]
    info = {"j": _series_table(js), "j_half": _series_table(jh)}
    return _report("jfunction", args.target, digest,
                   {"degree": args.degree}, checks, info)


# ---------------------------------------------------------------------------
# rendering and entry point


def render_text(report):
    lines = ["sympair %s %s" % (report["command"], report["target"])]
    if "error" in report:
        err = report["error"]
        lines.append("ERROR %s: %s" % (err["type"], err["message"]))
        return "\n".join(lines) + "\n"
    for check in report["checks"]:
        lines.append("%s %s" % ("PASS" if check["status"] == "pass" else "FAIL",
                                check["id"]))
    lines.append("RESULT %s" % ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"


def render(report, as_text):
    if as_text:
        return render_text(report)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sympair",
        description="exact checks for symmetric pairs: polarizations, "
                    "determinant series, invariant quotient homomorphism")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("target", help="builtin pair (family:algebra) or JSON path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", dest="as_text", action="store_false",
                       default=False, help="JSON report (default)")
        p.add_argument("--text", dest="as_text", action="store_true",
                       help="human readable report")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--timing", action="store_true",
                       help="include wall time (breaks byte-for-byte determinism)")

    p = sub.add_parser("check-pair", help="structural invariants of a pair")
    common(p)
    p.set_defaults(func=cmd_check_pair)

    p = sub.add_parser("polarize", help="construct and certify polarizations")
    common(p)
    p.add_argument("--count", type=int, default=5,
                   help="number of sampled forms (default 5)")
    p.add_argument("--form", default=None,
                   help="explicit form: fN or comma separated rationals")
    p.set_defaults(func=cmd_polarize)

    p = sub.add_parser("rouviere", help="verify the corrected symmetrization map")
    common(p)
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(func=cmd_rouviere)

    p = sub.add_parser("jfunction", help="coefficient tables of J and J^(1/2)")
    common(p)
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(func=cmd_jfunction)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        report = args.func(args)
    except SympairError as exc:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "target": getattr(args, "target", None),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _emit(render(report, args.as_text), args.out)
        return 2
    if args.timing:
        report["timing_ms"] = int((time.monotonic() - start) * 1000)
    _emit(render(report, args.as_text), args.out)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
