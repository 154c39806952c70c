"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (name, op id, parent span, start, end) and the counts named in
METRICS.  The package binds its functions with `from .x import y`, so a
function is replaced in every `sympair` module that binds it, not only in
the module that defines it; methods are replaced on their class.
`uninstall()` puts every original back.

Self time of a span is its duration minus the time its child spans cover.
"""

import json
import math
import sys
import time

# (module, attribute) of each traced function; the span name is
# "<module>.<attribute>".  Every cmd_* function of the CLI is traced under
# the one name "cli.cmd".
TARGETS = (
    ("exactla", "rref"),
    ("exactla", "charpoly"),
    ("exactla", "rational_roots"),
    ("exactla", "jordan_chevalley"),
    ("lie_core", "LieAlgebra.bracket"),
    ("lie_core", "eigensplit"),
    ("lie_core", "centralizer_of_form"),
    ("lie_core", "nilradical"),
    ("pairs", "builtin_pair"),
    ("pairs", "regular_min_dim"),
    ("pairs", "SymmetricPair.decompose"),
    ("polarization", "sample_polarizable_forms"),
    ("polarization", "construct_polarization"),
    ("polarization", "verify_polarization"),
    ("polarization", "pukanszky_check"),
    ("poly_series", "invariants_up_to_degree"),
    ("poly_series", "k_derivation"),
    ("poly_series", "j_half"),
    ("poly_series", "j_series"),
    ("poly_series", "apply_cc_operator"),
    ("pbw_quotient", "PBWContext.straighten"),
    ("pbw_quotient", "symmetrize"),
    ("pbw_quotient", "pbw_multiply"),
    ("pbw_quotient", "reduce_mod_ideal"),
    ("pbw_quotient", "class_k_action"),
    ("pbw_quotient", "is_invariant_class"),
    ("pbw_quotient", "class_multiply"),
    ("pbw_quotient", "invariant_class_filtered_dims"),
    ("pbw_quotient", "invariant_class_basis"),
    ("pbw_quotient", "verify_rouviere_homomorphism"),
    ("pbw_quotient", "commutativity_check"),
    ("cli", "load_pair"),
    ("cli", "render"),
    ("cli", "cmd_check_pair"),
    ("cli", "cmd_polarize"),
    ("cli", "cmd_rouviere"),
    ("cli", "cmd_jfunction"),
)

_CALLS = ("calls", "count")
_SELF = ("self_s", "s")
_COUNT = "count"
_RATIO = "ratio"

# Per-layer metrics reported by the traced run, per op, in report order.
METRICS = tuple(
    (span + "." + stat, unit) for span, stats in (
        ("exactla.rref", (_CALLS, _SELF, ("cells", _COUNT))),
        ("exactla.charpoly", (_CALLS, _SELF)),
        ("exactla.rational_roots", (_CALLS, _SELF, ("rejected", _COUNT))),
        ("exactla.jordan_chevalley", (_CALLS, _SELF)),
        ("lie_core.LieAlgebra.bracket", (_CALLS, _SELF)),
        ("lie_core.eigensplit", (_CALLS, _SELF)),
        ("lie_core.centralizer_of_form", (_CALLS, _SELF)),
        ("lie_core.nilradical", (_CALLS, _SELF)),
        ("pairs.builtin_pair", (_CALLS, _SELF)),
        ("pairs.regular_min_dim", (_CALLS, _SELF)),
        ("pairs.SymmetricPair.decompose", (_CALLS, _SELF)),
        ("polarization.sample_polarizable_forms", (
            _SELF, ("attempts", _COUNT), ("accepted", _COUNT),
            ("accept_ratio", _RATIO), ("rejected_non_rational", _COUNT),
            ("rejected_not_regular", _COUNT),
            ("rejected_base_case", _COUNT))),
        ("polarization.construct_polarization",
         (_CALLS, _SELF, ("levels", _COUNT))),
        ("polarization.verify_polarization", (_CALLS, _SELF)),
        ("polarization.pukanszky_check", (_CALLS, _SELF)),
        ("poly_series.invariants_up_to_degree",
         (_SELF, ("invariants", _COUNT))),
        ("poly_series.k_derivation", (_CALLS, _SELF)),
        ("poly_series.j_half", (_CALLS, _SELF)),
        ("poly_series.j_series", (_CALLS, _SELF)),
        ("poly_series.apply_cc_operator", (_CALLS, _SELF)),
        ("pbw_quotient.PBWContext.straighten", (
            _CALLS, _SELF, ("hit_ratio", _RATIO), ("memo_words", _COUNT))),
        ("pbw_quotient.symmetrize", (_CALLS, _SELF, ("orderings", _COUNT))),
        ("pbw_quotient.pbw_multiply", (_CALLS, _SELF)),
        ("pbw_quotient.reduce_mod_ideal", (_CALLS, _SELF)),
        ("pbw_quotient.class_k_action", (_CALLS, _SELF)),
        ("pbw_quotient.is_invariant_class", (_CALLS,)),
        ("pbw_quotient.class_multiply", (_CALLS, _SELF)),
        ("pbw_quotient.invariant_class_filtered_dims", (_SELF,)),
        ("pbw_quotient.invariant_class_basis", (_SELF,)),
        ("pbw_quotient.verify_rouviere_homomorphism", (_SELF,)),
        ("pbw_quotient.commutativity_check", (_SELF,)),
        ("cli.load_pair", (_SELF,)),
        ("cli.render", (_SELF,)),
        ("cli.cmd", (_SELF,)),
    ) for stat, unit in stats
)

# Its hit_ratio and memo_words read the PBWContext memo, library state
# rather than call arguments or results; both are None (absent) when the
# memo no longer exists.
_STRAIGHTEN = "pbw_quotient.PBWContext.straighten"


# Each ratio metric as (numerator, denominator) counts, summed over ops.
RATIOS = {
    "polarization.sample_polarizable_forms.accept_ratio": (
        "polarization.sample_polarizable_forms.accepted",
        "polarization.sample_polarizable_forms.attempts"),
    _STRAIGHTEN + ".hit_ratio": (_STRAIGHTEN + ".hits",
                                 _STRAIGHTEN + ".calls"),
}


def window_metrics(ops):
    """METRICS over several ops' `end_op` results: sums, and ratios of
    sums (0.0 when nothing was attempted).  A metric whose inputs are
    absent in any op is None."""
    out = {}
    for metric, _ in METRICS:
        parts = RATIOS.get(metric, (metric,))
        values = [[op[p] for op in ops] for p in parts]
        if any(None in v for v in values):
            out[metric] = None
        elif metric in RATIOS:
            num, den = sum(values[0]), sum(values[1])
            out[metric] = num / den if den else 0.0
        else:
            out[metric] = sum(values[0])
    return out


def span_name(module, attr):
    return "cli.cmd" if attr.startswith("cmd_") else module + "." + attr


class Tracer:
    """Spans and counts for the ops run while installed.

    Spans are kept in memory as tuples (span id, name, op id, parent span
    id, start, end) and written out by `dump`.  Counts for the current op
    are gathered by `begin_op`/`end_op`, which return the op's metrics.
    """

    def __init__(self):
        self.spans = []
        self._patches = []
        self._stack = []
        self._next_id = 0
        self._op = -1
        self._calls = {}
        self._self = {}
        self._counts = {}
        self._contexts = {}
        self._memo_absent = False

    # -- patching -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "sympair" or name.startswith("sympair.")]
        for module, attr in TARGETS:
            defining = sys.modules["sympair." + module]
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(defining, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original,
                            self._wrap(name, original))
                continue
            original = getattr(defining, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- spans ----------------------------------------------------------

    def _wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        on_error = _ON_ERROR.get(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(name, sid, parent, start, clock(), frame)
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            tracer._close(name, sid, parent, start, clock(), frame)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__traced_name__ = name
        traced.__wrapped__ = fn
        return traced

    def _close(self, name, sid, parent, start, end, frame):
        stack = self._stack
        stack.pop()
        dur = end - start
        if stack:
            stack[-1][1] += dur
        self._calls[name] = self._calls.get(name, 0) + 1
        self._self[name] = self._self.get(name, 0.0) + dur - frame[1]
        self.spans.append((sid, name, self._op, parent, start, end))

    def _count(self, key, n):
        self._counts[key] = self._counts.get(key, 0) + n

    # -- per op ---------------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id
        self._calls = {}
        self._self = {}
        self._counts = {}
        self._contexts = {}
        self._memo_absent = False

    def end_op(self):
        """The counts and self times of the op just run: every METRICS
        name except the ratios, plus the ratios' numerators (RATIOS)."""
        calls, selfs, counts = self._calls, self._self, self._counts
        out = {}
        for metric, _ in METRICS:
            span, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = calls.get(span, 0)
            elif stat == "self_s":
                out[metric] = selfs.get(span, 0.0)
            elif metric not in RATIOS:
                out[metric] = counts.get(metric, 0)
        hits = _STRAIGHTEN + ".hits"
        out[hits] = counts.get(hits, 0)
        out[_STRAIGHTEN + ".memo_words"] = sum(
            len(ctx._memo) for ctx in self._contexts.values())
        if self._memo_absent:
            out[hits] = out[_STRAIGHTEN + ".memo_words"] = None
        self._op = -1
        return out

    def dump(self, path):
        """Write every span recorded so far as one JSON document."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "name", "op", "parent", "start", "end"],
                "names": names,
                "spans": [[sid, index[name], op, parent,
                           round(start, 9), round(end, 9)]
                          for sid, name, op, parent, start, end in self.spans],
            }, fh, separators=(",", ":"))
            fh.write("\n")


# -- counts taken at the layer boundaries ------------------------------------


def _rref_cells(tracer, args):
    m = args[0]
    tracer._count("exactla.rref.cells", m.rows * m.cols)


def _straighten_hit(tracer, args):
    ctx, word = args[0], args[1]
    memo = getattr(ctx, "_memo", None)
    if not isinstance(memo, dict):
        tracer._memo_absent = True
        return
    tracer._contexts[id(ctx)] = ctx
    if word in memo:
        tracer._count(_STRAIGHTEN + ".hits", 1)


def _roots_rejected(tracer, exc):
    if type(exc).__name__ == "NonRationalSpectrum":
        tracer._count("exactla.rational_roots.rejected", 1)


def _symmetrize_orderings(tracer, args):
    poly = args[1]
    tracer._count("pbw_quotient.symmetrize.orderings",
                  sum(math.factorial(sum(exp)) for exp in poly.terms))


def _sample_stats(tracer, args, result):
    found, skipped = result
    key = "polarization.sample_polarizable_forms."
    tracer._count(key + "attempts", skipped["attempts"])
    tracer._count(key + "accepted", len(found))
    tracer._count(key + "rejected_non_rational",
                  skipped["non_rational_spectrum"])
    tracer._count(key + "rejected_not_regular", skipped["not_regular"])
    tracer._count(key + "rejected_base_case", skipped["base_case_unsupported"])


def _levels(tracer, args, result):
    tracer._count("polarization.construct_polarization.levels",
                  len(result.trace))


def _invariants(tracer, args, result):
    tracer._count("poly_series.invariants_up_to_degree.invariants",
                  len(result))


_BEFORE = {
    "exactla.rref": _rref_cells,
    _STRAIGHTEN: _straighten_hit,
    "pbw_quotient.symmetrize": _symmetrize_orderings,
}

_AFTER = {
    "polarization.sample_polarizable_forms": _sample_stats,
    "polarization.construct_polarization": _levels,
    "poly_series.invariants_up_to_degree": _invariants,
}

_ON_ERROR = {
    "exactla.rational_roots": _roots_rejected,
}
