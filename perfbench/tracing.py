"""Per-layer tracing from outside the library.

``Tracer.installed()`` wraps public functions and methods of ``fellap`` in
place, in every ``fellap`` module that holds a reference to them, so each
caller looks up the wrapper (``fellap.bundles.op_norm`` as well as
``fellap.algebra.op_norm``). Nothing under ``src/`` is edited; leaving the
block restores every original.

Three kinds of wrapper:

- timed: a span per call. A span's self time is its duration minus the
  durations of the timed spans it encloses.
- counted: a call count only, for very small hot functions, whose cost then
  stays in the enclosing span's self time.
- cached: a call count plus a hit count. A call is a hit when the same owner
  returned the very same object for the same arguments before; a miss means
  the work was done again.

Counts depend only on the inputs, so a traced run repeats them exactly for
the same seed; times do not.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
import time
import weakref
from collections import defaultdict

from fellap import algebra as A
from fellap import approx as P
from fellap import bundles as B
from fellap import cantor as C
from fellap import cli
from fellap import groups as G
from fellap import kernels as K

# (metric name, unit, better); the per_layer list of BENCHMARK.json.
METRICS = [
    ("groups.mul.calls", "count", "lower"),
    ("groups.format_elem.calls", "count", "lower"),
    ("algebra.fd_element.created", "count", "lower"),
    ("algebra.iso_apply.calls", "count", "lower"),
    ("algebra.op_norm.calls", "count", "lower"),
    ("algebra.op_norm.self_s", "s", "lower"),
    ("algebra.iso_cache.hit_ratio", "ratio", "higher"),
    ("algebra.report.checks", "count", "lower"),
    ("bundles.mul.calls", "count", "lower"),
    ("bundles.mul.self_s", "s", "lower"),
    ("bundles.star.calls", "count", "lower"),
    ("bundles.twist_cache.hit_ratio", "ratio", "higher"),
    ("bundles.validate_bundle.self_s", "s", "lower"),
    ("bundles.validate_twist.self_s", "s", "lower"),
    ("kernels.window_rep.builds", "count", "lower"),
    ("kernels.window_rep.build_s", "s", "lower"),
    ("kernels.window_rep.hit_ratio", "ratio", "higher"),
    ("kernels.window_rep.dim_sum", "count", "lower"),
    ("kernels.k_mul.calls", "count", "lower"),
    ("kernels.k_mul.self_s", "s", "lower"),
    ("kernels.pi_matrix.self_s", "s", "lower"),
    ("kernels.mf_embed_norm.self_s", "s", "lower"),
    ("kernels.cond_expectation_pf.self_s", "s", "lower"),
    ("approx.ap_certify.self_s", "s", "lower"),
    ("approx.ap_defect.calls", "count", "lower"),
    ("approx.convexify.self_s", "s", "lower"),
    ("algebra.globalize_finite.calls", "count", "lower"),
    ("algebra.globalize_finite.self_s", "s", "lower"),
    ("cantor.cuntz_ap_defect.calls", "count", "lower"),
    ("cantor.cuntz_ap_defect.self_s", "s", "lower"),
    ("cantor.witness_bound.self_s", "s", "lower"),
    ("cantor.words_walked", "count-computed", "lower"),
    ("cantor.groupoid.arrows", "count", "lower"),
    ("cantor.validate_groupoid.self_s", "s", "lower"),
    ("cli.invocations", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def _words(n: int, top: int, include_identity: bool) -> int:
    """Positive words of length min..top over n letters, the enumeration
    cost of one boundary-net call as the seed computes it."""
    return sum(n**k for k in range(0 if include_identity else 1, top + 1))


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.hits = defaultdict(int)
        self.self_s = defaultdict(float)
        self.build_s = 0.0
        self._open = []  # child time accumulated per open span
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        def timed(*args, **kwargs):
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer._open.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - child
                if tracer._open:
                    tracer._open[-1] += dt
            if after is not None:
                after(dt, out, args, kwargs)
            return out

        return timed

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _cache(self, name, fn, key_of, on_miss=None):
        seen = weakref.WeakKeyDictionary()
        tracer = self

        def after(dt, out, args, kwargs):
            owner, key = key_of(*args)
            memo = seen.setdefault(owner, {})
            known = memo.get(key)
            if known is not None and known() is out:
                tracer.hits[name] += 1
                return
            # A weak reference where the type allows one: a window
            # representation refers back to its bundle, the memo's owner.
            try:
                memo[key] = weakref.ref(out)
            except TypeError:
                memo[key] = lambda out=out: out
            if on_miss is not None:
                on_miss(dt, out)

        return self._span(name, fn, after)

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, fn, new):
        """Swap ``fn`` in every fellap module that binds it."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("fellap"):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, new)

    def _install(self):
        fn_spans = {
            "algebra.op_norm": A.op_norm,
            "algebra.globalize_finite": A.globalize_finite,
            "bundles.validate_bundle": B.validate_bundle,
            "bundles.validate_twist": B.validate_twist,
            "kernels.k_mul": K.k_mul,
            "kernels.pi_matrix": K.pi_matrix,
            "kernels.mf_embed_norm": K.mf_embed_norm,
            "kernels.cond_expectation_pf": K.cond_expectation_pf,
            "approx.ap_certify": P.ap_certify,
            "approx.convexify": P.convexify,
            "cantor.validate_groupoid": C.validate_groupoid,
        }
        for name, fn in fn_spans.items():
            self._replace_function(fn, self._span(name, fn))

        self._replace_function(P.ap_defect, self._count("approx.ap_defect", P.ap_defect))
        self._replace(B.TwistedBundle, "mul", self._span("bundles.mul", B.TwistedBundle.mul))
        self._replace(B.TwistedBundle, "star", self._count("bundles.star", B.TwistedBundle.star))
        self._replace(A.FdElement, "__init__", self._count("algebra.fd_element", A.FdElement.__init__))
        self._replace(A.IdealIso, "apply", self._count("algebra.iso_apply", A.IdealIso.apply))
        self._replace(A.ActionReport, "add", self._count("algebra.report", A.ActionReport.add))
        for cls in (G.FiniteGroup, G.FreeGroup, G.LatticeGroup):
            self._replace(cls, "mul", self._count("groups.mul", cls.mul))
            self._replace(cls, "format_elem", self._count("groups.format_elem", cls.format_elem))

        self._replace(
            A.PartialAction,
            "iso",
            self._cache("algebra.iso_cache", A.PartialAction.iso, lambda pa, t: (pa, t)),
        )
        self._replace(
            B.Twist,
            "omega",
            self._cache("bundles.twist_cache", B.Twist.omega, lambda tw, s, t: (tw, (s, t))),
        )

        def built(dt, rep):
            self.calls["kernels.window_rep.builds"] += 1
            self.build_s += dt
            self.calls["kernels.window_rep.dim_sum"] += rep.dim

        self._replace_function(
            K.window_rep,
            self._cache(
                "kernels.window_rep", K.window_rep, lambda b, w: (b, w.elements), built
            ),
        )

        defect_sig = inspect.signature(C.cuntz_ap_defect)

        def walked(dt, out, args, kwargs):
            bound = defect_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            g = bound.arguments["g"]
            grp = g.group if isinstance(g, C.PartialSymbol) else bound.arguments["group"]
            self.calls["cantor.words_walked"] += _words(
                grp.rank, int(bound.arguments["i"]), bound.arguments["include_identity"]
            )

        def walked_bound(dt, out, args, kwargs):
            w = args[0] if args else kwargs["w"]
            self.calls["cantor.words_walked"] += _words(w.group.rank, w.i, w.include_identity)

        def arrows(dt, out, args, kwargs):
            self.calls["cantor.groupoid.arrows"] += len(out.arrows)

        self._replace_function(
            C.cuntz_ap_defect, self._span("cantor.cuntz_ap_defect", C.cuntz_ap_defect, walked)
        )
        self._replace_function(
            C.cantor_witness_bound,
            self._span("cantor.witness_bound", C.cantor_witness_bound, walked_bound),
        )
        self._replace_function(
            C.spectral_groupoid, self._span("cantor.spectral_groupoid", C.spectral_groupoid, arrows)
        )

        def csv_size(dt, out, args, kwargs):
            argv = list(kwargs.get("args") or args[0])
            if "--out" in argv:
                path = argv[argv.index("--out") + 1]
                if os.path.exists(path):
                    self.calls["cli.csv_bytes"] += os.path.getsize(path)

        # The command group is an object; its bound ``main`` is the entry
        # point, shadowed on the instance and removed again afterwards.
        cli.main.main = self._span("cli", cli.main.main, csv_size)

    def _uninstall(self):
        cli.main.__dict__.pop("main", None)
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    # -- results ------------------------------------------------------------

    def _ratio(self, name):
        calls = self.calls[name]
        return self.hits[name] / calls if calls else 0.0

    def metrics(self, overhead_frac: float) -> dict:
        c, s = self.calls, self.self_s
        values = {
            "groups.mul.calls": c["groups.mul"],
            "groups.format_elem.calls": c["groups.format_elem"],
            "algebra.fd_element.created": c["algebra.fd_element"],
            "algebra.iso_apply.calls": c["algebra.iso_apply"],
            "algebra.op_norm.calls": c["algebra.op_norm"],
            "algebra.op_norm.self_s": s["algebra.op_norm"],
            "algebra.iso_cache.hit_ratio": self._ratio("algebra.iso_cache"),
            "algebra.report.checks": c["algebra.report"],
            "bundles.mul.calls": c["bundles.mul"],
            "bundles.mul.self_s": s["bundles.mul"],
            "bundles.star.calls": c["bundles.star"],
            "bundles.twist_cache.hit_ratio": self._ratio("bundles.twist_cache"),
            "bundles.validate_bundle.self_s": s["bundles.validate_bundle"],
            "bundles.validate_twist.self_s": s["bundles.validate_twist"],
            "kernels.window_rep.builds": c["kernels.window_rep.builds"],
            "kernels.window_rep.build_s": self.build_s,
            "kernels.window_rep.hit_ratio": self._ratio("kernels.window_rep"),
            "kernels.window_rep.dim_sum": c["kernels.window_rep.dim_sum"],
            "kernels.k_mul.calls": c["kernels.k_mul"],
            "kernels.k_mul.self_s": s["kernels.k_mul"],
            "kernels.pi_matrix.self_s": s["kernels.pi_matrix"],
            "kernels.mf_embed_norm.self_s": s["kernels.mf_embed_norm"],
            "kernels.cond_expectation_pf.self_s": s["kernels.cond_expectation_pf"],
            "approx.ap_certify.self_s": s["approx.ap_certify"],
            "approx.ap_defect.calls": c["approx.ap_defect"],
            "approx.convexify.self_s": s["approx.convexify"],
            "algebra.globalize_finite.calls": c["algebra.globalize_finite"],
            "algebra.globalize_finite.self_s": s["algebra.globalize_finite"],
            "cantor.cuntz_ap_defect.calls": c["cantor.cuntz_ap_defect"],
            "cantor.cuntz_ap_defect.self_s": s["cantor.cuntz_ap_defect"],
            "cantor.witness_bound.self_s": s["cantor.witness_bound"],
            "cantor.words_walked": c["cantor.words_walked"],
            "cantor.groupoid.arrows": c["cantor.groupoid.arrows"],
            "cantor.validate_groupoid.self_s": s["cantor.validate_groupoid"],
            "cli.invocations": c["cli"],
            "cli.self_s": s["cli"],
            "cli.csv_bytes": c["cli.csv_bytes"],
            "trace.overhead_frac": overhead_frac,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
