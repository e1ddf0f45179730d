"""Span tracing of binomid's layers from outside the package.

``Tracer.install`` replaces public functions and methods of the
``rings``, ``binomials``, ``identities``, ``verify`` and ``cli`` modules
with wrappers that record one span per call (name, start, end, parent)
in flat arrays, and restores the originals on ``uninstall`` or in any
forked child, so pool workers run untraced.  ``SplitMix64.next_u64`` is
counted, not spanned: it is called tens of millions of times.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
from array import array

import binomid.binomials as bnm
import binomid.cli as cli
import binomid.identities as idn
import binomid.rings as rings
import binomid.verify as vfy

# Lemma builders, spanned under identities.lemma_build_s.<name>.
LEMMA_BUILDERS = (
    "f_def", "f_closed", "g_def", "g_closed", "jensen_lhs", "jensen_rhs",
    "chebyshev_closed", "chebyshev_recurrence", "telescoped_sum",
    "telescope_rhs", "binomial_collapse",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.term_products = 0
        self.rng_outputs = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str | None, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, on_call=None):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            span = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1])
            self.span_start.append(0)
            self.span_end.append(0)
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_start[span] = start
                self.span_end[span] = end

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name: str, on_call=None) -> None:
        self._patch(owner, attr, self._wrap(name, getattr(owner, attr), on_call))

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        P = rings.Polynomial

        def count_products(a, b):
            # A scalar operand is coerced to a constant: one term, or none.
            other = len(b.terms) if isinstance(b, P) else int(b != 0)
            self.term_products += len(a.terms) * other

        mul = self._wrap("rings.mul", P.__mul__, count_products)
        self._patch(P, "__mul__", mul)
        self._patch(P, "__rmul__", mul)
        add = self._wrap("rings.add", P.__add__)
        self._patch(P, "__add__", add)
        self._patch(P, "__radd__", add)
        self._span(P, "__pow__", "rings.pow")
        self._span(P, "eval", "rings.eval")
        self._span(P, "render", "rings.render")

        # identities and verify bind binom_poly at import time, so each
        # module's own name is replaced, with one shared wrapper.
        binom = self._wrap("binomials.binom_poly", bnm.binom_poly)
        for module in (bnm, idn, vfy):
            self._patch(module, "binom_poly", binom)

        self._span(idn, "lhs_identity", "identities.lhs")
        self._span(idn, "rhs_identity", "identities.rhs")
        for name in LEMMA_BUILDERS:
            if name != "telescope_rhs":
                self._span(idn, name, f"identities.lemma_build.{name}")
        # verify_lemma looks its builders up in this table, filled at import.
        # Its chebyshev entries call idn.chebyshev_* and are traced there.
        sides = vfy._LEMMA_SIDES
        self._saved.append((sides, None, dict(sides)))
        for lemma in ("f", "g", "jensen"):
            sides[lemma] = tuple(getattr(idn, fn.__name__) for fn in sides[lemma])
        sides["telescope"] = (
            idn.telescoped_sum,
            self._wrap("identities.lemma_build.telescope_rhs", sides["telescope"][1]),
        )

        self._span(vfy, "verify_identity", "verify.verify_identity")
        self._span(vfy, "verify_lemma", "verify.verify_lemma")
        self._span(vfy, "check_pair_at_points", "verify.check")
        self._span(vfy, "sweep", "verify.sweep")
        draw = self._wrap("verify.draw", vfy.PointSample.draw.__func__)
        self._patch(vfy.PointSample, "draw", classmethod(draw))

        next_u64 = vfy.SplitMix64.next_u64

        def counted_next_u64(gen):
            self.rng_outputs += 1
            return next_u64(gen)

        self._patch(vfy.SplitMix64, "next_u64", counted_next_u64)
        self._span(cli, "_emit_json", "cli.emit")
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.span_name)
        child_ns = [0] * n
        for span in range(n):
            parent = self.span_parent[span]
            if parent >= 0:
                child_ns[parent] += self.span_end[span] - self.span_start[span]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for span in range(n):
            entry = out[self.names[self.span_name[span]]]
            duration = self.span_end[span] - self.span_start[span]
            entry["calls"] += 1
            entry["total_s"] += duration / 1e9
            entry["self_s"] += (duration - child_ns[span]) / 1e9
        return out

    def compare_s(self) -> float:
        """Self time of verify_identity/verify_lemma after subtracting the
        builders called directly under them."""
        builders = {i for i, name in enumerate(self.names)
                    if name.startswith("identities.")}
        verifiers = {i for i, name in enumerate(self.names)
                     if name in ("verify.verify_identity", "verify.verify_lemma")}
        total = 0
        for span in range(len(self.span_name)):
            duration = self.span_end[span] - self.span_start[span]
            if self.span_name[span] in verifiers:
                total += duration
            parent = self.span_parent[span]
            if (parent >= 0 and self.span_name[parent] in verifiers
                    and self.span_name[span] in builders):
                total -= duration
        return total / 1e9

    def first_start(self, name: str):
        name_ids = {i for i, n in enumerate(self.names) if n == name}
        for span in range(len(self.span_name)):
            if self.span_name[span] in name_ids:
                return self.span_start[span]
        return None

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics this process can see; the pool and JSON
        figures of the cli-sweep workload are added by the benchmark."""
        t = self.totals()
        metrics = {
            "rings.mul_calls": t["rings.mul"]["calls"],
            "rings.mul_s": t["rings.mul"]["total_s"],
            "rings.term_products": self.term_products,
            "rings.add_calls": t["rings.add"]["calls"],
            "rings.add_s": t["rings.add"]["total_s"],
            "rings.pow_calls": t["rings.pow"]["calls"],
            "rings.pow_s": t["rings.pow"]["total_s"],
            "rings.eval_calls": t["rings.eval"]["calls"],
            "rings.eval_s": t["rings.eval"]["total_s"],
            "rings.render_s": t["rings.render"]["total_s"],
            "binomials.binom_poly_calls": t["binomials.binom_poly"]["calls"],
            "binomials.binom_poly_s": t["binomials.binom_poly"]["self_s"],
            "identities.lhs_s": t["identities.lhs"]["total_s"],
            "identities.rhs_s": t["identities.rhs"]["total_s"],
        }
        for name in LEMMA_BUILDERS:
            metrics[f"identities.lemma_build_s.{name}"] = (
                t[f"identities.lemma_build.{name}"]["total_s"])
        metrics.update({
            "verify.draw_calls": t["verify.draw"]["calls"],
            "verify.draw_s": t["verify.draw"]["total_s"],
            "verify.rng_outputs": self.rng_outputs,
            "verify.check_s": t["verify.check"]["self_s"],
            "verify.compare_s": self.compare_s(),
            "verify.lemma_tail_s": t["verify.verify_lemma"]["total_s"],
            "cli.emit_s": t["cli.emit"]["total_s"],
            "trace.spans": len(self.span_name),
        })
        return metrics

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: id, name, parent, start_ns, end_ns."""
        if os.path.exists(path):
            os.unlink(path)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,parent,start_ns,end_ns\n")
            for span in range(len(self.span_name)):
                out.write(f"{span},{self.names[self.span_name[span]]},"
                          f"{self.span_parent[span]},{self.span_start[span]},"
                          f"{self.span_end[span]}\n")
