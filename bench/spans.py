"""Spans at the layer boundaries of the symmetroids library, recorded from outside.

The tracer replaces public functions of the library modules with thin
wrappers for the length of a traced pass and puts the originals back
afterwards; nothing under src/ is edited.  Each wrapped name is patched
where its caller looks it up (for example ``symmetroids.macaulay.rank_mod_p``
rather than ``symmetroids.linalg.rank_mod_p``), so the caller decides which
span a call lands in.

Spans (name, start, end, parent, instance id) are kept in memory and
written out when the benchmark ends.  Counters are recorded at the same
boundaries once the wrapped call has returned, so their own cost lands
in the caller's self time and in the tracing overhead, not in the
span.  Matrix sizes at the ``linalg`` boundary are computed from the
array shapes (bytes = rows * cols * 8, the int64 working copy), not
measured.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# Span names whose total time is reported as "<name>.s".
TIMED_SPANS = (
    "matrices.determinant",
    "matrices.minors",
    "polynomials.linear_change",
    "nodes.jacobian",
    "nodes.count_nodes",
    "nodes.rank_drop",
    "groebner.basis.grevlex",
    "groebner.basis.block",
    "groebner.radical_membership",
    "groebner.certificate",
    "groebner.multiplication_matrix",
    "linalg.rank.macaulay",
    "linalg.rank.cohomology",
    "linalg.rank.other",
    "linalg.char_poly",
    "macaulay.colength",
    "cohomology.h0",
    "cohomology.table",
    "cohomology.plane_section",
    "kummer.search",
)
# Span names that also report "<name>.self_s" (time minus child spans).
SELF_TIMED_SPANS = (
    "nodes.count_nodes",
    "nodes.rank_drop",
    "macaulay.colength",
    "cohomology.h0",
)
# Span names that also report "<name>.calls".
CALL_COUNTED_SPANS = (
    "polynomials.linear_change",
    "groebner.basis.grevlex",
    "groebner.basis.block",
    "groebner.radical_membership",
    "linalg.rank.macaulay",
    "linalg.rank.cohomology",
    "linalg.rank.other",
    "linalg.char_poly",
    "cohomology.h0",
)
RANK_CALLERS = ("macaulay", "cohomology", "other")


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self):
        self.spans: "list[list]" = []
        self.counts: "dict[str, float]" = defaultdict(float)
        self.maxima: "dict[str, float]" = defaultdict(float)
        self.instance: "str | None" = None
        self._stack: "list[int]" = []
        self._patches: "list[tuple[object, str, object]]" = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.instance, None])
        self._stack.append(index)
        return index

    def _leave(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Time every call of owner.attr as a span.

        `name` is a span name or a function of (args, kwargs) giving one;
        `after(tracer, span, args, kwargs, result)` records counters once
        the call has returned, outside the span's interval.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            index = tracer._enter(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._leave(index)
            if after is not None:
                after(tracer, tracer.spans[index], args, kwargs, result)
            return result

        self._patch(owner, attr, classmethod(traced) if is_classmethod else traced)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of owner.attr without a span (too fine-grained to time)."""
        original = owner.__dict__[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries the benchmark workloads cross."""
        from symmetroids import (
            cohomology,
            groebner,
            kummer,
            linalg,
            macaulay,
            matrices,
            nodes,
            polynomials,
        )

        def basis_span(args, kwargs):
            order = kwargs.get("order", args[1] if len(args) > 1 else polynomials.GREVLEX)
            return "groebner.basis.grevlex" if order == polynomials.GREVLEX else "groebner.basis.block"

        def minors_count(tr, span, args, kwargs, result):
            tr.counts["matrices.minors.count"] += len(result)

        def terms_out(tr, span, args, kwargs, result):
            tr.counts["polynomials.linear_change.terms_out"] += len(result.terms)

        def basis_size(tr, span, args, kwargs, result):
            if span[0] == "groebner.basis.grevlex":
                tr.counts["groebner.basis.grevlex.size_sum"] += len(result)

        def certified(tr, span, args, kwargs, result):
            tr.counts["groebner.certificate.calls"] += 1
            tr.counts["groebner.certificate.certified"] += bool(result)

        def matrix_size(tr, span, args, kwargs, result):
            a = args[0]
            rows, cols = a.shape
            nnz = int(np.count_nonzero(a))
            span[5] = {"rows": rows, "cols": cols, "nnz": nnz}
            prefix = span[0]
            tr.counts[prefix + ".cells"] += rows * cols
            tr.counts[prefix + ".nnz"] += nnz
            tr.counts[prefix + ".bytes_computed"] += rows * cols * 8
            tr.maxima[prefix + ".cells_max"] = max(tr.maxima[prefix + ".cells_max"], rows * cols)

        def char_poly_size(tr, span, args, kwargs, result):
            n = len(args[0])
            span[5] = {"n": n}
            tr.maxima["linalg.char_poly.n_max"] = max(tr.maxima["linalg.char_poly.n_max"], n)

        def trials(tr, span, args, kwargs, result):
            budget = kwargs.get("budget", args[2] if len(args) > 2 else 8)
            tr.counts["kummer.search.trials"] += budget if result is None else result.trial + 1

        for owner in (matrices, nodes):
            self.wrap(owner, "determinant", "matrices.determinant")
        self.wrap(matrices, "surface_from_matrix", "matrices.surface")
        self.wrap(matrices.SymmetricFormMatrix, "random", "matrices.random")
        self.wrap(matrices, "surface_from_json_dict", "matrices.parse_surface")
        self.wrap(nodes, "minors_ideal_generators", "matrices.minors", minors_count)
        self.wrap(polynomials.Polynomial, "linear_change", "polynomials.linear_change", terms_out)
        self.wrap(nodes, "affine_jacobian_ideal", "nodes.jacobian")
        for owner in (nodes, kummer):
            self.wrap(owner, "count_nodes", "nodes.count_nodes")
        self.wrap(nodes, "rank_drop_check", "nodes.rank_drop")
        self.wrap(groebner.Ideal, "groebner_basis", basis_span, basis_size)
        self.wrap(nodes, "radical_membership", "groebner.radical_membership")
        self.wrap(nodes, "squarefree_certificate", "groebner.certificate", certified)
        self.wrap(groebner, "multiplication_matrix", "groebner.multiplication_matrix")
        self.count_calls(groebner.GroebnerBasis, "normal_form", "groebner.normal_form.calls")
        self.wrap(macaulay, "rank_mod_p", "linalg.rank.macaulay", matrix_size)
        self.wrap(cohomology, "rank_mod_p", "linalg.rank.cohomology", matrix_size)
        self.wrap(linalg, "rank_mod_p", "linalg.rank.other", matrix_size)
        self.wrap(groebner, "char_poly_mod_p", "linalg.char_poly", char_poly_size)
        self.wrap(macaulay, "macaulay_colength", "macaulay.colength")
        self.wrap(cohomology, "hilbert_function_coker", "cohomology.h0")
        self.wrap(cohomology, "cohomology_table", "cohomology.table")
        self.wrap(cohomology, "plane_section_presentation", "cohomology.plane_section")
        self.wrap(cohomology, "surface_presentation", "cohomology.surface_presentation")
        self.wrap(cohomology, "duality_symmetry_check", "cohomology.duality")
        self.wrap(kummer, "search_sixteen_nodes", "kummer.search", trials)

    # -- derived numbers -------------------------------------------------

    def totals(self) -> "dict[str, dict[str, float]]":
        """Per span name: outermost time, self time and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: "dict[str, dict[str, float]]" = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for index, (name, start, end, parent, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                entry["s"] += end - start
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent is None)

    def layer_metrics(self, passes: int) -> "dict[str, tuple[float, str]]":
        """Per-layer metrics, averaged per traced pass: name -> (value, unit)."""
        totals = self.totals()
        counts = self.counts
        out: "dict[str, tuple[float, str]]" = {}
        for name in TIMED_SPANS:
            out[name + ".s"] = (totals[name]["s"] / passes, "s")
        for name in SELF_TIMED_SPANS:
            out[name + ".self_s"] = (totals[name]["self_s"] / passes, "s")
        for name in CALL_COUNTED_SPANS:
            out[name + ".calls"] = (totals[name]["calls"] / passes, "count")
        for key in (
            "matrices.minors.count",
            "polynomials.linear_change.terms_out",
            "groebner.basis.grevlex.size_sum",
            "groebner.normal_form.calls",
            "kummer.search.trials",
        ):
            out[key] = (counts[key] / passes, "count")
        for caller in RANK_CALLERS:
            prefix = "linalg.rank." + caller
            out[prefix + ".cells"] = (counts[prefix + ".cells"] / passes, "count")
            out[prefix + ".cells_max"] = (self.maxima[prefix + ".cells_max"], "count")
            out[prefix + ".nnz"] = (counts[prefix + ".nnz"] / passes, "count")
            out[prefix + ".bytes_computed"] = (
                counts[prefix + ".bytes_computed"] / passes,
                "bytes",
            )
        out["linalg.char_poly.n_max"] = (self.maxima["linalg.char_poly.n_max"], "count")
        attempts = totals["groebner.multiplication_matrix"]["calls"]
        out["groebner.certificate.attempts"] = (attempts / passes, "count")
        out["groebner.certificate.certified_per_attempt"] = (
            counts["groebner.certificate.certified"] / attempts if attempts else 0.0,
            "ratio",
        )
        colength_calls = totals["macaulay.colength"]["calls"]
        out["macaulay.colength.rank_calls_per_call"] = (
            totals["linalg.rank.macaulay"]["calls"] / colength_calls if colength_calls else 0.0,
            "ratio",
        )
        return out

    def largest_matrices(self) -> "dict[str, dict]":
        """Per instance, the largest matrix handed to a linalg kernel."""
        out: "dict[str, dict]" = {}
        for name, _, _, _, instance, size in self.spans:
            if size is None:
                continue
            cells = size.get("rows", size.get("n", 0)) * size.get("cols", size.get("n", 0))
            best = out.get(instance)
            if best is None or cells > best["cells"]:
                out[instance] = {"kernel": name, "cells": cells, **size}
        return out

    def to_json(self) -> "list[dict]":
        names = ("name", "start", "end", "parent", "instance", "size")
        return [dict(zip(names, span)) for span in self.spans]
