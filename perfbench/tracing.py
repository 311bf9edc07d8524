"""Span and count recording for the traced benchmark run.

The tracer wraps each named public function for the duration of the traced
phase. csympl modules import functions by name (``from .forms import
form_kernel``), so a wrapper replaces every attribute of every module in
the function's package that is bound to the original; ``restore`` puts each
original object back. Nothing in csympl itself knows about tracing.

A span is ``(name, start, end, parent, request)``, with ``parent`` the index
of the enclosing span in the same request, or -1 for the request root. The
spans of a request are kept in memory until the request ends, then folded
into per-name call counts and self times (a span's duration minus the
durations of its direct children).
"""

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType

import numpy as np

#: (module, attribute) of every traced function; the metric prefix is the
#: module name without the ``csympl.`` package, then the attribute.
TARGETS = (
    ("csympl.forms", "wedge"),
    ("csympl.forms", "form_kernel"),
    ("csympl.forms", "pullback"),
    ("csympl.kernels", "wedge_scatter"),
    ("csympl.multiindex", "wedge_table"),
    ("csympl.csymplectic", "is_c_symplectic_rank"),
    ("csympl.csymplectic", "is_c_symplectic_power"),
    ("csympl.csymplectic", "induced_complex_structure"),
    ("csympl.csymplectic", "hodge_decompose"),
    ("csympl.csymplectic", "c_symplectic_basis"),
    ("csympl.csymplectic", "CSymplecticSpace.from_form"),
    ("csympl.linalg", "Subspace.real_span_rank"),
    ("csympl.linalg", "null_space"),
    ("numpy.linalg", "svd"),
    ("csympl.deformation", "deform"),
    ("csympl.deformation", "verify_preservance"),
    ("csympl.deformation", "holomorphize_section"),
    ("csympl.deformation", "LagrangianProjection.build"),
    ("csympl.torus", "deformed_structure_field"),
    ("csympl.torus", "nijenhuis_node_norms"),
    ("csympl.torus", "exterior_derivative_fd"),
    ("csympl.torus", "sample_section_form"),
    ("csympl.lattice", "IntegralLattice.pair"),
    ("csympl.lattice", "IntegralLattice.determinant"),
    ("csympl.lattice", "random_primitive_isotropic"),
    ("csympl.lattice", "find_section_class"),
    ("csympl.lattice", "random_isometry_images"),
    ("csympl.lattice", "twistor_curve_plane"),
)

#: Bytes one wedge-scatter entry moves besides its table row: the a and b
#: gathers and the accumulation into the output, one complex128 each.
SCATTER_ENTRY_BYTES = 3 * 16


def metric_prefix(module: str, attribute: str) -> str:
    return f"{module.removeprefix('csympl.')}.{attribute}"


class Tracer:
    """Records spans and counts of the wrapped functions, per request."""

    def __init__(self):
        self.spans = []
        self.last_spans = []
        self.requests = 0
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.scatter_entries = 0
        self.scatter_bytes = 0
        self.kernel_inputs_distinct = 0
        self._kernel_inputs = set()
        self._stack = [-1]
        self._request = None
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        return index, parent

    def _close(self, name, index, parent, start, end):
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self._request)

    @contextmanager
    def span(self, name, request=None):
        """Span around a block; ``request`` starts a new request root."""
        if request is not None:
            self.spans.clear()
            self._request = request
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, index, parent, start, perf_counter())
            if request is not None:
                self._fold()

    def _traced(self, name, fn, count=None):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args)
            index, parent = open_()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, index, parent, start, perf_counter())

        return traced

    def _fold(self):
        spans = self.spans
        for (name, start, end, _, _), own in zip(spans, self.self_times(spans)):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.total_s[name] = self.total_s.get(name, 0.0) + (end - start)
        self.kernel_inputs_distinct += len(self._kernel_inputs)
        self._kernel_inputs.clear()
        self.requests += 1
        self.last_spans = list(spans)
        spans.clear()

    @staticmethod
    def self_times(spans):
        """Self time of each span in a list of one request's spans."""
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        return [end - start - children[i] for i, (_, start, end, _, _) in enumerate(spans)]

    # -- counts ------------------------------------------------------------

    def _count_kernel_input(self, args):
        form = args[0]
        matrix = getattr(form, "matrix", None)
        data = form.coeffs if matrix is None else matrix
        self._kernel_inputs.add(hash(np.ascontiguousarray(data).tobytes()))

    def _count_scatter(self, args):
        ia, ib, iout, sign = args[:4]
        self.scatter_entries += len(ia)
        self.scatter_bytes += ia.nbytes + ib.nbytes + iout.nbytes + sign.nbytes + SCATTER_ENTRY_BYTES * len(ia)

    # -- installing the wrappers --------------------------------------------

    def _patch(self, owner, key, original, replacement):
        setattr(owner, key, replacement)
        self._patches.append((owner, key, original))

    def install(self):
        counts = {
            "forms.form_kernel": self._count_kernel_input,
            "kernels.wedge_scatter": self._count_scatter,
        }
        for module_name, attribute in TARGETS:
            name = metric_prefix(module_name, attribute)
            module = importlib.import_module(module_name)
            owner_name, _, key = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[key]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._traced(name, raw.__func__, counts.get(name)))
                else:
                    wrapped = self._traced(name, raw, counts.get(name))
                self._patch(owner, key, raw, wrapped)
                continue
            original = getattr(module, key)
            wrapped = self._traced(name, original, counts.get(name))
            package = module_name.split(".")[0]
            for loaded_name, loaded in list(sys.modules.items()):
                if not isinstance(loaded, ModuleType) or not (
                    loaded_name == package or loaded_name.startswith(package + ".")
                ):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, binding, original, wrapped)

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.restore()

    # -- results -----------------------------------------------------------

    def metrics(self, suites) -> dict:
        """Per-request metrics as ``{name: (value, unit)}``."""
        per = 1.0 / max(self.requests, 1)
        out = {}
        for module_name, attribute in TARGETS:
            name = metric_prefix(module_name, attribute)
            out[f"{name}.calls"] = (self.calls.get(name, 0) * per, "count/req")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0) * per, "s/req")
        kernel_calls = self.calls.get("forms.form_kernel", 0)
        out["forms.form_kernel.distinct_ratio"] = (
            self.kernel_inputs_distinct / kernel_calls if kernel_calls else 0.0,
            "ratio",
        )
        out["kernels.wedge_scatter.entries"] = (self.scatter_entries * per, "count/req")
        out["kernels.wedge_scatter.bytes"] = (self.scatter_bytes * per, "B/req")
        classes = self.calls.get("lattice.random_primitive_isotropic", 0) + self.calls.get(
            "lattice.random_isometry_images", 0
        )
        out["lattice.pair_per_class"] = (
            self.calls.get("lattice.IntegralLattice.pair", 0) / classes if classes else 0.0,
            "ratio",
        )
        for suite in suites:
            out[f"suites.{suite}.s"] = (self.total_s.get(f"suites.{suite}", 0.0) * per, "s/req")
        return out
