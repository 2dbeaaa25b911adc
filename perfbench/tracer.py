"""Outside-in tracer: wraps the package's functions from the benchmark.

Nothing under ``src/`` changes.  ``solver.py`` and ``cli.py`` import their
callees by name, so the tracer replaces the names as bound in those modules
(and the public ones the benchmark calls through ``pdhg_lp``), plus the
``matvec``/``rmatvec`` methods of ``SparseMatrix``.  ``uninstall`` puts every
original back.

A span is (name, start, end, parent).  Spans stay in memory in flat arrays
and are written out once, at the end of the run.  A layer's self time is its
spans' time minus the time of their child spans.
"""

import time
from array import array
from collections import Counter

import numpy as np

# (module attribute path, function name, span name).  Module paths are
# relative to the pdhg_lp package; "" is the package itself.
WRAPPED_FUNCTIONS = (
    ("", "solve", "solver.solve"),
    ("", "generate_pagerank", "generators.generate_pagerank"),
    ("solver", "validate", "problem.validate"),
    ("solver", "to_saddle", "problem.to_saddle"),
    ("solver", "combined_rescale", "scaling.combined_rescale"),
    ("solver", "apply_scaling", "scaling.apply_scaling"),
    ("solver", "unscale_solution", "scaling.unscale_solution"),
    ("solver", "spectral_norm_estimate", "sparse.spectral_norm_estimate"),
    ("solver", "adaptive_step", "stepsize.adaptive_step"),
    ("solver", "pdhg_step", "pdhg.pdhg_step"),
    ("solver", "normalized_duality_gap", "restarts.normalized_duality_gap"),
    ("solver", "should_restart", "restarts.should_restart"),
    ("solver", "kkt_error", "termination.kkt_error"),
    ("solver", "extract_certificates", "termination.extract_certificates"),
    ("solver", "check_primal_infeasible", "termination.check_primal_infeasible"),
    ("solver", "check_dual_infeasible", "termination.check_dual_infeasible"),
    ("cli", "main", "cli.main"),
    ("cli", "solve", "solver.solve"),
    ("cli", "parse_mps", "mps.parse_mps"),
    ("cli", "write_mps", "mps.write_mps"),
    ("cli", "generate_pagerank", "generators.generate_pagerank"),
    ("cli", "render_json", "reports.render_json"),
)
WRAPPED_METHODS = (("matvec", "sparse.matvec"), ("rmatvec", "sparse.rmatvec"))


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()  # counts taken at the same boundaries as the spans
        self.matvec_calls = 0  # the two counts on the hot path are plain attributes
        self.bytes_computed = 0  # 12 nnz + 8 (m + n) per matvec or rmatvec
        self._stack = []
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, result, before(args))``
        runs once the span has closed."""
        nid = self._id(name)
        stack, start, end = self._stack, self.start, self.end
        name_id, parent = self.name_id, self.parent
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-call counts --------------------------------------------------------

    def _count_product(self, args, result, token):
        m, n = args[0].shape
        self.bytes_computed += 12 * args[0].nnz + 8 * (m + n)

    def _count_matvec(self, args, result, token):
        self.matvec_calls += 1
        self._count_product(args, result, token)

    def _before_adaptive_step(self, args):
        # one matvec per trial, plus one K x refill when the cache is empty
        return self.matvec_calls, args[0].kx is None

    def _after_adaptive_step(self, args, result, token):
        matvecs_before, refill = token
        self.counts["stepsize.trials"] += self.matvec_calls - matvecs_before - refill
        self.counts["stepsize.accepted"] += bool(result[2])

    def _after_should_restart(self, args, result, token):
        fired, reason = result
        if fired:
            self.counts[f"restarts.fired.{reason}"] += 1

    def _after_write_mps(self, args, result, token):
        self.counts["mps.bytes"] += len(result)

    # -- installation ---------------------------------------------------------

    def install(self, package):
        """Wrap every name in WRAPPED_FUNCTIONS and WRAPPED_METHODS."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "stepsize.adaptive_step": (self._before_adaptive_step, self._after_adaptive_step),
            "restarts.should_restart": (None, self._after_should_restart),
            "mps.write_mps": (None, self._after_write_mps),
        }
        shared = {}  # one wrapper per original function, so spans nest once
        for module_path, attr, span in WRAPPED_FUNCTIONS:
            owner = getattr(package, module_path) if module_path else package
            original = getattr(owner, attr)
            key = (id(original), span)
            if key not in shared:
                before, after = hooks.get(span, (None, None))
                shared[key] = self.wrap(span, original, before, after)
            self._patch(owner, attr, shared[key])
        matrix_cls = package.SparseMatrix
        for attr, span in WRAPPED_METHODS:
            after = self._count_matvec if attr == "matvec" else self._count_product
            self._patch(matrix_cls, attr, self.wrap(span, matrix_cls.__dict__[attr], after=after))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Restore every wrapped name to its original."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def mark(self):
        """Span index to pass to ``layers`` to restrict it to later spans."""
        return len(self.start)

    def layers(self, since=0):
        """Per span name: calls, total seconds, self seconds, and the number
        of matvec/rmatvec child spans; over spans recorded from ``since``."""
        names = np.array(self.name_id[since:], dtype=np.int32)
        parents = np.array(self.parent[since:], dtype=np.int32) - since
        dur = np.array(self.end[since:]) - np.array(self.start[since:])
        k = len(self.names)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child_time
        product_ids = [self._name_ids[s] for _, s in WRAPPED_METHODS if s in self._name_ids]
        is_product = np.isin(names, product_ids) & has_parent
        product_children = np.bincount(parents[is_product], minlength=dur.size)
        out = {}
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        products = np.bincount(names, weights=product_children, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selfs[i]),
                "product_children": int(products[i]),
            }
        top_level = float(dur[parents < 0].sum())
        return out, top_level

    def save(self, path):
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
