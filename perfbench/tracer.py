"""Spans around equispin's public functions, installed from outside the program.

``Tracer.install()`` replaces each traced function with a wrapper in every
equispin module that holds a reference to it: ``from ... import`` copies a
name into the importing module, so patching only the defining module would
miss calls made through the copy.  ``CyclotomicNumber.__rmul__`` is an alias
bound when the class was created, so it is patched next to ``__mul__``.

Each call records a span (name, start, end, parent span, operation id) in
flat arrays; ``write()`` dumps them when the run ends.  Self time is a span's
duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from time import perf_counter

# (span name, module, attribute); methods name their class as "Class.method".
FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("dataset.parse_dataset", "dataset", "parse_dataset"),
    ("lefschetz.spin_number_tuple", "lefschetz", "spin_number_tuple"),
    ("lefschetz.spin_number", "lefschetz", "spin_number"),
    ("lefschetz.k_vector", "lefschetz", "k_vector"),
    ("lefschetz.synthesize_spins", "lefschetz", "synthesize_spins"),
    ("cyclo.mul", "cyclo", "CyclotomicNumber.__mul__"),
    ("cyclo.inverse", "cyclo", "CyclotomicNumber.inverse"),
    ("cyclo.reduced", "cyclo", "CyclotomicNumber.reduced"),
    ("cyclo.galois", "cyclo", "CyclotomicNumber.galois"),
    ("cyclo.embed", "cyclo", "CyclotomicNumber.embed"),
    ("intlinalg.solve", "intlinalg", "solve"),
    ("intlinalg.integer_kernel", "intlinalg", "integer_kernel"),
    ("repring.solve_adams_kernel", "repring", "solve_adams_kernel"),
    ("repring.normal_form", "repring", "normal_form"),
    ("repring.adams_multiplier", "repring", "adams_multiplier"),
    ("rigidity.verdict", "rigidity", "verdict"),
    ("rigidity.lift_sweep", "rigidity", "lift_sweep"),
    ("rigidity.classify_spin", "rigidity", "classify_spin"),
    ("rigidity.numeric_estimate", "rigidity", "numeric_estimate"),
    ("rigidity.verify_sw_vanishing", "rigidity", "verify_sw_vanishing"),
)

# Copies made by ``from ... import`` that the wrappers must replace; install()
# fails if one of them is missed.
REQUIRED_SITES = (
    ("rigidity", "k_vector"),
    ("rigidity", "spin_number_tuple"),
    ("rigidity", "synthesize_spins"),
    ("cli", "k_vector"),
    ("cyclo", "solve"),
    ("repring", "integer_kernel"),
)


def _bits(rows) -> int:
    return max((abs(v).bit_length() for row in rows for v in row), default=0)


class Tracer:
    """Span recorder plus the counters that need a function's arguments or result."""

    def __init__(self):
        self.names: list[str] = [name for name, _, _ in FUNCTIONS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self._op_id = -1
        # per open span: [span index, name index, child time]
        self._stack: list[list] = []
        self.counters = {
            "reduced_drops": 0,
            "solve_hits": 0,
            "conductor_max": 0,
            "kernel_max_dim": 0,
            "kernel_max_out_bits": 0,
        }

    # -- span recording ------------------------------------------------------

    def _wrap(self, name: str, fn, post=None):
        idx = self._index[name]
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(starts)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self._op_id)
            ends.append(0.0)
            frame = [span, idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[span] = end
                stack.pop()
                duration = end - start
                self.calls[idx] += 1
                self.self_s[idx] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def start_op(self, op_id: int) -> None:
        """Tag the following spans with ``op_id``; drop spans an over-cap stop left open."""
        self._op_id = op_id
        self._stack.clear()

    # -- counters taken from arguments and results -----------------------------

    def _conductor(self, args, result):
        c = self.counters
        if args[0].conductor > c["conductor_max"]:
            c["conductor_max"] = args[0].conductor

    def _reduced(self, args, result):
        self._conductor(args, result)
        if result.conductor < args[0].conductor:
            self.counters["reduced_drops"] += 1

    def _solve(self, args, result):
        if result is not None:
            self.counters["solve_hits"] += 1

    def _kernel(self, args, result):
        c = self.counters
        rows = args[0]
        c["kernel_max_dim"] = max(c["kernel_max_dim"], len(rows[0]))
        c["kernel_max_out_bits"] = max(c["kernel_max_out_bits"], _bits(result))

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = {
            module: importlib.import_module(f"equispin.{module}") for _, module, _ in FUNCTIONS
        }
        posts = {
            "cyclo.mul": self._conductor,
            "cyclo.inverse": self._conductor,
            "cyclo.galois": self._conductor,
            "cyclo.embed": self._conductor,
            "cyclo.reduced": self._reduced,
            "intlinalg.solve": self._solve,
            "intlinalg.integer_kernel": self._kernel,
        }
        for name, module, attr in FUNCTIONS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[module], cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(name, original, posts.get(name))
                # every class slot bound to the function, so __rmul__ with __mul__
                for slot, value in list(cls.__dict__.items()):
                    if value is original:
                        setattr(cls, slot, wrapper)
                continue
            original = getattr(modules[module], attr)
            wrapper = self._wrap(name, original, posts.get(name))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        missed = [
            f"{mod}.{attr}"
            for mod, attr in REQUIRED_SITES
            if not hasattr(getattr(modules[mod], attr), "__wrapped__")
        ]
        cls = modules["cyclo"].CyclotomicNumber
        if not hasattr(cls.__dict__["__rmul__"], "__wrapped__"):
            missed.append("cyclo.CyclotomicNumber.__rmul__")
        if missed:
            raise RuntimeError(f"trace wrappers missing at {missed}")

    # -- output ------------------------------------------------------------------

    def function_metrics(self) -> dict[str, float]:
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        return out

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the raw column arrays."""
        columns = (
            ("name", self.span_name),
            ("start", self.span_start),
            ("end", self.span_end),
            ("parent", self.span_parent),
            ("op", self.span_op),
        )
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for _, col in columns:
                col.tofile(fh)
