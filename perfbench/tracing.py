"""In-memory span tracer that wraps radpi's public functions from outside.

`Tracer.install()` replaces each traced function at every module attribute
bound to it (and on `FixedReal` for the arithmetic methods), so calls made
through any import path are recorded. Each call records one span: name,
start, end, parent span and op id, plus one or two integer attributes read
from the arguments or the result. Nothing inside the package changes; the
wrappers are removed again by `uninstall()`.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from functools import wraps


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _exact_ratio(args, kwargs, result):
    return int(result.ratio_kind == "exact"), 0


# (span name, module holding the original, attribute, attribute reader)
_MODULE_TARGETS = (
    ("arith.pi_ref", "radpi.arith", "pi_fixed", None),
    ("arith.pi_ref", "radpi.arith", "pi_oracle", None),
    ("arith.arccos_ref", "radpi.arith", "arccos_oracle", None),
    ("recursion.run_at_scale", "radpi.recursion", "run_at_scale",
     lambda a, kw, r: (_arg(a, kw, 1, "k"), _arg(a, kw, 2, "scale_bits"))),
    ("recursion.nested_literal", "radpi.recursion", "nested_literal", None),
    ("recursion.half_angle_step", "radpi.recursion", "half_angle_step",
     lambda a, kw, r: (_arg(a, kw, 0, "x_prev").scale_bits, 0)),
    ("drivers.arccos", "radpi.drivers", "arccos_by_recursion", None),
    ("drivers.method1", "radpi.drivers", "pi_method1", _exact_ratio),
    ("drivers.method2", "radpi.drivers", "pi_method2", _exact_ratio),
    ("drivers.combined", "radpi.drivers", "pi_combined", _exact_ratio),
    ("drivers.unity", "radpi.drivers", "unity_formula", _exact_ratio),
    ("drivers.viete", "radpi.drivers", "viete_product", _exact_ratio),
    ("analysis.table", "radpi.analysis", "convergence_table",
     lambda a, kw, r: (len(r.rows), 0)),
    ("analysis.verify", "radpi.analysis", "verify_identities", None),
    ("analysis.reproduce", "radpi.analysis", "reproduce_catalog", None),
    ("analysis.audit", "radpi.analysis", "cancellation_audit", None),
    ("cli.run_command", "radpi.cli", "run_command", None),
    ("cli.render", "radpi.cli", "render_report", None),
    ("cli.render", "radpi.cli", "render_audit", None),
    ("cli.render", "radpi.cli", "render_catalog", None),
    ("cli.render", "radpi.cli", "render_identities", None),
)

_METHOD_TARGETS = (
    ("arith.sqrt", "sqrt"),
    ("arith.mul", "__mul__"),
    ("arith.mul", "__rmul__"),
    ("arith.div", "__truediv__"),
)

DRIVER_SPANS = ("drivers.method1", "drivers.method2", "drivers.combined",
                "drivers.unity", "drivers.viete")


class Tracer:
    """Records spans in flat arrays; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.attr_a = array("q")
        self.attr_b = array("q")
        self.current_op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, span_name: str, fn, reader):
        nid = self._name_id(span_name)
        stack = self._stack
        start, end, name, parent, op = self.start, self.end, self.name, self.parent, self.op
        attr_a, attr_b = self.attr_a, self.attr_b
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            attr_a.append(0)
            attr_b.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if reader is not None:
                attr_a[idx], attr_b[idx] = reader(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every radpi module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "radpi" or n.startswith("radpi."))]
        for span_name, home, attr, reader in _MODULE_TARGETS:
            if home not in sys.modules:  # radpi.cli is imported only by the CLI
                continue
            original = getattr(sys.modules[home], attr)
            wrapped = self._wrap(span_name, original, reader)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapped)
        fixed = sys.modules["radpi.arith"].FixedReal
        for span_name, attr in _METHOD_TARGETS:
            original = fixed.__dict__[attr]
            self._undo.append((fixed, attr, original))
            setattr(fixed, attr, self._wrap(span_name, original, None))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- spans as plain tuples, for child processes and the span file -------

    def spans(self):
        for i in range(len(self.start)):
            yield (self.names[self.name[i]], self.start[i], self.end[i],
                   self.parent[i], self.op[i], self.attr_a[i], self.attr_b[i])

    def extend(self, spans, op_id: int) -> None:
        """Append spans recorded by another process, re-based and tagged with op_id."""
        base = len(self.start)
        for name, t0, t1, parent, _op, a, b in spans:
            self.name.append(self._name_id(name))
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op_id)
            self.attr_a.append(a)
            self.attr_b.append(b)

    def write(self, path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name\tstart\tend\tparent\top\tattr_a\tattr_b\n")
            for span in self.spans():
                handle.write("\t".join(map(str, span)) + "\n")

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Counts and self times per span name, plus the derived ratios."""
        n = len(self.start)
        names = [self.names[i] for i in self.name]
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += duration[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            calls[names[i]] += 1
            self_s[names[i]] += duration[i] - child_time[i]

        def under(i, target):
            p = self.parent[i]
            while p >= 0:
                if names[p] == target:
                    return True
                p = self.parent[p]
            return False

        ras_steps = ras_bits = 0
        table_steps = table_arccos = 0
        arccos_steps = 0
        arccos_bits: dict[int, int] = {}
        for i in range(n):
            name = names[i]
            if name == "recursion.run_at_scale":
                ras_steps += self.attr_a[i]
                ras_bits += self.attr_b[i]
                if under(i, "analysis.table"):
                    table_steps += self.attr_a[i]
            elif name == "drivers.arccos":
                if under(i, "analysis.table"):
                    table_arccos += 1
            elif name == "recursion.half_angle_step":
                p = self.parent[i]
                if p >= 0 and names[p] == "drivers.arccos":
                    arccos_steps += 1
                    arccos_bits.setdefault(p, self.attr_a[i])
        driver_calls = sum(calls[d] for d in DRIVER_SPANS)
        exact = sum(self.attr_a[i] for i in range(n) if names[i] in DRIVER_SPANS)
        rows = sum(self.attr_a[i] for i in range(n) if names[i] == "analysis.table")

        def mean(total, count):
            return total / count if count else 0.0

        out: dict[str, float] = {}
        for key in ("sqrt", "div", "mul", "pi_ref", "arccos_ref"):
            out[f"arith.{key}.calls"] = calls[f"arith.{key}"]
            out[f"arith.{key}.self_s"] = self_s[f"arith.{key}"]
        ras = calls["recursion.run_at_scale"]
        out["recursion.run_at_scale.calls"] = ras
        out["recursion.run_at_scale.steps"] = ras_steps
        out["recursion.run_at_scale.self_s"] = self_s["recursion.run_at_scale"]
        out["recursion.run_at_scale.work_bits_mean"] = mean(ras_bits, ras)
        out["recursion.nested_literal.calls"] = calls["recursion.nested_literal"]
        out["recursion.nested_literal.self_s"] = self_s["recursion.nested_literal"]
        out["drivers.arccos.calls"] = calls["drivers.arccos"]
        out["drivers.arccos.steps"] = arccos_steps
        out["drivers.arccos.self_s"] = self_s["drivers.arccos"]
        out["drivers.arccos.work_bits_mean"] = mean(sum(arccos_bits.values()), len(arccos_bits))
        for span in DRIVER_SPANS:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        out["drivers.ratio_exact_share"] = mean(exact, driver_calls)
        out["analysis.table.calls"] = calls["analysis.table"]
        out["analysis.table.self_s"] = self_s["analysis.table"]
        out["analysis.table.rows"] = rows
        out["analysis.table.steps_per_row"] = mean(table_steps, rows)
        out["analysis.table.arccos_per_row"] = mean(table_arccos, rows)
        for key in ("verify", "reproduce", "audit"):
            out[f"analysis.{key}.self_s"] = self_s[f"analysis.{key}"]
        out["cli.run_command.self_s"] = self_s["cli.run_command"]
        out["cli.render.self_s"] = self_s["cli.render"]
        return out
