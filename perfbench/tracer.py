"""Spans around calls into scavenger's public functions, recorded from outside.

The program under test has no tracing of its own, so the tracer wraps
functions in place: every attribute of a loaded ``scavenger.*`` module (and
every attribute of a class defined there) that is bound to a traced function
object is replaced by a wrapper, and `Tracer.restore` puts each original back.
A wrapper records one span (name, start, end, parent) per call and adds the
call's outcome counts to its label.  Spans stay in memory until `write_spans`.

`qcore.dist_sq` is deliberately not traced: it runs millions of times per hunt
and its wrappers would dominate the overhead.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Spec:
    """One traced function.

    `label` is ``<module>.<qualname>`` with the leading ``scavenger.`` dropped.
    When the label's module is the module that defines the function, every
    binding of the function is wrapped.  Otherwise only that module's binding
    is, and around the first wrapper: ``hunts.verify_certificate`` counts every
    call, and ``cli.verify_certificate`` the subset made through the name bound
    in ``scavenger.cli``.  `outcome` maps (result, seconds) to counts added to
    the label; `wrap_args` may replace call arguments, e.g. to count predicate
    evaluations.
    """

    label: str
    target: str
    outcome: Callable | None = None
    wrap_args: Callable | None = None


def _k_colorable_outcome(result, seconds):
    side = "unsat" if result is None else "sat"
    return {f"{side}_calls": 1, f"{side}_s": seconds}


def _apex_outcome(result, seconds):
    from scavenger import geom

    reason = result[1]
    key = {geom.APEX_OK: "ok", geom.APEX_TOO_FAR: "too_far", geom.APEX_IRRATIONAL: "irrational"}[reason]
    return {key: 1}


def _count_candidates(args, kwargs, counts):
    """Wrap parallel_first's predicate so each evaluation is counted."""
    args = list(args)
    inner = args[1] if len(args) > 1 else kwargs["predicate"]

    def counted(x):
        counts["candidates"] += 1
        return inner(x)

    if len(args) > 1:
        args[1] = counted
    else:
        kwargs = dict(kwargs, predicate=counted)
    return tuple(args), kwargs


SPECS = (
    Spec("cli.dispatch", "scavenger.cli:dispatch"),
    Spec("cli.verify_certificate", "scavenger.cli:verify_certificate"),
    Spec("hunts.verify_certificate", "scavenger.hunts:verify_certificate"),
    Spec("hunts.greedy_hunt", "scavenger.hunts:greedy_hunt"),
    Spec("hunts.grotzsch_type_hunt", "scavenger.hunts:grotzsch_type_hunt"),
    Spec("hunts.grotzsch_subgraph_hunt", "scavenger.hunts:grotzsch_subgraph_hunt"),
    Spec(
        "hunts.circle_plane_intersections",
        "scavenger.hunts:circle_plane_intersections",
        outcome=lambda r, s: {"nonempty": int(bool(r))},
    ),
    Spec("hunts.read_certificate", "scavenger.hunts:read_certificate"),
    Spec("cycles.parallel_first", "scavenger.cycles:parallel_first", wrap_args=_count_candidates),
    Spec(
        "cycles.gen_vectors",
        "scavenger.cycles:gen_vectors",
        outcome=lambda r, s: {"vectors": len(r.vectors)},
    ),
    Spec("cycles.find_5cycle", "scavenger.cycles:find_5cycle"),
    Spec("cycles.find_symmetric_5cycle", "scavenger.cycles:find_symmetric_5cycle"),
    Spec("cycles.scan_d", "scavenger.cycles:scan_d"),
    Spec("geom.conic_point", "scavenger.geom:conic_point"),
    Spec("geom.apex_points_detailed", "scavenger.geom:apex_points_detailed", outcome=_apex_outcome),
    Spec("geom.equidistant_circle", "scavenger.geom:equidistant_circle"),
    Spec("geom.rational_point_on_circle", "scavenger.geom:rational_point_on_circle"),
    Spec("graph.build_graph", "scavenger.graph:build_graph"),
    Spec("graph.k_colorable", "scavenger.graph:k_colorable", outcome=_k_colorable_outcome),
    Spec("graph.forced_relations", "scavenger.graph:forced_relations"),
    Spec(
        "numtheory.construct_chain",
        "scavenger.numtheory:construct_chain",
        outcome=lambda r, s: {"steps": len(r.steps)},
    ),
    Spec("numtheory.ChainCertificate.validate", "scavenger.numtheory:ChainCertificate.validate"),
    Spec("numtheory.legendre_solution", "scavenger.numtheory:legendre_solution"),
    Spec(
        "numtheory.eq_pair_feasible",
        "scavenger.numtheory:eq_pair_feasible",
        outcome=lambda r, s: {"feasible": int(bool(r))},
    ),
    Spec("qcore.factorize", "scavenger.qcore:factorize"),
    Spec(
        "qcore.rational_square_root",
        "scavenger.qcore:rational_square_root",
        outcome=lambda r, s: {"rational": int(r is not None)},
    ),
    Spec("qcore.parse_rational", "scavenger.qcore:parse_rational"),
)


def _resolve(target: str):
    module_name, qualname = target.split(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _scavenger_namespaces():
    """(owner, namespace dict) for every loaded scavenger module and every
    class defined in one."""
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "scavenger" or name.startswith("scavenger.")):
            continue
        yield module, vars(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value, vars(value)


class Tracer:
    """Installs wrappers for `SPECS` on construction; `restore` removes them."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []  # (id, name index, start, end, parent)
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        originals = {}
        for spec in SPECS:
            fn = _resolve(spec.target)
            label_module = "scavenger." + spec.label.split(".")[0]
            only = label_module if fn.__module__ != label_module else None
            originals.setdefault(id(fn), (fn, []))[1].append((spec, only))
        try:
            for owner, namespace in _scavenger_namespaces():
                owner_module = owner.__name__ if not isinstance(owner, type) else None
                for attr, value in list(namespace.items()):
                    entry = originals.get(id(value))
                    if entry is None or value is not entry[0]:
                        continue
                    general = [s for s, only in entry[1] if only is None]
                    specific = [s for s, only in entry[1] if only is not None and only == owner_module]
                    wrapped = value
                    for spec in general + specific:  # the module-specific label outermost
                        wrapped = self._wrap(wrapped, spec)
                    if wrapped is not value:
                        self._patched.append((owner, attr, value))
                        setattr(owner, attr, wrapped)
        except BaseException:
            self.restore()
            raise

    def _wrap(self, fn, spec: Spec):
        if spec.label not in self.names:
            self.names.append(spec.label)
        index = self.names.index(spec.label)
        counts = self.counts[spec.label]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if spec.wrap_args is not None:
                args, kwargs = spec.wrap_args(args, kwargs, counts)
            sid = len(spans)
            spans.append(None)  # reserve the id so children sort after the parent
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, index, start, end, parent)
            if spec.outcome is not None:
                for key, value in spec.outcome(result, (end - start) / 1e9).items():
                    counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", spec.label)
        return wrapper

    def restore(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def aggregate(spans, names) -> dict[str, dict[str, float]]:
    """Per label: calls, total_s and self_s, where a span's self time is its
    duration minus the durations of its direct child spans."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, index, start, end, _ in spans:
        row = out[names[index]]
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns[sid]) / 1e9
    return out


def write_spans(path, spans, names) -> None:
    """One JSON object per line: id, name, start_ns, end_ns, parent (-1 at the root)."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, index, start, end, parent in spans:
            fh.write(
                json.dumps({"id": sid, "name": names[index], "start_ns": start, "end_ns": end, "parent": parent})
                + "\n"
            )
