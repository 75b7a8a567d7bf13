"""In-memory span tracer that wraps fanlab's public functions from outside.

Each traced function is replaced, in every module that holds a reference to
it, by a wrapper that records a span (name, start, end, parent) into compact
arrays.  Hot leaf functions get count-only wrappers, because a span would
cost more than the call itself.  Self time is computed at the end from the
recorded spans: a span's duration minus the time covered by its children.
Nothing here changes the package's behaviour; uninstall() restores every
binding that install() replaced.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "ordinals", "walks", "families", "cdw", "separation", "spaces")

# The per-layer metrics in report order.  A `.self_s` metric sums the self
# time of the span of that name, a ratio divides two counters, and any other
# metric is a counter.
PER_LAYER = (
    "separation.solve.calls", "separation.solve.self_s", "separation.solve.blocked_frac",
    "separation.min_cap.calls", "separation.min_cap.self_s", "separation.min_cap.solves_per_call",
    "separation.min_sum.calls", "separation.min_sum.self_s", "separation.min_sum.exact_frac",
    "separation.oracle.self_s", "separation.check.calls",
    "cdw.hget.calls", "cdw.hget.self_s", "cdw.max_m_for.calls", "cdw.contains.calls",
    "cdw.points.yielded", "cdw.downward_close.self_s", "cdw.extract.self_s",
    "ordinals.parse_ordinal.calls", "ordinals.parse_ordinal.self_s", "ordinals.compare.calls",
    "ordinals.ladder_value.canonical.calls", "ordinals.ladder_value.canonical.self_s",
    "ordinals.ladder_value.seeded.calls", "ordinals.ladder_value.seeded.self_s",
    "ordinals.first_index_at_least.calls", "ordinals.first_index_at_least.self_s",
    "ordinals.first_index_at_least.probes_per_call",
    "walks.walk.calls", "walks.walk.self_s", "walks.step.calls", "walks.rho2.calls",
    "walks.cache_hit_ratio",
    "families.value.calls", "families.value.self_s", "families.disagreement_index.calls",
    "families.disagreement_index.self_s", "families.close.self_s", "families.closure_points",
    "families.weak_bound.self_s", "families.verify_witness.self_s", "families.bound_eval.calls",
    "spaces.build.self_s", "spaces.isolated_points", "spaces.neighborhood.calls",
    "spaces.neighborhood.self_s", "spaces.clopen.self_s", "spaces.tabulate.self_s",
    "spaces.export.self_s", "spaces.from_json.self_s", "spaces.separation_check.self_s",
    "spaces.probe.self_s",
    "cli.main.calls", "cli.main.self_s",
) + tuple(f"{layer}.errors" for layer in LAYERS)

RATIOS = {
    "separation.solve.blocked_frac": ("separation.solve.blocked", "separation.solve.calls"),
    "separation.min_cap.solves_per_call": ("separation.min_cap.solves", "separation.min_cap.calls"),
    "separation.min_sum.exact_frac": ("separation.min_sum.exact", "separation.min_sum.calls"),
    "ordinals.first_index_at_least.probes_per_call": (
        "ordinals.first_index_at_least.probes", "ordinals.first_index_at_least.calls"),
    "walks.cache_hit_ratio": ("walks.walk.hits", "walks.walk.calls"),
}



class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _escaped(self, layer: str) -> None:
        """Count an exception leaving the layer (not one passing inside it)."""
        caller = self.parent[self._stack[-1]]
        caller_layer = self.names[self.name_id[caller]].split(".")[0] if caller >= 0 else None
        if caller_layer != layer:
            self.counts[f"{layer}.errors"] += 1

    @contextlib.contextmanager
    def phase(self, name: str):
        """Open a root span for one of the runner's phases."""
        idx = self._open(self._id(f"bench.{name}"))
        try:
            yield
        finally:
            self._close(idx)

    def span(self, name: str, fn, after=None):
        """Wrapper recording a span and counting `<name>.calls`.

        after(result, args) may update counters from the call's result.
        """
        nid = self._id(name)
        layer = name.split(".")[0]
        calls = f"{name}.calls"
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[calls] += 1
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._escaped(layer)
                raise
            finally:
                tracer._close(idx)
            if after is not None:
                after(result, args)
            return result

        return functools.update_wrapper(wrapper, fn)

    def count(self, name: str, fn):
        """Count-only wrapper for functions too small to carry a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def count_yields(self, name: str, fn):
        """Wrapper for a generator function counting the items it yields."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return functools.update_wrapper(wrapper, fn)

    # -- installation ------------------------------------------------------

    def replace_function(self, original, wrapper, namespaces) -> None:
        """Rebind every module-level name that refers to original."""
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def replace_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap the layers of the fanlab package imported in this process."""
        from fanlab import cdw, cli, families, ordinals, separation, spaces, walks

        namespaces = [m for n, m in sys.modules.items() if n == "fanlab" or n.startswith("fanlab.")]
        counts, span, count = self.counts, self.span, self.count

        def wrap(owner, attr: str, make) -> None:
            """Replace a method in its class, or a function in every namespace."""
            if isinstance(owner, type):
                self.replace_method(owner, attr, make(owner.__dict__[attr]))
            else:
                original = getattr(owner, attr)
                self.replace_function(original, make(original), namespaces)

        def spanned(name: str, after=None):
            return lambda f: span(name, f, after)

        def counted(name: str):
            return lambda f: count(name, f)

        def caused(event: str, into: str, make):
            """Also add to `into` the `event` counts that each call causes."""
            def outer(original):
                inner = make(original)

                def wrapper(*args, **kwargs):
                    before = counts[event]
                    try:
                        return inner(*args, **kwargs)
                    finally:
                        counts[into] += counts[event] - before

                return functools.update_wrapper(wrapper, original)
            return outer

        def tally(name: str, measure):
            def after(result, args):
                counts[name] += measure(result)
            return after

        # separation
        wrap(separation, "solve_separation", spanned(
            "separation.solve", tally("separation.solve.blocked", lambda r: not r.separated)))
        wrap(separation, "min_cap", caused(
            "separation.solve.calls", "separation.min_cap.solves", spanned("separation.min_cap")))
        wrap(separation, "min_sum_labeling", spanned(
            "separation.min_sum", tally("separation.min_sum.exact", lambda r: r.exact)))
        wrap(separation, "exists_separation_capped", spanned("separation.oracle"))
        wrap(separation, "check_separation", counted("separation.check.calls"))

        # cdw
        wrap(cdw.HFamily, "get", spanned("cdw.hget"))
        wrap(cdw.CdwSet, "max_m_for", counted("cdw.max_m_for.calls"))
        wrap(cdw.CdwSet, "__contains__", counted("cdw.contains.calls"))
        wrap(cdw.CdwSet, "points", lambda f: self.count_yields("cdw.points.yielded", f))
        wrap(cdw, "downward_close", spanned("cdw.downward_close"))
        wrap(cdw, "extract_from_space", spanned("cdw.extract"))

        # ordinals.  The canonical rule is a function that canonical systems
        # call and seeded systems fall back to above their prefix; a seeded
        # system's own value() is the seeded span.
        wrap(ordinals, "parse_ordinal", spanned("ordinals.parse_ordinal"))
        wrap(ordinals.Ordinal, "compare", counted("ordinals.compare.calls"))
        wrap(ordinals, "canonical_ladder", spanned("ordinals.ladder_value.canonical"))

        def ladder_value(value):
            seeded = span("ordinals.ladder_value.seeded", value)

            def wrapper(system, alpha, n):
                counts["ordinals.ladder_value.calls"] += 1
                return (seeded if system.kind == "seeded" else value)(system, alpha, n)

            return functools.update_wrapper(wrapper, value)

        wrap(ordinals.LadderSystem, "value", ladder_value)
        wrap(ordinals.LadderSystem, "first_index_at_least", caused(
            "ordinals.ladder_value.calls", "ordinals.first_index_at_least.probes",
            spanned("ordinals.first_index_at_least")))

        # walks: a walk that takes no step was answered from the trace cache
        def walk_hits(walk):
            def wrapper(sequence, alpha, beta):
                before = counts["walks.step.calls"]
                try:
                    return walk(sequence, alpha, beta)
                finally:
                    counts["walks.walk.hits"] += counts["walks.step.calls"] == before

            return span("walks.walk", functools.update_wrapper(wrapper, walk))

        wrap(walks.CSequence, "walk", walk_hits)
        wrap(walks.CSequence, "step", counted("walks.step.calls"))
        wrap(walks.CSequence, "rho2", counted("walks.rho2.calls"))

        # families
        wrap(families.FuncFamily, "value", spanned("families.value"))
        wrap(families, "disagreement_index", spanned("families.disagreement_index"))
        for attr in ("close_below", "close_avoiding"):
            wrap(families, attr, spanned("families.close", tally("families.closure_points", len)))
        for attr in ("weak_bound_below", "weak_bound_avoiding"):
            wrap(families, attr, spanned("families.weak_bound"))
        wrap(families, "verify_witness", spanned("families.verify_witness"))
        wrap(families.WeakBound, "__call__", counted("families.bound_eval.calls"))

        # spaces
        wrap(spaces, "build_space", spanned(
            "spaces.build", tally("spaces.isolated_points", lambda r: len(r.isolated))))
        wrap(spaces.CombSpace, "neighborhood", spanned("spaces.neighborhood"))
        for attr, name in (
            ("clopen_check", "spaces.clopen"),
            ("tabulate_intersections", "spaces.tabulate"),
            ("export_space", "spaces.export"),
            ("space_from_json", "spaces.from_json"),
            ("space_separation_check", "spaces.separation_check"),
            ("probe_fan_closure", "spaces.probe"),
        ):
            wrap(spaces, attr, spanned(name))

        # cli
        wrap(cli, "main", spanned("cli.main"))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """{(phase, span name): self seconds} over every closed span."""
        n = len(self.start)
        covered = [0] * n
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
                root[i] = root[p]
            else:
                root[i] = i
        out: Counter = Counter()
        for i in range(n):
            phase = self.names[self.name_id[root[i]]].removeprefix("bench.")
            out[(phase, self.names[self.name_id[i]])] += self.end[i] - self.start[i] - covered[i]
        return {key: ns / 1e9 for key, ns in out.items()}

    def metrics(self, self_s: dict) -> dict:
        """The per-layer metrics, summed over every traced phase."""
        by_name: Counter = Counter()
        for (_, name), seconds in self_s.items():
            by_name[name] += seconds
        c, out = self.counts, {}
        for name in PER_LAYER:
            if name in RATIOS:
                num, den = RATIOS[name]
                out[name] = c[num] / c[den] if c[den] else 0.0
            elif name.endswith(".self_s"):
                out[name] = by_name[name.removesuffix(".self_s")]
            else:
                out[name] = c[name]
        return out

    def layer_self_s(self, self_s: dict) -> dict:
        """{phase: {layer: self seconds}}; 'bench' is the runner's own time."""
        out: dict = {}
        for (phase, name), seconds in self_s.items():
            layer = name.split(".")[0]
            bucket = out.setdefault(phase, {})
            bucket[layer] = bucket.get(layer, 0.0) + seconds
        return out

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw int64 columns."""
        header = {"names": self.names, "spans": len(self.start), "columns": list(SPAN_COLUMNS)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in SPAN_COLUMNS:
                fh.write(getattr(self, column).tobytes())


SPAN_COLUMNS = ("name_id", "parent", "start", "end")  # start and end in perf_counter ns


def read_spans(path: Path) -> tuple[dict, dict]:
    """(header, {column: array of int64}) from a file written by Tracer.write."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for column in header["columns"]:
            columns[column] = array("q")
            columns[column].frombytes(fh.read(8 * header["spans"]))
    return header, columns

