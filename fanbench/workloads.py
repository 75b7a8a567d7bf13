"""The three fanlab benchmark workloads: seeded inputs, timed queries, checks.

Every workload draws its instances from the workload seed alone, with plain
Python and no fanlab code, so both sides of a comparison see the same
inputs.  Instance i depends only on (workload, seed, i); a longer pool has
the shorter one as its prefix.  Index sets are drawn here and handed to the
CLI as explicit lists, because the CLI's own `random:N` specs can loop
forever (see README.md, "Known defects").

A workload object offers:
  instances(count)      the first `count` instances of the seed's pool
  write_inputs(dir, insts)  write the files the benchmark generates (untimed)
  setup(fl, dir, insts) run fanlab's steps that prepare every instance's
                        inputs (timed, with the import, as setup_s)
  query(fl, inst)       the timed steps of one instance; returns its outputs
  check(fl, inst, out)  validate those outputs (untimed); raise CheckFailed
  facts(inst, out)      the input properties of one instance that ran
  properties(facts)     those properties summarised over a run
`fl` is the imported fanlab package.  The workload reaches the package only
through attributes looked up at call time, so the tracer's rebinding sees
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# Exit codes the CLI documents (see fanlab.cli).
EXIT_OK = 0
EXIT_BLOCKED = 10
DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5, 10}


class CheckFailed(Exception):
    """A query's output is wrong or its exit code is not the expected one."""


@dataclass
class Instance:
    index: int
    params: dict
    files: dict = field(default_factory=dict)


def cli(fl, *argv, out: Path) -> tuple[int, str]:
    """Call fanlab.cli.main in-process with stdout and stderr captured.

    The step writes its result to `out`; returns (exit code, that file's text).
    """
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = fl.cli.main([str(a) for a in argv] + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def expect_exit(step: str, code: int, allowed) -> None:
    if code not in DOCUMENTED_EXITS:
        raise CheckFailed(f"{step}: undocumented exit code {code}")
    if code not in allowed:
        raise CheckFailed(f"{step}: exit code {code}, expected one of {sorted(allowed)}")


def term(exp: int, coeff: int) -> str:
    if exp == 0:
        return str(coeff)
    base = "w" if exp == 1 else f"w^({exp})"
    return base if coeff == 1 else f"{base}*{coeff}"


def literal(coeffs) -> str:
    """Canonical literal of sum w^e * c over (e, c) pairs with decreasing e."""
    parts = [term(e, c) for e, c in coeffs if c]
    return "+".join(parts) if parts else "0"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"fanbench:{workload}:{seed}:{index}")


def _hist(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def _summary(values) -> dict:
    values = list(values)
    if not values:
        return {}
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def instances(self, count: int) -> list[Instance]:
        return [Instance(i, self.draw(_rng(self.name, self.seed, i), i)) for i in range(count)]

    def write_inputs(self, workdir: Path, insts) -> None:
        """Write the input files drawn by the benchmark itself; none by default."""


# -- mincap ----------------------------------------------------------------------

# Strata cycled in instance order: (bound, N, grid, naturals).  The grid
# holds the indices w^(2)*a + w*b + c for a, b, c in the given ranges; of its
# finite indices only those in `naturals` are kept.  N of them are drawn.  N
# runs on both sides of MIN_SUM_EXACT_LIMIT = 12: at N <= 12 the exact
# min_sum_labeling branch-and-bound dominates, above it min_cap's
# backtracking does.  The grids keep each stratum's cost within about 15
# times its median, so that a run's mean is steady across seeds.  Left out:
# N = 11 and 12 (0.3 s and 0.7 to 13 s per instance), w^(3) at N >= 13 (up
# to 70 s), and N >= 13 grids whose costs reach 40 to 70 times their median
# for a few ladder systems in a hundred.
MINCAP_STRATA = (
    ("w^(2)", 9, (range(1), range(5), range(3)), ()),
    ("w^(2)", 10, (range(1), range(5), range(3)), ()),
    ("w^(3)", 9, (range(2), range(3), range(2)), ()),
    ("w^(3)", 10, (range(2), range(3), range(2)), ()),
    ("w^(2)", 13, (range(1), range(7), range(2)), (0,)),
    ("w^(2)", 13, (range(1), range(7), range(2)), (0,)),
)
MIN_SUM_EXACT_LIMIT = 12  # fanlab.separation's exact limit when this benchmark was defined


class Mincap(Workload):
    """`mincap` on an hset of a seeded walk family; setup runs gen and hset."""

    name = "mincap"

    def draw(self, rng, index):
        bound, n, (squares, omegas, finite), naturals = MINCAP_STRATA[index % len(MINCAP_STRATA)]
        grid = [
            literal([(2, a), (1, b), (0, c)])
            for a in squares
            for b in omegas
            for c in finite
            if a or b or c in naturals
        ]
        return {
            "bound": bound,
            "N": n,
            "ladder_seed": rng.randrange(1 << 31),
            "indices": rng.sample(grid, n),
        }

    def setup(self, fl, workdir: Path, insts) -> None:
        for inst in insts:
            p = inst.params
            family = workdir / f"family{inst.index}.json"
            hset = workdir / f"hset{inst.index}.json"
            code, _ = cli(fl, "gen", "--kind", "walk", "--bound", p["bound"], "--ladders", "seeded",
                          "--seed", p["ladder_seed"], out=family)
            expect_exit("gen", code, {EXIT_OK})
            indices = ",".join(p["indices"])
            code, _ = cli(fl, "hset", "--family", family, "--indices", indices, out=hset)
            expect_exit("hset", code, {EXIT_OK})
            inst.files = {"hset": hset, "out": workdir / f"mincap{inst.index}.json"}

    def query(self, fl, inst):
        return {"mincap": cli(fl, "mincap", "--hset", inst.files["hset"], out=inst.files["out"])}

    def check(self, fl, inst, out) -> None:
        code, text = out["mincap"]
        expect_exit("mincap", code, {EXIT_OK})
        doc = json.loads(text)
        h = fl.HFamily.from_json(json.loads(inst.files["hset"].read_text()))
        A = list(h.indices)
        cap = doc["min_cap"]
        witness = _labeling(fl, doc["witness"])
        min_sum = _labeling(fl, doc["min_sum_witness"])
        if fl.check_separation(h, A, witness) is not None or max(witness.values()) > cap:
            raise CheckFailed("the min_cap witness does not separate within the cap")
        if fl.check_separation(h, A, min_sum) is not None:
            raise CheckFailed("the min_sum labeling does not separate")
        if sum(min_sum.values()) != doc["min_sum"]:
            raise CheckFailed("min_sum differs from the sum of its labeling")
        # Separating labelings form an up-set, so the cap is minimal exactly
        # when the constant labeling at the cap separates and the one below fails.
        if fl.check_separation(h, A, dict.fromkeys(A, cap)) is not None:
            raise CheckFailed("the constant labeling at min_cap does not separate")
        if cap > 0 and fl.check_separation(h, A, dict.fromkeys(A, cap - 1)) is None:
            raise CheckFailed("the constant labeling below min_cap separates")

    def facts(self, inst, out):
        return {"N": inst.params["N"], "bound": inst.params["bound"]}

    def properties(self, facts):
        ns = [f["N"] for f in facts]
        return {
            "N_histogram": _hist(ns),
            "bound_histogram": _hist(f["bound"] for f in facts),
            "share_above_exact_limit": sum(n > MIN_SUM_EXACT_LIMIT for n in ns) / max(1, len(ns)),
        }


def _labeling(fl, pairs) -> dict:
    return {fl.ordinals.index_from_json(a): int(v) for a, v in pairs}


# -- families --------------------------------------------------------------------

# Cycled in instance order.  A w^(w) query costs about twice a w^(3) one;
# with twice as many of them the median falls inside one cluster of costs
# instead of in the gap between two.
FAMILY_BOUNDS = ("w^(3)", "w^(w)", "w^(w)")
FAMILY_INDICES = 30
AVOID_LIMITS = 3


def _draw_ordinal(rng: random.Random, bound: str, limit: bool) -> str:
    """An ordinal below w^(3) or w^(w); a nonzero limit when asked."""
    top = 2 if bound == "w^(3)" else rng.randint(1, 4)
    coeffs = [(top, rng.randint(1, 3))]
    coeffs += [(e, rng.randrange(4)) for e in range(top - 1, 0, -1)]
    if not limit:
        coeffs.append((0, rng.randrange(4)))
    return literal(coeffs)


def _draw_distinct(rng, count, draw) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen[draw()] = None
    return list(seen)


class Families(Workload):
    """Walk and ladder-disagreement evaluation plus both weak-bound modes."""

    name = "families"

    def draw(self, rng, index):
        bound = FAMILY_BOUNDS[index % len(FAMILY_BOUNDS)]
        return {
            "bound": bound,
            "ladder_seed": rng.randrange(1 << 31),
            "bound_seed": rng.randrange(1 << 31),
            "indices": _draw_distinct(
                rng, FAMILY_INDICES, lambda: _draw_ordinal(rng, bound, rng.random() < 0.5)
            ),
            "gamma": _draw_ordinal(rng, bound, True),
            "avoid": _draw_distinct(rng, AVOID_LIMITS, lambda: _draw_ordinal(rng, bound, True)),
        }

    def setup(self, fl, workdir: Path, insts) -> None:
        for inst in insts:
            p = inst.params
            files = {"out": workdir / f"out{inst.index}.json"}
            for kind in ("walk", "ladder"):
                files[kind] = workdir / f"{kind}{inst.index}.json"
                code, _ = cli(fl, "gen", "--kind", kind, "--bound", p["bound"],
                              "--ladders", "seeded", "--seed", p["ladder_seed"], out=files[kind])
                expect_exit("gen", code, {EXIT_OK})
            inst.files = files

    def query(self, fl, inst):
        p, f = inst.params, inst.files
        indices = ",".join(p["indices"])
        return {
            "eval_walk": cli(fl, "eval", "--family", f["walk"], "--indices", indices, out=f["out"]),
            "eval_ladder": cli(fl, "eval", "--family", f["ladder"], "--indices", indices,
                               out=f["out"]),
            "bound_gamma": cli(fl, "bound", "--family", f["ladder"], "--gamma", p["gamma"],
                               "--probe", 8, "--seed", p["bound_seed"], out=f["out"]),
            "bound_avoid": cli(fl, "bound", "--family", f["ladder"],
                               "--avoid", ",".join(p["avoid"]),
                               "--seed", p["bound_seed"], out=f["out"]),
        }

    def check(self, fl, inst, out) -> None:
        for step, (code, _) in out.items():
            expect_exit(step, code, {EXIT_OK})
        n = len(inst.params["indices"])
        for step in ("eval_walk", "eval_ladder"):
            doc = json.loads(out[step][1])
            if len(doc["indices"]) != n or len(doc["values"]) != n * (n - 1) // 2:
                raise CheckFailed(f"{step}: wrong number of values")
        for step in ("bound_gamma", "bound_avoid"):
            doc = json.loads(out[step][1])
            if doc["violations"] or doc.get("empirical_violations"):
                raise CheckFailed(f"{step}: the weak bound has violations")
        if "empirical_violations" not in json.loads(out["bound_gamma"][1]):
            raise CheckFailed("bound_gamma: the --probe re-check is missing")

    def facts(self, inst, out):
        sizes = {
            step: len(json.loads(out[step][1])["certified_on"])
            for step in ("bound_gamma", "bound_avoid")
        }
        return {"bound": inst.params["bound"], **sizes}

    def properties(self, facts):
        return {
            "bound_histogram": _hist(f["bound"] for f in facts),
            "closure_size_gamma": _summary(f["bound_gamma"] for f in facts),
            "closure_size_avoid": _summary(f["bound_avoid"] for f in facts),
        }


# -- space -----------------------------------------------------------------------

SPACE_TARGET_POINTS = 1000
SPACE_COORD = 8  # staircase coordinates lie below this
SPACE_SUBSET = 5  # the oracle in the checks enumerates (cap + 1) ** 5 labelings
CLOPEN_DEPTHS = range(4)


def _staircase(points) -> list[list[int]]:
    """Maximal elements of the downward closure, by increasing first coordinate."""
    out, best = [], -1
    for n, m in sorted(set(points), reverse=True):
        if m > best:
            out.append([n, m])
            best = m
    return out[::-1]


def _size(staircase) -> int:
    total, prev = 0, -1
    for n, m in staircase:
        total += (n - prev) * (m + 1)
        prev = n
    return total


class Space(Workload):
    """One lab session on an explicit hset of random staircases."""

    name = "space"

    def draw(self, rng, index):
        n = 10 + index % 3
        indices = sorted(rng.sample(range(1, 200), n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        entries, total = [], 0
        for i, j in pairs:
            if total >= SPACE_TARGET_POINTS:
                break
            corners = [(rng.randrange(SPACE_COORD), rng.randrange(SPACE_COORD))
                       for _ in range(rng.randint(1, 3))]
            stair = _staircase(corners)
            entries.append([i, j, stair])
            total += _size(stair)
        return {
            "table": {"indices": indices, "kind": "explicit", "entries": sorted(entries)},
            "isolated_points": total,
            "subset": sorted(rng.sample(indices, SPACE_SUBSET)),
        }

    def write_inputs(self, workdir: Path, insts) -> None:
        # The tables are the benchmark's own output, not fanlab's, so writing
        # them is left out of setup_s; it would time the file system instead.
        for inst in insts:
            table = workdir / f"table{inst.index}.json"
            table.write_text(json.dumps(inst.params["table"], sort_keys=True))
            inst.files = {"table": table}

    def setup(self, fl, workdir: Path, insts) -> None:
        for inst in insts:
            inst.files = {
                "table": inst.files["table"],
                "hset": workdir / f"hset{inst.index}.json",
                "json": workdir / f"space{inst.index}.json",
                "dot": workdir / f"space{inst.index}.dot",
                "out": workdir / f"separate{inst.index}.json",
            }

    def query(self, fl, inst):
        f, subset = inst.files, inst.params["subset"]
        out = {
            "hset": cli(fl, "hset", "--table", f["table"], out=f["hset"]),
            "space_json": cli(fl, "space", "--hset", f["hset"], "--format", "json", out=f["json"]),
            "space_dot": cli(fl, "space", "--hset", f["hset"], "--format", "dot", out=f["dot"]),
        }
        h = fl.HFamily.from_json(json.loads(out["hset"][1]))
        space = fl.space_from_json(json.loads(out["space_json"][1]))
        out["clopen"] = [fl.clopen_check(space, g, k) for g in space.indices for k in CLOPEN_DEPTHS]
        depth = 1 + max((max(n, m) for (_, n), (_, m) in space.isolated), default=0)
        extracted = fl.extract_from_space(fl.tabulate_intersections(space, depth)).family
        out["extracted"] = extracted.to_json()
        cap = fl.min_cap(h, subset)
        out["caps"] = [cap - 1, cap] if cap > 0 else [cap]
        spec = ",".join(map(str, subset))
        out["separate"] = [
            cli(fl, "separate", "--hset", f["hset"], "--subset", spec, "--cap", c, out=f["out"])
            for c in out["caps"]
        ]
        out["probe"] = [fl.probe_fan_closure(h, subset, c).adversary_wins for c in out["caps"]]
        return out

    def check(self, fl, inst, out) -> None:
        for step in ("hset", "space_json", "space_dot"):
            expect_exit(step, out[step][0], {EXIT_OK})
        table = inst.params["table"]
        if json.loads(out["hset"][1])["entries"] != table["entries"]:
            raise CheckFailed("hset --table does not reproduce the input table")
        h = fl.HFamily.from_json(table)
        space = fl.build_space(h)
        if fl.space_from_json(json.loads(out["space_json"][1])) != space:
            raise CheckFailed("the space JSON round trip differs from the built space")
        if out["extracted"]["entries"] != table["entries"]:
            raise CheckFailed("extraction does not reproduce the input table")
        if not all(out["clopen"]):
            raise CheckFailed("a basic neighborhood is not clopen")
        subset = inst.params["subset"]
        oracle = [fl.exists_separation_capped(h, subset, c) for c in out["caps"]]
        if not oracle[-1].separated or (len(oracle) > 1 and oracle[0].separated):
            raise CheckFailed("min_cap of the subset disagrees with the oracle")
        steps = zip(out["caps"], out["separate"], out["probe"], oracle)
        for cap, (code, text), adversary_wins, truth in steps:
            expect_exit("separate", code, {EXIT_OK, EXIT_BLOCKED})
            doc = json.loads(text)
            if doc["status"] != truth.status or (code == EXIT_OK) != truth.separated:
                raise CheckFailed(f"separate at cap {cap} disagrees with the oracle")
            if adversary_wins == truth.separated:
                raise CheckFailed(f"probe_fan_closure at cap {cap} disagrees with the oracle")
            witness = _labeling(fl, doc["witness"]) if truth.separated else None
            if witness is not None and not fl.space_separation_check(space, subset, witness):
                raise CheckFailed(f"the witness at cap {cap} leaves neighborhoods meeting")

    def facts(self, inst, out):
        return {
            "isolated_points": inst.params["isolated_points"],
            "N": len(inst.params["table"]["indices"]),
        }

    def properties(self, facts):
        return {
            "isolated_points": _summary(f["isolated_points"] for f in facts),
            "N_histogram": _hist(f["N"] for f in facts),
        }


WORKLOADS = {w.name: w for w in (Mincap, Families, Space)}
