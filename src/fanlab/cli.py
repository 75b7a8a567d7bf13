"""Command-line front door: generate families, run solvers, emit reports.

One subcommand per construction: gen, eval, hset, separate, mincap,
adversary, bound, space, growth, verify.  All randomness flows from a single
seed, JSON output is byte-deterministic (sorted keys, no timestamps), and
human diagnostics such as timings go to stderr.

Each command is a function of (args, config) that returns (document, exit
code).  The document is a JSON-able object or text already rendered (the
space export, the growth CSV).  `main` is the one writer: it loads --config,
runs the command and writes the document to --out or stdout.  It is also the
one place where errors become exit codes, through EXIT_CODES.

Exit codes: 0 success or separated, 10 blocked or adversary pair found, 1 a
bound with violations or a failed check.
Error exit codes: 2 bad ordinal literal, 3 guard exceeded, 4 closure failure,
5 validation failure, 1 domain or file error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
import time
from pathlib import Path

from . import verification
from .cdw import HFamily, sum_threshold_family
from .errors import ClosureError, DomainError, GuardExceeded, OrdinalParseError, ValidationError
from .families import (
    FuncFamily,
    derived_club,
    verify_witness,
    weak_bound_avoiding,
    weak_bound_below,
)
from .ordinals import (
    LadderSystem,
    Ordinal,
    check_distinct,
    check_index_kinds,
    first_limits,
    index_to_json,
    parse_index,
    parse_ordinal,
    random_limit,
    random_ordinal,
)
from .separation import (
    adversary_two_sets,
    exists_separation_capped,
    min_cap,
    min_sum_labeling,
    solve_separation,
)
from .spaces import build_space, export_space
from .verification import growth_rows

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_CLOSURE = 4
EXIT_VALIDATION = 5
EXIT_BLOCKED = 10

# The error exit codes, in the order main tries them.
EXIT_CODES = {
    OrdinalParseError: EXIT_PARSE,
    GuardExceeded: EXIT_GUARD,
    ClosureError: EXIT_CLOSURE,
    ValidationError: EXIT_VALIDATION,
    DomainError: EXIT_ERROR,
    OSError: EXIT_ERROR,
}


def _load_json(path: str):
    # ValueError covers bad syntax, bytes that are not UTF-8 and integers
    # beyond the interpreter's digit limit; RecursionError, deep nesting.
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


# A --config value must have the type its flag parses to: an int for these
# keys, a bool for "fast", a string for the rest, and for index specs also a
# list of index literals.
_INT_SETTINGS = frozenset({"seed", "cap", "const", "points", "prefix_depth", "probe", "depth_k"})
_SPEC_SETTINGS = frozenset({"indices", "subset", "first", "second", "avoid", "club"})


def _setting(args, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key not in config:
        return default
    value = config[key]
    if key == "fast":
        expected, ok = "true or false", isinstance(value, bool)
    elif key in _INT_SETTINGS:
        expected, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif key in _SPEC_SETTINGS:
        expected, ok = "a string or a list", isinstance(value, (str, list))
    else:
        expected, ok = "a string", isinstance(value, str)
    if not ok:
        raise ValidationError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
    return value


def _load(args, config, key: str, reader):
    """reader applied to the JSON file that the setting key names."""
    path = _setting(args, config, key)
    if path is None:
        raise ValidationError(f"a --{key} file is required")
    return reader(_load_json(path))


def _wants_ordinals(indices) -> bool:
    return bool(indices) and not isinstance(indices[0], int)


def _coerce_indices(values, ordinal: bool) -> list:
    if ordinal:
        return [Ordinal.from_int(v) if isinstance(v, int) else v for v in values]
    check_index_kinds(values)
    return list(values)


STALE_DRAW_LIMIT = 1000
# The most indices, sample points, probes or ladder prefix steps that a flag or
# an index spec may ask for.  Work and memory grow with these counts, so more
# exit 3 at once; a count below 0 exits 5.
MAX_ASKED = 1 << 12


def _asked(count: int | None, what: str) -> int | None:
    if count is not None and count < 0:
        raise ValidationError(f"{what} asks for {count}, a negative count")
    if count is not None and count > MAX_ASKED:
        raise GuardExceeded(f"{what} asks for {count}, more than {MAX_ASKED}")
    return count


def _random_points(rng: random.Random, bound, count: int) -> list:
    """count distinct random ordinals below bound, sorted.

    random_ordinal reaches only finitely many ordinals below a given bound, so
    the draws stop once STALE_DRAW_LIMIT in a row have brought no new point.
    """
    points = set()
    stale = 0
    while len(points) < count:
        before = len(points)
        points.add(random_ordinal(rng, bound))
        stale = stale + 1 if len(points) == before else 0
        if stale >= STALE_DRAW_LIMIT:
            raise ValidationError(
                f"asked for {count} random indices below {bound}, but after "
                f"{len(points)} the next {STALE_DRAW_LIMIT} draws found no new one"
            )
    return sorted(points)


def _parse_index_spec(spec, bound=None, seed: int | None = None, ordinal: bool = False) -> list:
    """'first:N', 'random:N' (with a bound), or a list of distinct index literals,
    comma-separated or as a JSON list."""
    if not isinstance(spec, list):
        mode, colon, count = spec.partition(":")
        if colon and mode in ("first", "random"):
            if bound is None:
                raise ValidationError(f"'{mode}:N' needs an ordinal bound")
            try:
                n = int(count)
            except ValueError:
                raise ValidationError(f"bad index spec {spec!r}: N must be an integer") from None
            _asked(n, spec)
            if mode == "first":
                return first_limits(bound, n)
            return _random_points(random.Random(seed), bound, n)
        spec = [part for part in spec.split(",") if part.strip()]
    values = _coerce_indices([parse_index(str(s)) for s in spec], ordinal)
    check_distinct(values, "index")
    return values


def _family_uses_ordinals(family: FuncFamily) -> bool:
    return family.kind in ("walk", "ladder") or family.bound is not None or _wants_ordinals(
        family.indices
    )


def _subset(args, config, h: HFamily) -> list:
    spec = _setting(args, config, "subset")
    if spec is None:
        return list(h.indices)
    values = _parse_index_spec(spec, ordinal=_wants_ordinals(h.indices))
    for v in values:
        h.position(v)
    return values


def _labeling_json(f: dict) -> list:
    return [[index_to_json(a), v] for a, v in sorted(f.items())]


def _pair_json(pair) -> list | None:
    return None if pair is None else [index_to_json(pair[0]), index_to_json(pair[1])]


# -- subcommands -------------------------------------------------------------


def cmd_gen(args, config) -> tuple:
    kind = _setting(args, config, "kind", "walk")
    bound_text = _setting(args, config, "bound")
    if kind in ("walk", "ladder"):
        if bound_text is None:
            raise ValidationError("walk and ladder families need --bound")
        bound = parse_ordinal(bound_text)
        ladder_kind = _setting(args, config, "ladders", "canonical")
        if ladder_kind == "seeded":
            ladders = LadderSystem.seeded(_setting(args, config, "seed", 0))
        elif ladder_kind == "canonical":
            ladders = LadderSystem.canonical()
        else:
            raise ValidationError(f"unknown ladder kind {ladder_kind!r}")
        family = FuncFamily(kind, bound, ladders=ladders)
    elif kind == "explicit":
        family = _load(args, config, "table", FuncFamily.from_json)
    else:
        raise ValidationError(f"unknown family kind {kind!r}")
    return family.to_json(), EXIT_OK


def cmd_eval(args, config) -> tuple:
    family = _load(args, config, "family", FuncFamily.from_json)
    ordinal = _family_uses_ordinals(family)
    alpha, beta = (_setting(args, config, key) for key in ("alpha", "beta"))
    if alpha is not None and beta is not None:
        alpha, beta = _coerce_indices([parse_index(alpha), parse_index(beta)], ordinal)
        doc = {
            "alpha": index_to_json(alpha),
            "beta": index_to_json(beta),
            "value": family.value(alpha, beta),
        }
    else:
        seed = _setting(args, config, "seed", 0)
        spec = _setting(args, config, "indices")
        if spec is None:
            raise ValidationError("eval needs --alpha/--beta or --indices")
        values = _parse_index_spec(spec, family.bound, seed, ordinal=ordinal)
        doc = {
            "indices": [index_to_json(v) for v in values],
            "values": [
                [i, j, family.value(a, b)]
                for i, a in enumerate(values)
                for j, b in enumerate(values)
                if a < b
            ],
        }
    return doc, EXIT_OK


def cmd_hset(args, config) -> tuple:
    table_path = _setting(args, config, "table")
    if table_path is not None:
        h = HFamily.from_json(_load_json(table_path))
    else:
        family = _load(args, config, "family", FuncFamily.from_json)
        spec = _setting(args, config, "indices")
        if spec is None:
            raise ValidationError("hset needs --indices with --family")
        seed = _setting(args, config, "seed", 0)
        indices = _parse_index_spec(
            spec, family.bound, seed, ordinal=_family_uses_ordinals(family)
        )
        h = sum_threshold_family(family, indices)
    return h.to_json(), EXIT_OK


def cmd_separate(args, config) -> tuple:
    h = _load(args, config, "hset", HFamily.from_json)
    A = _subset(args, config, h)
    cap = _setting(args, config, "cap", 0)
    engine = _setting(args, config, "engine", "solver")
    start = time.perf_counter()
    if engine == "oracle":
        result = exists_separation_capped(h, A, cap)
        pair = None if result.separated else solve_separation(h, A, cap).pair
    elif engine == "solver":
        result = solve_separation(h, A, cap)
        pair = result.pair
    else:
        raise ValidationError(f"unknown engine {engine!r}")
    print(f"separate: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    doc = {
        "status": result.status,
        "cap": cap,
        "A": [index_to_json(a) for a in sorted(A)],
        "witness": None if result.witness is None else _labeling_json(result.witness),
        "blocking_pair": _pair_json(pair),
    }
    return doc, EXIT_OK if result.separated else EXIT_BLOCKED


def cmd_mincap(args, config) -> tuple:
    h = _load(args, config, "hset", HFamily.from_json)
    A = _subset(args, config, h)
    start = time.perf_counter()
    cap = min_cap(h, A)
    witness = solve_separation(h, A, cap).witness
    ms = min_sum_labeling(h, A)
    print(f"mincap: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    doc = {
        "A": [index_to_json(a) for a in sorted(A)],
        "min_cap": cap,
        "witness": _labeling_json(witness),
        "min_sum": ms.total,
        "min_sum_exact": ms.exact,
        "min_sum_witness": _labeling_json(ms.labeling),
    }
    return doc, EXIT_OK


def _load_labels(path: str, ordinal: bool) -> dict:
    """Read {"labels": [[index, value], ...]}: index an int or literal, value an int."""
    raw = _load_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("labels"), list):
        raise ValidationError(f"{path} must hold an object with a 'labels' list")
    f = {}
    for entry in raw["labels"]:
        if not (
            isinstance(entry, list) and len(entry) == 2
            and (type(entry[0]) is int or isinstance(entry[0], str)) and type(entry[1]) is int
        ):
            raise ValidationError(f"bad label {json.dumps(entry)}: need an [index, int] pair")
        (key,) = _coerce_indices([parse_index(str(entry[0]))], ordinal)
        if key in f:
            raise ValidationError(f"{path} labels {key} twice")
        f[key] = entry[1]
    return f


def cmd_adversary(args, config) -> tuple:
    h = _load(args, config, "hset", HFamily.from_json)
    ordinal = _wants_ordinals(h.indices)
    specs = [_setting(args, config, key) for key in ("first", "second")]
    if None in specs:
        raise ValidationError("adversary needs --first and --second")
    first, second = (_parse_index_spec(spec, ordinal=ordinal) for spec in specs)
    if set(first) & set(second):
        raise ValidationError("the two sets must be disjoint")
    labels_path = _setting(args, config, "labels")
    if labels_path is not None:
        f = _load_labels(labels_path, ordinal)
        for a in list(first) + list(second):
            if a not in f:
                raise ValidationError(f"{labels_path} has no label for {a}")
    else:
        const = _setting(args, config, "const", 0)
        f = {a: const for a in list(first) + list(second)}
    pair = adversary_two_sets(h, first, second, f)
    doc = {
        "pair": _pair_json(pair),
        "values": None if pair is None else [f[pair[0]], f[pair[1]]],
    }
    return doc, EXIT_OK if pair is None else EXIT_BLOCKED


def cmd_bound(args, config) -> tuple:
    family = _load(args, config, "family", FuncFamily.from_json)
    if family.kind == "walk":
        raise ValidationError("bounds are built for ladder or explicit families")
    seed = _setting(args, config, "seed", 0)
    rng = random.Random(seed)
    count = _asked(_setting(args, config, "points", 8), "points")
    depth = _asked(_setting(args, config, "prefix_depth", 3), "prefix_depth")
    probe = _asked(_setting(args, config, "probe"), "probe")
    gamma_text = _setting(args, config, "gamma")
    avoid_spec = _setting(args, config, "avoid")
    if (gamma_text is None) == (avoid_spec is None):
        raise ValidationError("exactly one of --gamma and --avoid is required")
    start = time.perf_counter()
    if gamma_text is not None:
        gamma = parse_ordinal(gamma_text)
        points = {random_ordinal(rng, gamma) for _ in range(count)}
        bound = weak_bound_below(family, gamma, points, prefix_depth=depth)
        mode = {"mode": "below", "gamma": str(gamma)}
    else:
        if family.bound is None or not family.bound.is_limit:
            raise ValidationError("--avoid needs a family with a limit ordinal bound")
        avoid = set(_parse_index_spec(avoid_spec, family.bound, seed, ordinal=True))
        if avoid == set():
            avoid = {random_limit(rng, family.bound) for _ in range(3)}
        club_spec = _setting(args, config, "club")
        club = ()
        if club_spec is not None:
            club = tuple(sorted(_parse_index_spec(club_spec, family.bound, seed, ordinal=True)))
        # An explicit club closes only the points below its top, so the sample is
        # drawn there.  An empty club closes nothing, whatever the sample.
        below = min(club[-1], family.bound) if club else family.bound
        points = {random_ordinal(rng, below) for _ in range(count)}
        if club_spec is None:
            club = derived_club(
                family, family.bound, max(points | avoid), lambda n: _asked(n + 2, "club")
            )
        bound = weak_bound_avoiding(family, avoid, club, points, prefix_depth=depth)
        mode = {
            "mode": "avoiding",
            "avoid": [str(b) for b in sorted(avoid)],
            "club": [str(c) for c in club],
        }
    violations = verify_witness(bound, family)
    print(f"bound: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    doc = bound.to_json()
    doc.update(mode)
    doc["violations"] = [_pair_json(p) for p in violations]
    if probe is not None:
        extra = set(bound.certified_on)
        extra.update(
            random_ordinal(rng, parse_ordinal(mode.get("gamma", str(family.bound))))
            for _ in range(probe)
        )
        doc["empirical_violations"] = [
            _pair_json(p) for p in verify_witness(bound, family, extra)
        ]
    return doc, EXIT_OK if not violations else EXIT_ERROR


def cmd_space(args, config) -> tuple:
    h = _load(args, config, "hset", HFamily.from_json)
    A = _subset(args, config, h)
    space = build_space(h, A)
    fmt = _setting(args, config, "format", "json")
    depth_k = _setting(args, config, "depth_k", 0)
    return export_space(space, fmt, k=depth_k), EXIT_OK


def _parse_schedule(spec: str, bound, seed: int) -> list[list]:
    """'first:LO..HI' or 'random:LO..HI': a nested chain of index sets."""
    try:
        mode, span = spec.split(":", 1)
        lo, hi = (int(part) for part in span.split("..", 1))
    except ValueError as exc:
        raise ValidationError(f"bad schedule {spec!r}: {exc}") from exc
    _asked(lo, spec)
    _asked(hi, spec)
    if mode not in ("first", "random"):
        raise ValidationError(f"unknown schedule mode {mode!r}")
    pool = _parse_index_spec(f"{mode}:{hi}", bound, seed)
    return [pool[:n] for n in range(lo, min(hi, len(pool)) + 1)]


def cmd_growth(args, config) -> tuple:
    family = _load(args, config, "family", FuncFamily.from_json)
    seed = _setting(args, config, "seed", 0)
    schedule = _setting(args, config, "schedule", "first:2..6")
    chain = _parse_schedule(schedule, family.bound, seed)
    if not chain:
        raise ValidationError("the schedule produced no index sets")
    h = sum_threshold_family(family, chain[-1])
    start = time.perf_counter()
    rows = growth_rows(h, chain)
    print(f"growth: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    fmt = _setting(args, config, "format", "csv")
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["N", "min_cap", "min_sum", "witness_max"])
        for row in rows:
            writer.writerow([row["N"], row["min_cap"], row["min_sum"], row["witness_max"]])
        return buffer.getvalue(), EXIT_OK
    if fmt == "json":
        return {"rows": rows}, EXIT_OK
    raise ValidationError(f"unknown growth format {fmt!r}")


def cmd_verify(args, config) -> tuple:
    seed = _setting(args, config, "seed", 0)
    fast = _setting(args, config, "fast", False)
    reports = verification.run_all(seed, fast=fast)
    for report in reports:
        print(report.line(), file=sys.stderr)
    doc = {
        "seed": seed,
        "passed": all(r.passed for r in reports),
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "cases": r.cases,
                "failures": [str(f) for f in r.failures],
            }
            for r in reports
        ],
    }
    return doc, EXIT_OK if doc["passed"] else EXIT_ERROR


# -- argument parsing ----------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanlab",
        description="walks, ladders, downward-closed pair families, separations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with default settings")
        p.add_argument("--seed", type=int, help="master 64-bit seed")
        p.add_argument("--out", help="output path (stdout when omitted)")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        return p

    add(
        "gen",
        "write a function-family descriptor",
        ("--kind", {"choices": ["walk", "ladder", "explicit"]}),
        ("--bound", {"help": "ordinal literal, e.g. w^(2)"}),
        ("--ladders", {"choices": ["canonical", "seeded"]}),
        ("--table", {"help": "explicit family JSON to validate and re-emit"}),
    )
    add(
        "eval",
        "evaluate a family at a pair or over an index set",
        ("--family", {"help": "family JSON path"}),
        ("--alpha", {}),
        ("--beta", {}),
        ("--indices", {"help": "first:N | random:N | comma list"}),
    )
    add(
        "hset",
        "write a downward-closed family as a table of staircases",
        ("--family", {"help": "family JSON path: S_ab = {n + m <= h(a, b)}, kept as provenance"}),
        ("--indices", {"help": "first:N | random:N | comma list (with --family)"}),
        ("--table", {"help": "hset JSON to validate and re-emit; its entries are the sets"}),
    )
    add(
        "separate",
        "decide separability at a cap",
        ("--hset", {}),
        ("--subset", {}),
        ("--cap", {"type": int}),
        ("--engine", {"choices": ["solver", "oracle"]}),
    )
    add("mincap", "least cap admitting a separation", ("--hset", {}), ("--subset", {}))
    add(
        "adversary",
        "find a violating pair across two disjoint sets",
        ("--hset", {}),
        ("--first", {}),
        ("--second", {}),
        ("--const", {"type": int}),
        ("--labels", {"help": "JSON file {\"labels\": [[index, value], ...]}"}),
    )
    add(
        "bound",
        "build a weak bound with certified witnesses",
        ("--family", {}),
        ("--gamma", {"help": "bound everything below this limit ordinal"}),
        ("--avoid", {"help": "bound the family members in this set via a club"}),
        ("--club", {"help": "explicit club for --avoid (default: derived from ladders)"}),
        ("--points", {"type": int}),
        ("--prefix-depth", {"type": int, "dest": "prefix_depth"}),
        ("--probe", {"type": int, "help": "extra sample size for empirical re-check"}),
    )
    add(
        "space",
        "build and export the induced space",
        ("--hset", {}),
        ("--subset", {}),
        ("--format", {"choices": ["json", "dot"]}),
        ("--depth-k", {"type": int, "dest": "depth_k"}),
    )
    add(
        "growth",
        "min_cap and min_sum along a nested index chain",
        ("--family", {}),
        ("--schedule", {"help": "first:LO..HI | random:LO..HI"}),
        ("--format", {"choices": ["csv", "json"]}),
    )
    add(
        "verify",
        "run the full property suite",
        ("--fast", {"action": "store_true", "default": None}),
    )
    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "eval": cmd_eval,
    "hset": cmd_hset,
    "separate": cmd_separate,
    "mincap": cmd_mincap,
    "adversary": cmd_adversary,
    "bound": cmd_bound,
    "space": cmd_space,
    "growth": cmd_growth,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_json(args.config) if args.config else {}
        if not isinstance(config, dict):
            raise ValidationError(f"{args.config} must hold a JSON object of settings")
        doc, code = _COMMANDS[args.command](args, config)
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True) + "\n"
        out = _setting(args, config, "out")
        if out:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
