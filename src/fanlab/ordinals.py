"""Countable ordinals below epsilon_0 in hereditary Cantor normal form.

An ordinal is the tuple of its (exponent, coefficient) terms, with strictly
decreasing exponents (themselves ordinals) and positive coefficients; the
empty tuple is 0.  The form is canonical, so equality and hashing are the
tuple's own, and so is the total order: tuples compare item by item,
exponent before coefficient, and a proper prefix is smaller, which is
Cantor-normal-form order, recursively through the exponents.

The module also provides ladder systems: for every limit ordinal a strictly
increasing cofinal omega-sequence, either the standard rule-based one, a
seeded variant whose sequences share common prefixes, or an explicit table.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import re

from .errors import DomainError, OrdinalParseError, ValidationError


class Ordinal(tuple):
    """Immutable ordinal below epsilon_0: the tuple of its Cantor-normal-form
    terms, so tuple equality, hash and order are those of the ordinal.

    It is that tuple in every other respect too: 0 is falsy, len, iteration
    and indexing give the terms, a slice is a plain tuple of terms, and an
    ordinal equals the plain tuple of its terms.
    """

    __slots__ = ()

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise DomainError("ordinals are non-negative")
        return Ordinal(((ZERO, n),)) if n else ZERO

    def successor(self) -> "Ordinal":
        return self + 1

    def predecessor(self) -> "Ordinal":
        if not self.is_successor:
            raise DomainError(f"{self} is not a successor")
        exp, coeff = self[-1]
        head = self[:-1]
        return Ordinal(head + ((exp, coeff - 1),) if coeff > 1 else head)

    def __add__(self, n: int) -> "Ordinal":
        """Append a natural number (the only addition the constructions need)."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise DomainError("cannot add a negative number")
        if n == 0:
            return self
        if self and not self[-1][0]:
            exp, coeff = self[-1]
            return Ordinal(self[:-1] + ((exp, coeff + n),))
        return Ordinal((*self, (ZERO, n)))

    # -- classification ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def is_successor(self) -> bool:
        return not self[-1][0] if self else False

    @property
    def is_limit(self) -> bool:
        return bool(self[-1][0]) if self else False

    # -- order (otherwise the tuple's own) ---------------------------------

    def compare(self, other: "Ordinal") -> int:
        """Total order; returns -1, 0 or 1."""
        return (self > other) - (self < other)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for exp, coeff in self:
            if not exp:
                parts.append(str(coeff))
            else:
                base = "w" if exp == ONE else f"w^({exp})"
                parts.append(base if coeff == 1 else f"{base}*{coeff}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Ordinal({str(self)!r})"


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def omega_power(exp: Ordinal, coeff: int = 1) -> Ordinal:
    """The ordinal w^exp * coeff."""
    if coeff < 0:
        raise DomainError("coefficient must be non-negative")
    if coeff == 0:
        return ZERO
    if exp.is_zero:
        return Ordinal.from_int(coeff)
    return Ordinal(((exp, coeff),))


# -- literal grammar -------------------------------------------------------
#
#   ord  := term ('+' term)*
#   term := 'w^' '(' ord ')' ('*' nat)?  |  'w' ('*' nat)?  |  nat
#
# Parsing is strict: exponents must be strictly decreasing and coefficients
# positive, so parse(str(a)) == a and every accepted literal is canonical.

_TOKEN = re.compile(r"w\^|w|\d+|[()*+]")

# The most 'w^(' groups a literal may nest.  Comparing, hashing and printing
# an ordinal recurse once per level, and every command runs at this depth.
MAX_NESTING = 100
# The most digits a number in a literal may have.  It stays far below the
# 4300 digits up to which the interpreter converts between int and str, so
# that what the commands compute from it (a walk's step count, a ladder index
# plus two) can still be printed.
MAX_DIGITS = 1000


def _nat(digits: str) -> int:
    if len(digits) > MAX_DIGITS:
        raise OrdinalParseError(f"a number of {len(digits)} digits is longer than {MAX_DIGITS}")
    return int(digits)


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise OrdinalParseError(f"unexpected character at {pos}: {text[pos:]!r}")
        tokens.append(m.group())
        pos = m.end()
    if pos != len(text):
        raise OrdinalParseError(f"unexpected character at {pos}: {text[pos:]!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise OrdinalParseError("unexpected end of literal")
        if expected is not None and tok != expected:
            raise OrdinalParseError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def parse_ord(self) -> Ordinal:
        terms = [self.parse_term()]
        while self.peek() == "+":
            self.take("+")
            terms.append(self.parse_term())
        if len(terms) == 1 and terms[0] is None:
            return ZERO
        flat: list[tuple[Ordinal, int]] = []
        for t in terms:
            if t is None:
                raise OrdinalParseError("'0' may only appear as the whole literal")
            exp, coeff = t
            if flat and flat[-1][0] <= exp:
                raise OrdinalParseError("exponents must be strictly decreasing")
            flat.append((exp, coeff))
        return Ordinal(tuple(flat))

    def parse_term(self):
        """Returns (exponent, coefficient), or None for the literal nat 0."""
        tok = self.take()
        if tok == "w^":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise OrdinalParseError(f"a literal may nest at most {MAX_NESTING} 'w^(' groups")
            self.take("(")
            exp = self.parse_ord()
            self.take(")")
            self.depth -= 1
            if exp.is_zero:
                raise OrdinalParseError("write w^(0)*c as a plain number")
            return exp, self.parse_coeff()
        if tok == "w":
            return ONE, self.parse_coeff()
        if tok.isdigit():
            n = _nat(tok)
            return (ZERO, n) if n else None
        raise OrdinalParseError(f"unexpected token {tok!r}")

    def parse_coeff(self) -> int:
        if self.peek() == "*":
            self.take("*")
            tok = self.take()
            if not tok.isdigit():
                raise OrdinalParseError(f"expected a number after '*', got {tok!r}")
            n = _nat(tok)
            if n < 1:
                raise OrdinalParseError("coefficients must be >= 1")
            return n
        return 1


def parse_ordinal(text: str) -> Ordinal:
    """Parse a canonical ordinal literal such as 'w^(2)*3+w+5'."""
    parser = _Parser(_tokenize(text.strip()))
    result = parser.parse_ord()
    if parser.peek() is not None:
        raise OrdinalParseError(f"trailing tokens: {parser.tokens[parser.i:]}")
    return result


# -- ladder systems --------------------------------------------------------


def canonical_ladder(alpha: Ordinal, n: int) -> Ordinal:
    """Standard fundamental sequence of a limit ordinal.

    With alpha = head + w^e (the final coefficient absorbed into the head):
    index n maps to head+n when e = 1, to head + w^(e-1)*n for successor e,
    and to head + w^(e[n]) for limit e.  Values are strictly increasing in n
    and cofinal in alpha.
    """
    if not alpha.is_limit:
        raise DomainError(f"{alpha} is not a limit ordinal")
    if n < 0:
        raise DomainError("ladder index must be a natural number")
    exp, coeff = alpha[-1]
    head = alpha[:-1] + (((exp, coeff - 1),) if coeff > 1 else ())
    if exp.is_successor:
        sub = exp.predecessor()
        return Ordinal(head + ((sub, n),)) if n else Ordinal(head)
    return Ordinal(head + ((canonical_ladder(exp, n), 1),))


def _canonical_first(alpha: Ordinal, target: Ordinal) -> int:
    """Least n with canonical_ladder(alpha, n) >= target, for target < alpha.

    With alpha = head + w^e as in canonical_ladder, index 0 already reaches
    any target <= head.  Otherwise target = head + delta with delta < w^e, and
    the index is read off delta's leading term w^d * c.  For successor e,
    head + w^(e-1)*n first reaches delta at n = 1 when d < e-1, else at c, or
    c+1 when delta has lower terms.  For limit e, head + w^(e[n]) first
    reaches it at the least n with e[n] >= d, one later when e[n] = d and
    delta is not w^d itself.
    """
    exp, coeff = alpha[-1]
    head = alpha[:-1] + (((exp, coeff - 1),) if coeff > 1 else ())
    k = len(head)
    if target[:k] != head or len(target) == k:
        return 0
    d, c = target[k]
    more = len(target) > k + 1
    if exp.is_successor:
        return 1 if d < exp.predecessor() else c + more
    m = _canonical_first(exp, d)
    return m + (canonical_ladder(exp, m) == d and (c > 1 or more))


_SEED_PREFIX_MAX = 8
# The seeded prefix memo is cleared when it reaches this many limits.
_PREFIX_MEMO_LIMIT = 1 << 16


def _stable_rng(*parts) -> random.Random:
    key = ":".join(str(p) for p in parts).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


class LadderSystem:
    """Assigns to every limit ordinal a strictly increasing cofinal sequence.

    kind 'canonical' uses the rule-based sequences.  kind 'seeded' prepends a
    shared, seed-determined run of naturals (so distinct ordinals agree on
    long prefixes, giving nondegenerate disagreement indices) and continues
    with the canonical sequence from above the prefix.  kind 'explicit' reads
    finite tables and is meant for tests.
    """

    def __init__(self, kind: str, seed: int | None = None, table=None):
        if kind not in ("canonical", "seeded", "explicit"):
            raise ValidationError(f"unknown ladder kind {kind!r}")
        self.kind = kind
        self.seed = seed
        self.table = table
        if kind == "seeded":
            if seed is None:
                raise ValidationError("seeded ladders need a seed")
            rng = _stable_rng(seed, "ladder-prefix-pool")
            pool = [rng.randrange(3)]
            for _ in range(_SEED_PREFIX_MAX - 1):
                pool.append(pool[-1] + 1 + rng.randrange(4))
            self._pool = tuple(pool)
            self._prefixes: dict[Ordinal, tuple[int, int]] = {}
        if kind == "explicit":
            if not table:
                raise ValidationError("explicit ladders need a table")
            for alpha, values in table.items():
                for i, v in enumerate(values):
                    if v >= alpha or (i and values[i - 1] >= v):
                        raise ValidationError(
                            f"ladder of {alpha} must be strictly increasing below it"
                        )

    @classmethod
    def canonical(cls) -> "LadderSystem":
        return cls("canonical")

    @classmethod
    def seeded(cls, seed: int) -> "LadderSystem":
        return cls("seeded", seed=seed)

    @classmethod
    def explicit(cls, table) -> "LadderSystem":
        return cls("explicit", table=dict(table))

    def _prefix(self, alpha: Ordinal) -> tuple[int, int]:
        """(p, shift) of a seeded ladder, memoized per limit.

        Values 0..p-1 are the pool's first p naturals; value n >= p is
        canonical_ladder(alpha, shift + n - p), shift being the least
        canonical index whose value clears the prefix.
        """
        known = self._prefixes.get(alpha)
        if known is None:
            p = _stable_rng(self.seed, "prefix-len", alpha).randint(0, _SEED_PREFIX_MAX)
            shift = _canonical_first(alpha, Ordinal.from_int(self._pool[p - 1] + 1)) if p else 0
            if len(self._prefixes) >= _PREFIX_MEMO_LIMIT:
                self._prefixes.clear()
            known = self._prefixes[alpha] = (p, shift)
        return known

    def value(self, alpha: Ordinal, n: int) -> Ordinal:
        if not alpha.is_limit:
            raise DomainError(f"{alpha} is not a limit ordinal")
        if self.kind == "canonical":
            return canonical_ladder(alpha, n)
        if self.kind == "explicit":
            values = self.table.get(alpha)
            if values is None or n >= len(values):
                raise DomainError(f"explicit ladder of {alpha} has no entry {n}")
            return values[n]
        p, shift = self._prefix(alpha)
        if n < p:
            return Ordinal.from_int(self._pool[n])
        return canonical_ladder(alpha, shift + (n - p))

    def first_index_at_least(self, alpha: Ordinal, target: Ordinal) -> int:
        """Least n with ladder(alpha, n) >= target, without searching.

        Canonical ladders invert the Cantor normal form (_canonical_first).  A
        seeded ladder bisects its prefix of naturals when a natural target
        lies within it, and otherwise shifts the canonical answer past the
        prefix.  An explicit table is bisected.  The work does not grow with
        the answer, so no answer is refused for its size.  DomainError when
        target >= alpha or when an explicit table has no such entry.
        """
        if not alpha.is_limit:
            raise DomainError(f"{alpha} is not a limit ordinal")
        if self.kind == "explicit":
            values = self.table.get(alpha, ())
            n = bisect.bisect_left(values, target)
            if n == len(values):
                raise DomainError(f"explicit ladder of {alpha} has no entry {n}")
            return n
        if target >= alpha:
            raise DomainError(f"no ladder entry of {alpha} reaches {target}")
        if self.kind == "canonical":
            return _canonical_first(alpha, target)
        p, shift = self._prefix(alpha)
        finite = not target or not target[0][0]
        t = target[0][1] if target else 0
        if finite and p and t <= self._pool[p - 1]:
            return bisect.bisect_left(self._pool, t, 0, p)
        return p + max(0, _canonical_first(alpha, target) - shift)

    def to_json(self) -> dict:
        if self.kind == "explicit":
            return {
                "kind": "explicit",
                "table": {str(a): [str(v) for v in vs] for a, vs in sorted(self.table.items())},
            }
        if self.kind == "seeded":
            return {"kind": "seeded", "seed": self.seed}
        return {"kind": "canonical"}

    @classmethod
    def from_json(cls, data: dict) -> "LadderSystem":
        kind = data.get("kind")
        if kind == "canonical":
            return cls.canonical()
        if kind == "seeded":
            if type(data.get("seed")) is not int:
                raise ValidationError("seeded ladders need an integer 'seed'")
            return cls.seeded(data["seed"])
        if kind == "explicit":
            table = data.get("table")
            if not isinstance(table, dict) or not all(
                isinstance(vs, list) and all(isinstance(v, str) for v in vs)
                for vs in table.values()
            ):
                raise ValidationError("explicit ladders need a 'table' of ordinal literal lists")
            table = {
                parse_ordinal(a): tuple(parse_ordinal(v) for v in vs)
                for a, vs in table.items()
            }
            return cls.explicit(table)
        raise ValidationError(f"unknown ladder kind {kind!r}")


# -- sampling --------------------------------------------------------------


def random_ordinal(rng: random.Random, bound: Ordinal) -> Ordinal:
    """A random ordinal strictly below bound (not uniform, but well spread)."""
    if bound.is_zero:
        raise DomainError("no ordinal lies below 0")
    exp, coeff = bound[0]
    rest = Ordinal(bound[1:])
    if rest and rng.random() < 0.35:
        return Ordinal(((exp, coeff),) + random_ordinal(rng, rest))
    new_coeff = rng.randrange(coeff)
    head = ((exp, new_coeff),) if new_coeff else ()
    return Ordinal(head + _random_below_power(rng, exp))


def _random_below_power(rng: random.Random, exp: Ordinal) -> Ordinal:
    """A random ordinal all of whose exponents are < exp (hence < w^exp)."""
    if exp.is_zero:
        return ZERO
    exps = {random_ordinal(rng, exp) for _ in range(rng.randint(0, 2))}
    terms = tuple((e, rng.randint(1, 3)) for e in sorted(exps, reverse=True))
    return Ordinal(terms)


def random_limit(rng: random.Random, bound: Ordinal) -> Ordinal:
    """A random limit ordinal below bound (which must exceed omega)."""
    if bound <= OMEGA:
        raise DomainError(f"no limit ordinal lies below {bound}")
    for _ in range(500):
        x = random_ordinal(rng, bound)
        if x.is_limit:
            return x
    return OMEGA


def first_limits(bound: Ordinal, n: int) -> list[Ordinal]:
    """The first n limit ordinals (w, w*2, ...) that lie below bound."""
    out = []
    for k in range(1, n + 1):
        lim = omega_power(ONE, k)
        if lim >= bound:
            break
        out.append(lim)
    return out


def parse_index(text: str):
    """An index value: plain int, or an ordinal literal."""
    text = text.strip()
    if re.fullmatch(r"\d+", text):
        return _nat(text)
    return parse_ordinal(text)


def check_index_kinds(values) -> None:
    """ValidationError unless the index values are all ints or all ordinals."""
    if len({isinstance(v, int) for v in values}) > 1:
        raise ValidationError("indices must be all integers or all ordinals, not a mix")


def index_to_json(value):
    return value if isinstance(value, int) else str(value)


def index_from_json(value):
    return value if isinstance(value, int) else parse_ordinal(value)
