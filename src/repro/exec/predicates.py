"""Predicate and aggregate expressions for scans over compressed shards.

A scan's ``where`` clause is a small expression tree over per-column
comparisons; its ``agg`` clause is a list of column aggregates.  Both are
plain data — the scan executor (:mod:`repro.exec.scan`) decides *how* each
leaf is evaluated per shard (a dictionary probe on value-indexed schemes,
one column pass over the decode tree on TOC, a NumPy mask on the dense
fallback).

Expressions are built directly (``Compare(0, ">=", 0.5) & Compare(2, "==",
1.0)``) or parsed from the textual form the CLI uses::

    c0 >= 0.5 and (c2 == 1 or not c3 < 2)

Columns are spelled ``c<index>`` (a bare integer also parses in aggregate
specs); values are float literals.  ``and`` / ``or`` / ``not`` (or ``&`` /
``|`` / ``!``) combine comparisons, with ``or`` binding loosest and ``not``
tightest, exactly like SQL.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

#: Comparison operators a :class:`Compare` leaf may use, in textual form.
COMPARE_OPS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

#: Aggregate operations a scan can compute.  ``count`` needs no column.
AGGREGATE_OPS = ("count", "sum", "min", "max", "mean")


class Predicate:
    """Base class for the ``where`` expression tree."""

    def columns(self) -> set[int]:
        """Every column index the predicate touches."""
        raise NotImplementedError

    def evaluate(self, context) -> np.ndarray:
        """Boolean row mask for one shard.

        ``context`` is the executor's per-shard accessor; it must expose
        ``compare(column, op, value) -> bool ndarray``, which is where the
        per-scheme fast paths plug in.
        """
        raise NotImplementedError

    # sugar so predicates compose without touching the combinator classes
    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class Compare(Predicate):
    """One leaf comparison: ``column OP value``."""

    column: int
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in COMPARE_OPS:
            raise ValueError(f"unknown comparison {self.op!r}; valid: {sorted(COMPARE_OPS)}")
        if isinstance(self.column, str):
            object.__setattr__(self, "column", _parse_column(self.column))
        if self.column < 0:
            raise ValueError("column index must be non-negative")

    def columns(self) -> set[int]:
        return {self.column}

    def evaluate(self, context) -> np.ndarray:
        return context.compare(self.column, self.op, float(self.value))

    def __str__(self) -> str:
        return f"c{self.column} {self.op} {self.value:g}"


@dataclass(frozen=True)
class And(Predicate):
    """All children must hold."""

    children: tuple[Predicate, ...]

    def __init__(self, children: Iterable[Predicate]):
        object.__setattr__(self, "children", tuple(children))
        if len(self.children) < 2:
            raise ValueError("And needs at least two children")

    def columns(self) -> set[int]:
        return set().union(*(child.columns() for child in self.children))

    def evaluate(self, context) -> np.ndarray:
        mask = self.children[0].evaluate(context)
        for child in self.children[1:]:
            mask = mask & child.evaluate(context)
        return mask

    def __str__(self) -> str:
        return "(" + " and ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Or(Predicate):
    """Any child may hold."""

    children: tuple[Predicate, ...]

    def __init__(self, children: Iterable[Predicate]):
        object.__setattr__(self, "children", tuple(children))
        if len(self.children) < 2:
            raise ValueError("Or needs at least two children")

    def columns(self) -> set[int]:
        return set().union(*(child.columns() for child in self.children))

    def evaluate(self, context) -> np.ndarray:
        mask = self.children[0].evaluate(context)
        for child in self.children[1:]:
            mask = mask | child.evaluate(context)
        return mask

    def __str__(self) -> str:
        return "(" + " or ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Not(Predicate):
    """The child must not hold."""

    child: Predicate

    def columns(self) -> set[int]:
        return self.child.columns()

    def evaluate(self, context) -> np.ndarray:
        return ~self.child.evaluate(context)

    def __str__(self) -> str:
        return f"not {self.child}"


# -- aggregates ----------------------------------------------------------------


@dataclass(frozen=True)
class Aggregate:
    """One aggregate to compute over the rows the predicate keeps."""

    op: str
    column: int | None = None

    def __post_init__(self) -> None:
        if self.op not in AGGREGATE_OPS:
            raise ValueError(f"unknown aggregate {self.op!r}; valid: {AGGREGATE_OPS}")
        if self.op != "count" and self.column is None:
            raise ValueError(f"aggregate {self.op!r} needs a column (e.g. '{self.op}:c0')")
        if self.column is not None and self.column < 0:
            raise ValueError("column index must be non-negative")

    @property
    def key(self) -> str:
        """The name the aggregate's result is reported under."""
        if self.column is None:
            return self.op
        return f"{self.op}(c{self.column})"

    def __str__(self) -> str:
        return self.key


# -- parsing -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<column>c\d+)"
    r"|(?P<number>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<op><=|>=|==|!=|<|>)"
    r"|(?P<and>and\b|&&?)"
    r"|(?P<or>or\b|\|\|?)"
    r"|(?P<not>not\b|!(?!=))"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r")",
    re.IGNORECASE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None or match.end() == position:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise ValueError(f"cannot parse predicate at {remainder[:20]!r}")
        kind = match.lastgroup
        tokens.append((kind, match.group(kind)))
        position = match.end()
    return tokens


class _PredicateParser:
    """Recursive descent over ``or`` -> ``and`` -> ``not`` -> comparison."""

    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.position = 0

    def peek(self) -> str | None:
        return self.tokens[self.position][0] if self.position < len(self.tokens) else None

    def take(self, kind: str) -> str:
        if self.peek() != kind:
            found = self.tokens[self.position][1] if self.peek() else "end of input"
            raise ValueError(f"expected {kind} but found {found!r}")
        value = self.tokens[self.position][1]
        self.position += 1
        return value

    def parse(self) -> Predicate:
        expression = self.parse_or()
        if self.peek() is not None:
            raise ValueError(f"trailing input from {self.tokens[self.position][1]!r}")
        return expression

    def parse_or(self) -> Predicate:
        children = [self.parse_and()]
        while self.peek() == "or":
            self.take("or")
            children.append(self.parse_and())
        return children[0] if len(children) == 1 else Or(children)

    def parse_and(self) -> Predicate:
        children = [self.parse_not()]
        while self.peek() == "and":
            self.take("and")
            children.append(self.parse_not())
        return children[0] if len(children) == 1 else And(children)

    def parse_not(self) -> Predicate:
        if self.peek() == "not":
            self.take("not")
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Predicate:
        if self.peek() == "lparen":
            self.take("lparen")
            inner = self.parse_or()
            self.take("rparen")
            return inner
        column = int(self.take("column")[1:])
        op = self.take("op")
        value = float(self.take("number"))
        return Compare(column, op, value)


def parse_predicate(text: str | Predicate) -> Predicate:
    """Parse the textual ``where`` form (pass-through for built predicates)."""
    if isinstance(text, Predicate):
        return text
    tokens = _tokenize(str(text))
    if not tokens:
        raise ValueError("empty predicate")
    return _PredicateParser(tokens).parse()


def _parse_column(text: str) -> int:
    text = text.strip().lower()
    if text.startswith("c"):
        text = text[1:]
    if not text.isdigit():
        raise ValueError(f"bad aggregate column {text!r}; use 'c<index>' or an integer")
    return int(text)


def parse_aggregate(spec: str | Aggregate) -> Aggregate:
    """Parse one aggregate spec: ``"count"`` or ``"<op>:<column>"``."""
    if isinstance(spec, Aggregate):
        return spec
    text = str(spec).strip().lower()
    if ":" not in text:
        if text != "count":
            raise ValueError(
                f"aggregate {spec!r} needs a column, e.g. '{text}:c0' (only 'count' stands alone)"
            )
        return Aggregate("count")
    op, _, column = text.partition(":")
    return Aggregate(op.strip(), _parse_column(column))


def parse_aggregates(spec) -> list[Aggregate]:
    """Parse an aggregate clause: one spec, a comma-joined string, or a list."""
    if isinstance(spec, (str, Aggregate)):
        if isinstance(spec, str) and "," in spec:
            parts: Sequence = [part for part in spec.split(",") if part.strip()]
        else:
            parts = [spec]
    else:
        parts = list(spec)
    if not parts:
        raise ValueError("empty aggregate clause")
    return [parse_aggregate(part) for part in parts]


__all__ = [
    "AGGREGATE_OPS",
    "Aggregate",
    "And",
    "COMPARE_OPS",
    "Compare",
    "Not",
    "Or",
    "Predicate",
    "parse_aggregate",
    "parse_aggregates",
    "parse_predicate",
]
