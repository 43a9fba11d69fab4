"""Monomial orders as comparison keys on exponent tuples.

Every order exposes ``key(exps) -> tuple`` such that comparing keys with
Python's tuple order realizes the monomial order (bigger key = bigger
monomial). Keys are built in time linear in the number of variables, so all
Groebner-layer comparisons stay allocation-cheap.

Every key is additive: ``key(a + b)`` is the componentwise sum of ``key(a)``
and ``key(b)``, and the key of the zero vector is all zeros, so each key
component is an integer linear form in the exponents. The packed monomials
of `groebner` rely on this to fold a key into one int; a new order must keep
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Lex:
    """Pure lexicographic order on the given number of variables."""

    nvars: int

    def key(self, exps):
        return exps

    def __str__(self):
        return f"lex({self.nvars})"


@dataclass(frozen=True)
class DegRevLex:
    """Degree reverse lexicographic order on the given number of variables."""

    nvars: int

    def key(self, exps):
        return (sum(exps),) + tuple(-e for e in reversed(exps))

    def __str__(self):
        return f"degrevlex({self.nvars})"


@dataclass(frozen=True)
class Block:
    """Block (product) order: compare by the first block, ties by the next.

    Each sub-order handles a consecutive slice of the variables; a monomial
    u*v with u in the leading block is larger than any v' whenever u > 1 in
    that block, which is what elimination orders rely on.
    """

    blocks: tuple = field(default=())

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("Block order needs at least one sub-order")

    @property
    def nvars(self) -> int:
        return sum(b.nvars for b in self.blocks)

    def key(self, exps):
        parts = []
        i = 0
        for b in self.blocks:
            parts.extend(b.key(exps[i : i + b.nvars]))
            i += b.nvars
        return tuple(parts)

    def __str__(self):
        return "block(" + ", ".join(str(b) for b in self.blocks) + ")"
