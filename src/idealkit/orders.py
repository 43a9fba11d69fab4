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

Orders are immutable values: a `Ring` compares and hashes its order as part
of its own key. Two orders are equal when they have the same class and
equal attributes (the variable count, or the blocks), and orders of
different classes are never equal. Nothing sets an attribute after
construction.
"""

from __future__ import annotations

from operator import neg


class _Order:
    """An order on `nvars` variables, equal to an order of its own class
    on as many variables."""

    def __init__(self, nvars: int):
        self.nvars = nvars

    def __eq__(self, other):
        return type(other) is type(self) and other.nvars == self.nvars

    def __hash__(self):
        return hash((type(self), self.nvars))


class Lex(_Order):
    """Pure lexicographic order on the given number of variables."""

    def key(self, exps):
        return exps

    def __str__(self):
        return f"lex({self.nvars})"


class DegRevLex(_Order):
    """Degree reverse lexicographic order on the given number of variables."""

    def key(self, exps):
        return (sum(exps),) + tuple(map(neg, reversed(exps)))

    def __str__(self):
        return f"degrevlex({self.nvars})"


class Block(_Order):
    """Block (product) order: compare by the first block, ties by the next.

    Each sub-order handles a consecutive slice of the variables; a monomial
    u*v with u in the leading block is larger than any v' whenever u > 1 in
    that block, which is what elimination orders rely on.
    """

    def __init__(self, blocks: tuple = ()):
        if not blocks:
            raise ValueError("Block order needs at least one sub-order")
        self.blocks = blocks
        self.nvars = sum(b.nvars for b in blocks)

    def __eq__(self, other):
        return type(other) is Block and other.blocks == self.blocks

    def __hash__(self):
        return hash((Block, self.blocks))

    def key(self, exps):
        parts = []
        i = 0
        for b in self.blocks:
            parts.extend(b.key(exps[i : i + b.nvars]))
            i += b.nvars
        return tuple(parts)

    def __str__(self):
        return "block(" + ", ".join(str(b) for b in self.blocks) + ")"
