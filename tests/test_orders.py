"""Monomial order keys: lex, degrevlex, block, elimination."""

import itertools
import random

import pytest

from idealkit.orders import Block, DegRevLex, Lex


def exps(n, bound=4, count=120, seed=7):
    rng = random.Random(seed)
    seen = {tuple(rng.randrange(bound) for _ in range(n))
            for _ in range(count)}
    seen.add((0,) * n)
    return sorted(seen)


def test_lex_basics():
    lex = Lex(3)
    assert lex.key((1, 0, 0)) > lex.key((0, 5, 5))
    assert lex.key((2, 1, 0)) > lex.key((2, 0, 9))
    assert lex.key((0, 0, 0)) < lex.key((0, 0, 1))


def test_degrevlex_basics():
    # ties in total degree break by smallest last exponent
    o = DegRevLex(3)
    assert o.key((0, 0, 2)) < o.key((1, 1, 0))  # z^2 < xy
    assert o.key((0, 2, 0)) < o.key((1, 1, 0))  # y^2 < xy
    assert o.key((1, 0, 1)) < o.key((2, 0, 0))  # xz < x^2
    assert o.key((3, 0, 0)) > o.key((0, 2, 0))  # degree wins


@pytest.mark.parametrize("order", [Lex(3), DegRevLex(3),
                                   Block((DegRevLex(1), DegRevLex(2))),
                                   Block((Lex(2), DegRevLex(1)))])
def test_well_order_and_multiplicative(order):
    pts = exps(3)
    one = (0, 0, 0)
    for a in pts:
        if a != one:
            assert order.key(a) > order.key(one)
    rng = random.Random(11)
    for _ in range(300):
        a, b = rng.choice(pts), rng.choice(pts)
        c = tuple(rng.randrange(3) for _ in range(3))
        if order.key(a) < order.key(b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert order.key(ac) < order.key(bc)


def test_block_orders_leading_block_dominates():
    o = Block((DegRevLex(1), DegRevLex(2)))
    # any positive power of the first variable beats the second block
    assert o.key((1, 0, 0)) > o.key((0, 9, 9))
    assert o.key((2, 0, 0)) > o.key((1, 9, 9))


def test_block_nested():
    inner = Block((DegRevLex(1), DegRevLex(1)))
    o = Block((inner, DegRevLex(1)))
    assert o.nvars == 3
    assert o.key((0, 1, 0)) > o.key((0, 0, 7))
    assert o.key((1, 0, 0)) > o.key((0, 3, 0))


def test_elimination_order():
    o = Block((DegRevLex(2), DegRevLex(2)))
    assert o.nvars == 4
    assert o.key((0, 1, 0, 0)) > o.key((0, 0, 8, 8))
    # within the back block, ordering matches a plain degrevlex
    back = DegRevLex(2)
    for a, b in itertools.combinations(exps(2, bound=3, count=40), 2):
        full_a, full_b = (0, 0) + a, (0, 0) + b
        assert (o.key(full_a) < o.key(full_b)) == (back.key(a) < back.key(b))


def test_orders_are_values():
    assert DegRevLex(3) == DegRevLex(3)
    assert DegRevLex(3) != DegRevLex(2)
    assert Lex(2) != DegRevLex(2)
    assert hash(Block((Lex(1), Lex(1)))) == hash(Block((Lex(1), Lex(1))))
    assert Block((Lex(1), Lex(1))) != Block((Lex(1), DegRevLex(1)))
    assert Lex(2) != Block((Lex(2),))
    keys = {DegRevLex(3): "drl", Block((Lex(2),)): "block"}
    assert keys[DegRevLex(3)] == "drl" and keys[Block((Lex(2),))] == "block"
    assert Lex(3) not in keys and Lex(2) not in keys
    with pytest.raises(ValueError):
        Block(())


@pytest.mark.parametrize("order", [
    Lex(4), DegRevLex(4), Block((DegRevLex(1), Lex(3))),
    Block((Block((Lex(1), DegRevLex(2))), DegRevLex(1))),
], ids=str)
def test_key_is_additive(order):
    # Packed monomials in groebner rely on this: key(a + b) is the
    # componentwise sum of key(a) and key(b), and key(0) is all zeros.
    assert not any(order.key((0,) * 4))
    rng = random.Random(5)
    for _ in range(300):
        a = tuple(rng.randrange(200) for _ in range(4))
        b = tuple(rng.randrange(200) for _ in range(4))
        ab = tuple(x + y for x, y in zip(a, b))
        assert order.key(ab) == tuple(
            x + y for x, y in zip(order.key(a), order.key(b)))
