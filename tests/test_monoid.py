import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg.errors import KindMismatchError, NotInitialError
from diffalg.monoid import (
    COMMUTATIVE,
    FREE,
    InitialSet,
    MonoidElem,
    antichain_minimal,
    gamma_ball,
    leq_total,
    minimal_leaders,
    theta_ball,
)


def w(*letters, k=2):
    return MonoidElem.word(k, letters)


def e(*exps):
    return MonoidElem.exponents(exps)


# ----------------------------------------------------------------------
# oracle: the definitional order, "b below a iff a = c.b for some c",
# realized by enumerating left factors


def preceq_oracle(b: MonoidElem, a: MonoidElem) -> bool:
    if b.kind == FREE:
        for cut in range(len(a.data) + 1):
            if a.data[cut:] == b.data:
                return True
        return False
    return all(x <= y for x, y in zip(b.data, a.data))


def minimal_leaders_oracle(initial: InitialSet, radius: int) -> frozenset:
    ball = (
        gamma_ball(initial.k, radius)
        if initial.kind == FREE
        else theta_ball(initial.k, radius)
    )
    complement = [x for x in ball if x not in initial.elements]
    return frozenset(
        x
        for x in complement
        if not any(y != x and y.preceq(x) for y in complement)
    )


# ----------------------------------------------------------------------


def test_compose_examples():
    assert w(1).compose(w(2)) == w(1, 2)
    assert e(1, 0).compose(e(0, 1)) == e(1, 1)
    ident = MonoidElem.identity(FREE, 2)
    assert w(2, 1).compose(ident) == w(2, 1)
    assert ident.compose(w(2, 1)) == w(2, 1)


def test_compose_kind_mismatch():
    with pytest.raises(KindMismatchError):
        w(1).compose(e(1, 0))
    with pytest.raises(KindMismatchError):
        w(1, k=2).compose(MonoidElem.word(3, (1,)))


def test_preceq_theta():
    assert e(0, 1).preceq(e(1, 1))
    assert not e(1, 0).preceq(e(0, 1))


def test_preceq_gamma_is_suffix_order():
    # d2 is the part applied first in d1 d2, hence below it; d1 is not
    assert w(2).preceq(w(1, 2))
    assert not w(1).preceq(w(1, 2))


def test_total_order_examples():
    assert leq_total(e(0, 1), e(2, 0)) == -1  # degree decides
    assert leq_total(e(2, 0), e(1, 1)) == -1  # tie-break: d1^2 before d1 d2
    assert leq_total(w(1, 2), w(2, 1)) == -1  # first letter decides
    assert leq_total(e(1, 1), e(1, 1)) == 0


def test_total_order_is_total_and_compatible_up_to_degree_2():
    ball = theta_ball(2, 2)
    for a in ball:
        for b in ball:
            assert (a < b) or (b < a) or (a == b)
            if a.preceq(b):
                assert a <= b


def test_order_comparisons_agree_with_the_sort_key_and_refuse_other_kinds():
    ball = theta_ball(2, 3)
    for a in ball:
        for b in ball:
            assert (a <= b, a > b, a >= b) == (
                a.sort_key <= b.sort_key,
                a.sort_key > b.sort_key,
                a.sort_key >= b.sort_key,
            )
    for compare in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(KindMismatchError):
            compare(w(1), e(1, 0))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_balls_hold_every_element_once_in_increasing_order(k):
    for radius in range(-1, 5):
        thetas = theta_ball(k, radius)
        assert len(thetas) == (math.comb(radius + k, k) if radius >= 0 else 0)
        words = gamma_ball(k, radius)
        assert len(words) == sum(k ** n for n in range(radius + 1))
        for ball in (thetas, words):
            assert all(a.degree <= radius for a in ball)
            assert all(a < b for a, b in zip(ball, ball[1:]))


def test_lub_examples():
    assert e(1, 0).lub(e(0, 1)) == e(1, 1)
    assert e(2, 1).lub(e(1, 3)) == e(2, 3)
    a = e(3, 2)
    assert a.lub(a) == a
    with pytest.raises(KindMismatchError):
        w(1).lub(w(2))


def test_minimal_leaders_theta_frozen():
    initial = InitialSet.of([e(0, 0), e(1, 0)])
    got = minimal_leaders(initial).elements
    assert got == {e(2, 0), e(0, 1)}
    assert got == minimal_leaders_oracle(initial, 3)


def test_minimal_leaders_theta_identity_only():
    initial = InitialSet.of([MonoidElem.identity(COMMUTATIVE, 3)])
    got = minimal_leaders(initial).elements
    assert got == {MonoidElem.generator(COMMUTATIVE, 3, i) for i in (1, 2, 3)}


def test_minimal_leaders_gamma_frozen():
    initial = InitialSet.of([MonoidElem.identity(FREE, 2), w(1)])
    result = minimal_leaders(initial)
    assert result.elements == {w(2), w(1, 1), w(2, 1)}
    assert result.length_bound == 2
    assert result.elements == minimal_leaders_oracle(initial, 2)


def test_minimal_leaders_empty_set_complement_is_everything():
    initial = InitialSet(COMMUTATIVE, 2, frozenset())
    assert minimal_leaders(initial).elements == {MonoidElem.identity(COMMUTATIVE, 2)}


def test_initial_set_rejects_non_initial():
    with pytest.raises(NotInitialError):
        InitialSet.of([e(1, 0)])  # identity missing
    with pytest.raises(NotInitialError):
        InitialSet.of([MonoidElem.identity(FREE, 2), w(1, 2)])  # suffix d2 missing


def test_initial_set_accepts_suffix_closed_word_set():
    InitialSet.of([MonoidElem.identity(FREE, 2), w(2), w(1, 2)])


# ----------------------------------------------------------------------
# properties


def elem_strategy(kind):
    if kind == FREE:
        return st.lists(st.integers(1, 2), max_size=4).map(
            lambda ls: MonoidElem.word(2, tuple(ls))
        )
    return st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda t: MonoidElem.exponents(t)
    )


@given(st.one_of(elem_strategy(FREE), elem_strategy(COMMUTATIVE)))
def test_preceq_reflexive(a):
    assert a.preceq(a)


@given(elem_strategy(COMMUTATIVE), elem_strategy(COMMUTATIVE))
def test_preceq_antisymmetric(a, b):
    if a.preceq(b) and b.preceq(a):
        assert a == b


@given(elem_strategy(FREE), elem_strategy(FREE), elem_strategy(FREE))
def test_preceq_transitive_and_matches_oracle(a, b, c):
    assert a.preceq(b) == preceq_oracle(a, b)
    if a.preceq(b) and b.preceq(c):
        assert a.preceq(c)


@given(elem_strategy(FREE), elem_strategy(FREE), elem_strategy(FREE))
def test_total_order_translation_compatible(a, b, c):
    if a <= b:
        assert c.compose(a) <= c.compose(b)
        assert a.compose(c) <= b.compose(c)


@given(elem_strategy(COMMUTATIVE), elem_strategy(COMMUTATIVE))
def test_preceq_implies_total(a, b):
    if a.preceq(b):
        assert a <= b


@settings(max_examples=30, deadline=None)
@given(st.sets(elem_strategy(COMMUTATIVE), max_size=8))
def test_minimal_leaders_antichain_and_domination(seed_elems):
    # close the random set downward to make it initial
    closure = set()
    frontier = set(seed_elems) | {MonoidElem.identity(COMMUTATIVE, 2)}
    while frontier:
        x = frontier.pop()
        if x in closure:
            continue
        closure.add(x)
        frontier.update(x.immediate_predecessors())
    initial = InitialSet.of(closure)
    leaders = minimal_leaders(initial).elements
    assert leaders == antichain_minimal(leaders)
    for x in theta_ball(2, 6):
        if x not in initial.elements:
            assert any(p.preceq(x) for p in leaders)


def test_gamma_minimal_leaders_match_oracle_on_random_initial_sets():
    rng = random.Random(7)
    for _ in range(25):
        closure = {MonoidElem.identity(FREE, 2)}
        for _ in range(rng.randint(0, 6)):
            n = rng.randint(1, 3)
            word = MonoidElem.word(2, tuple(rng.randint(1, 2) for _ in range(n)))
            closure.add(word)
            closure.update(word.proper_suffixes())
        initial = InitialSet.of(closure)
        result = minimal_leaders(initial)
        assert result.elements == minimal_leaders_oracle(initial, result.length_bound + 1)


def test_text_forms():
    assert str(w(1, 2, 1)) == "d1 d2 d1"
    assert str(e(2, 1)) == "d1^2 d2"
    assert str(MonoidElem.identity(FREE, 2)) == "0"
    assert str(MonoidElem.identity(COMMUTATIVE, 2)) == "0"


def test_canonical_word_and_commutative_image():
    assert e(2, 1).canonical_word() == w(2, 1, 1)
    assert w(1, 2, 1).commutative_image() == e(2, 1)
    # each is the identity on its own kind
    assert e(2, 1).commutative_image() == e(2, 1)
    assert w(2, 1, 1).canonical_word() == w(2, 1, 1)
