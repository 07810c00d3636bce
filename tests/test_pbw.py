"""PBW declarations: each spec's blocks against its rules, the enumeration
order, the letter ranks, and the one word order with its letter weights,
checked against every rule in every context."""

import itertools
import random

import pytest

from qhc.daha import daha_spec, sdaha_spec
from qhc.dqops import dq_spec
from qhc.invham import ham_spec, inv_spec
from qhc.ncpoly import Alphabet
from qhc.qgroup import oq_spec, uq_spec
from qhc.rewrite import AlgebraSpec, EngineError, PowerBlocksPbw, SpecError, check_ambiguities

SPECS = [daha_spec, sdaha_spec, uq_spec, oq_spec, dq_spec, inv_spec, ham_spec]


def _name(build):
    return build.__name__


@pytest.mark.parametrize("build", SPECS, ids=_name)
def test_accepts_exactly_the_irreducible_words(build):
    spec = build()
    letters = range(len(spec.alphabet))
    for n in range(4):
        for w in itertools.product(letters, repeat=n):
            irreducible = spec._find_redex(w, "leftmost") is None
            assert spec.pbw.accepts(w) == irreducible, spec.alphabet.word_str(w)


@pytest.mark.parametrize("build", [b for b in SPECS if b is not uq_spec], ids=_name)
def test_enumerated_words_are_normal_and_of_the_bidegree(build):
    spec = build()
    for m in range(4):
        for n in range(4):
            words = list(spec.pbw.enumerate(m, n))
            assert len(set(words)) == len(words)
            for w in words:
                assert spec.alphabet.word_bidegree(w) == (m, n)
                assert spec.pbw.accepts(w)
                assert spec._find_redex(w, "leftmost") is None


def test_uq_degree_zero_blocks_are_not_enumerable():
    with pytest.raises(EngineError):
        list(uq_spec().pbw.enumerate(0, 0))


def test_oq_enumeration_order():
    O = oq_spec()
    letters = O.alphabet.word("l11", "l12", "l21", "l22")
    for m in range(6):
        assert list(O.pbw.enumerate(m, 0)) == list(itertools.combinations_with_replacement(letters, m))


def test_dq_enumeration_order():
    # each normal word of (m, n) is an (m, 0)-word followed by a (0, n)-word,
    # which invham.weight_zero_words relies on
    D = dq_spec()
    a = D.alphabet.word("a11", "a12", "a21", "a22")
    p = D.alphabet.word("p11", "p12", "p21", "p22")
    for m in range(5):
        for n in range(5):
            want = [
                x + y for x, y in itertools.product(
                    itertools.combinations_with_replacement(a, m),
                    itertools.combinations_with_replacement(p, n),
                )
            ]
            assert list(D.pbw.enumerate(m, n)) == want


def test_ranks_read_from_blocks():
    # Ti is in no block and takes the block of its inverse T
    assert daha_spec().pbw.ranks == (0, 0, 1, 1, 2, 2, 3, 3, 4, 4)
    assert dq_spec().pbw.ranks == tuple(range(8))


def test_weights_read_from_bidegrees():
    # |a| + |b|; a degree-0 letter weighs 1, and daha's top letter T 0;
    # dq declares its own
    def weights(spec):
        return [spec.pbw.order_key((g,))[0] for g in range(len(spec.alphabet))]

    assert weights(daha_spec()) == [0, 1, 1, 1, 1, 1, 1, 1, 1, 1]
    assert weights(inv_spec()) == [1, 2, 2, 2, 1, 2, 2, 4]
    assert weights(uq_spec()) == [2, 2, 1, 1, 1, 1]
    assert weights(dq_spec()) == [8, 3, 7, 1, 5, 5, 2, 1]


def test_order_key_is_weight_then_precedence_from_the_right():
    pbw = inv_spec().pbw
    word = pbw.alphabet.word
    # the weight decides first, whatever the letters: d2*c1 weighs 3,
    # c1*c1*c1 weighs 6
    assert pbw.order_key(word("d2", "c1")) < pbw.order_key(word("c1", "c1", "c1"))
    # at equal weight the right end decides: c1*d1 and d1*c1 both weigh 2,
    # and c1*d1, ending in the later block d1 (rank 3), is the smaller
    assert pbw.order_key(word("c1", "d1"))[0] == pbw.order_key(word("d1", "c1"))[0] == 2
    assert pbw.order_key(word("c1", "d1")) < pbw.order_key(word("d1", "c1"))


def test_order_key_counts_capped_letters_before_length():
    # the cap on r is no longer part of the key, but the order between these
    # two words stands: both weigh 4, and read from the right, r (rank 2)
    # precedes d1 (rank 3) and decides before the lengths 2 and 3 could
    pbw = inv_spec().pbw
    rr = pbw.order_key(pbw.alphabet.word("r", "r"))
    crd = pbw.order_key(pbw.alphabet.word("c1", "r", "d1"))
    assert rr[0] == crd[0] == 4
    assert crd < rr


def test_order_key_counts_letters_outside_every_block():
    # Ti, in no block, weighs 1; T, the top letter, weighs 0 like the empty
    # word, which it extends
    pbw = daha_spec().pbw
    ti, t, empty = (pbw.order_key(w) for w in (pbw.alphabet.word("Ti"), pbw.alphabet.word("T"), ()))
    assert (ti[0], t[0], empty[0]) == (1, 0, 0)
    assert ti > t > empty


def test_letter_in_no_block_is_rejected():
    alph = Alphabet("pair", [("x", (1, 0), None), ("y", (0, 1), None)])
    with pytest.raises(SpecError, match="y"):
        PowerBlocksPbw(alph, [("x", None, None)])


@pytest.mark.parametrize("weights", [{"x": 1, "y": -1}, {"x": 1, "y": 0}, {"x": 1}],
                         ids=["negative", "zero-below-top", "missing"])
def test_weights_are_positive_on_every_letter_but_the_top(weights):
    # either would break the well-order: y at -1 gives y > y*y > ..., and y
    # at 0, below the top letter x, gives x > x*y > x*y*y > ...
    alph = Alphabet("pair", [("x", (1, 0), None), ("y", (0, 1), None)])
    blocks = [("x", None, None), ("y", None, None)]
    PowerBlocksPbw(alph, blocks, weights={"x": 0, "y": 1})
    with pytest.raises(SpecError, match="^pair: letter y has weight"):
        PowerBlocksPbw(alph, blocks, weights=weights)


def test_dq_weight_that_leaves_a_rule_unoriented_is_refused():
    # a22 at 3 puts a11*a22 (weight 11) above a21*a12 (weight 10)
    D = dq_spec()
    names = [g.name for g in D.alphabet.gens]
    weights = dict(zip(names, (8, 3, 7, 3, 5, 5, 2, 1)))
    pbw = PowerBlocksPbw(D.alphabet, [(n, None, None) for n in names], weights=weights)
    with pytest.raises(SpecError, match=r"^rule a21\*a12: rhs word a11\*a22 does not decrease"):
        AlgebraSpec(D.alphabet, D.rules, pbw)


@pytest.mark.parametrize("build", SPECS, ids=_name)
def test_rules_decrease_the_order_in_every_context(build):
    # order_key is compatible with concatenation: a rule l -> r decreases
    # it inside any context a*_*b, so the per-rule check at spec build time
    # certifies termination of every rewrite
    spec = build()
    key = spec.pbw.order_key
    rules = spec.rules + spec.aux_rules
    rng = random.Random(21)
    n = len(spec.alphabet)
    bad = []
    for _ in range(3000):
        rule = rng.choice(rules)
        a, b = (tuple(rng.randrange(n) for _ in range(rng.randrange(4))) for _ in range(2))
        w = rng.choice(list(rule.rhs.terms))
        if not key(a + w + b) < key(a + rule.lhs + b):
            bad.append((rule.tag, spec.alphabet.word_str(a + w + b)))
    assert bad == []


@pytest.mark.parametrize("build, overlaps", [
    (daha_spec, 129), (sdaha_spec, 56), (uq_spec, 32), (oq_spec, 4),
    (dq_spec, 56), (inv_spec, 80), (ham_spec, 56),
], ids=["daha", "sdaha", "uq", "oq", "dq", "inv", "ham"])
def test_core_and_aux_diamonds_resolve(build, overlaps):
    # Bergman's lemma needs every ambiguity of the whole rule set resolved,
    # the aux rules' too; pinning the count catches a dropped overlap.  As
    # core rules of one spec, with no q-central letters, they make no more.
    spec = build()
    whole = AlgebraSpec(spec.alphabet, spec.rules + spec.aux_rules, spec.pbw, field=spec.field)
    assert whole.aux_rules == []
    reports = check_ambiguities(whole)
    assert len(reports) == overlaps
    assert [whole.alphabet.word_str(r.monomial) for r in reports if not r.resolved] == []


@pytest.mark.parametrize("build", SPECS, ids=_name)
def test_word_inverts_exponents(build):
    spec = build()
    pbw = spec.pbw
    letters = range(len(spec.alphabet))
    # every normal word of length <= 3, inverse letters included
    words = [w for n in range(4) for w in itertools.product(letters, repeat=n) if pbw.accepts(w)]
    if build is not uq_spec:
        words += [w for m in range(4) for n in range(4) for w in pbw.enumerate(m, n)]
    for w in words:
        exps = pbw.exponents(w)
        assert len(exps) == len(pbw.blocks)
        assert pbw.word(exps) == w, spec.alphabet.word_str(w)


def test_word_refuses_missing_inverse_and_cap():
    D = dq_spec()
    assert D.pbw.word((-1,) + (0,) * 7) is None
    assert D.pbw.word((0,) * 7 + (-1,)) is None
    H = daha_spec()
    # T has cap 1 and no inverse block letter; Y1 has the inverse Y1i
    assert H.pbw.word((2, 0, 0, 0, 0)) is None
    assert H.pbw.word((-1, 0, 0, 0, 0)) is None
    assert H.pbw.word((1, -2, 0, 0, 0)) == H.alphabet.word("T", "Y1i", "Y1i")
