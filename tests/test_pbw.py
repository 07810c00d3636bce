"""PBW declarations: each spec's blocks against its rules, the enumeration
order, the letter ranks and the termination order read off the blocks, and
the block weights."""

import itertools

import pytest

from qhc.daha import daha_spec, sdaha_spec
from qhc.dqops import dq_spec
from qhc.invham import ham_spec, inv_spec
from qhc.ncpoly import Alphabet
from qhc.qgroup import oq_spec, uq_spec
from qhc.rewrite import EngineError, PowerBlocksPbw, SpecError

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
    # invariant_dimension takes its rows in this order
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


def test_order_key_counts_capped_letters_before_length():
    pbw = inv_spec().pbw
    rr = pbw.order_key(pbw.alphabet.word("r", "r"))
    crd = pbw.order_key(pbw.alphabet.word("c1", "r", "d1"))
    # neither has an inversion; r*r has two letters of the capped r block
    # against one, which decides before the lengths 2 and 3 can
    assert rr[0] == crd[0] == 0
    assert rr[1:3] == (2, 2) and crd[1:3] == (1, 3)
    assert crd < rr


def test_order_key_counts_letters_outside_every_block():
    pbw = daha_spec().pbw
    ti, t, empty = (pbw.order_key(w) for w in (pbw.alphabet.word("Ti"), pbw.alphabet.word("T"), ()))
    # Ti, in no block, ties with T (rank 0, capped, one letter) until the
    # count of letters outside every block; both outrank the empty word
    assert ti[:3] == t[:3] == (0, 1, 1)
    assert (ti[3], t[3], empty[3]) == (1, 0, 0)
    assert ti > t > empty


def test_letter_in_no_block_is_rejected():
    alph = Alphabet("pair", [("x", (1, 0), None), ("y", (0, 1), None)])
    with pytest.raises(SpecError, match="y"):
        PowerBlocksPbw(alph, [("x", None, None)])


@pytest.mark.parametrize("weights", [(1,), (1, 2, 3), (1, -1)])
def test_weights_one_nonnegative_per_block(weights):
    # a negative weight would not well-order the cone divide walks down
    alph = Alphabet("pair", [("x", (1, 0), None), ("y", (0, 1), None)])
    blocks = [("x", None, None), ("y", None, None)]
    assert PowerBlocksPbw(alph, blocks).weights == (0, 0)
    with pytest.raises(SpecError, match="weights"):
        PowerBlocksPbw(alph, blocks, weights=weights)


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
