"""Engine behaviour on a small quantum-plane style presentation.

The toy algebra has y*x = q^2 x*y (oriented y x -> q^2 x y) together with an
invertible central letter z.  Everything is checkable by hand, so the engine
mechanics (normal forms, budgets, ambiguities, Hilbert counts, ranks,
serialisation) are exercised independently of the production presentations.
The last tests check AlgebraSpec.mul against the free product, the
order's leading words on dq and oq against their generator pairs, and divide
against the q-determinants and mu(Z_t), on the production presentations
themselves.
"""

import itertools
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc import rewrite
from qhc.coeffring import RAT, QQField, RatCoeff
from qhc.daha import daha_spec, sdaha_spec
from qhc.dqops import MOMENT_TABLE, det_a_body, det_d_body, dq_denominators, dq_spec, moment_sums, moment_zt
from qhc.invham import ham_spec, inv_spec
from qhc.ncpoly import Alphabet, NcPoly
from qhc.properties import check_strategy_independence, random_word_poly
from qhc.qgroup import oq_denominators, oq_spec, qdet_oq, uq_spec
from qhc.rewrite import (
    AlgebraSpec,
    EngineError,
    LocElem,
    NonTermination,
    PowerBlocksPbw,
    QCentralGen,
    RewriteRule,
    SpecError,
    check_ambiguities,
    divide,
    hilbert_table,
    normal_form,
    rank_of_family,
    reduce_by,
    straighten_trace,
)

from oracles import is_normal, naive_nf, naive_redex


def make_plane():
    alph = Alphabet("plane", [
        ("x", (1, 0), None),
        ("y", (0, 1), None),
        ("z", (1, 1), None),
        ("zi", (-1, -1), "z"),
    ])
    pbw = PowerBlocksPbw(alph, [("x", None, None), ("y", None, None), ("z", "zi", None)])
    q2 = RAT.q_power(2)
    rule = RewriteRule(
        alph.word("y", "x"),
        NcPoly(alph, {alph.word("x", "y"): q2}),
        "y*x",
    )
    return AlgebraSpec(alph, [rule], pbw, q_central=[QCentralGen("z", (2, -2))])


@pytest.fixture(scope="module")
def plane():
    return make_plane()


def test_normal_form_sorts(plane):
    p = plane.word_poly("y", "x")
    nf = normal_form(plane, p)
    assert nf == plane.word_poly("x", "y").scale(RAT.q_power(2))
    assert normal_form(plane, plane.unit()) == plane.unit()


def test_aux_rules_generated(plane):
    # z commutes with q-powers; z*zi cancels
    tags = {r.tag for r in plane.aux_rules}
    assert "cancel:z*zi" in tags
    nf = plane.mul(plane.gen("z"), plane.gen("zi"))
    assert nf == plane.unit()
    # z * x = q^2 x z  (kappa=(2,-2) against bidegree (1,0))
    nf = plane.mul(plane.gen("z"), plane.gen("x"))
    assert nf == plane.word_poly("x", "z").scale(RAT.q_power(2))


def test_strategy_independence(plane):
    import random

    rng = random.Random(7)
    letters = ["x", "y", "z", "zi"]
    for _ in range(50):
        w = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        p = plane.word_poly(*w)
        assert normal_form(plane, p, "leftmost") == normal_form(plane, p, "rightmost")


def test_unknown_direction_is_refused(plane):
    with pytest.raises(ValueError, match=r"^direction must be 'leftmost' or 'rightmost', not 'rightmots'$"):
        plane.nf(plane.word_poly("y", "x"), "rightmots")


def test_straighten_trace_refuses_an_unknown_direction(plane):
    with pytest.raises(ValueError, match=r"^direction must be 'leftmost' or 'rightmost', not 'up'$"):
        straighten_trace(plane, plane.alphabet.word("y", "x"), "up")


def test_no_ambiguities_in_plane(plane):
    assert check_ambiguities(plane) == []


def test_hilbert_counts(plane):
    tab = hilbert_table(plane, (2, 2))
    # basis x^a y^b z^c with degrees (a+c, b+c)
    assert tab.dim(0, 0) == 1
    assert tab.dim(1, 0) == 1
    assert tab.dim(1, 1) == 2   # x y and z
    assert tab.dim(2, 2) == 3   # x2y2, xyz, z2
    js = tab.to_json()
    assert js["dims"][0] == [0, 0, 1]


def test_rank_of_family(plane):
    x, y = plane.gen("x"), plane.gen("y")
    xy = plane.mul(x, y)
    z = plane.gen("z")
    fam = [xy, z, xy + z]
    res = rank_of_family(plane, fam)
    assert res.rank == 2
    assert res.agreeing == 3
    res1 = rank_of_family(plane, [z, z])
    assert res1.rank == 1


def test_agreed_rank_surfaces_disagreement(plane):
    # the rank entry of the families, Residues.rank, must not reconcile
    # points that disagree
    x, y, z = plane.gen("x"), plane.gen("y"), plane.gen("z")
    res = rewrite.Residues()
    assert res.rank([res.row(p.terms) for p in (plane.mul(x, y), z, plane.zero())], "plane") == 2
    # (q - 2) z vanishes at the first default point, q = 2
    drop = z.scale(RAT.q_power(1) - RAT.from_int(2))
    assert rank_of_family(plane, [drop]).per_point == (0, 1, 1)
    P1, P2, P3 = (p for _, _, p in rewrite.POINTS)
    with pytest.raises(EngineError, match=(
            rf"^plane: drop disagrees across points: \[0, 1, 1\], from rank 0 at \(q, t\) = \(2, 3\) mod {P1}, "
            rf"rank 1 at \(q, t\) = \(3, 2\) mod {P2}, rank 1 at \(q, t\) = \(5, 7\) mod {P3}$")):
        res.rank([res.row(drop.terms)], "plane: drop")


def test_rank_guards(plane):
    with pytest.raises(EngineError):
        rank_of_family(plane, [plane.gen("x") + plane.gen("y")])


def test_rank_guard_names_algebra_and_word():
    H = daha_spec()
    free = H.word_poly("T", "T")
    assert not is_normal(H, free)
    with pytest.raises(EngineError, match=r"^daha: .*normal-form inputs.* word T\^2 "):
        rank_of_family(H, [H.gen("T"), free])


def test_rule_invariants_enforced():
    alph = Alphabet("bad", [("x", (1, 0), None), ("y", (0, 1), None)])
    pbw = PowerBlocksPbw(alph, [("x", None, None), ("y", None, None)])
    wrong = RewriteRule(alph.word("x", "y"), NcPoly(alph, {alph.word("y", "x"): RAT.one}), "bad")
    with pytest.raises(SpecError, match=r"^rule bad: rhs word y\*x does not decrease"):
        # wrong orientation: rhs does not decrease the order
        AlgebraSpec(alph, [wrong], pbw)
    with pytest.raises(SpecError, match=r"^rule bad: rhs word y\*x does not decrease"):
        # a partial spec's rules are checked too
        AlgebraSpec(alph, [wrong], pbw, partial=True)
    with pytest.raises(SpecError):
        # inhomogeneous rhs
        RewriteRule(alph.word("y", "x"), NcPoly(alph, {alph.word("x", "x"): RAT.one}), "bad")


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 3)
    alph = Alphabet("loop", [("a", (1, 0), None), ("b", (1, 0), None)])
    pbw = PowerBlocksPbw(alph, [("b", None, None), ("a", None, None)])
    # a cycling pair: a b -> b a and b a -> a b would not pass the order check;
    # instead exceed the budget with a legitimate but long reduction
    rule = RewriteRule(alph.word("a", "b"), NcPoly(alph, {alph.word("b", "a"): RAT.one}), "a*b")
    spec = AlgebraSpec(alph, [rule], pbw)
    long_word = alph.word(*(["a"] * 3 + ["b"] * 3))
    with pytest.raises(NonTermination):
        normal_form(spec, NcPoly.from_word(alph, long_word))


def test_budget_error_names_algebra_word_and_steps(monkeypatch):
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 3)
    alph = Alphabet("loop", [("a", (1, 0), None), ("b", (1, 0), None)])
    pbw = PowerBlocksPbw(alph, [("b", None, None), ("a", None, None)])
    rule = RewriteRule(alph.word("a", "b"), NcPoly(alph, {alph.word("b", "a"): RAT.one}), "a*b")
    spec = AlgebraSpec(alph, [rule], pbw)
    long_word = alph.word(*(["a"] * 3 + ["b"] * 3))
    with pytest.raises(NonTermination, match=r"^loop: step budget of 3 exceeded while reducing a\^3\*b\^3$"):
        spec.nf_word(long_word)


def make_loop():
    """The budget tests' presentation: a*b -> b*a, so a letter a moves right
    past a run of b's one rule application, and one letter product, per b."""
    alph = Alphabet("loop", [("a", (1, 0), None), ("b", (1, 0), None)])
    pbw = PowerBlocksPbw(alph, [("b", None, None), ("a", None, None)])
    rule = RewriteRule(alph.word("a", "b"), NcPoly(alph, {alph.word("b", "a"): RAT.one}), "a*b")
    return AlgebraSpec(alph, [rule], pbw)


def test_budget_error_names_a_letter_times_a_normal_word(monkeypatch):
    # a*b^3 is a letter times a normal word: three rule applications, and
    # six one-term products added, a, b*a, a*b, b^2*a, a*b^2 and b^3*a, of
    # 1 + 2 + 2 + 3 + 3 + 4 letters, eighteen units of work
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 17)
    spec = make_loop()
    w = spec.alphabet.word(*"abbb")
    with pytest.raises(NonTermination, match=r"^loop: step budget of 17 exceeded while reducing a\*b\^3$"):
        spec.nf_word(w)
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 18)
    spec = make_loop()
    assert spec.nf_word(w) == spec.word_poly(*"bbba")


def test_budget_error_names_the_word_of_a_tail_step(monkeypatch):
    # mul(a^2, b^3) acts with a on b^3 and then with a on b^3*a, each tail
    # step one request: making a*b^3 does eighteen units of work and adding
    # its one term of four letters four more; the second step does 29
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 17)
    spec = make_loop()
    with pytest.raises(NonTermination, match=r"^loop: step budget of 17 exceeded while reducing a\*b\^3$"):
        spec.mul(spec.word_poly(*"aa"), spec.word_poly(*"bbb"))
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 28)
    spec = make_loop()
    with pytest.raises(NonTermination, match=r"^loop: step budget of 28 exceeded while reducing a\*b\^3\*a$"):
        spec.mul(spec.word_poly(*"aa"), spec.word_poly(*"bbb"))
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 29)
    spec = make_loop()
    assert spec.mul(spec.word_poly(*"aa"), spec.word_poly(*"bbb")) == spec.word_poly(*"bbbaa")
    # the terms of one tail step share its budget: a*(b^3 + b^2) adds the
    # one term of a*b^2, made with a*b^3, after a*b^3's 22 units
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 24)
    spec = make_loop()
    with pytest.raises(NonTermination, match=r"^loop: step budget of 24 exceeded while reducing a\*b\^2$"):
        spec.mul(spec.gen("a"), spec.word_poly(*"bbb") + spec.word_poly(*"bb"))


def test_budget_charges_the_terms_a_request_adds(monkeypatch):
    # p11 sinks through dq's a11^6 with results that grow at each a11: the
    # request adds many terms per rule application, and their letters are
    # charged, so ten units per rule application do not cover it
    D = dq_spec()
    p11, a11 = D.alphabet.index("p11"), D.alphabet.index("a11")
    w = (p11,) + (a11,) * 6
    rewrite_, applied = AlgebraSpec._rewrite, []

    def counting(self, rule, v, req):
        applied.append(v)
        return rewrite_(self, rule, v, req)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AlgebraSpec, "_rewrite", counting)
        AlgebraSpec(D.alphabet, D.rules, D.pbw, D.q_central).nf_word(w)
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 10 * len(applied))
    fresh = AlgebraSpec(D.alphabet, D.rules, D.pbw, D.q_central)
    with pytest.raises(NonTermination, match=r"^dq: step budget of \d+ exceeded while reducing p11\*a11\^6$"):
        fresh.nf_word(w)
    monkeypatch.undo()
    assert fresh.nf_word(w) == D.nf_word(w)


def _stack_depth() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_a_letter_sinks_through_a_word_longer_than_the_recursion_limit():
    # the letter products wait on an explicit stack, not on Python's: a
    # sinks through b^n one product per b, from deep in the caller's stack
    n = sys.getrecursionlimit() + 500
    spec = make_loop()
    w = spec.alphabet.word("a", *"b" * n)

    def nested(k):
        return nested(k - 1) if k else spec.nf_word(w)

    assert nested(sys.getrecursionlimit() - _stack_depth() - 30) == spec.word_poly(*"b" * n, "a")
    # p22 passes dq's a12 by one rule of one term, the swapped pair
    D = dq_spec()
    p22, a12 = D.alphabet.index("p22"), D.alphabet.index("a12")
    fresh = AlgebraSpec(D.alphabet, D.rules, D.pbw, D.q_central)
    w = (p22,) + (a12,) * 250
    got = fresh.nf_word(w)
    assert got == reduce_by(D, NcPoly.from_word(D.alphabet, w), "rightmost")
    assert got == D.word_poly(*["a12"] * 250, "p22")


def test_straighten_trace_fixed_point(plane):
    w = plane.alphabet.word("x", "y")
    assert straighten_trace(plane, w) == plane.word_poly("x", "y")


def test_specialize(plane):
    sp = plane.over(QQField(2, 3))
    p = sp.word_poly("y", "x")
    nf = normal_form(sp, p)
    ((w, c),) = nf.terms.items()
    assert c == Fraction(4)
    assert sp.alphabet.word_str(w) == "x*y"


# mul against the free product, on the production presentations

PRODUCT_SPECS = {"dq": dq_spec, "oq": oq_spec, "ham": ham_spec, "sdaha": sdaha_spec, "daha": daha_spec}

laurent = st.builds(RatCoeff.monomial, st.integers(-3, 3).filter(bool), st.integers(-2, 2), st.integers(-2, 2))


def short_polys(spec):
    words = st.lists(st.integers(0, len(spec.alphabet) - 1), max_size=3).map(tuple)
    return st.dictionaries(words, laurent, max_size=3).map(
        lambda terms: NcPoly(spec.alphabet, terms, spec.field))


@pytest.mark.parametrize("name", sorted(PRODUCT_SPECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mul_matches_nf_of_free_product(name, data):
    # no factor is reduced first; the last one is the one mul normalises
    spec = PRODUCT_SPECS[name]()
    a, b, c = (data.draw(short_polys(spec)) for _ in range(3))
    assert spec.mul(a, b, c) == spec.nf(a * b * c)
    assert spec.mul(a, b) == spec.nf(a * b)
    with_scalar = a + spec.scalar(data.draw(laurent))
    assert spec.mul(with_scalar, b) == spec.nf(with_scalar * b)
    assert spec.mul(spec.zero(), b) == spec.zero()
    assert spec.mul(a, spec.zero()) == spec.zero()


def _suffixes(polys):
    return {w[i:] for p in polys for w in p.terms for i in range(len(w))}


@pytest.mark.parametrize("name", sorted(PRODUCT_SPECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_acts_map_matches_nf_of_free_product_across_left_factors(name, data):
    # one map serves several unreduced left factors in turn: zero, a scalar,
    # random ones, and one whose words end in another factor's words, so
    # later factors read suffix images the earlier ones left
    spec = PRODUCT_SPECS[name]()
    a, b = data.draw(short_polys(spec)), spec.nf(data.draw(short_polys(spec)))
    x = data.draw(st.integers(0, len(spec.alphabet) - 1))
    overlapping = NcPoly(spec.alphabet, {(x,) + w: c for w, c in a.terms.items()}, spec.field)
    lefts = [a, spec.zero(), spec.scalar(data.draw(laurent)), overlapping,
             data.draw(short_polys(spec)), a]
    letter_times, calls = AlgebraSpec._letter_times, []

    def counting(self, x, p):
        calls.append(p)
        return letter_times(self, x, p)

    times_b = spec._acts(b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AlgebraSpec, "_letter_times", counting)
        got = [times_b(left) for left in lefts]
    assert got == [spec.nf(left * b) for left in lefts]
    # the tail step, one letter acting on a normal form, runs once per
    # distinct nonempty suffix over all the left factors
    assert len(calls) == len(_suffixes(lefts))


# redex search and reduction against a naive reference, on all seven
# presentations

ALL_SPECS = dict(PRODUCT_SPECS, uq=uq_spec, inv=inv_spec)


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_specialize_regenerates_the_evaluated_aux_rules(name):
    spec = ALL_SPECS[name]()
    sp = spec.over(QQField(2, 3))

    def table(s, value):
        return {r.lhs: (r.tag, {w: value(c) for w, c in r.rhs.terms.items()}) for r in s.aux_rules}

    assert table(sp, lambda c: c) == table(spec, sp.field.eval)


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_redex_table_and_resumed_reduction_match_naive(name, data):
    spec = ALL_SPECS[name]()
    letters = st.integers(0, len(spec.alphabet) - 1)
    w = tuple(data.draw(st.lists(letters, max_size=10)))
    for d in ("leftmost", "rightmost"):
        assert spec._find_redex(w, d) == naive_redex(spec, w, d)
    # a fresh spec has an empty normal-form cache, so every letter product
    # is made here, none read from an earlier test
    fresh = AlgebraSpec(spec.alphabet, spec.rules, spec.pbw, spec.q_central, field=spec.field)
    v = w[:5]
    left = fresh.nf_word(v, "leftmost")
    assert left == fresh.nf_word(v, "rightmost") == naive_nf(spec, v, "leftmost")


# straighten_trace on random words: every word it leaves is irreducible or
# the lhs of a power rule, and it does not change the element

TRACE_POWERS = {"daha": "T", "sdaha": "R", "inv": "r", "ham": "r", "uq": None, "dq": None}


@pytest.mark.parametrize("name", sorted(TRACE_POWERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trace_leaves_irreducible_words_and_powers(name, data):
    spec = ALL_SPECS[name]()
    letter = TRACE_POWERS[name]
    powers = {spec.alphabet.word(letter, letter)} if letter else set()
    # runs of one letter, so that powers of every letter come up
    runs = st.tuples(st.integers(0, len(spec.alphabet) - 1), st.integers(1, 3))
    w = sum(((x,) * k for x, k in data.draw(st.lists(runs, min_size=1, max_size=3))), ())[:5]
    for d in ("leftmost", "rightmost"):
        trace = straighten_trace(spec, w, d)
        for v in trace.terms:
            assert v in powers or spec._find_redex(v, "leftmost") is None
        assert spec.nf(trace) == spec.nf_word(w)


def test_trace_budget_names_algebra_and_word(monkeypatch):
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 2)
    A = sdaha_spec()
    with pytest.raises(NonTermination, match=r"^sdaha: step budget of 2 exceeded while reducing .*, tracing P1\*R\*Q1$"):
        straighten_trace(A, A.alphabet.word("P1", "R", "Q1"))


def test_nf_cache_stops_at_its_term_bound(monkeypatch):
    H = ham_spec()
    words = list(itertools.product(range(len(H.alphabet)), repeat=3))
    want = [H.nf_word(w) for w in words]
    monkeypatch.setattr(rewrite, "CACHE_MAX_TERMS", 60)
    fresh = AlgebraSpec(H.alphabet, H.rules, H.pbw, H.q_central)
    held = []
    for w, nf in zip(words, want):
        assert fresh.nf_word(w) == nf
        held.append(sum(len(terms) for terms in fresh._nf_cache.values()))
    full = [k for k, n in enumerate(held) if n >= 60]
    assert full, "the cache never reached its bound"
    assert held[full[0]:] == [held[full[0]]] * (len(held) - full[0])
    assert [fresh.nf_word(w) for w in words] == want


def test_nf_cache_holds_one_coefficient_object_per_value():
    D = dq_spec()
    before = set(D._nf_cache)
    for n in range(4):
        for w in itertools.product(range(len(D.alphabet)), repeat=n):
            D.nf_word(w)
    moment_sums(MOMENT_TABLE)
    by_value = {}
    for terms in D._nf_cache.values():
        for _, c in terms:
            by_value.setdefault(c, set()).add(id(c))
    assert len(by_value) > 10
    assert all(len(ids) == 1 for ids in by_value.values())
    # the entries this test made, each against a spec of its own
    fresh = AlgebraSpec(D.alphabet, D.rules, D.pbw, D.q_central)
    for w in D._nf_cache.keys() - before:
        assert NcPoly(D.alphabet, dict(D._nf_cache[w])) == fresh.nf_word(w)


LOC_DENOMINATORS = {"dq": dq_denominators, "oq": oq_denominators}


def _uncached_path_results(spec, dens):
    """nf, mul and LocElem.products on fixed inputs, among them sums whose
    terms cancel to 0."""
    gens = [spec.gen(g.name) for g in spec.alphabet.gens]
    a = gens[0] + gens[1] + gens[2]
    b = gens[-1] * gens[0] + spec.unit()
    rule = spec.rules[0]
    rel = NcPoly.from_word(spec.alphabet, rule.lhs) - rule.rhs
    ones = (1,) * len(dens)
    lefts = [LocElem(spec, dens, a, ones), LocElem(spec, dens, rel), LocElem(spec, dens, b * a)]
    out = [spec.nf(a * a * a), spec.nf(a * b, "rightmost"), spec.nf(rel), spec.nf(a * rel * b),
           spec.nf(rel + a, "rightmost"), spec.mul(a, b, a), spec.mul(b, rel), spec.mul(a * b - b * a, b)]
    products = LocElem.products(lefts, LocElem(spec, dens, b + a, ones))
    return out, [(x.exps, x.body) for x in products]


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_uncached_normal_forms_match_cached_ones(name, monkeypatch):
    spec = ALL_SPECS[name]()
    dens = LOC_DENOMINATORS.get(name, tuple)()

    def own_spec():
        return AlgebraSpec(spec.alphabet, spec.rules, spec.pbw, spec.q_central, field=spec.field)

    want = _uncached_path_results(own_spec(), dens)
    assert not want[0][2] and not want[0][3]
    monkeypatch.setattr(rewrite, "CACHE_MAX_TERMS", 0)
    uncached = own_spec()
    assert _uncached_path_results(uncached, dens) == want
    assert uncached._nf_cached_terms == 0
    assert not any(uncached._nf_cache.values())


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_strategy_check_catches_a_fault_in_the_cached_engine(name, monkeypatch):
    # rightmost reduction runs on reduce_by, apart from the cache, so a
    # fault in the cached engine makes the two strategies disagree
    spec = ALL_SPECS[name]()
    fresh = AlgebraSpec(spec.alphabet, spec.rules, spec.pbw, spec.q_central, field=spec.field)
    rng = random.Random(0)
    for _ in range(20):
        fresh.nf(random_word_poly(fresh, rng, 5), "rightmost")
    assert not fresh._nf_cache and fresh._nf_cached_terms == 0
    assert check_strategy_independence(fresh, n=50) is None
    nf_terms = AlgebraSpec._nf_terms

    def doubled(self, w, *args):
        terms = nf_terms(self, w, *args)
        return tuple((v, c + c) for v, c in terms) if len(w) >= 2 else terms

    monkeypatch.setattr(AlgebraSpec, "_nf_terms", doubled)
    assert check_strategy_independence(fresh, n=50) is not None


def _mutant_rewrite(mutate):
    """AlgebraSpec._rewrite applying, in place of each rule, one whose
    right-hand side's terms are mutate(its terms as a list)."""
    rewrite_ = AlgebraSpec._rewrite

    def mutant(self, rule, w, req):
        rhs = NcPoly(self.alphabet, dict(mutate(list(rule.rhs.terms.items()))), self.field)
        return rewrite_(self, SimpleNamespace(lhs=rule.lhs, rhs=rhs), w, req)

    return mutant


LETTER_PRODUCT_MUTANTS = {
    "drops-the-last-rhs-term": lambda terms: terms[:-1],
    "squares-rc": lambda terms: [(rw, rc * rc) for rw, rc in terms],
}


@pytest.mark.parametrize("mutant", sorted(LETTER_PRODUCT_MUTANTS))
@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_letter_product_mutants_fail_the_strategy_check_and_the_oracle(name, mutant, monkeypatch):
    spec = ALL_SPECS[name]()

    def own_spec():
        return AlgebraSpec(spec.alphabet, spec.rules, spec.pbw, spec.q_central, field=spec.field)

    monkeypatch.setattr(AlgebraSpec, "_rewrite", _mutant_rewrite(LETTER_PRODUCT_MUTANTS[mutant]))
    assert check_strategy_independence(own_spec(), n=50) is not None
    fresh = own_spec()
    words = itertools.product(range(len(spec.alphabet)), repeat=2)
    assert any(fresh.nf_word(w) != naive_nf(spec, w, "leftmost") for w in words)


NF_SPECS = dict(ALL_SPECS, **{"daha-residues": lambda: daha_spec().at_points(),
                              "dq-residues": lambda: dq_spec().at_points()})


@pytest.mark.parametrize("name", sorted(NF_SPECS))
def test_rule_residuals_vanish_and_poly_matches_word_poly(name):
    """Every core and auxiliary rule's residual lhs - rhs lies in the spec's
    field and normalises to 0; over RAT, Alphabet.poly builds the word
    AlgebraSpec.word_poly builds."""
    spec = NF_SPECS[name]()
    for rule in spec.rules + spec.aux_rules:
        assert rule.residual.field is spec.field, rule.tag
        assert not spec.nf(rule.residual), rule.tag
    if spec.field is RAT:
        names = [g.name for g in spec.alphabet.gens]
        for word in [(n,) for n in names] + [(names[1], names[0])]:
            assert spec.alphabet.poly(*word) == spec.word_poly(*word)
            assert spec.alphabet.poly(*word).field is RAT


@pytest.mark.parametrize("name", sorted(NF_SPECS))
def test_cached_engine_matches_rightmost_reduce_by_on_every_short_word(name):
    spec = NF_SPECS[name]()
    fresh = AlgebraSpec(spec.alphabet, spec.rules, spec.pbw, spec.q_central, field=spec.field)
    words = [w for k in range(4) for w in itertools.product(range(len(spec.alphabet)), repeat=k)]
    bad = [spec.alphabet.word_str(w) for w in words if fresh.nf_word(w) != reduce_by(
        spec, NcPoly.from_word(spec.alphabet, w, field=spec.field), "rightmost")]
    assert bad == []
    assert fresh._nf_cached_terms > 0


def test_three_letter_lhs_is_refused():
    alph = Alphabet("cubic", [("x", (1, 0), None), ("y", (0, 1), None)])
    pbw = PowerBlocksPbw(alph, [("x", None, None), ("y", None, None)])

    def rule(lhs, rhs):
        return RewriteRule(alph.word(*lhs), NcPoly(alph, {alph.word(*rhs): RAT.one}), "*".join(lhs))

    pair = rule(("y", "x"), ("x", "y"))
    AlgebraSpec(alph, [pair], pbw)
    with pytest.raises(SpecError, match=r"^rule y\*y\*x: left-hand side y\^2\*x has 3 letters"):
        AlgebraSpec(alph, [pair, rule(("y", "y", "x"), ("x", "y", "y"))], pbw)


# -- divide on the q-determinants and on mu(Z_t) ------------------------------

def _failing_pairs(spec, pbw):
    """The generator pairs x_i x_j whose normal form does not lead, under
    pbw.order_key, with exponent e_i + e_j."""
    bad = []
    for i, j in itertools.product(range(len(spec.alphabet)), repeat=2):
        want = tuple(a + b for a, b in zip(pbw.exponents((i,)), pbw.exponents((j,))))
        if pbw.exponents(max(spec.nf_word((i, j)).terms, key=pbw.order_key)) != want:
            bad.append((i, j))
    return bad


@pytest.mark.parametrize("build, unit_failures", [(dq_spec, 4), (oq_spec, 0)], ids=["dq", "oq"])
def test_weights_certify_leading_words_multiply(build, unit_failures):
    # the solvable-type (G-algebra) condition: with the PBW property it gives
    # lead(nf(f * g)) = lead(f) + lead(g) for every f and g, so divide is
    # complete on dq and oq; unit weights, which are oq's own, break it on dq
    spec = build()
    assert _failing_pairs(spec, spec.pbw) == []
    unit = PowerBlocksPbw(spec.alphabet, [(spec.alphabet.gens[p].name, inv, cap)
                                          for p, inv, cap in spec.pbw.blocks],
                          weights={g.name: 1 for g in spec.alphabet.gens})
    assert len(_failing_pairs(spec, unit)) == unit_failures


def _divisions():
    D, O = dq_spec(), oq_spec()
    dq_words = [w for m in range(3) for n in range(3) for w in D.pbw.enumerate(m, n)]
    oq_words = [w for m in range(5) for w in O.pbw.enumerate(m, 0)]
    return [
        (D, det_a_body(), dq_words, False),
        (D, det_d_body(), dq_words, False),
        (O, qdet_oq(), oq_words, False),
        (D, moment_zt().body, dq_words, True),
    ]


def _leading_words_multiply(spec, den, img, w):
    """lead(img) = lead(den) + w, leading words taken under the spec's
    PBW order_key."""
    pbw = spec.pbw

    def lead(poly):
        return pbw.exponents(max(poly.terms, key=pbw.order_key))

    return lead(img) == tuple(a + b for a, b in zip(lead(den), pbw.exponents(w)))


@pytest.mark.parametrize("spec, den, words, right", _divisions(),
                         ids=["detA", "detD", "detL", "Zt-right"])
def test_divide_round_trips_on_pbw_words(spec, den, words, right):
    for w in words:
        x = NcPoly.from_word(spec.alphabet, w)
        img = spec.mul(x, den) if right else spec.mul(den, x)
        # leading words multiply, lead(nf(den * w)) = lead(den) + w (and so
        # does lead(nf(w * den)) on the right): every quotient is found
        # because of this
        assert _leading_words_multiply(spec, den, img, w), spec.alphabet.word_str(w)
        assert divide(spec, den, img, right=right) == x, spec.alphabet.word_str(w)


def test_divide_one_word_quotient_makes_one_product(monkeypatch):
    # the loop's one product certifies the quotient; a closing product of
    # the whole quotient once doubled the cost
    D = dq_spec()
    w = next(D.pbw.enumerate(1, 1))
    x = NcPoly.from_word(D.alphabet, w)
    img = D.mul(det_a_body(), x)
    calls = []
    act = AlgebraSpec._act

    def counting(self, a, b):
        calls.append(a)
        return act(self, a, b)

    monkeypatch.setattr(AlgebraSpec, "_act", counting)
    assert divide(D, det_a_body(), img) == x
    assert len(calls) == 1


@pytest.mark.parametrize("den", [det_d_body, lambda: moment_zt().body], ids=["detD", "Zt"])
def test_divide_right_non_homogeneous_multiple(den):
    # the quotient's words share one map's suffix images on the right
    D = dq_spec()
    den = den()
    x = D.nf(D.unit() + D.gen("a21") + D.word_poly("p12", "p11") + D.word_poly("a11", "p22").scale(RAT.q_power(3)))
    assert len(x.terms) == 5 and x.bidegree() is None
    assert divide(D, den, D.mul(x, den), right=True) == x
    assert divide(D, den, D.zero(), right=True) == D.zero()


def test_divide_left_refuses_a_non_multiple():
    D = dq_spec()
    assert divide(D, det_a_body(), D.gen("a11")) is None


def test_divide_left_non_homogeneous_multiple():
    D = dq_spec()
    x = D.unit() + D.gen("p11") + D.word_poly("a11", "a11")
    assert divide(D, det_a_body(), D.mul(det_a_body(), x)) == x
    assert divide(D, det_a_body(), D.zero()) == D.zero()


def test_divide_left_stays_in_the_nonnegative_cone(plane):
    # 1 = (1 - z)(-zi - zi^2 - ...) has no finite quotient; with negative
    # exponents allowed the division would run down that series forever
    one, z = plane.unit(), plane.gen("z")
    assert divide(plane, one - z, one) is None
    xy = plane.word_poly("x", "y")
    assert divide(plane, one - z, plane.nf((one - z) * xy)) == xy


word_lists = st.lists(st.lists(st.integers(0, 2), max_size=5).map(tuple), max_size=12)


@settings(max_examples=60, deadline=None)
@given(words=word_lists, order=st.randoms(use_true_random=False))
def test_tail_map_steps_once_per_distinct_tail(words, order):
    calls = []

    def step(x, u, tail):
        # tail is f(u), and f(w) spells w back
        assert tail == u
        calls.append((x,) + u)
        return (x,) + u

    f = rewrite.tail_map(step, ())
    assert [f(w) for w in words] == words
    assert sorted(calls) == sorted({w[i:] for w in words for i in range(len(w))})
    # the images do not depend on the order the words come in
    perm = list(range(len(words)))
    order.shuffle(perm)
    weigh = lambda x, u, tail: 3 * tail + x + 1
    got = [rewrite.tail_map(weigh, 0)(w) for w in words]
    g = rewrite.tail_map(weigh, 0)
    assert [g(words[k]) for k in perm] == [got[k] for k in perm]


def test_tail_map_duplicate_and_empty_words():
    calls = []

    def step(x, u, tail):
        calls.append((x,) + u)
        return tail + [x]

    f = rewrite.tail_map(step, [])
    words = [(), (1, 2), (), (1, 2), (2,), (0, 1, 2)]
    assert [f(w) for w in words] == [[], [2, 1], [], [2, 1], [2], [2, 1, 0]]
    assert sorted(calls) == [(0, 1, 2), (1, 2), (2,)]
    assert rewrite.tail_map(step, [])(()) == []


@settings(max_examples=60, deadline=None)
@given(first=word_lists, second=word_lists)
def test_tail_map_second_call_steps_only_new_tails(first, second):
    calls = []

    def step(x, u, tail):
        calls.append((x,) + u)
        return (x,) + tail

    f = rewrite.tail_map(step, ())
    for w in first:
        f(w)
    seen = set(calls)
    del calls[:]
    assert [f(w) for w in second] == second
    new = {w[i:] for w in second for i in range(len(w))} - seen
    assert sorted(calls) == sorted(new)
