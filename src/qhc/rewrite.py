"""Generic noncommutative rewriting engine.

An algebra is presented by oriented straightening rules lhs -> rhs where lhs
is a word of one or two letters and rhs a polynomial.  Exhaustive application
of the rules computes normal forms; overlap and inclusion ambiguities between
rule left-hand sides are enumerated and checked for resolution (the diamond
condition), which by Bergman's lemma certifies that the normal-form words are
a linear basis.

Because every lhs has at most two letters, the rule that applies at a
position is one lookup in a letter-pair table.  The cached engine computes
every normal form as products of one letter x with a normal word v, each
memoised per spec: x v can hold a redex only at its start, so one lookup
finds it, and the rule's right-hand side, folded onto the rest of v one
letter at a time, gives nf(x v) from products with shorter normal words.
Normal forms are unique (Bergman's diamond lemma, which the ambiguity
check certifies for the core rules), so this order of rewriting gives the
same normal forms as any other, leftmost or rightmost.

Two layers of rules are kept:

* core rules: the printed straightening relations of the presentation; the
  ambiguity check runs over these only.
* auxiliary rules: mechanically generated commutations for invertible
  q-central generators and their cancellations.  These implement the Ore
  localisation of the positive cone and never enter the ambiguity count,
  mirroring how the localised algebra is obtained from the positive one.

Every rule must strictly decrease PowerBlocksPbw.order_key, a Knuth-Bendix
order on words read off the letters' bidegrees and PBW blocks, and each is
checked when its spec is built.  That order is well-founded and compatible
with concatenation, so the check certifies that reduction terminates; the
step budget every normal-form computation carries only bounds its cost.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import prod
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .coeffring import RAT, RC_Q, coeff_str
from . import linalg
from .ncpoly import EMPTY_WORD, Alphabet, NcPoly, Word


class EngineError(RuntimeError):
    pass


class NonTermination(EngineError):
    pass


class SpecError(ValueError):
    pass


# ---------------------------------------------------------------------------
# PBW descriptors
# ---------------------------------------------------------------------------

class PowerBlocksPbw:
    """Normal words are g1^{e1} g2^{e2} ... with fixed block order.

    Each block names a positive letter, an optional inverse letter (negative
    exponents), and an optional exponent cap (for involutive-type letters).
    A weakly increasing run of letters is one block per letter, so this one
    descriptor covers the coordinate-style algebras too.

    ``ranks`` gives each letter the index of its block, or of its alphabet
    inverse's block (daha's Ti, which is in no block).  The letter of least
    (rank, index) is the top letter.

    ``weights`` maps each letter name to its weight in ``order_key``.  By
    default a letter of bidegree (a, b) weighs |a| + |b|, and one of degree
    0 weighs 1, or 0 if it is the top letter (daha's T).  No weight may be
    negative, and only the top letter may weigh 0.
    """

    def __init__(self, alphabet: Alphabet, blocks: Sequence[tuple[str, Optional[str], Optional[int]]],
                 weights: Optional[dict[str, int]] = None):
        self.alphabet = alphabet
        self.blocks = []
        self.block_of: dict[int, int] = {}
        for k, (pos, inv, cap) in enumerate(blocks):
            p = alphabet.index(pos)
            i = alphabet.index(inv) if inv else None
            self.blocks.append((p, i, cap))
            self.block_of[p] = k
            if i is not None:
                self.block_of[i] = k
        ranks = []
        for g in alphabet.gens:
            k = self.block_of.get(g.index, self.block_of.get(alphabet.inverse_index.get(g.index)))
            if k is None:
                raise SpecError(f"{alphabet.algebra_id}: letter {g.name} is in no PBW block")
            ranks.append(k)
        self.ranks = tuple(ranks)
        # a letter's precedence falls as its (rank, index) grows
        self._prec = tuple(-(k * len(ranks) + g) for g, k in enumerate(ranks))
        top = alphabet.gens[self._prec.index(max(self._prec))]
        if weights is None:
            weights = {g.name: abs(g.bidegree[0]) + abs(g.bidegree[1]) or int(g is not top)
                       for g in alphabet.gens}
        for g in alphabet.gens:
            x = weights.get(g.name)
            if x is None or x < 0 or (x == 0 and g is not top):
                raise SpecError(f"{alphabet.algebra_id}: letter {g.name} has weight {x}; "
                                f"each letter needs one, positive except the top letter {top.name}")
        self._weight = tuple(weights[g.name] for g in alphabet.gens)

    def order_key(self, w: Word):
        """The one word order, which every rule must decrease and under which
        divide takes leading words: the sum of the letter weights, then the
        letters' precedence read from the right end of w, a lower (rank,
        index) preceding.

        This is a Knuth-Bendix order on strings: weights are nonnegative and
        only the top letter, which precedes every other, may weigh 0.  So it
        is a well-order compatible with concatenation, u < v gives
        a u b < a v b, and rules that decrease it terminate."""
        weight, prec = self._weight, self._prec
        return sum([weight[x] for x in w]), tuple([prec[x] for x in w[::-1]])

    def accepts(self, w: Word) -> bool:
        cur = -1
        i = 0
        n = len(w)
        while i < n:
            j = i
            while j < n and w[j] == w[i]:
                j += 1
            blk = self.block_of.get(w[i])
            if blk is None or blk <= cur:
                return False
            cap = self.blocks[blk][2]
            if cap is not None and j - i > cap:
                return False
            cur = blk
            i = j
        return True

    def exponents(self, w: Word) -> tuple[int, ...]:
        """The signed exponent of each block in the normal word w."""
        return tuple(w.count(p) - (0 if i is None else w.count(i)) for p, i, _ in self.blocks)

    def word(self, exps: Sequence[int]) -> Optional[Word]:
        """The normal word with these block exponents, or None when a block
        with no inverse letter gets a negative exponent or one exceeds its cap."""
        out = EMPTY_WORD
        for (p, i, cap), e in zip(self.blocks, exps):
            if (e < 0 and i is None) or (cap is not None and abs(e) > cap):
                return None
            out += (p if e >= 0 else i,) * abs(e)
        return out

    def enumerate(self, M: int, N: int):
        """Normal words of bidegree (M, N) in the nonnegative cone.

        Each block's exponent runs from its largest feasible value down to
        the least the later blocks can still complete, so one-letter blocks
        of positive degree give the words in lexicographic order of their
        letter indexes (for oq, the order of
        itertools.combinations_with_replacement).  The rank families take
        their row order from this, and frac_rank keeps it only among rows
        of equal length, so no rank depends on it.  Only uq has blocks of
        negative degree, and its K blocks are unbounded, so it raises.
        """
        alph = self.alphabet
        blocks = [(p, cap, alph.gens[p].bidegree) for p, _, cap in self.blocks]

        def most(cap, a, b, m, n):
            """Largest exponent a block of degree (a, b) can take within (m, n)."""
            bounds = [] if cap is None else [cap]
            if a > 0:
                bounds.append(m // a)
            if b > 0:
                bounds.append(n // b)
            return min(bounds) if bounds else None

        def rec(k: int, m: int, n: int, acc: Word):
            if k == len(blocks):
                if m == 0 and n == 0:
                    yield acc
                return
            p, cap, (a, b) = blocks[k]
            top = most(cap, a, b, m, n)
            if top is None:
                raise EngineError(f"block {alph.gens[p].name} has an unbounded exponent and is not enumerable")
            # skip exponents that leave more degree than the later blocks
            # can take up: those branches end without a word
            lo = room_m = room_n = 0
            for _, c, (x, y) in blocks[k + 1:]:
                most_j = most(c, x, y, m, n)
                if most_j is None:
                    break
                room_m += most_j * x
                room_n += most_j * y
            else:
                if (not a and m > room_m) or (not b and n > room_n):
                    return
                if a:
                    lo = max(lo, -((room_m - m) // a))
                if b:
                    lo = max(lo, -((room_n - n) // b))
            for e in range(top, lo - 1, -1):
                yield from rec(k + 1, m - e * a, n - e * b, acc + (p,) * e)

        yield from rec(0, M, N, EMPTY_WORD)


# ---------------------------------------------------------------------------
# rules and specs
# ---------------------------------------------------------------------------

class RewriteRule:
    __slots__ = ("lhs", "rhs", "tag")

    def __init__(self, lhs: Word, rhs: NcPoly, tag: str):
        if not lhs:
            raise SpecError(f"rule {tag}: empty left-hand side")
        self.lhs = lhs
        self.rhs = rhs
        self.tag = tag
        if lhs in rhs.terms:
            raise SpecError(f"rule {tag}: lhs occurs in rhs")
        alph = rhs.alphabet
        d = alph.word_bidegree(lhs)
        for w in rhs.terms:
            if alph.word_bidegree(w) != d:
                raise SpecError(f"rule {tag}: rhs word {alph.word_str(w)} is not homogeneous with lhs")

    @property
    def residual(self) -> NcPoly:
        """lhs - rhs, in the rule's own alphabet and field."""
        return NcPoly.from_word(self.rhs.alphabet, self.lhs, field=self.rhs.field) - self.rhs

    def __repr__(self):
        return f"<rule {self.tag}>"


class QCentralGen(NamedTuple):
    """An invertible generator g with g*h = q^<kappa, bideg h> h*g."""

    name: str
    kappa: tuple[int, int]


#: most work one request to the cached engine may do: one _nf_terms call,
#: or one tail step (_letter_times).  Each rule application counts one, and
#: each term of a letter product x v added into a sum counts the letters of
#: x v: those multiply-adds take most of the engine's time and memory, and
#: a term costs more as its word, and in the q-deformed algebras its
#: coefficient, grows.  The largest request of the rank families to (8, 8)
#: does 1.4e7 units, an explosive word such as p11^20*a11^20 in dq stops
#: after about 50 s and 350 MB (2 vCPU, Python 3.11)
STEP_BUDGET = 3 * 10**7

#: most terms one spec's cached normal forms may hold; nf stops caching once
#: they reach it.  A cached term holds about 220 bytes with its word and its
#: share of the coefficients (tracemalloc: clearing the caches after the
#: moment suite freed 1.57 MB for 7,161 terms), so a full cache holds about
#: 0.22 GB.
CACHE_MAX_TERMS = 1_000_000

#: a cached normal form: its (word, coefficient) pairs
NfTerms = tuple[tuple[Word, object], ...]


def _over_budget(spec: AlgebraSpec, words) -> NonTermination:
    """The error for a reduction of words that passed STEP_BUDGET."""
    return NonTermination(f"{spec.algebra_id}: step budget of {STEP_BUDGET} exceeded while reducing "
                          + ", ".join(spec.alphabet.word_str(w) for w in words))


class _Request:
    """One request to a spec's cached engine: the word it names if it
    passes STEP_BUDGET, the work it has done, and made, the letter products
    it made once the cache was full, so that none is made twice in it."""

    __slots__ = ("spec", "word", "work", "made")

    def __init__(self, spec: AlgebraSpec, word: Word) -> None:
        self.spec, self.word, self.work, self.made = spec, word, 0, {}

    def charge(self, n: int) -> None:
        """Count n more units of work; past STEP_BUDGET, raise NonTermination."""
        self.work += n
        if self.work > STEP_BUDGET:
            raise _over_budget(self.spec, (self.word,))


def _add_scaled(out: dict[Word, object], terms, c) -> None:
    """Add c * hc at hw into out for each (hw, hc) in terms, dropping the
    words whose sums cancel to 0."""
    for hw, hc in terms:
        s = out.get(hw)
        s = hc * c if s is None else s + hc * c
        if s:
            out[hw] = s
        else:
            out.pop(hw, None)


class AlgebraSpec:
    """A presentation with oriented rules and a PBW map.

    Every core rule, then every auxiliary rule, must decrease
    pbw.order_key.  A partial spec, one of the daha bootstrap's intermediate
    rule sets, gets no auxiliary rules and no check that irreducible words
    are PBW words, since the rules it lacks leave some other words
    irreducible."""

    def __init__(
        self,
        alphabet: Alphabet,
        rules: Sequence[RewriteRule],
        pbw: PowerBlocksPbw,
        q_central: Sequence[QCentralGen] = (),
        field=RAT,
        partial: bool = False,
    ):
        self.alphabet = alphabet
        self.algebra_id = alphabet.algebra_id
        self.rules = list(rules)
        self.pbw = pbw
        self.q_central = list(q_central)
        self.field = field
        self.partial = partial
        self._check_decreasing(self.rules)
        self.aux_rules = [] if partial else generate_aux_rules(self)
        self._check_decreasing(self.aux_rules)
        # _rule_at[x][y]: the rule the search applies at a position reading x
        # then y, column G standing for the end of the word (see _end).  A
        # one-letter rule sits in column G and, being tried first at its
        # position, fills its letter's row.
        G = len(alphabet)
        rows: list[list[Optional[RewriteRule]]] = [[None] * (G + 1) for _ in range(G)]
        for r in self.rules + self.aux_rules:
            if len(r.lhs) > 2:
                raise SpecError(
                    f"rule {r.tag}: left-hand side {alphabet.word_str(r.lhs)} has "
                    f"{len(r.lhs)} letters; rules take one or two"
                )
            row, col = rows[r.lhs[0]], r.lhs[1] if len(r.lhs) == 2 else G
            if row[col] is not None:
                raise SpecError(f"duplicate rule lhs {alphabet.word_str(r.lhs)}")
            row[col] = r
        self._rule_at = tuple(
            (row[G],) * (G + 1) if row[G] is not None else tuple(row) for row in rows
        )
        self._end = (G,)
        self._nf_cache: dict[Word, NfTerms] = {}
        # each cached coefficient's value -> the one object the cache holds
        self._nf_coeffs: dict = {}
        self._nf_cached_terms = 0
        self._at_points: dict[tuple, AlgebraSpec] = {}

    def _check_decreasing(self, rules: Sequence[RewriteRule]) -> None:
        key = self.pbw.order_key
        for r in rules:
            kl = key(r.lhs)
            for w in r.rhs.terms:
                if not key(w) < kl:
                    raise SpecError(
                        f"rule {r.tag}: rhs word {self.alphabet.word_str(w)} does not decrease "
                        f"the termination order"
                    )

    # -- element helpers ------------------------------------------------------

    def zero(self) -> NcPoly:
        return NcPoly.zero(self.alphabet, self.field)

    def unit(self) -> NcPoly:
        return NcPoly.unit(self.alphabet, self.field)

    def gen(self, name: str) -> NcPoly:
        return NcPoly.gen(self.alphabet, name, self.field)

    def word_poly(self, *names: str) -> NcPoly:
        return NcPoly.from_word(self.alphabet, self.alphabet.word(*names), field=self.field)

    def scalar(self, c) -> NcPoly:
        return NcPoly(self.alphabet, {EMPTY_WORD: c}, self.field)

    # -- reduction -------------------------------------------------------------

    def _find_redex(self, w: Word, direction: str):
        """(position, lhs length, rule) of the redex reduction in this
        direction rewrites first in w, or None if w is irreducible.

        Leftmost takes the lowest position, rightmost the highest, and at a
        position a one-letter lhs comes before a two-letter one."""
        table, v = self._rule_at, w + self._end
        n = len(w)
        for i in range(n) if direction == "leftmost" else range(n - 1, -1, -1):
            rule = table[v[i]][v[i + 1]]
            if rule is not None:
                return i, len(rule.lhs), rule
        return None

    def _drive(self, gen, req: _Request):
        """Run gen, a generator that yields each letter product x v it lacks
        and is sent back nf(x v), and return its value.

        v is a normal word, so the one redex x v can hold starts at x, and
        the rule there is _rule_at[x][v[0]] (the end column if v is empty).
        With none, x v is irreducible and, except in a partial spec, must
        be a PBW word.  Otherwise x v = lhs v', and nf(x v) is the sum of
        rc * nf(rw v') over the rule's terms rc * rw (_rewrite), itself a
        generator of the products it lacks.  Each of those is a reduct of x
        v, or a suffix of one, smaller under the certified Knuth-Bendix
        order, so the products asked for end.  The generators waiting for a
        product are kept on an explicit stack, innermost last, so a letter
        sinks through a word of any length without deepening Python's
        stack.  Each product made is stored as _store says."""
        table, end, made = self._rule_at, self._end[0], req.made
        stack: list = [(None, gen)]
        terms = None
        while True:
            top, gen = stack[-1]
            try:
                w = gen.send(terms)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                terms = self._store(top, done.value, made)
                continue
            terms = made.get(w)
            if terms is None:
                rule = table[w[0]][w[1] if len(w) > 1 else end]
                if rule is None:
                    self._check_pbw(w)
                    terms = self._store(w, {w: self.field.one}, made)
                else:
                    req.charge(1)
                    stack.append((w, self._rewrite(rule, w, req)))

    @staticmethod
    def _ask(w: Word):
        """Generator that asks for the letter product w and returns nf(w)."""
        return (yield w)

    def _rewrite(self, rule: RewriteRule, w: Word, req: _Request):
        """Generator of nf(w) for w = lhs v' with v' normal: the sum of rc *
        nf(rw v') over the rule's terms rc * rw, asking for each letter
        product the cache lacks as _fold does."""
        rest, out = w[len(rule.lhs):], {}
        for rw, rc in rule.rhs.terms.items():
            yield from self._fold(rw, {rest: rc}, out, req)
        return out

    def _fold(self, letters: Word, part: dict[Word, object], out: dict[Word, object], req: _Request):
        """Generator that adds nf(letters * part) into out, for part a sum
        of c * u over normal words u: the letters act one at a time, right
        to left, each on every word of the sum so far.  It yields each
        letter product y u the cache lacks and is sent back its normal
        form; each term of a product that it adds is charged to req as
        the letters of the product's word."""
        cache = self._nf_cache
        if not letters:
            _add_scaled(out, part.items(), self.field.one)
        for i in range(len(letters) - 1, -1, -1):
            y, acc = letters[i], out if i == 0 else {}
            for u, c in part.items():
                yu = (y,) + u
                terms = cache.get(yu)
                if terms is None:
                    terms = yield yu
                req.charge(len(terms) * len(yu))
                _add_scaled(acc, terms, c)
            part = acc

    def _check_pbw(self, w: Word) -> None:
        """Raise EngineError if the irreducible word w is not a PBW word;
        a partial spec lacks the rules that would make it one."""
        if not self.partial and not self.pbw.accepts(w):
            raise EngineError(f"{self.algebra_id}: irreducible word {self.alphabet.word_str(w)} "
                              f"is outside the normal-form set")

    def _store(self, w: Word, out: dict[Word, object], made: dict) -> NfTerms:
        """The normal form out of w as (word, coefficient) pairs, brought
        back by field.reduce if the field has one and, while the cache is
        under CACHE_MAX_TERMS, stored there with each coefficient replaced
        by the spec's one object of its value; once it is full, stored in
        made, the products of one request."""
        if self.field.reduce is not None:
            out = self.field.reduce(out)
        if self._nf_cached_terms >= CACHE_MAX_TERMS:
            terms = made[w] = tuple(out.items())
            return terms
        share = self._nf_coeffs.setdefault
        terms = self._nf_cache[w] = tuple([(u, share(c, c)) for u, c in out.items()])
        self._nf_cached_terms += len(terms)
        return terms

    def _nf_terms(self, w: Word) -> NfTerms:
        """The normal form of w as (word, coefficient) pairs, one request:
        the letters of w before its longest irreducible suffix are folded,
        right to left, onto that suffix (_fold).  The result is stored under
        w as _store says, as _drive stores the products it makes."""
        terms = self._nf_cache.get(w)
        if terms is not None:
            return terms
        table, v = self._rule_at, w + self._end
        k = len(w)
        while k and table[v[k - 1]][v[k]] is None:
            k -= 1
        req = _Request(self, w)
        if k <= 1 and w:
            return self._drive(self._ask(w), req)
        self._check_pbw(w[k:])
        out: dict[Word, object] = {}
        self._drive(self._fold(w[:k], {w[k:]: self.field.one}, out, req), req)
        return self._store(w, out, req.made)

    def _letter_times(self, x: int, p: NcPoly) -> NcPoly:
        """nf(x * p) for a letter x and a normal form p, one request: the
        sum of c * nf(x v) over p's terms c * v, each term charged as _fold
        charges it.  Past STEP_BUDGET it names the word x v it was at."""
        cache, out = self._nf_cache, {}
        req = _Request(self, EMPTY_WORD)
        for v, c in p.terms.items():
            w = req.word = (x,) + v
            terms = cache.get(w)
            if terms is None:
                terms = req.made.get(w)
            if terms is None:
                terms = self._drive(self._ask(w), req)
            req.charge(len(terms) * len(w))
            _add_scaled(out, terms, c)
        return NcPoly(self.alphabet, out, self.field, _clean=self.field.reduce is None)

    def nf_word(self, w: Word, direction: str = "leftmost") -> NcPoly:
        """nf of the word w, from the engine direction names (see nf)."""
        return self.nf(NcPoly.from_word(self.alphabet, w, field=self.field), direction)

    def _sum_scaled(self, pairs) -> NcPoly:
        """sum of c * p over (p, c) pairs, accumulated in one dict."""
        out: dict[Word, object] = {}
        for p, c in pairs:
            _add_scaled(out, p.terms.items(), c)
        return NcPoly(self.alphabet, out, self.field, _clean=self.field.reduce is None)

    def nf(self, p: NcPoly, direction: str = "leftmost") -> NcPoly:
        """The normal form of p.  The default, "leftmost", is the cached
        engine (_nf_terms), which rewrites by letter products, not leftmost
        redexes; normal forms are unique in a complete spec, so its results
        are the leftmost ones.  Any other direction goes to the uncached
        reduce_by, which rewrites in that direction.  In a partial spec,
        such as the daha bootstrap's, nf gives a candidate, which the
        bootstrap accepts only once its clearing residual reduces to zero."""
        if direction != "leftmost":
            return reduce_by(self, p, direction)
        out: dict[Word, object] = {}
        for w, c in p.terms.items():
            _add_scaled(out, self._nf_terms(w), c)
        return NcPoly(self.alphabet, out, self.field, _clean=self.field.reduce is None)

    def mul(self, *factors: NcPoly) -> NcPoly:
        """Normal form of the product of factors, none of them need be normal.

        Computed right to left: the last factor's normal form, on which each
        earlier factor acts in turn (_act).  Normal forms are unique, so the
        order of evaluation changes no result."""
        out = self.nf(factors[-1])
        for a in reversed(factors[:-1]):
            out = self._act(a, out)
        return out

    def _act(self, a: NcPoly, b: NcPoly) -> NcPoly:
        """nf(a * b), for b already in normal form."""
        return self._acts(b)(a)

    def _acts(self, b: NcPoly) -> Callable[[NcPoly], NcPoly]:
        """The map a -> nf(a * b), for b already in normal form.

        Each word of a acts on b one letter at a time, right to left: a
        tail_map with image(()) = b and image(x u) = nf(x * image(u)), one
        _letter_times, the words' images then summed with a's coefficients.
        The tail map lives as long as this map does, so words that share a
        suffix share the work, within one left factor and across every left
        factor the map is applied to.
        """
        image = tail_map(lambda x, u, img: self._letter_times(x, img), b)
        return lambda a: self._sum_scaled((image(w), c) for w, c in a.terms.items())

    # -- other coefficient fields ----------------------------------------------

    def over(self, field) -> "AlgebraSpec":
        """This presentation, over RAT, carried into another coefficient
        field: each core rule's coefficients through field.eval (carry), the
        auxiliary rules generated again over field.  QQField(q0, t0) gives
        it at a rational point, Residues over Z/N at a table of points."""
        rules = [RewriteRule(r.lhs, carry(r.rhs, field), r.tag) for r in self.rules]
        return AlgebraSpec(self.alphabet, rules, self.pbw, self.q_central, field=field, partial=self.partial)

    def at_points(self) -> "AlgebraSpec":
        """This presentation over Z/N at POINTS, over(Residues()), which the
        rank families rewrite in.  It is built once per point table, POINTS
        being read at each call, and kept, with its own normal-form cache,
        as long as this spec lives."""
        points = tuple(POINTS)
        spec = self._at_points.get(points)
        if spec is None:
            spec = self._at_points[points] = self.over(Residues(points))
        return spec


def carry(p: NcPoly, field) -> NcPoly:
    """p, a polynomial over RAT, with each coefficient carried into field
    by field.eval; terms whose image is 0 are dropped."""
    return NcPoly(p.alphabet, {w: field.eval(c) for w, c in p.terms.items()}, field)


# ---------------------------------------------------------------------------
# auxiliary rule generation
# ---------------------------------------------------------------------------

def _pair(kappa: tuple[int, int], d: tuple[int, int]) -> int:
    """<kappa, d>: a q-central letter of kappa moves past an element of
    bidegree d at the cost of q to this power."""
    return kappa[0] * d[0] + kappa[1] * d[1]


def generate_aux_rules(spec: AlgebraSpec) -> list[RewriteRule]:
    """Commutation and cancellation rules for invertible q-central letters.

    For every misordered letter pair not already covered by a core rule,
    x*y -> q^e y*x is emitted where e comes from the q-centrality exponent
    table of whichever letter is declared q-central; cancellations x*xi -> 1
    are emitted for the declared letters' inverse pairs.
    """
    alph = spec.alphabet
    ranks = spec.pbw.ranks
    kappa: dict[int, tuple[int, int]] = {}
    for qc in spec.q_central:
        i = alph.index(qc.name)
        kappa[i] = qc.kappa
        j = alph.inverse_index.get(i)
        if j is not None:
            kappa[j] = (-qc.kappa[0], -qc.kappa[1])
    core_lhs = {r.lhs for r in spec.rules}
    # letters rewritten away by a length-1 rule never reach a misordered pair
    eliminated = {r.lhs[0] for r in spec.rules if len(r.lhs) == 1}
    out: list[RewriteRule] = []
    n = len(alph)
    for x in range(n):
        for y in range(n):
            if x in eliminated or y in eliminated:
                continue
            pair = (x, y)
            if pair in core_lhs:
                continue
            if ranks[x] > ranks[y]:
                dy = alph.gens[y].bidegree
                dx = alph.gens[x].bidegree
                if x in kappa:
                    e = _pair(kappa[x], dy)
                    if y in kappa:
                        e2 = -_pair(kappa[y], dx)
                        if e2 != e:
                            raise SpecError(
                                f"inconsistent q-central exponents for "
                                f"{alph.gens[x].name}*{alph.gens[y].name}"
                            )
                elif y in kappa:
                    e = -_pair(kappa[y], dx)
                else:
                    raise SpecError(
                        f"{alph.algebra_id}: no rule covers misordered pair "
                        f"{alph.gens[x].name}*{alph.gens[y].name}"
                    )
                rhs = NcPoly(alph, {(y, x): spec.field.q_power(e)}, spec.field)
                out.append(RewriteRule(pair, rhs, f"comm:{alph.gens[x].name}*{alph.gens[y].name}"))
            elif ranks[x] == ranks[y] and alph.inverse_index.get(x) == y and (x in kappa or y in kappa):
                rhs = NcPoly(alph, {EMPTY_WORD: spec.field.one}, spec.field)
                out.append(RewriteRule(pair, rhs, f"cancel:{alph.gens[x].name}*{alph.gens[y].name}"))
    return out


# ---------------------------------------------------------------------------
# operations: normal form, ambiguities, traces, Hilbert tables, ranks
# ---------------------------------------------------------------------------

def normal_form(spec: AlgebraSpec, p: NcPoly, direction: str = "leftmost") -> NcPoly:
    if p.alphabet is not spec.alphabet:
        raise EngineError("element does not belong to this algebra")
    return spec.nf(p, direction)


def tail_map(step, empty) -> Callable[[Word], object]:
    """The map f over words with f(()) = empty and f(x u) = step(x, u, f(u)).

    f keeps the image of every tail it has made for as long as f lives, so
    step runs once per distinct nonempty tail over all the words f is
    applied to; nothing outlives f."""
    images = {EMPTY_WORD: empty}

    def f(w: Word):
        k = 0
        while w[k:] not in images:
            k += 1
        for j in range(k - 1, -1, -1):
            u = w[j + 1:]
            images[w[j:]] = step(w[j], u, images[u])
        return images[w]

    return f


class AmbiguityReport(NamedTuple):
    monomial: Word
    left_tag: str
    right_tag: str
    left_first: NcPoly
    right_first: NcPoly
    resolved: bool

    def to_json(self, spec: AlgebraSpec) -> dict:
        alph = spec.alphabet

        def poly_json(p: NcPoly):
            return [[alph.word_str(w), coeff_str(c)] for w, c in p.sorted_terms()]

        return {
            "algebra": spec.algebra_id,
            "monomial": alph.word_str(self.monomial),
            "rules": [self.left_tag, self.right_tag],
            "resolved": self.resolved,
            "left_first": poly_json(self.left_first),
            "right_first": poly_json(self.right_first),
        }


def _apply_rule_at(spec: AlgebraSpec, w: Word, rule: RewriteRule, i: int) -> NcPoly:
    pre, post = w[:i], w[i + len(rule.lhs):]
    terms = {pre + rw + post: rc for rw, rc in rule.rhs.terms.items()}
    return NcPoly(spec.alphabet, terms, spec.field)


def check_ambiguities(spec: AlgebraSpec) -> list[AmbiguityReport]:
    """One report per overlap or inclusion ambiguity among the core rules."""
    reports: list[AmbiguityReport] = []
    rules = spec.rules
    for r1 in rules:
        for r2 in rules:
            l1, l2 = r1.lhs, r2.lhs
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k :] == l2[:k]:
                    mono = l1 + l2[k:]
                    left = spec.nf(_apply_rule_at(spec, mono, r1, 0))
                    right = spec.nf(_apply_rule_at(spec, mono, r2, len(l1) - k))
                    reports.append(
                        AmbiguityReport(mono, r1.tag, r2.tag, left, right, left == right)
                    )
            if r1 is not r2 and len(l2) < len(l1):
                for j in range(len(l1) - len(l2) + 1):
                    if l1[j : j + len(l2)] == l2:
                        mono = l1
                        left = spec.nf(_apply_rule_at(spec, mono, r1, 0))
                        right = spec.nf(_apply_rule_at(spec, mono, r2, j))
                        reports.append(
                            AmbiguityReport(mono, r1.tag, r2.tag, left, right, left == right)
                        )
    reports.sort(key=lambda r: (len(r.monomial), r.monomial, r.left_tag, r.right_tag))
    return reports


def _check_direction(direction: str) -> None:
    """Refuse any direction but these two; _find_redex reads any other as rightmost."""
    if direction not in ("leftmost", "rightmost"):
        raise ValueError(f"direction must be 'leftmost' or 'rightmost', not {direction!r}")


def reduce_by(spec: AlgebraSpec, p: NcPoly, direction: str, keep=()) -> NcPoly:
    """The reference reducer: rewrite in each word of p the redex
    _find_redex(w, direction) names, "leftmost" or "rightmost", until no
    word outside keep has one; the words in keep stay as they are.

    It keeps no cache, rewrites whole words and checks no word against
    the PBW set, so it shares nothing with the cached engine behind nf but
    the rules; it raises NonTermination past STEP_BUDGET rewrites."""
    _check_direction(direction)
    pending = dict(p.terms)
    out: dict[Word, object] = {}
    steps = 0
    while pending:
        u, c = pending.popitem()
        hit = None if u in keep else spec._find_redex(u, direction)
        if hit is None:
            out[u] = out[u] + c if u in out else c
            continue
        steps += 1
        if steps > STEP_BUDGET:
            raise _over_budget(spec, p.terms)
        i, _, rule = hit
        _add_scaled(pending, _apply_rule_at(spec, u, rule, i).terms.items(), c)
    return NcPoly(spec.alphabet, out, spec.field)


def straighten_trace(spec: AlgebraSpec, w: Word, first: str = "leftmost") -> NcPoly:
    """Reduce w resolving its first ambiguity in the requested direction.

    The reduction then runs leftmost to exhaustion, except that a term whose
    whole word is the lhs of a power rule (T^2, R^2, r^2) is kept symbolic.
    This is the bookkeeping convention of a by-hand diamond computation:
    reordering steps are applied freely, while a bare power is left alone
    because the branches are compared before its expansion would be
    triggered.  The kept powers are not normal words, so the trace runs on
    reduce_by, not on the cached engine; a breach of its step budget names
    the traced word.
    """
    _check_direction(first)
    hit = spec._find_redex(w, first)
    if hit is None:
        return NcPoly.from_word(spec.alphabet, w, field=spec.field)
    powers = {r.lhs for r in spec.rules if len(r.lhs) > 1 and len(set(r.lhs)) == 1}
    i, _, rule = hit
    try:
        return reduce_by(spec, _apply_rule_at(spec, w, rule, i), "leftmost", powers)
    except NonTermination as e:
        raise NonTermination(f"{e}, tracing {spec.alphabet.word_str(w)}") from None


class HilbertTable(NamedTuple):
    algebra: str
    max_bidegree: tuple[int, int]
    dims: dict[tuple[int, int], int]

    def dim(self, M: int, N: int) -> int:
        return self.dims.get((M, N), 0)

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "max": list(self.max_bidegree),
            "dims": [[m, n, d] for (m, n), d in sorted(self.dims.items())],
        }


#: most normal words one Hilbert table or basis bijection may enumerate;
#: each bidegree also counts as one word, so a grid of empty ones is bounded
WORD_BUDGET = 100_000


class WordBudget:
    """Shared count of the words enumerated for one table; past WORD_BUDGET
    it raises EngineError naming the algebra and the bidegree reached."""

    def __init__(self):
        self.spent = 0

    def words(self, spec: AlgebraSpec, m: int, n: int):
        """spec's normal words of bidegree (m, n), charged one by one after
        one charge for the bidegree itself."""
        self.charge(spec, m, n)
        for w in spec.pbw.enumerate(m, n):
            self.charge(spec, m, n)
            yield w

    def charge(self, spec: AlgebraSpec, m: int, n: int) -> None:
        self.spent += 1
        if self.spent > WORD_BUDGET:
            raise EngineError(
                f"{spec.algebra_id}: more than {WORD_BUDGET} words enumerated "
                f"by bidegree ({m}, {n}); lower --max"
            )


def hilbert_table(spec: AlgebraSpec, max_bidegree: tuple[int, int]) -> HilbertTable:
    M, N = max_bidegree
    dims = {}
    budget = WordBudget()
    for m in range(M + 1):
        for n in range(N + 1):
            cnt = 0
            for w in budget.words(spec, m, n):
                if not spec.pbw.accepts(w):
                    raise EngineError("enumerator produced a non normal-form word")
                cnt += 1
            dims[(m, n)] = cnt
    return HilbertTable(spec.algebra_id, (M, N), dims)


# The specialisation points (q0, t0), each with the prime p it is taken mod.
# Every rank and kernel dimension at the points is read through Residues,
# which evaluates each coefficient at point i mod p_i (RatCoeff.eval_mod).
# For each point the bound chain is
#
#     rank mod p_i at point i <= rank over Q at point i <= generic rank,
#
# the generic rank being taken over Frac(Z[q,t]).  So a rank taken mod p_i
# is a lower bound, and a kernel dimension taken mod p_i an upper bound.
#
# The rank families build their rows by rewriting over Z/N (N below), in the
# presentation AlgebraSpec.at_points carries there.  Evaluation at point i
# mod p_i, and so the residue mod N, is a ring map on the coefficients that
# have a value there.  Building the residue spec evaluates every core rule
# coefficient, so one with no value mod some p_i raises CoeffError then,
# naming p_i; the auxiliary rules' q-powers need only q0 to be a unit mod
# p_i, as 2, 3 and 5 are.  The ring map carries each rule, and each
# reduction that resolves an ambiguity among the rules, so the ambiguities
# resolve over Z/N too, and Bergman's diamond lemma, which holds over any
# commutative ring, makes normal forms over Z/N unique.  A symbolic
# reduction carried term by term is a reduction over Z/N, so the residue
# normal form of a word is the residue of its symbolic one.  Inside the
# letter products (_drive, _fold) and _add_scaled the residues are added and
# multiplied as plain ints, and a term that is 0 mod N but not as an int
# stays alive until Residues.reduce brings each stored normal form back to
# [0, N); Z -> Z/N is a ring map, so no residue changes.  The residue products (_acts) and E
# images (AdjointAction.images) are then the residues of the exact ones,
# and the chain holds for the rows they make.
#
# The primes keep out the cases the paper excludes, q a root of unity and
# t = +-i.  They are the three largest primes below 2^61 that are 3 mod 4,
# after the Mersenne prime 2^61 - 1, mod which 2 has order 61.  As each is
# 3 mod 4, t^2 + 1 has no root mod it, and q0 = 2, 3, 5 each have
# multiplicative order above 10^4 mod every one, so no q^k - 1 with
# 0 < k <= 10^4 vanishes at them.  Any other denominator vanishes mod p_i
# only by chance, and then raises CoeffError naming p_i.
#
# The ranks at all points come from one elimination.  Residues joins each
# entry's residues into one residue mod N = p_1 p_2 p_3 (the Chinese
# remainder theorem, so the primes must be distinct), and linalg.frac_rank
# eliminates mod N.  Z/N is GF(p_1) x GF(p_2) x GF(p_3), and reduction mod
# p_i is a ring map, so the elimination mod N is the three eliminations
# mod p_i done side by side.  While every leading entry is a unit mod N it
# is nonzero mod each p_i, so every step is the same step in all three
# fields, a row that vanishes mod N vanishes mod each p_i, and the pivot
# count is exactly the rank mod p_i at point i, for each i.  A leading entry
# that is not a unit is zero mod some p_i and not mod another: the points
# differ at that step.  Then frac_rank returns None, and Residues.ranks
# eliminates the residues mod each p_i apart, so per-point ranks stay exact
# and a disagreement surfaces.
POINTS = (
    (Fraction(2), Fraction(3), 2**61 - 45),
    (Fraction(3), Fraction(2), 2**61 - 229),
    (Fraction(5), Fraction(7), 2**61 - 465),
)


def specialisation_point(q0, t0) -> tuple[Fraction, Fraction]:
    """(q0, t0) as rationals; raises EngineError on a malformed value and at
    the points the presentations exclude, q in {0, 1, -1} or t = 0, where
    q - 1/q or a negative power of q or t has no value."""
    try:
        q0, t0 = Fraction(q0), Fraction(t0)
    except (ValueError, ZeroDivisionError):
        raise EngineError(f"specialisation point ({q0}, {t0}) is not a pair of rationals") from None
    if q0 in (0, 1, -1) or t0 == 0:
        raise EngineError(f"degenerate specialisation point ({q0}, {t0})")
    return q0, t0


class Residues:
    """The ring Z/N at a table of points (q0, t0, p), POINTS unless points
    is given, N being the product of the table's primes, which must be
    distinct: the residue of a coefficient c is the one x mod N with
    x = c(q0, t0) mod p for each (q0, t0, p) (the Chinese remainder
    theorem).  POINTS is read when the object is made, so rebinding it moves
    every object made after it.  A denominator that vanishes mod p at its
    point raises CoeffError naming p, even where it has a value over Q.

    It is a coefficient field for AlgebraSpec.over, as RAT and QQField are:
    zero, one, q_power, eval and reduce; no parser runs over it, so it lacks
    their from_int and t_power.  Its values are plain ints in [0, N), and
    nothing divides by them.  The engine adds and multiplies them as ints
    and brings a result back to [0, N) by reduce once per normal form (see
    POINTS).
    """

    def __init__(self, points: Optional[Sequence[tuple[Fraction, Fraction, int]]] = None):
        self.points = tuple(POINTS if points is None else points)
        self.primes = tuple(p for _, _, p in self.points)
        if len(set(self.primes)) != len(self.primes):
            raise EngineError(f"the specialisation points' primes repeat: {list(self.primes)}")
        n = self.n = prod(self.primes)
        # e_i is 1 mod primes[i] and 0 mod the others
        self._crt = [(q0, t0, p, n // p * pow(n // p, -1, p)) for q0, t0, p in self.points]
        self._memo: dict = {}
        self.zero, self.one = 0, 1

    def eval(self, c) -> int:
        """The residue of the coefficient c, evaluated once per value: the
        memo is keyed by c, and RatCoeff hashes and compares by value."""
        v = self._memo.get(c)
        if v is None:
            v = self._memo[c] = sum(e * c.eval_mod(q0, t0, p) for q0, t0, p, e in self._crt) % self.n
        return v

    @cached_property
    def _q(self) -> int:
        return self.eval(RC_Q)

    def q_power(self, k: int) -> int:
        return pow(self._q, k, self.n)

    def reduce(self, terms: dict) -> dict:
        """{key: value mod N} for {key: int}, zero residues dropped."""
        n = self.n
        return {k: r for k, c in terms.items() if (r := c % n)}

    def row(self, terms: dict) -> dict:
        """{key: residue} for {key: coefficient}, zero residues dropped."""
        return {k: v for k, c in terms.items() if (v := self.eval(c))}

    def ranks(self, rows: Sequence[dict]) -> tuple[int, ...]:
        """The rank of the residue rows {column: residue mod N} at each
        point, in order, each mod its prime: lower bounds on the generic
        rank.  One elimination mod N gives all of them while every leading
        entry is a unit; otherwise the residues are eliminated mod each
        prime apart (see POINTS)."""
        rank = linalg.frac_rank(rows, self.n)
        if rank is not None:
            return (rank,) * len(self.primes)
        return tuple(linalg.frac_rank([{k: r for k, v in row.items() if (r := v % p)} for row in rows], p)
                     for p in self.primes)

    def rank(self, rows: Sequence[dict], what: str) -> int:
        """The rank of the residue rows, which must be the same at every
        point (ranks), a lower bound on their generic rank; see agreed."""
        ranks = self.ranks(rows)
        return self.agreed(what, ranks, ranks)

    def agreed(self, what: str, values: Sequence[int], ranks: Sequence[int]) -> int:
        """The one value of values, one per point and each read off that
        point's rank; raises EngineError naming what, each point with its
        prime and its rank, when they differ, since a drop at one point
        would otherwise be hidden."""
        if len(set(values)) != 1:
            raise EngineError(f"{what} disagrees across points: {list(values)}, from " + ", ".join(
                f"rank {r} at (q, t) = ({q0}, {t0}) mod {p}"
                for (q0, t0, p), r in zip(self.points, ranks)))
        return values[0]


class RankResult(NamedTuple):
    rank: int
    agreeing: int
    per_point: tuple[int, ...]


def rank_of_family(spec: AlgebraSpec, elems: Sequence[NcPoly]) -> RankResult:
    """Maximum over POINTS of the ranks of elems' coefficient rows, each a
    rank mod the point's prime (Residues.ranks): a lower bound on their
    generic rank."""
    degs = set()
    for p in elems:
        bad = next((w for w in p.terms if spec._find_redex(w, "leftmost")), None)
        if bad is not None:
            raise EngineError(
                f"{spec.algebra_id}: rank_of_family requires normal-form inputs, "
                f"and word {spec.alphabet.word_str(bad)} has a redex"
            )
        d = p.bidegree()
        if d is None:
            raise EngineError("rank_of_family requires homogeneous inputs")
        if d != "any":
            degs.add(d)
    if len(degs) > 1:
        raise EngineError(f"inputs span several bidegrees: {sorted(degs)}")
    res = Residues()
    per_point = res.ranks([res.row(p.terms) for p in elems])
    rank = max(per_point)
    agreeing = sum(1 for r in per_point if r == rank)
    return RankResult(rank, agreeing, per_point)


def divide(spec: AlgebraSpec, factor: NcPoly, p: NcPoly, right: bool = False):
    """Exact division: the x with normal_form(factor * x) = p, or with
    normal_form(x * factor) = p if right is set; None if none is found.
    factor and p are normal forms, so each product is one spec._act.  On
    the right every product ends in factor, so one spec._acts(factor) map
    makes them all, and quotient words that end alike share its tail_map's
    suffix images.

    Leading-word division under spec.pbw.order_key: the remainder's leading
    word w, less lead(factor), is the next quotient word u, with the
    coefficient that cancels w in nf(factor * u).  Leading words fall in a
    well-order, so the loop ends.  Where leading words multiply,
    lead(nf(f * g)) = lead(f) + lead(g), the division is complete and None
    means p is no multiple.  They do once every generator pair's
    nf(x_i * x_j) leads with e_i + e_j (Kandri-Rody & Weispfenning's algebras
    of solvable type, Plural's G-algebras): oq's bidegree weights and dq's
    declared weights meet that, and unit weights on dq do not.

    No closing product certifies the quotient, because none is needed.  Each
    step cancels the remainder's leading word w and leaves only smaller ones,
    as lead(nf(factor * u)) = w, so every quotient word is new.  The loop
    returns only once the remainder is exactly 0, so p is the sum of
    c_u * nf(factor * u) over the quotient's terms c_u * u, which is
    nf(factor * x) as the product is linear in x (on the right likewise).
    """
    pbw = spec.pbw

    def lead(poly: NcPoly) -> Word:
        return max(poly.terms, key=pbw.order_key)

    flead = pbw.exponents(lead(factor))
    times = spec._acts(factor) if right else partial(spec._act, factor)
    rem, quo = p, {}
    while rem:
        w = lead(rem)
        d = [a - b for a, b in zip(pbw.exponents(w), flead)]
        u = pbw.word(d) if min(d) >= 0 else None
        if u is None:
            return None
        up = NcPoly.from_word(spec.alphabet, u, field=spec.field)
        img = times(up)
        if not img or lead(img) != w:
            return None
        quo[u] = rem.terms[w] / img.terms[w]
        rem = rem - img.scale(quo[u])
    return NcPoly(spec.alphabet, quo, spec.field, _clean=True)


def q_central_residual(spec: AlgebraSpec, g: NcPoly, kappa: tuple[int, int], h: NcPoly) -> NcPoly:
    """normal_form(g*h - q^<kappa,(M,N)> h*g) for h of bidegree (M, N), g a
    QCentralGen's generator or a Denominator's body and kappa its kappa."""
    d = h.bidegree()
    if d in (None, "any"):
        raise EngineError("q-centrality check needs a homogeneous element")
    return spec.nf(g * h - (h * g).scale(spec.field.q_power(_pair(kappa, d))))


# ---------------------------------------------------------------------------
# Ore localisation at q-central elements
# ---------------------------------------------------------------------------

class Denominator(NamedTuple):
    """A homogeneous invertible element with body*h = q^<kappa, bideg h> h*body,
    the QCentralGen convention; its inverse prints as inverse_name."""

    inverse_name: str
    body: NcPoly
    kappa: tuple[int, int]


def _on_right(spec: AlgebraSpec, den: Denominator) -> bool:
    """Whether den multiplies a body from the right: every letter of den
    ranks after every letter outside it in spec.pbw.ranks, so w * den only
    sorts letters inside den's own blocks where den * w would move them
    past all of w."""
    ranks = spec.pbw.ranks
    own = {x for w in den.body.terms for x in w}
    others = [r for i, r in enumerate(ranks) if i not in own]
    return bool(others) and min(ranks[i] for i in own) > max(others)


class LocElem:
    """den_1^-e_1 ... den_k^-e_k * body in the localisation of spec at the
    denominators dens, kept on the left in their declared order.

    Every q-power that moving a denominator costs follows from its kappa and
    the bidegrees involved, so products, sums and equality are exact.  The
    same holds for multiplying a body by a denominator: den * h equals
    q^<kappa, deg h> h * den, so _at_loc and reduced put den on whichever
    side _on_right picks from the spec, and the element does not change.
    dq's detq(D) takes the right and detq(A) and oq's detq(L) the left.

    Every body is a normal form, so products here call spec._act and
    spec._acts directly and skip the normal form of the right factor that
    spec.mul would take.
    """

    __slots__ = ("spec", "dens", "exps", "body")

    def __init__(self, spec: AlgebraSpec, dens: Sequence[Denominator], body: NcPoly,
                 exps: Optional[Sequence[int]] = None):
        self.spec = spec
        self.dens = dens
        self.exps = (0,) * len(dens) if exps is None else tuple(exps)
        if len(self.exps) != len(dens) or any(e < 0 for e in self.exps):
            raise EngineError("localisation exponents must be nonnegative, one per denominator")
        self.body = spec.nf(body)
        if not self.body:
            self.exps = (0,) * len(dens)

    def _new(self, exps, body: NcPoly) -> "LocElem":
        """The element over the same denominators; body is already normal and
        exps valid, so the constructor's checks and normal form are skipped."""
        out = object.__new__(LocElem)
        out.spec, out.dens, out.body = self.spec, self.dens, body
        out.exps = tuple(exps) if body else (0,) * len(self.dens)
        return out

    def _cross(self, e, f) -> int:
        """The c with den^-e den^-f = q^c den^-(e+f): den_j^-f_j moves left past
        den_i^-e_i for i > j, and den_i^-a den_j^-b = q^(a b <kappa_i, deg den_j>)
        den_j^-b den_i^-a."""
        degs = [den.body.bidegree() for den in self.dens]
        return sum(e[i] * f[j] * _pair(self.dens[i].kappa, degs[j])
                   for i in range(len(e)) for j in range(i))

    def __bool__(self):
        return bool(self.body)

    def scalar_coeff(self):
        """The coefficient if this is a multiple of 1, else None."""
        return None if any(self.exps) else self.body.scalar_coeff()

    def _at_loc(self, exps) -> NcPoly:
        """Body of the same element written over den^-exps, exps >= self.exps:
        multiply on the left by den_k^d_k ... den_1^d_1 with d = exps - self.exps,
        with the q-power from moving each den_j^d_j past den_i^-e_i, i > j.
        Each den_j acts on the normal body through spec._act: as
        den_j * out on the left, or, where _on_right holds, as
        out' * den_j with out' = out with each word w scaled by
        q^<kappa_j, deg w>, which is the same product by q-centrality."""
        delta = [g - e for g, e in zip(exps, self.exps)]
        out = self.body
        for den, d in zip(self.dens, delta):
            right = d and _on_right(self.spec, den)
            for _ in range(d):
                out = (self.spec._act(self._graded(out, den.kappa), den.body) if right
                       else self.spec._act(den.body, out))
        return out.scale(self.spec.field.q_power(self._cross(self.exps, delta)))

    def __eq__(self, other):
        if not isinstance(other, LocElem):
            return NotImplemented
        exps = tuple(map(max, self.exps, other.exps))
        return self._at_loc(exps) == other._at_loc(exps)

    def __add__(self, other: "LocElem") -> "LocElem":
        exps = tuple(map(max, self.exps, other.exps))
        return self._new(exps, self._at_loc(exps) + other._at_loc(exps))

    def __neg__(self):
        return self._new(self.exps, -self.body)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LocElem":
        return self._new(self.exps, self.body.scale(c))

    def _graded(self, p: NcPoly, kappa, shift: int = 0) -> NcPoly:
        """p with each word w scaled by q^(shift + <kappa, deg w>)."""
        alph = self.spec.alphabet
        return NcPoly(alph, {w: c * self.spec.field.q_power(shift + _pair(kappa, alph.word_bidegree(w)))
                             for w, c in p.terms.items()}, self.spec.field, _clean=True)

    def _moved(self, exps) -> NcPoly:
        """The body, each word scaled by the q-power that den^-exps costs
        moving left past it and then past self's denominators, so that
        self * den^-exps = den^-(self.exps + exps) * self._moved(exps)."""
        kappa = [sum(f * den.kappa[k] for f, den in zip(exps, self.dens)) for k in (0, 1)]
        return self._graded(self.body, kappa, self._cross(self.exps, exps))

    def __mul__(self, other: "LocElem") -> "LocElem":
        return next(LocElem.products([self], other))

    @staticmethod
    def products(lefts: Sequence["LocElem"], right: "LocElem") -> Iterator["LocElem"]:
        """x * right for each x in lefts, in turn, so a caller may drop each
        product before the next is made.  right's denominators move left
        past x's body and denominators, and the q-scaled body acts on
        right's normal body through one spec._acts map, so the lefts share
        its suffix images."""
        times_right = right.spec._acts(right.body)
        for x in lefts:
            yield x._new([a + b for a, b in zip(x.exps, right.exps)], times_right(x._moved(right.exps)))

    def reduced(self) -> "LocElem":
        """Strip denominator factors from the body where divide finds
        an exact quotient, last denominator first, until none divides, so
        den^k * den^-k renders as 1 for every k.

        A denominator that _on_right puts on the right is divided off the
        right: body = x * den = den * x' with x' = x with each word w scaled
        by q^-<kappa, deg w>.  The algebras are domains, so x' is the one
        left quotient, and divide finds it on either side or on neither."""
        exps, body = list(self.exps), self.body
        changed = True
        while changed and body:
            changed = False
            for i in reversed(range(len(exps))):
                if exps[i] > 0:
                    den = self.dens[i]
                    right = _on_right(self.spec, den)
                    quo = divide(self.spec, den.body, body, right=right)
                    if quo is not None:
                        # den_i moves left past den_l^-e_l for l > i
                        step = [int(j == i) for j in range(len(exps))]
                        kappa = [-k for k in den.kappa] if right else (0, 0)
                        body = self._graded(quo, kappa, -self._cross(exps, step))
                        exps[i] -= 1
                        changed = True
                        break
        return self._new(exps, body)

    def __str__(self):
        head = "*".join(den.inverse_name if e == 1 else f"{den.inverse_name}^{e}"
                        for den, e in zip(self.dens, self.exps) if e)
        return f"{head}*({self.body})" if head else str(self.body)

    def __repr__(self):
        return f"<{self.spec.algebra_id}: {self}>"
