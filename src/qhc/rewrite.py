"""Generic noncommutative rewriting engine.

An algebra is presented by oriented straightening rules lhs -> rhs where lhs
is a word and rhs a polynomial.  Exhaustive application of the rules computes
normal forms; overlap and inclusion ambiguities between rule left-hand sides
are enumerated and checked for resolution (the diamond condition), which by
Bergman's lemma certifies that the normal-form words are a linear basis.

Two layers of rules are kept:

* core rules: the printed straightening relations of the presentation; the
  ambiguity check runs over these only.
* auxiliary rules: mechanically generated commutations for invertible
  q-central generators and their cancellations.  These implement the Ore
  localisation of the positive cone and never enter the ambiguity count,
  mirroring how the localised algebra is obtained from the positive one.

Termination is enforced two ways: every rule must strictly decrease a
per-algebra lexicographic stack of word statistics (checked word by word at
construction), and every normal-form computation carries a step budget.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .coeffring import RAT, QQField
from .linalg import P, frac_rank
from .ncpoly import EMPTY_WORD, Alphabet, NcPoly, Word


class EngineError(RuntimeError):
    pass


class NonTermination(EngineError):
    pass


class SpecError(ValueError):
    pass


# ---------------------------------------------------------------------------
# word orders
# ---------------------------------------------------------------------------

class WordOrder:
    """Lexicographic stack: weighted inversions, heavy-letter count, length,
    letter tiebreak weights, then plain lex on generator indexes.

    An inverted pair (x before y with rank x > rank y) weighs more when x has
    a lower rank: straightening pushes inversions toward the top-ranked
    letters before they disappear, so this weight strictly drops.
    """

    def __init__(
        self,
        ranks: Sequence[int],
        heavy: Iterable[int] = (),
        tiebreak: Optional[dict[int, int]] = None,
    ):
        self.ranks = tuple(ranks)
        self.heavy = frozenset(heavy)
        self.tiebreak = dict(tiebreak or {})
        self.top = max(self.ranks) + 1

    def key(self, w: Word):
        ranks, top = self.ranks, self.top
        inv = 0
        n = len(w)
        for i in range(n):
            ri = ranks[w[i]]
            for j in range(i + 1, n):
                if ri > ranks[w[j]]:
                    inv += top - ri
        hv = sum(1 for x in w if x in self.heavy) if self.heavy else 0
        tb = sum(self.tiebreak.get(x, 0) for x in w) if self.tiebreak else 0
        return (inv, hv, n, tb, w)

    def less(self, u: Word, v: Word) -> bool:
        return self.key(u) < self.key(v)


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
    inverse's block (daha's Ti); the algebra's WordOrder is built from it.
    """

    def __init__(self, alphabet: Alphabet, blocks: Sequence[tuple[str, Optional[str], Optional[int]]]):
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
        itertools.combinations_with_replacement).  dq's invariant_dimension
        takes its column order from this; the reverse order made its
        elimination three to four times slower.
        """
        alph = self.alphabet
        blocks = [(p, cap, alph.gens[p].bidegree) for p, _, cap in self.blocks]
        signed = any(a < 0 or b < 0 for _, _, (a, b) in blocks)

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
            lo = 0
            if not signed:
                # skip exponents that leave more degree than the later
                # blocks can take up: those branches end without a word
                room_m = room_n = 0
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

    def __init__(self, lhs: Word, rhs: NcPoly, tag: str, order: Optional[WordOrder] = None):
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
        if order is not None:
            kl = order.key(lhs)
            for w in rhs.terms:
                if not order.key(w) < kl:
                    raise SpecError(
                        f"rule {tag}: rhs word {alph.word_str(w)} does not decrease "
                        f"the termination order"
                    )

    def __repr__(self):
        return f"<rule {self.tag}>"


class QCentralGen(NamedTuple):
    """An invertible generator g with g*h = q^<kappa, bideg h> h*g."""

    name: str
    kappa: tuple[int, int]


DEFAULT_STEP_BUDGET = 10**6


class AlgebraSpec:
    """A presentation with oriented rules, a termination order and a PBW map."""

    def __init__(
        self,
        alphabet: Alphabet,
        rules: Sequence[RewriteRule],
        order: WordOrder,
        pbw,
        q_central: Sequence[QCentralGen] = (),
        field=RAT,
        step_budget: int = DEFAULT_STEP_BUDGET,
        validate_pbw: bool = True,
        aux_rules: Optional[Sequence[RewriteRule]] = None,
    ):
        self.alphabet = alphabet
        self.algebra_id = alphabet.algebra_id
        self.rules = list(rules)
        self.order = order
        self.pbw = pbw
        self.q_central = list(q_central)
        self.field = field
        self.step_budget = step_budget
        self.validate_pbw = validate_pbw
        if aux_rules is None:
            self.aux_rules = generate_aux_rules(self)
        else:
            self.aux_rules = list(aux_rules)
        self._index: dict[int, dict[Word, RewriteRule]] = {}
        for r in self.rules + self.aux_rules:
            self._index.setdefault(len(r.lhs), {})
            if r.lhs in self._index[len(r.lhs)]:
                raise SpecError(f"duplicate rule lhs {alphabet.word_str(r.lhs)}")
            self._index[len(r.lhs)][r.lhs] = r
        self._lengths = sorted(self._index)
        self._nf_cache: dict[str, dict[Word, NcPoly]] = {"leftmost": {}, "rightmost": {}}
        # standalone powers of one generator (R^2 and the like) are kept
        # symbolic by straighten_trace, matching by-hand diamond bookkeeping
        self._lhs_words = frozenset(
            r.lhs for r in self.rules + self.aux_rules
            if len(r.lhs) > 1 and len(set(r.lhs)) == 1
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
        idx = self._index
        n = len(w)
        positions = range(n) if direction == "leftmost" else range(n - 1, -1, -1)
        for i in positions:
            for L in self._lengths:
                if i + L <= n:
                    r = idx[L].get(w[i : i + L])
                    if r is not None:
                        return i, L, r
        return None

    def _reduce_terms(
        self,
        terms: dict[Word, object],
        direction: str,
        frozen_lhs: bool = False,
        check_pbw: Optional[bool] = None,
    ) -> dict[Word, object]:
        if check_pbw is None:
            check_pbw = self.validate_pbw
        cache = None if frozen_lhs else self._nf_cache[direction]
        work = dict(terms)
        out: dict[Word, object] = {}
        steps = 0
        budget = self.step_budget
        while work:
            w = next(iter(work))
            c = work.pop(w)
            if not c:
                continue
            if cache is not None:
                hit = cache.get(w)
                if hit is not None:
                    for hw, hc in hit.terms.items():
                        s = out.get(hw)
                        s = hc * c if s is None else s + hc * c
                        if s:
                            out[hw] = s
                        else:
                            out.pop(hw, None)
                    continue
            if frozen_lhs and w in self._lhs_words:
                s = out.get(w)
                s = c if s is None else s + c
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
                continue
            hit = self._find_redex(w, direction)
            if hit is None:
                if check_pbw and not self.pbw.accepts(w):
                    raise EngineError(
                        f"{self.algebra_id}: irreducible word {self.alphabet.word_str(w)} "
                        f"is outside the normal-form set"
                    )
                s = out.get(w)
                s = c if s is None else s + c
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
                continue
            i, L, rule = hit
            steps += 1
            if steps > budget:
                raise NonTermination(
                    f"{self.algebra_id}: step budget of {budget} exceeded while reducing "
                    + ", ".join(self.alphabet.word_str(t) for t in terms)
                )
            pre, post = w[:i], w[i + L :]
            for rw, rc in rule.rhs.terms.items():
                nw = pre + rw + post
                nc = c * rc
                s = work.get(nw)
                s = nc if s is None else s + nc
                if s:
                    work[nw] = s
                else:
                    work.pop(nw, None)
        return out

    def nf_word(self, w: Word, direction: str = "leftmost") -> NcPoly:
        cache = self._nf_cache[direction]
        hit = cache.get(w)
        if hit is not None:
            return hit
        res = NcPoly(
            self.alphabet,
            self._reduce_terms({w: self.field.one}, direction),
            self.field,
            _clean=True,
        )
        if len(w) <= CACHE_MAX_LEN and len(res.terms) <= CACHE_MAX_TERMS and len(cache) < CACHE_MAX_ENTRIES:
            cache[w] = res
        return res

    def _sum_scaled(self, pairs) -> NcPoly:
        """sum of c * p over (p, c) pairs, accumulated in one dict."""
        out: dict[Word, object] = {}
        for p, c in pairs:
            for hw, hc in p.terms.items():
                s = out.get(hw)
                s = hc * c if s is None else s + hc * c
                if s:
                    out[hw] = s
                else:
                    out.pop(hw, None)
        return NcPoly(self.alphabet, out, self.field, _clean=True)

    def nf(self, p: NcPoly, direction: str = "leftmost") -> NcPoly:
        return self._sum_scaled((self.nf_word(w, direction), c) for w, c in p.terms.items())

    def mul_normal(self, a: NcPoly, b: NcPoly) -> NcPoly:
        """nf(a * b), for b already in (leftmost) normal form.

        Each word of a acts on b one letter at a time, right to left:
        act(()) = b and act(x u) = nf(x * act(u)).  Suffix results are kept
        for this call only, so words of a that share a suffix share the work.
        """
        acts: dict[Word, NcPoly] = {EMPTY_WORD: b}
        for w in a.terms:
            k = 0
            while w[k:] not in acts:
                k += 1
            for j in range(k - 1, -1, -1):
                x = w[j]
                acts[w[j:]] = self.nf(NcPoly(
                    self.alphabet, {(x,) + v: c for v, c in acts[w[j + 1:]].terms.items()},
                    self.field, _clean=True,
                ))
        return self._sum_scaled((acts[w], c) for w, c in a.terms.items())

    def mul(self, *polys: NcPoly) -> NcPoly:
        """Normal form of a product of (any) elements."""
        acc = polys[0]
        for p in polys[1:]:
            acc = self.nf(acc * p)
        return self.nf(acc)

    def is_normal(self, p: NcPoly) -> bool:
        return all(self._find_redex(w, "leftmost") is None for w in p.terms)

    # -- specialisation ----------------------------------------------------------

    def specialize(self, q0, t0) -> "AlgebraSpec":
        fld = QQField(*specialisation_point(q0, t0))

        def conv(rule: RewriteRule) -> RewriteRule:
            rhs = NcPoly(
                self.alphabet,
                {w: fld.eval(c) for w, c in rule.rhs.terms.items()},
                fld,
            )
            return RewriteRule(rule.lhs, rhs, rule.tag, self.order)

        return AlgebraSpec(
            self.alphabet,
            [conv(r) for r in self.rules],
            self.order,
            self.pbw,
            self.q_central,
            field=fld,
            step_budget=self.step_budget,
            validate_pbw=self.validate_pbw,
            aux_rules=[conv(r) for r in self.aux_rules],
        )


CACHE_MAX_LEN = 16
CACHE_MAX_TERMS = 4000
CACHE_MAX_ENTRIES = 400_000


# ---------------------------------------------------------------------------
# auxiliary rule generation
# ---------------------------------------------------------------------------

def generate_aux_rules(spec: AlgebraSpec) -> list[RewriteRule]:
    """Commutation and cancellation rules for invertible q-central letters.

    For every misordered letter pair not already covered by a core rule,
    x*y -> q^e y*x is emitted where e comes from the q-centrality exponent
    table of whichever letter is declared q-central; cancellations x*xi -> 1
    are emitted for the declared letters' inverse pairs.
    """
    alph = spec.alphabet
    ranks = spec.order.ranks
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
                    e = kappa[x][0] * dy[0] + kappa[x][1] * dy[1]
                    if y in kappa:
                        e2 = -(kappa[y][0] * dx[0] + kappa[y][1] * dx[1])
                        if e2 != e:
                            raise SpecError(
                                f"inconsistent q-central exponents for "
                                f"{alph.gens[x].name}*{alph.gens[y].name}"
                            )
                elif y in kappa:
                    e = -(kappa[y][0] * dx[0] + kappa[y][1] * dx[1])
                else:
                    raise SpecError(
                        f"{alph.algebra_id}: no rule covers misordered pair "
                        f"{alph.gens[x].name}*{alph.gens[y].name}"
                    )
                rhs = NcPoly(alph, {(y, x): spec.field.q_power(e)}, spec.field)
                out.append(RewriteRule(pair, rhs, f"comm:{alph.gens[x].name}*{alph.gens[y].name}", spec.order))
            elif ranks[x] == ranks[y] and alph.inverse_index.get(x) == y and (x in kappa or y in kappa):
                rhs = NcPoly(alph, {EMPTY_WORD: spec.field.one}, spec.field)
                out.append(RewriteRule(pair, rhs, f"cancel:{alph.gens[x].name}*{alph.gens[y].name}", spec.order))
    return out


# ---------------------------------------------------------------------------
# operations: normal form, ambiguities, traces, Hilbert tables, ranks
# ---------------------------------------------------------------------------

def normal_form(spec: AlgebraSpec, p: NcPoly, direction: str = "leftmost") -> NcPoly:
    if p.alphabet is not spec.alphabet:
        raise EngineError("element does not belong to this algebra")
    return spec.nf(p, direction)


class AmbiguityReport(NamedTuple):
    monomial: Word
    left_tag: str
    right_tag: str
    left_first: NcPoly
    right_first: NcPoly
    resolved: bool

    def to_json(self, spec: AlgebraSpec) -> dict:
        alph = spec.alphabet
        fld = spec.field

        def poly_json(p: NcPoly):
            return [[alph.word_str(w), fld.to_str(c)] for w, c in p.sorted_terms()]

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


def straighten_trace(spec: AlgebraSpec, w: Word, first: str = "leftmost") -> NcPoly:
    """Reduce w resolving its first ambiguity in the requested direction.

    The reduction then runs to exhaustion except that a term whose whole word
    is a standalone power lhs (such as R^2) is kept symbolic.  This is the
    bookkeeping convention of a by-hand diamond computation: reordering steps
    are applied freely, while a bare power is left alone because the branches
    are compared before its expansion would be triggered.
    """
    if first not in ("leftmost", "rightmost"):
        raise ValueError("first must be 'leftmost' or 'rightmost'")
    hit = spec._find_redex(w, first)
    if hit is None:
        return NcPoly.from_word(spec.alphabet, w, field=spec.field)
    i, _, rule = hit
    started = _apply_rule_at(spec, w, rule, i)
    terms = spec._reduce_terms(dict(started.terms), "leftmost", frozen_lhs=True, check_pbw=False)
    return NcPoly(spec.alphabet, terms, spec.field, _clean=True)


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


DEFAULT_POINTS = (
    (Fraction(2), Fraction(3)),
    (Fraction(3), Fraction(2)),
    (Fraction(5), Fraction(7)),
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


def eval_rows(rows: Sequence[dict], q0: Fraction, t0: Fraction) -> list[dict]:
    """Sparse rows {key: RatCoeff} evaluated at (q0, t0) and reduced mod the
    linalg prime P, zero residues dropped.  A denominator that vanishes mod P
    raises CoeffError, even where it has a value over Q.

    Each distinct coefficient is evaluated once per call: residues are
    memoised by the items of its stored form, lnum and lden, so equal
    coefficients that are distinct objects share one evaluation.  Equal
    coefficients whose dicts list their terms in another order miss the
    memo, which only costs a second evaluation."""
    memo: dict[tuple, int] = {}
    out = []
    for row in rows:
        ev = {}
        for k, c in row.items():
            key = (tuple(c.lnum.items()), c.lden and tuple(c.lden.items()))
            v = memo.get(key)
            if v is None:
                v = memo[key] = c.eval_mod(q0, t0, P)
            if v:
                ev[k] = v
        out.append(ev)
    return out


class RankResult(NamedTuple):
    rank: int
    agreeing: int
    per_point: tuple[int, ...]


def rank_of_family(
    spec: AlgebraSpec,
    elems: Sequence[NcPoly],
    points: Sequence[tuple[Fraction, Fraction]] = DEFAULT_POINTS,
) -> RankResult:
    """Maximum rank mod P of the coefficient matrix of elems over the given
    points.  Each rank is a lower bound on the generic rank over
    Frac(Z[q,t]): rank mod P at a point <= rank over Q there <= generic."""
    if not elems:
        return RankResult(0, len(points), tuple(0 for _ in points))
    degs = set()
    for p in elems:
        if not spec.is_normal(p):
            bad = next(w for w in p.terms if spec._find_redex(w, "leftmost"))
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
    points = [specialisation_point(q0, t0) for q0, t0 in points]
    cols: dict[Word, int] = {}
    rows = [{cols.setdefault(w, len(cols)): c for w, c in p.terms.items()} for p in elems]
    per_point = [frac_rank(eval_rows(rows, q0, t0)) for q0, t0 in points]
    rank = max(per_point)
    agreeing = sum(1 for r in per_point if r == rank)
    return RankResult(rank, agreeing, tuple(per_point))


def agreed_rank(spec: AlgebraSpec, elems: Sequence[NcPoly]) -> int:
    """Rank mod P of the nonzero elems at DEFAULT_POINTS, a lower bound on
    their generic rank; raises when the points disagree, since a rank drop
    at one point would otherwise be hidden."""
    elems = [p for p in elems if p]
    if not elems:
        return 0
    res = rank_of_family(spec, elems)
    if res.agreeing != len(res.per_point):
        raise EngineError(
            f"{spec.algebra_id}: rank disagrees across points: per_point {list(res.per_point)}"
        )
    return res.rank


def divide(spec: AlgebraSpec, factor: NcPoly, p: NcPoly, right: bool = False,
           order: Optional[Sequence[int]] = None):
    """Exact division: the x with normal_form(factor * x) = p, or with
    normal_form(x * factor) = p if right is set; None if none is found.

    Leading-word division under lex order on PBW block exponents, the blocks
    read in the given order (default their own): the remainder's leading
    word w, less lead(factor), is the next quotient word u, with the
    coefficient that cancels w in nf(factor * u).  This finds every quotient
    where lead(nf(factor * u)) = lead(factor) + u, as for the q-determinants
    of dq and oq; where that fails it gives up with None.  Quotient words
    stay in the nonnegative cone, which lex order well-orders, so the loop
    ends.
    """
    pbw = spec.pbw
    if order is None:
        key = pbw.exponents
    else:
        def key(w: Word) -> tuple[int, ...]:
            e = pbw.exponents(w)
            return tuple(e[k] for k in order)

    def lead(poly: NcPoly) -> Word:
        return max(poly.terms, key=key)

    def times(x: NcPoly) -> NcPoly:
        return spec.mul_normal(x, factor) if right else spec.mul_normal(factor, x)

    flead = pbw.exponents(lead(factor))
    rem, quo = p, {}
    while rem:
        w = lead(rem)
        d = [a - b for a, b in zip(pbw.exponents(w), flead)]
        u = pbw.word(d) if min(d) >= 0 else None
        if u is None:
            return None
        img = times(NcPoly.from_word(spec.alphabet, u, field=spec.field))
        if not img or lead(img) != w:
            return None
        quo[u] = rem.terms[w] / img.terms[w]
        rem = rem - img.scale(quo[u])
    x = NcPoly(spec.alphabet, quo, spec.field, _clean=True)
    return x if times(x) == p else None


def q_central_residual(spec: AlgebraSpec, name: str, h: NcPoly) -> NcPoly:
    """normal_form(g*h - q^<kappa,(M,N)> h*g) for a declared q-central g."""
    for qc in spec.q_central:
        if qc.name == name:
            kap = qc.kappa
            break
    else:
        raise EngineError(f"{name} is not declared q-central")
    d = h.bidegree()
    if d in (None, "any"):
        raise EngineError("q-centrality check needs a homogeneous element")
    e = kap[0] * d[0] + kap[1] * d[1]
    g = spec.gen(name)
    return spec.nf(g * h - (h * g).scale(spec.field.q_power(e)))


# ---------------------------------------------------------------------------
# Ore localisation at q-central elements
# ---------------------------------------------------------------------------

class Denominator(NamedTuple):
    """A homogeneous invertible element with body*h = q^<kappa, bideg h> h*body,
    the QCentralGen convention; its inverse prints as inverse_name."""

    inverse_name: str
    body: NcPoly
    kappa: tuple[int, int]


def _pair(kappa: tuple[int, int], d: tuple[int, int]) -> int:
    return kappa[0] * d[0] + kappa[1] * d[1]


class LocElem:
    """den_1^-e_1 ... den_k^-e_k * body in the localisation of spec at the
    denominators dens, kept on the left in their declared order.

    Every q-power that moving a denominator costs follows from its kappa and
    the bidegrees involved, so products, sums and equality are exact.
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
        return LocElem(self.spec, self.dens, body, exps)

    def _q(self, e: int):
        return self.spec.field.q_power(e)

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

    def bidegree(self):
        d = self.body.bidegree()
        if d in (None, "any"):
            return d
        for e, den in zip(self.exps, self.dens):
            dd = den.body.bidegree()
            d = (d[0] - e * dd[0], d[1] - e * dd[1])
        return d

    def _at_loc(self, exps) -> NcPoly:
        """Body of the same element written over den^-exps, exps >= self.exps:
        multiply on the left by den_k^d_k ... den_1^d_1 with d = exps - self.exps,
        with the q-power from moving each den_j^d_j past den_i^-e_i, i > j.
        Each den_j acts on the normal body through spec.mul_normal."""
        delta = [g - e for g, e in zip(exps, self.exps)]
        out = self.body
        for den, d in zip(self.dens, delta):
            for _ in range(d):
                out = self.spec.mul_normal(den.body, out)
        return out.scale(self._q(self._cross(self.exps, delta)))

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

    def _moved(self, exps, sign: int = 1) -> NcPoly:
        """The body, each word scaled by the q-power that den^-exps costs
        moving left past it and then past self's denominators, so that
        self * den^-exps = den^-(self.exps + exps) * self._moved(exps);
        sign=-1 scales by the inverse powers and so undoes the move."""
        alph = self.spec.alphabet
        cross = self._cross(self.exps, exps)
        moved = {}
        for w, c in self.body.terms.items():
            d = alph.word_bidegree(w)
            e = sum(f * _pair(den.kappa, d) for f, den in zip(exps, self.dens))
            moved[w] = c * self._q(sign * (cross + e))
        return NcPoly(alph, moved, self.spec.field, _clean=True)

    def __mul__(self, other: "LocElem") -> "LocElem":
        """Product in the localisation: other's denominators move left past
        self's body and denominators, and the q-scaled body acts on other's
        normal body through spec.mul_normal."""
        body = self.spec.mul_normal(self._moved(other.exps), other.body)
        return self._new([a + b for a, b in zip(self.exps, other.exps)], body)

    def reduced(self) -> "LocElem":
        """Strip denominator factors from the body where divide finds
        an exact quotient, last denominator first, until none divides, so
        den^k * den^-k renders as 1 for every k."""
        exps, body = list(self.exps), self.body
        changed = True
        while changed and body:
            changed = False
            for i in reversed(range(len(exps))):
                if exps[i] > 0:
                    quo = divide(self.spec, self.dens[i].body, body)
                    if quo is not None:
                        # den_i moves left past den_l^-e_l for l > i
                        step = [int(j == i) for j in range(len(exps))]
                        body = quo.scale(self._q(-self._cross(exps, step)))
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
