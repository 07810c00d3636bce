"""Words and noncommutative polynomials over an exact coefficient field.

A word is a tuple of generator indexes into a fixed per-algebra alphabet.
An NcPoly is a finitely supported map from words to coefficients.  Both are
immutable in spirit: every operation returns fresh values, so elements can
be shared freely across caches.

Each generator carries a Z^2 bidegree; a generator and its formal inverse
have opposite bidegrees.  Products of homogeneous elements are homogeneous
of summed bidegree, which the grading helpers below rely on.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .coeffring import RAT, coeff_str

Word = tuple[int, ...]
EMPTY_WORD: Word = ()

#: sentinel bidegree of the zero polynomial (compatible with every grading)
ANY_BIDEGREE = "any"


class AlgebraMismatch(ValueError):
    pass


class GenSym(NamedTuple):
    """A named generator with a bidegree and an optional formal inverse."""

    algebra: str
    name: str
    index: int
    bidegree: tuple[int, int]
    inverse_of: Optional[str] = None


class Alphabet:
    """The ordered generator list of one algebra.

    The index order doubles as the PBW target order: normal-form words are
    (weakly) sorted with respect to it, block by block.
    """

    def __init__(self, algebra_id: str, gens: Iterable[tuple[str, tuple[int, int], Optional[str]]]):
        self.algebra_id = algebra_id
        self.gens: tuple[GenSym, ...] = tuple(
            GenSym(algebra_id, name, i, bdeg, inv)
            for i, (name, bdeg, inv) in enumerate(gens)
        )
        self.by_name = {g.name: g.index for g in self.gens}
        if len(self.by_name) != len(self.gens):
            raise ValueError(f"duplicate generator names in {algebra_id}")
        self.inverse_index: dict[int, int] = {}
        for g in self.gens:
            if g.inverse_of is not None:
                j = self.by_name[g.inverse_of]
                self.inverse_index[g.index] = j
                self.inverse_index[j] = g.index
                bd = self.gens[j].bidegree
                if (g.bidegree[0] + bd[0], g.bidegree[1] + bd[1]) != (0, 0):
                    raise ValueError(f"{g.name} and {g.inverse_of} must have opposite bidegrees")

    def __len__(self):
        return len(self.gens)

    def index(self, name: str) -> int:
        try:
            return self.by_name[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r} in algebra {self.algebra_id!r}") from None

    def word(self, *names: str) -> Word:
        return tuple(self.index(n) for n in names)

    def poly(self, *names: str) -> "NcPoly":
        """The word of these generators as a polynomial over RAT."""
        return NcPoly.from_word(self, self.word(*names))

    def word_bidegree(self, w: Word) -> tuple[int, int]:
        m = n = 0
        for i in w:
            a, b = self.gens[i].bidegree
            m += a
            n += b
        return (m, n)

    def word_str(self, w: Word) -> str:
        if not w:
            return "1"
        parts = []
        i = 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            name = self.gens[w[i]].name
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(parts)


def term_sort_key(w: Word):
    # graded lex: total letter count, then generator precedence left to right
    return (len(w), w)


class NcPoly:
    """Finitely supported map Word -> coefficient over one alphabet.

    Unless _clean is set, zero coefficients are dropped and, over a field
    with a reduce (rewrite.Residues), every coefficient is brought back
    through it; the arithmetic below does that over such a field, so its
    results hold canonical values."""

    __slots__ = ("alphabet", "terms", "field")

    def __init__(self, alphabet: Alphabet, terms: dict[Word, object], field=RAT, _clean=False):
        self.alphabet = alphabet
        self.field = field
        if _clean:
            self.terms = terms
        elif field.reduce is None:
            self.terms = {w: c for w, c in terms.items() if c}
        else:
            self.terms = field.reduce(terms)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(alphabet: Alphabet, field=RAT) -> "NcPoly":
        return NcPoly(alphabet, {}, field, _clean=True)

    @staticmethod
    def unit(alphabet: Alphabet, field=RAT) -> "NcPoly":
        return NcPoly(alphabet, {EMPTY_WORD: field.one}, field, _clean=True)

    @staticmethod
    def from_word(alphabet: Alphabet, w: Word, coeff=None, field=RAT) -> "NcPoly":
        c = field.one if coeff is None else coeff
        return NcPoly(alphabet, {w: c} if c else {}, field, _clean=True)

    @staticmethod
    def gen(alphabet: Alphabet, name: str, field=RAT) -> "NcPoly":
        return NcPoly.from_word(alphabet, (alphabet.index(name),), field=field)

    # -- basic structure ------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def scalar_coeff(self):
        """The coefficient if this is a multiple of 1, else None."""
        if not self.terms:
            return self.field.zero
        if set(self.terms) == {EMPTY_WORD}:
            return self.terms[EMPTY_WORD]
        return None

    def __eq__(self, other):
        return (
            isinstance(other, NcPoly)
            and self.alphabet is other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.alphabet), frozenset(self.terms.keys())))

    def _check(self, other: "NcPoly"):
        if self.alphabet is not other.alphabet:
            raise AlgebraMismatch(
                f"cannot combine elements of {self.alphabet.algebra_id!r} "
                f"and {other.alphabet.algebra_id!r}"
            )

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return NcPoly(self.alphabet, out, self.field, _clean=self.field.reduce is None)

    def __neg__(self) -> "NcPoly":
        return NcPoly(self.alphabet, {w: -c for w, c in self.terms.items()}, self.field,
                      _clean=self.field.reduce is None)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def scale(self, c) -> "NcPoly":
        if not c:
            return NcPoly.zero(self.alphabet, self.field)
        return NcPoly(self.alphabet, {w: v * c for w, v in self.terms.items()}, self.field,
                      _clean=self.field.reduce is None)

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        """Free concatenation product (no reduction)."""
        self._check(other)
        out: dict[Word, object] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                s = out.get(w)
                s = c if s is None else s + c
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return NcPoly(self.alphabet, out, self.field, _clean=self.field.reduce is None)

    # -- grading ---------------------------------------------------------------

    def bidegree(self):
        """Common bidegree if homogeneous, ANY_BIDEGREE for 0, None if mixed."""
        if not self.terms:
            return ANY_BIDEGREE
        it = iter(self.terms)
        d = self.alphabet.word_bidegree(next(it))
        for w in it:
            if self.alphabet.word_bidegree(w) != d:
                return None
        return d

    # -- presentation ------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            cs = coeff_str(c)
            ws = self.alphabet.word_str(w)
            # pull the sign out only for single-monomial coefficients
            neg = cs.startswith("-") and " " not in cs
            if neg:
                cs = cs[1:]
            if ws == "1":
                if " " in cs and not (cs.startswith("(") and cs.endswith(")")):
                    cs = f"({cs})"
                body = cs
            elif cs == "1":
                body = ws
            else:
                if (" " in cs or "/" in cs or "*" in cs) and not (cs.startswith("(") and cs.endswith(")")):
                    cs = f"({cs})"
                body = f"{cs}*{ws}"
            parts.append(("- " if neg else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def __repr__(self):
        return f"<{self.alphabet.algebra_id}: {self}>"
