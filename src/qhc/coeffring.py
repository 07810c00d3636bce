"""Exact arithmetic in the field of rational functions in q and t.

Scalars live in Frac(Z[q,t]), but almost every scalar the relations produce
is a Laurent polynomial in q and t; the idempotent's 1/(1+t^2) is the only
genuine denominator.  So a RatCoeff is stored Laurent-first: a numerator
whose exponents may be negative, over a denominator that is None for the
unit, or else a polynomial with no monomial factor, a positive leading
coefficient under graded lex with q < t, and no common factor with the
numerator.  That form is unique, which makes equality a dictionary
comparison.  It is in bijection with the classic reduced pair num/den of
integer polynomials, which RatCoeff.num and .den compute on demand and
printing uses.

A Laurent product is one p_mul and a Laurent sum one p_add, with nothing to
reduce.  A genuine fraction is reduced through p_gcd, except where one side
is a single term c*q^a*t^b: then the monomial moves into the numerator and
an integer gcd divides out.  p_gcd first tries to certify the pair coprime
from one image mod a prime in each variable; only pairs it cannot certify
reach the primitive PRS, whose coefficients swell on large coprime pairs.
Point evaluation clears the denominators of q0 and t0 and the negative
powers first, so a polynomial is evaluated as a sum of integers and a value
costs one Fraction, or mod a prime one modular inverse.

Polynomials are sparse maps (e_q, e_t) -> int.  p_add, p_neg, p_mul,
p_scale and p_eval take exponents of either sign; the gcd and exact
division routines expect nonnegative ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from typing import NamedTuple

Mono = tuple[int, int]
Poly = dict[Mono, int]

P_ZERO: Poly = {}
P_ONE: Poly = {(0, 0): 1}


class CoeffError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# raw polynomial arithmetic
# ---------------------------------------------------------------------------

def p_add(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_neg(f: Poly) -> Poly:
    return {m: -c for m, c in f.items()}


def p_mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return {}
    if len(f) > len(g):
        f, g = g, f
    out: Poly = {}
    for (a, b), c in f.items():
        for (x, y), d in g.items():
            m = (a + x, b + y)
            s = out.get(m, 0) + c * d
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def p_scale(f: Poly, k: int) -> Poly:
    if k == 0:
        return {}
    return {m: c * k for m, c in f.items()}


def _lead_mono(f: Poly) -> Mono:
    # graded lex with q < t: compare (total degree, t-exponent)
    return max(f, key=lambda m: (m[0] + m[1], m[1]))


def p_lead_coeff(f: Poly) -> int:
    return f[_lead_mono(f)]


def _int_content(f: Poly) -> int:
    g = 0
    for c in f.values():
        g = _igcd(g, abs(c))
        if g == 1:
            break
    return g


def _mono_content(f: Poly) -> Mono:
    eq = min(m[0] for m in f)
    et = min(m[1] for m in f)
    return (eq, et)


def _mono_shift(f: Poly, eq: int, et: int) -> Poly:
    if eq == 0 and et == 0:
        return dict(f)
    return {(a + eq, b + et): c for (a, b), c in f.items()}


def _is_mono(f: Poly) -> bool:
    return len(f) == 1


# dense recursive view: a poly in t whose coefficients are dicts {e_q: int}

def _to_rec(f: Poly) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    for (a, b), c in f.items():
        out.setdefault(b, {})[a] = c
    return out


def _from_rec(r: dict[int, dict[int, int]]) -> Poly:
    out: Poly = {}
    for b, qs in r.items():
        for a, c in qs.items():
            if c:
                out[(a, b)] = c
    return out


def _u_gcd(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """gcd in Z[q] by the primitive polynomial remainder sequence."""
    def content(h):
        c = 0
        for v in h.values():
            c = _igcd(c, abs(v))
        return c

    def primitive(h):
        c = content(h)
        return {k: v // c for k, v in h.items()} if c > 1 else dict(h)

    def degree(h):
        return max(h) if h else -1

    def shift_mul(h, s, k):
        return {e + s: v * k for e, v in h.items()}

    def sub(x, y):
        out = dict(x)
        for e, v in y.items():
            s = out.get(e, 0) - v
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return out

    if not f:
        return dict(g)
    if not g:
        return dict(f)
    cf, cg = content(f), content(g)
    a, b = primitive(f), primitive(g)
    while b:
        # pseudo-remainder of a by b
        da, db = degree(a), degree(b)
        if da < db:
            a, b = b, a
            continue
        lb = b[degree(b)]
        r = dict(a)
        while r and degree(r) >= db:
            dr = degree(r)
            lr = r[dr]
            r = sub(shift_mul(r, 0, lb), shift_mul(b, dr - db, lr))
        a, b = b, primitive(r) if r else {}
    c = _igcd(cf, cg)
    out = {e: v * c for e, v in a.items()} if c != 1 else a
    if out[degree(out)] < 0:
        out = {e: -v for e, v in out.items()}
    return out


def _rec_content(r: dict[int, dict[int, int]]) -> dict[int, int]:
    g: dict[int, int] = {}
    for qs in r.values():
        g = _u_gcd(g, qs)
        if list(g) == [0] and abs(g.get(0, 0)) == 1:
            break
    return g


def _u_mul(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, c in f.items():
        for b, d in g.items():
            s = out.get(a + b, 0) + c * d
            if s:
                out[a + b] = s
            else:
                del out[a + b]
    return out


def _u_exact_div(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """Exact division in Z[q]; raises if not divisible."""
    if not f:
        return {}
    out: dict[int, int] = {}
    r = dict(f)
    dg = max(g)
    lg = g[dg]
    while r:
        dr = max(r)
        if dr < dg or r[dr] % lg:
            raise CoeffError("inexact univariate division")
        k = r[dr] // lg
        out[dr - dg] = k
        for e, v in g.items():
            s = r.get(e + dr - dg, 0) - v * k
            if s:
                r[e + dr - dg] = s
            else:
                r.pop(e + dr - dg, None)
    return out


def p_exact_div(f: Poly, g: Poly) -> Poly:
    """Exact division f / g in Z[q,t]; raises CoeffError if not divisible."""
    if not f:
        return {}
    if _is_mono(g):
        (eq, et), c = next(iter(g.items()))
        out: Poly = {}
        for (a, b), v in f.items():
            if a < eq or b < et or v % c:
                raise CoeffError("inexact division")
            out[(a - eq, b - et)] = v // c
        return out
    rf, rg = _to_rec(f), _to_rec(g)
    dg = max(rg)
    lg = rg[dg]
    out: dict[int, dict[int, int]] = {}
    while rf:
        df = max(rf)
        if df < dg:
            raise CoeffError("inexact division")
        piece = _u_exact_div(rf[df], lg)
        out[df - dg] = piece
        for b, qs in rg.items():
            tgt = rf.setdefault(b + df - dg, {})
            for a, c in _u_mul(qs, piece).items():
                s = tgt.get(a, 0) - c
                if s:
                    tgt[a] = s
                else:
                    tgt.pop(a, None)
            if not tgt:
                del rf[b + df - dg]
    return _from_rec(out)


# the coprimality certificate works mod this prime, 2^61 - 1
CERT_PRIME = (1 << 61) - 1


def _gf_image(f: Poly, v: int, x0: int) -> list[int]:
    """f with its other variable set to x0, as dense coefficients mod
    CERT_PRIME in exponent slot v (0 for q, 1 for t), lowest degree first."""
    p = CERT_PRIME
    out = [0] * (max(m[v] for m in f) + 1)
    for m, c in f.items():
        out[m[v]] = (out[m[v]] + c * pow(x0, m[1 - v], p)) % p
    return out


def _gf_gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over GF(CERT_PRIME), for dense coefficient lists
    whose top coefficients are nonzero."""
    p = CERT_PRIME
    while b:
        inv = pow(b[-1], -1, p)
        a = list(a)
        nb = len(b)
        while len(a) >= nb:
            k = a[-1] * inv % p
            off = len(a) - nb
            for i in range(nb - 1):
                a[off + i] = (a[off + i] - k * b[i]) % p
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _no_common_factor_in(f: Poly, g: Poly, v: int) -> bool:
    """True when gcd(f, g) certainly has degree 0 in exponent slot v.

    At the first x0 = 2, 3, ... where neither leading coefficient in v
    vanishes mod CERT_PRIME, a common factor h keeps its degree in v in the
    images there, since its leading coefficient divides both of theirs.  So
    images with a gcd of degree 0 rule h out.  False means no certificate,
    not a common factor."""
    tries = max(m[1 - v] for m in f) + max(m[1 - v] for m in g) + 1
    for x0 in range(2, 2 + tries):
        a, b = _gf_image(f, v, x0), _gf_image(g, v, x0)
        if a[-1] and b[-1]:
            return _gf_gcd_degree(a, b) == 0
    return False


def p_gcd(f: Poly, g: Poly) -> Poly:
    """gcd in Z[q,t], positive leading coefficient.

    Once the monomial and integer contents are out, a pair certified to
    share no factor of positive degree in t and none in q has the gcd of
    its contents; any other pair goes through the PRS."""
    if not f:
        return dict(g)
    if not g:
        return dict(f)
    mf, mg = _mono_content(f), _mono_content(g)
    mono = (min(mf[0], mg[0]), min(mf[1], mg[1]))
    f0 = _mono_shift(f, -mf[0], -mf[1])
    g0 = _mono_shift(g, -mg[0], -mg[1])
    cf, cg = _int_content(f0), _int_content(g0)
    c = _igcd(cf, cg)
    if _is_mono(f0) or _is_mono(g0) or (
        _no_common_factor_in(f0, g0, 1) and _no_common_factor_in(f0, g0, 0)
    ):
        return _mono_shift({(0, 0): c}, mono[0], mono[1])
    return _mono_shift(_prs_gcd(f0, g0, cf, cg), mono[0], mono[1])


def _prs_gcd(f0: Poly, g0: Poly, cf: int, cg: int) -> Poly:
    """gcd of f0 and g0, whose integer contents are cf and cg, by the
    primitive PRS in t over Z[q]; positive leading coefficient."""
    rf, rg = _to_rec({m: v // cf for m, v in f0.items()}), _to_rec({m: v // cg for m, v in g0.items()})
    contf, contg = _rec_content(rf), _rec_content(rg)
    cont = _u_gcd(contf, contg)

    def rec_primitive(r, ct):
        if list(ct) == [0] and ct.get(0) == 1:
            return r
        return {b: _u_exact_div(qs, ct) for b, qs in r.items()}

    a = rec_primitive(rf, contf)
    b = rec_primitive(rg, contg)

    def rec_degree(r):
        return max(r) if r else -1

    while b:
        da, db = rec_degree(a), rec_degree(b)
        if da < db:
            a, b = b, a
            continue
        lb = b[rec_degree(b)]
        r = a
        while r and rec_degree(r) >= db:
            dr = rec_degree(r)
            lr = r[dr]
            newr: dict[int, dict[int, int]] = {}
            for bb, qs in r.items():
                newr[bb] = _u_mul(qs, lb)
            for bb, qs in b.items():
                tgt = newr.setdefault(bb + dr - db, {})
                for e, v in _u_mul(qs, lr).items():
                    s = tgt.get(e, 0) - v
                    if s:
                        tgt[e] = s
                    else:
                        tgt.pop(e, None)
            r = {bb: qs for bb, qs in newr.items() if qs}
        cr = _rec_content(r) if r else {}
        a, b = b, (rec_primitive(r, cr) if r else {})
    prim = _from_rec(a)
    out = p_scale(p_mul(prim, _from_rec({0: cont})), _igcd(cf, cg))
    if p_lead_coeff(out) < 0:
        out = p_neg(out)
    return out


def p_eval(f: Poly, q0: Fraction, t0: Fraction) -> tuple[int, int]:
    """f(q0, t0) as integers (n, d) with f(q0, t0) = n/d, for exponents of
    either sign.

    With lq <= 0 <= hq the least and largest q-exponents of f widened to take
    in 0 (lt, ht likewise for t), q0^a * qn^-lq * qd^hq is the integer
    qn^(a-lq) * qd^(hq-a) for q0 = qn/qd.  So d = qn^-lq * qd^hq * tn^-lt *
    td^ht and n is a sum of integers.  d is 0 exactly when a negative power
    meets a zero value; for nonnegative exponents d = qd^hq * td^ht > 0.
    """
    qn, qd = q0.numerator, q0.denominator
    tn, td = t0.numerator, t0.denominator
    lq = hq = lt = ht = 0
    for a, b in f:
        if a > hq:
            hq = a
        elif a < lq:
            lq = a
        if b > ht:
            ht = b
        elif b < lt:
            lt = b
    n = 0
    for (a, b), c in f.items():
        n += c * qn ** (a - lq) * qd ** (hq - a) * tn ** (b - lt) * td ** (ht - b)
    return n, qn**-lq * qd**hq * tn**-lt * td**ht


def p_str(f: Poly) -> str:
    if not f:
        return "0"
    parts = []
    for m in sorted(f, key=lambda m: (-(m[0] + m[1]), -m[1])):
        c = f[m]
        eq, et = m
        body = "*".join(
            s for s in (
                ("q" if eq == 1 else f"q^{eq}" if eq else ""),
                ("t" if et == 1 else f"t^{et}" if et else ""),
            ) if s
        )
        if not body:
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = f"{abs(c)}*{body}"
        parts.append(("- " if c < 0 else "+ ") + term)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


# ---------------------------------------------------------------------------
# the fraction field
# ---------------------------------------------------------------------------

def _laurent_shift(n: Poly) -> Mono:
    """The least (sq, st) >= 0 with q^sq * t^st * n free of negative exponents."""
    if not n:
        return 0, 0
    eq, et = _mono_content(n)
    return max(-eq, 0), max(-et, 0)


class RatCoeff:
    """An element of Frac(Z[q,t]), stored Laurent-first as lnum / lden.

    lnum is a polynomial whose exponents may be negative.  lden is None for
    a Laurent polynomial, the unit denominator.  Otherwise it is a polynomial
    with nonnegative exponents and no monomial factor (its least q- and
    t-exponents are 0), with a positive leading coefficient under graded lex
    with q < t, and coprime to lnum in Z[q^-1, q, t^-1, t], integer content
    included; an integer denominator such as 2 is one of these.

    The stored pair is in bijection with the classic reduced pair of integer
    polynomials: multiplying both sides by q^sq * t^st, the least monomial
    that clears lnum's negative exponents, gives num and den, which the
    properties of those names compute on demand.  Both forms are unique, so
    equality and hashing compare the stored pair.
    """

    __slots__ = ("lnum", "lden")

    def __init__(self, num: Poly, den: Poly):
        """num / den in stored form, for exponents of either sign."""
        if not den:
            raise CoeffError("zero denominator")
        if not num:
            self.lnum, self.lden = {}, None
            return
        if len(den) == 1:
            # num / (c*q^a*t^b): q^-a*t^-b moves into the numerator and the
            # integer gcd of c with num's content, signed as c, divides out
            ((mq, mt), c), = den.items()
            g = abs(c)
            if g != 1:
                for v in num.values():
                    g = _igcd(g, v)
                    if g == 1:
                        break
            if c < 0:
                g = -g
            if g != 1 or mq or mt:
                num = {(x - mq, y - mt): v // g for (x, y), v in num.items()}
            self.lnum = num
            self.lden = None if c == g else {(0, 0): c // g}
            return
        # take both monomial contents out, so den has no monomial factor and
        # their gcd is one of polynomials; num's monomial goes back at the end
        dq, dt = _mono_content(den)
        nq, nt = _mono_content(num)
        den = _mono_shift(den, -dq, -dt)
        num = _mono_shift(num, -nq, -nt)
        if len(num) == 1:
            # gcd(c, den) is the integer gcd of c with den's content
            ((m, c),) = num.items()
            g = _igcd(c, _int_content(den))
            if g != 1:
                num = {m: c // g}
                den = {k: v // g for k, v in den.items()}
        else:
            g = p_gcd(num, den)
            if g != P_ONE:
                num = p_exact_div(num, g)
                den = p_exact_div(den, g)
        if p_lead_coeff(den) < 0:
            num, den = p_neg(num), p_neg(den)
        self.lnum = _mono_shift(num, nq - dq, nt - dt)
        self.lden = None if den == P_ONE else den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "RatCoeff":
        if n == 0:
            return RC_ZERO
        if n == 1:
            return RC_ONE
        return _raw({(0, 0): n}, None)

    @staticmethod
    def monomial(c: int, eq: int, et: int) -> "RatCoeff":
        """c * q^eq * t^et with exponents of either sign."""
        if c == 0:
            return RC_ZERO
        return _raw({(eq, et): c}, None)

    # -- the classic pair ------------------------------------------------------

    @property
    def num(self) -> Poly:
        """The classic reduced numerator, nonnegative exponents."""
        return self._classic()[0]

    @property
    def den(self) -> Poly:
        """The classic reduced denominator, nonnegative exponents."""
        return self._classic()[1]

    def _classic(self) -> tuple[Poly, Poly]:
        sq, st = _laurent_shift(self.lnum)
        return _mono_shift(self.lnum, sq, st), _mono_shift(self.lden or P_ONE, sq, st)

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.lnum)

    def is_one(self) -> bool:
        return self.lden is None and self.lnum == P_ONE

    def __eq__(self, other) -> bool:
        return isinstance(other, RatCoeff) and self.lnum == other.lnum and self.lden == other.lden

    def __hash__(self):
        return hash((frozenset(self.lnum.items()), self.lden and frozenset(self.lden.items())))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RatCoeff") -> "RatCoeff":
        if not other.lnum:
            return self
        if not self.lnum:
            return other
        a, b = self.lden, other.lden
        if a is None and b is None:
            return _raw(p_add(self.lnum, other.lnum), None)
        if a is None or b is None:
            # n + m/d = (n*d + m)/d, reduced already: gcd(n*d + m, d) = gcd(m, d) = 1
            (n, m, d) = (self.lnum, other.lnum, b) if a is None else (other.lnum, self.lnum, a)
            return _raw(p_add(p_mul(n, d), m), d)
        if a == b:
            return RatCoeff(p_add(self.lnum, other.lnum), a)
        return RatCoeff(p_add(p_mul(self.lnum, b), p_mul(other.lnum, a)), p_mul(a, b))

    def __neg__(self) -> "RatCoeff":
        return _raw(p_neg(self.lnum), self.lden)

    def __sub__(self, other: "RatCoeff") -> "RatCoeff":
        return self + (-other)

    def __mul__(self, other: "RatCoeff") -> "RatCoeff":
        m, n = self.lnum, other.lnum
        if not m or not n:
            return RC_ZERO
        a, b = self.lden, other.lden
        # is_one, inline: a product with 1 keeps the other factor
        if a is None and m == P_ONE:
            return other
        if b is None and n == P_ONE:
            return self
        if a is None and b is None:
            return _raw(p_mul(m, n), None)
        return RatCoeff(p_mul(m, n), b if a is None else a if b is None else p_mul(a, b))

    def inverse(self) -> "RatCoeff":
        if not self.lnum:
            raise CoeffError("division by zero")
        return RatCoeff(self.lden or dict(P_ONE), self.lnum)

    def __truediv__(self, other: "RatCoeff") -> "RatCoeff":
        if not other.lnum:
            raise CoeffError("division by zero")
        return self * other.inverse()

    def __pow__(self, n: int) -> "RatCoeff":
        if n < 0:
            return self.inverse() ** (-n)
        out = RC_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation and profiling --------------------------------------------

    def _eval_pair(self, q0: Fraction, t0: Fraction) -> tuple[int, int]:
        """Integers (n, d) with self(q0, t0) = n/d; d = 0 where the classic
        denominator vanishes, and mod p likewise for p dividing neither
        denominator of q0 and t0."""
        n, d = p_eval(self.lnum, q0, t0)
        if self.lden is not None:
            dn, dd = p_eval(self.lden, q0, t0)
            n, d = n * dd, d * dn
        return n, d

    def eval(self, q0: Fraction, t0: Fraction) -> Fraction:
        n, d = self._eval_pair(q0, t0)
        if d == 0:
            raise self._vanishing(q0, t0)
        return Fraction(n, d)

    def eval_mod(self, q0: Fraction, t0: Fraction, p: int) -> int:
        """The residue of self(q0, t0) mod the prime p, in [0, p), for q0 and
        t0 whose denominators p does not divide: the integers of p_eval and
        one modular inverse.  A denominator that vanishes mod p raises
        CoeffError, even where it has a value over Q."""
        n, d = self._eval_pair(q0, t0)
        if d % p == 0:
            raise self._vanishing(q0, t0, p)
        return n * pow(d, -1, p) % p

    def _vanishing(self, q0: Fraction, t0: Fraction, p: int = 0) -> CoeffError:
        """The error for a denominator that vanishes at (q0, t0), over Q or,
        for p > 0, mod p; it names the first factor of denom_profile that
        vanishes there."""

        def vanishes(f: Poly) -> bool:
            n = p_eval(f, q0, t0)[0]
            return n % p == 0 if p else n == 0

        prof = self.denom_profile()
        if prof.q_power and vanishes({(1, 0): 1}):
            factor = "q"
        elif prof.t_power and vanishes({(0, 1): 1}):
            factor = "t"
        elif prof.t2plus1_power and vanishes({(0, 0): 1, (0, 2): 1}):
            factor = "t^2 + 1"
        else:
            factor = p_str(prof.residual.num)
        where = f" mod {p}" if p else ""
        return CoeffError(f"denominator factor {factor} vanishes at (q, t) = ({q0}, {t0}){where}")

    def denom_profile(self) -> "DenomProfile":
        eq, et = _laurent_shift(self.lnum)
        rest = dict(self.lden or P_ONE)
        k = 0
        t2p1: Poly = {(0, 0): 1, (0, 2): 1}
        while True:
            try:
                nxt = p_exact_div(rest, t2p1)
            except CoeffError:
                break
            rest = nxt
            k += 1
        return DenomProfile(eq, et, k, RatCoeff(rest, dict(P_ONE)))

    def __str__(self) -> str:
        if not self.lnum:
            return "0"
        num, den = self._classic()
        ns = p_str(num)
        if den == P_ONE:
            return ns
        ds = p_str(den)
        if len(num) > 1:
            ns = f"({ns})"
        # leave the denominator bare only for a single power of one variable
        ((eq, et), dc) = next(iter(den.items()))
        if len(den) > 1 or dc != 1 or (eq and et):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"RatCoeff({self})"


_new = object.__new__


def _raw(lnum: Poly, lden: Poly | None) -> RatCoeff:
    """A RatCoeff from a pair already in stored form."""
    out = _new(RatCoeff)
    out.lnum = lnum
    out.lden = lden
    return out


RC_ZERO = _raw({}, None)
RC_ONE = _raw(dict(P_ONE), None)
RC_Q = RatCoeff.monomial(1, 1, 0)
RC_T = RatCoeff.monomial(1, 0, 1)


class DenomProfile(NamedTuple):
    """Factorisation of a canonical denominator as q^a t^b (t^2+1)^c * residual."""

    q_power: int
    t_power: int
    t2plus1_power: int
    residual: RatCoeff

    @property
    def clean(self) -> bool:
        return self.residual.is_one()


# ---------------------------------------------------------------------------
# coefficient fields for the rewriting engine
# ---------------------------------------------------------------------------

class RatField:
    """Generic coefficients: the fraction field of Z[q,t]."""

    name = "ratfunc"
    zero = RC_ZERO
    one = RC_ONE

    @staticmethod
    def q_power(k: int) -> RatCoeff:
        return RatCoeff.monomial(1, k, 0)

    @staticmethod
    def t_power(k: int) -> RatCoeff:
        return RatCoeff.monomial(1, 0, k)

    @staticmethod
    def from_int(n: int) -> RatCoeff:
        return RatCoeff.from_int(n)

    @staticmethod
    def invert(c: RatCoeff) -> RatCoeff:
        return c.inverse()

    @staticmethod
    def to_str(c: RatCoeff) -> str:
        return str(c)


class QQField:
    """Coefficients specialised at a rational point (q0, t0)."""

    name = "rational"

    def __init__(self, q0: Fraction, t0: Fraction):
        self.q0 = Fraction(q0)
        self.t0 = Fraction(t0)
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def q_power(self, k: int) -> Fraction:
        return self.q0**k

    def t_power(self, k: int) -> Fraction:
        return self.t0**k

    @staticmethod
    def from_int(n: int) -> Fraction:
        return Fraction(n)

    @staticmethod
    def invert(c: Fraction) -> Fraction:
        return 1 / c

    @staticmethod
    def to_str(c: Fraction) -> str:
        return str(c)

    def eval(self, c: RatCoeff) -> Fraction:
        return c.eval(self.q0, self.t0)


RAT = RatField()
