"""Independent oracles for expected values used across the test suite.

These are deliberately kept naive: truncated power series expansion for
graded dimension tables, direct enumeration where a count is wanted,
term-by-term Fraction evaluation of coefficient polynomials, and the
primitive polynomial remainder sequence for gcds in Z[q,t].  Those never
touch the rewriting engine.  The last four, the adjoint action summed over
letter positions, psibar folded left to right word by word, and the O_q
embedding and phi's word bodies as one product per word, are the direct
formulas the package computed before its images came from shared tails;
they reach the engine only for normal forms, products and LocElem products.
The joint kernel of E and F on dq's weight-zero words is the invariant
dimension the package computed before it took the kernel of E alone.  The
last four stand in for package helpers that only tests used: the spherical
PBW words as elements, the inverse of the reduction-to-spherical transport
read off its generator dictionary, the test that no word holds a redex, and
the exact sandwich rows, which the package ranked before it built its rows
as residues; t_free_part gives such a row's T-free part, which it ranks
now.  naive_redex and naive_nf are the reference reducer: every rule's
left-hand side tried at every position, with no redex table, cache or
resumed search, over whatever field the spec's rules are written in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd

Series = dict[tuple[int, int], int]


def series_trunc(s: Series, M: int, N: int) -> Series:
    return {(m, n): c for (m, n), c in s.items() if m <= M and n <= N and c}


def series_mul(a: Series, b: Series, M: int, N: int) -> Series:
    out: Series = {}
    for (m1, n1), c1 in a.items():
        for (m2, n2), c2 in b.items():
            m, n = m1 + m2, n1 + n2
            if m <= M and n <= N:
                out[(m, n)] = out.get((m, n), 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def geometric(mu: int, nu: int, M: int, N: int) -> Series:
    """1 / (1 - u^mu v^nu) truncated at (M, N)."""
    out: Series = {}
    k = 0
    while k * mu <= M and k * nu <= N:
        out[(k * mu, k * nu)] = 1
        k += 1
        if mu == 0 and nu == 0:
            raise ValueError("degenerate factor")
    return out


def expand(numerator: Series, denominators: list[tuple[int, int]], M: int, N: int) -> Series:
    acc = series_trunc(numerator, M, N)
    for mu, nu in denominators:
        acc = series_mul(acc, geometric(mu, nu, M, N), M, N)
    return acc


def spherical_positive_series(M: int, N: int) -> Series:
    """(1 + uv) / ((1-u)(1-u^2)(1-v)(1-v^2))."""
    return expand({(0, 0): 1, (1, 1): 1}, [(1, 0), (2, 0), (0, 1), (0, 2)], M, N)


def invariants_positive_series(M: int, N: int) -> Series:
    """1 / ((1-u)(1-v)(1-u^2)(1-v^2)(1-uv))."""
    return expand({(0, 0): 1}, [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)], M, N)


def diffops_positive_dims(M: int, N: int) -> int:
    """Words a^(M multiset) * d^(N multiset) over four letters each."""
    from math import comb

    return comb(M + 3, 3) * comb(N + 3, 3)


def poly_eval(f: dict[tuple[int, int], int], q0: Fraction, t0: Fraction) -> Fraction:
    """A {(e_q, e_t): c} polynomial at (q0, t0), summed term by term in Fraction."""
    acc = Fraction(0)
    for (a, b), c in f.items():
        acc += c * q0**a * t0**b
    return acc


# -- the primitive polynomial remainder sequence, the reference gcd in Z[q,t] --

Poly = dict[tuple[int, int], int]
UPoly = dict[int, int]
RecPoly = dict[int, UPoly]


def _to_rec(f: Poly) -> RecPoly:
    """f as a polynomial in t whose coefficients are dicts {e_q: int}."""
    out: RecPoly = {}
    for (a, b), c in f.items():
        out.setdefault(b, {})[a] = c
    return out


def _from_rec(r: RecPoly) -> Poly:
    return {(a, b): c for b, qs in r.items() for a, c in qs.items() if c}


def _u_content(h: UPoly) -> int:
    c = 0
    for v in h.values():
        c = igcd(c, abs(v))
    return c


def _u_primitive(h: UPoly) -> UPoly:
    c = _u_content(h)
    return {k: v // c for k, v in h.items()} if c > 1 else dict(h)


def _u_sub(x: UPoly, y: UPoly) -> UPoly:
    out = dict(x)
    for e, v in y.items():
        s = out.get(e, 0) - v
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _u_gcd(f: UPoly, g: UPoly) -> UPoly:
    """gcd in Z[q] by the primitive polynomial remainder sequence, positive
    leading coefficient."""
    if not f:
        return dict(g)
    if not g:
        return dict(f)
    a, b = _u_primitive(f), _u_primitive(g)
    while b:
        if max(a) < max(b):
            a, b = b, a
            continue
        db, lb = max(b), b[max(b)]
        r = dict(a)
        while r and max(r) >= db:
            dr = max(r)
            lr = r[dr]
            r = _u_sub({e: v * lb for e, v in r.items()}, {e + dr - db: v * lr for e, v in b.items()})
        a, b = b, _u_primitive(r) if r else {}
    c = igcd(_u_content(f), _u_content(g))
    if a[max(a)] < 0:
        c = -c
    return {e: v * c for e, v in a.items()}


def _u_mul(f: UPoly, g: UPoly) -> UPoly:
    out: UPoly = {}
    for a, c in f.items():
        for b, d in g.items():
            out[a + b] = out.get(a + b, 0) + c * d
    return {e: v for e, v in out.items() if v}


def _u_exact_div(f: UPoly, g: UPoly) -> UPoly:
    out: UPoly = {}
    r = dict(f)
    dg, lg = max(g), g[max(g)]
    while r:
        dr = max(r)
        assert dr >= dg and r[dr] % lg == 0, "inexact univariate division"
        k = r[dr] // lg
        out[dr - dg] = k
        r = _u_sub(r, {e + dr - dg: v * k for e, v in g.items()})
    return out


def _rec_content(r: RecPoly) -> UPoly:
    g: UPoly = {}
    for qs in r.values():
        g = _u_gcd(g, qs)
    return g


def _rec_primitive(r: RecPoly) -> RecPoly:
    ct = _rec_content(r)
    return {b: _u_exact_div(qs, ct) for b, qs in r.items()}


def _unshifted(f: Poly) -> Poly:
    """f divided by its monomial content."""
    eq, et = min(m[0] for m in f), min(m[1] for m in f)
    return {(a - eq, b - et): c for (a, b), c in f.items()}


def prs_gcd(f: Poly, g: Poly) -> Poly:
    """gcd in Z[q,t] of polynomials with nonnegative exponents, positive
    leading coefficient under graded lex with q < t: the monomial content,
    the content in Z[q] of f and g as polynomials in t, and the primitive
    PRS in t over Z[q] on what is left.  Slow, since its coefficients swell,
    but independent of qhc.coeffring."""
    if not f or not g:
        return dict(f or g)
    mono = (min(m[0] for m in (*f, *g)), min(m[1] for m in (*f, *g)))
    rf, rg = _to_rec(_unshifted(f)), _to_rec(_unshifted(g))
    cont = _u_gcd(_rec_content(rf), _rec_content(rg))
    a, b = _rec_primitive(rf), _rec_primitive(rg)
    while b:
        if max(a) < max(b):
            a, b = b, a
            continue
        db, lb = max(b), b[max(b)]
        r = a
        while r and max(r) >= db:
            dr = max(r)
            lr = r[dr]
            new = {bb: _u_mul(qs, lb) for bb, qs in r.items()}
            for bb, qs in b.items():
                new[bb + dr - db] = _u_sub(new.get(bb + dr - db, {}), _u_mul(qs, lr))
            r = {bb: qs for bb, qs in new.items() if qs}
        a, b = b, _rec_primitive(r) if r else {}
    out: Poly = {}
    for (x, y), v in _from_rec(a).items():
        for e, c in cont.items():
            m = (x + e + mono[0], y + mono[1])
            out[m] = out.get(m, 0) + v * c
    out = {m: v for m, v in out.items() if v}
    lead = max(out, key=lambda m: (m[0] + m[1], m[1]))
    return {m: -v for m, v in out.items()} if out[lead] < 0 else out


# -- the adjoint action over letter positions, maps folded word by word -----

def positional_act(action, gen, x):
    """gen > x: for E or F, each letter of each word replaced by its image,
    scaled by q^(w1 - w2) of the letters after it (E) or q^(w2 - w1) of the
    letters before it (F), the terms gathered in one dict and reduced by one
    nf; for a K, each term scaled by the q-power of its word's weight."""
    from qhc.coeffring import RAT
    from qhc.ncpoly import NcPoly

    spec = action.spec
    ww = action._word_weight
    if gen in ("K1", "K2", "K1i", "K2i"):
        m = 0 if gen.startswith("K1") else 1
        sgn = -1 if gen.endswith("i") else 1
        out = {w: c * RAT.q_power(sgn * ww(w)[m]) for w, c in x.terms.items()}
        return spec.nf(NcPoly(spec.alphabet, out, spec.field))
    images = action.e_images if gen == "E" else action.f_images
    out = {}
    for w, c in x.terms.items():
        for i in range(len(w)):
            img = images[w[i]]
            if gen == "F":
                w1, w2 = ww(w[:i])
                scal = c * RAT.q_power(w2 - w1)
            else:
                w1, w2 = ww(w[i + 1:])
                scal = c * RAT.q_power(w1 - w2)
            for iw, ic in img.terms.items():
                nw = w[:i] + iw + w[i + 1:]
                out[nw] = out[nw] + scal * ic if nw in out else scal * ic
    return spec.nf(NcPoly(spec.alphabet, out, spec.field))


def left_fold_psibar(x):
    """psibar(x) for x in the invariant algebra or the reduction: per term,
    the unit times each letter's image, left to right, then scaled."""
    from qhc.dqops import dq_elem, dq_spec
    from qhc.invham import psibar_images

    img = psibar_images()
    gens = x.alphabet.gens
    out = dq_elem(dq_spec().zero())
    for word, c in x.terms.items():
        acc = dq_elem(dq_spec().unit())
        for i in word:
            acc = acc * img[gens[i].name]
        out = out + acc.scale(c)
    return out


def fold_embed_phi(x):
    """The O_q -> U_q embedding of x: per term, one U_q product of the
    letters' images, then scaled."""
    from qhc.qgroup import phi_images, uq_spec

    U = uq_spec()
    img = phi_images()
    gens = x.alphabet.gens
    out = U.zero()
    for w, c in x.terms.items():
        acc = U.mul(*[img[gens[i].name] for i in w]) if w else U.unit()
        out = out + acc.scale(c)
    return out


def fold_phi_body(w):
    """body * b1 * body * ... * bk * body for the spherical word w = x1...xk,
    body = 1 + t T and b_i the generator bodies written out here: one daha
    product per word."""
    from qhc.coeffring import RC_T
    from qhc.daha import daha_spec, idempotent_body, sdaha_spec

    H = daha_spec()
    bodies = {
        "P1": H.word_poly("X1") + H.word_poly("X2"),
        "Q1": H.word_poly("Y1") + H.word_poly("Y2"),
        "P2": H.word_poly("X1", "X2"),
        "Q2": H.word_poly("Y1", "Y2"),
        "P2i": H.word_poly("X1i", "X2i"),
        "Q2i": H.word_poly("Y1i", "Y2i"),
        "R": H.word_poly("Y1", "X1").scale((RC_T * RC_T).inverse()) + H.word_poly("Y2", "X2"),
    }
    body = idempotent_body()
    gens = sdaha_spec().alphabet.gens
    factors = [body]
    for i in w:
        factors += [bodies[gens[i].name], body]
    return H.mul(*factors)


def ranks_at_points(rows):
    """The rank of the sparse rows {column: RatCoeff} at each of
    rewrite.POINTS in order, each mod its prime: Residues.ranks of the
    rows' residues."""
    from qhc.rewrite import Residues

    res = Residues()
    return res.ranks([res.row(r) for r in rows])


def joint_kernel_dims(M, N):
    """Dimension of the joint kernel of E and F on dq's weight-zero words of
    bidegree (M, N) at each of rewrite.POINTS in order, each mod its prime
    (ranks_at_points): one row per word, its E image in columns (0, v) and
    its F image in columns (1, v)."""
    from qhc.dqops import dq_action, dq_spec

    act = dq_action()
    words = [w for w in dq_spec().pbw.enumerate(M, N) if act._word_weight(w) == (0, 0)]
    rows = []
    for e, f in zip(act.images("E", words), act.images("F", words)):
        row = {(0, v): c for v, c in e.terms.items()}
        row.update({(1, v): c for v, c in f.terms.items()})
        rows.append(row)
    return tuple(len(rows) - r for r in ranks_at_points(rows))


def aplus_words(M, N):
    """The PBW words of the spherical algebra's A^+[M,N], each as an element."""
    from qhc.daha import sdaha_spec
    from qhc.ncpoly import NcPoly

    sd = sdaha_spec()
    return [NcPoly.from_word(sd.alphabet, w) for w in sd.pbw.enumerate(M, N)]


def hc_inverse_apply(x):
    """hc_apply undone: each spherical letter sent to the reduction letter
    that hciso's dictionary maps onto it, each word's coefficient times the
    reciprocal q powers, then normalised."""
    from qhc.coeffring import RAT
    from qhc.hciso import _DICT
    from qhc.invham import ham_spec
    from qhc.ncpoly import NcPoly

    H = ham_spec()
    back = {img: (H.alphabet.index(name), e) for name, (img, e) in _DICT.items()}
    gens = x.alphabet.gens
    out = H.zero()
    for w, c in x.terms.items():
        letters = [back[gens[i].name] for i in w]
        scale = c * RAT.q_power(-sum(e for _, e in letters))
        out = out + NcPoly.from_word(H.alphabet, tuple(i for i, _ in letters), scale)
    return H.nf(out)


def is_normal(spec, p):
    """No word of p holds a redex of spec's rules."""
    return all(spec._find_redex(w, "leftmost") is None for w in p.terms)


def spherical_rows(bidegrees):
    """((M, N), rows) for each requested bidegree once, in the order they
    first appear: the exact rows nf((1 + t T) w (1 + t T)) for the T-free
    PBW words w of H^+[M,N], the right products from one _acts map."""
    from qhc.daha import daha_spec, idempotent_body
    from qhc.ncpoly import NcPoly

    spec = daha_spec()
    body = idempotent_body()
    T = spec.alphabet.index("T")
    right = spec._acts(body)
    for M, N in dict.fromkeys(bidegrees):
        yield (M, N), [spec._act(body, right(NcPoly.from_word(spec.alphabet, w)))
                       for w in spec.pbw.enumerate(M, N) if w[:1] != (T,)]


def t_free_part(row):
    """The terms of a daha element whose words do not start with T."""
    from qhc.daha import daha_spec
    from qhc.ncpoly import NcPoly

    T = daha_spec().alphabet.index("T")
    return NcPoly(row.alphabet, {w: c for w, c in row.terms.items() if w[:1] != (T,)}, row.field)


def naive_redex(spec, w, direction):
    """Every position in the direction's order, every rule's lhs sliced
    against the word there, a shorter lhs first."""
    rules = sorted(spec.rules + spec.aux_rules, key=lambda r: len(r.lhs))
    for i in range(len(w)) if direction == "leftmost" else range(len(w) - 1, -1, -1):
        for r in rules:
            if w[i:i + len(r.lhs)] == r.lhs:
                return i, len(r.lhs), r
    return None


def naive_nf(spec, w, direction):
    """Reduce w by rewriting naive_redex until no word has one."""
    from qhc.ncpoly import NcPoly

    work, out = {w: spec.field.one}, {}
    while work:
        v, c = work.popitem()
        hit = naive_redex(spec, v, direction)
        if hit is None:
            out[v] = out[v] + c if v in out else c
            continue
        i, n, rule = hit
        for rw, rc in rule.rhs.terms.items():
            u = v[:i] + rw + v[i + n:]
            work[u] = work[u] + c * rc if u in work else c * rc
    return NcPoly(spec.alphabet, out, spec.field)
