"""Expression front-end shared by the command line and the test rigs.

Grammar (one pass covers both coefficient and algebra expressions):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ['-'] atom ('^' int)?
    atom   := int | 'q' | 't' | generator-name | '(' expr ')'

'/' requires a scalar divisor; '^' takes integer exponents up to
MAX_EXPONENT in absolute value, negative ones only on scalars and on
invertible single generators.  A factor may sit inside at most MAX_DEPTH
parentheses and unary minus signs.  A power or a '*' chain stops with an
error when what it has multiplied so far has coefficients of more than
MAX_COEFF_MONOMIALS monomials, and any product stops when its operands'
monomial counts multiply to more than MAX_PRODUCT_SIZE.  Errors carry line
and column positions.
"""

from __future__ import annotations

from typing import NamedTuple

from .coeffring import RatCoeff
from .ncpoly import NcPoly


#: largest |n| accepted in x^n; bounds the work and the size of a coefficient
MAX_EXPONENT = 1000

#: most monomials a value's coefficients may hold, summed over its terms and
#: counting numerators and denominators, before it is multiplied by another
#: factor of a power or of a '*' chain: the coefficients of a product chain
#: grow much faster than its terms ((Q1+P1)^16 in sdaha has 473 terms and
#: about 58,000 monomials, ^17 about 81,000), and so does the work
MAX_COEFF_MONOMIALS = 65_536

#: most size(a) * size(b) for one product a * b, size counting monomials as
#: for MAX_COEFF_MONOMIALS: in sdaha (Q1+P1)^8 * (Q1+P1)^8 comes to about
#: 2.0 million and takes seconds, the step from (Q1+P1)^16 to ^17 to about
#: 117,000
MAX_PRODUCT_SIZE = 2**20

#: most parentheses and unary minus signs around one factor; each level costs
#: the recursive-descent parser up to four Python frames, so this keeps it
#: well inside the default recursion limit of 1000
MAX_DEPTH = 200


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(src) and src[j].isdecimal():
                j += 1
            out.append(Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(Token("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            out.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("end", "", line, col))
    return out


def _int_value(tok: Token) -> int:
    """The value of an int token; int() refuses more digits than Python's
    conversion limit, sys.get_int_max_str_digits()."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"integer literal of {len(tok.text)} digits is too long to convert",
                         tok.line, tok.col) from None


def _size(a) -> int:
    """The monomials of a's coefficients, numerators and denominators; a
    specialised (rational) coefficient counts one, plus one per 64 bits of
    its numerator and denominator, so that long digits weigh in as the work
    they cost.  a is an NcPoly or a LocElem."""
    terms = a.terms if isinstance(a, NcPoly) else a.body.terms
    return sum(len(c.lnum) + len(c.lden or ()) if isinstance(c, RatCoeff)
               else 1 + (abs(c.numerator).bit_length() + c.denominator.bit_length()) // 64
               for c in terms.values())


class ValueOps:
    """Adapter the parser evaluates against.

    Implementations must provide: scalar(coeff), atom(name), the spec and
    the field used for integer and q/t literals.  Values are NcPoly or
    rewrite.LocElem; the parser adds, subtracts and negates them directly,
    and both provide scalar_coeff(), the coefficient of a multiple of 1 or
    None.
    """

    spec = None
    field = None

    def scalar(self, c):
        raise NotImplementedError

    def atom(self, name: str):
        raise NotImplementedError

    def mul(self, a, b):
        return a * b

    def bounded_mul(self, a, b, tok: Token):
        """mul(a, b), or ParseError naming the algebra when a's coefficients
        hold more than MAX_COEFF_MONOMIALS monomials or the two counts
        multiply to more than MAX_PRODUCT_SIZE, sizes counted by _size (a
        specialised coefficient by its digits).  A power, a '*' chain and
        cmd_mul multiply through here, so the first bounds the product so
        far before each further factor, and the second bounds one product
        of two large operands."""
        size_a, size_b = _size(a), _size(b)
        if size_a > MAX_COEFF_MONOMIALS:
            raise ParseError(f"{self.spec.algebra_id}: a product's coefficients exceed the limit of "
                             f"{MAX_COEFF_MONOMIALS} monomials", tok.line, tok.col)
        if size_a * size_b > MAX_PRODUCT_SIZE:
            raise ParseError(f"{self.spec.algebra_id}: a product of operands with {size_a} and {size_b} "
                             f"coefficient monomials exceeds the limit of {MAX_PRODUCT_SIZE}",
                             tok.line, tok.col)
        return self.mul(a, b)

    def div(self, a, b, tok: Token):
        c = b.scalar_coeff()
        if c is None:
            raise ParseError("division only by scalar expressions", tok.line, tok.col)
        if not c:
            raise ParseError("division by zero", tok.line, tok.col)
        return a.scale(self.field.one / c)

    def pow(self, a, n: int, tok: Token):
        if abs(n) > MAX_EXPONENT:
            raise ParseError(f"exponent {n} exceeds the limit of {MAX_EXPONENT}", tok.line, tok.col)
        c = a.scalar_coeff()
        if c is not None:
            if not c and n < 0:
                raise ParseError("zero to a negative power", tok.line, tok.col)
            return self.scalar(c ** n)
        if n < 0:
            a, n = self.invert_value(a, tok), -n
        out = self.scalar(self.field.one)
        for _ in range(n):
            out = self.bounded_mul(out, a, tok)
        return out

    def invert_value(self, a, tok: Token):
        raise ParseError("cannot invert this expression", tok.line, tok.col)


class WordAlgebraOps(ValueOps):
    """Values are NcPoly over one rewriting spec; generator inverses come
    from the alphabet's inverse letters."""

    def __init__(self, spec):
        self.spec = spec
        self.field = spec.field

    def scalar(self, c):
        return self.spec.scalar(c)

    def atom(self, name: str):
        if name not in self.spec.alphabet.by_name:
            raise KeyError(name)
        return self.spec.gen(name)

    def invert_value(self, a, tok: Token):
        if isinstance(a, NcPoly) and len(a.terms) == 1:
            ((w, c),) = a.terms.items()
            if len(w) == 1:
                j = self.spec.alphabet.inverse_index.get(w[0])
                if j is not None:
                    return NcPoly.from_word(self.spec.alphabet, (j,), self.field.one / c, self.field)
        raise ParseError("negative powers need an invertible generator", tok.line, tok.col)

    def mul(self, a, b):
        return self.spec.mul(a, b)


class Parser:
    def __init__(self, ops: ValueOps):
        self.ops = ops

    def parse(self, src: str):
        self.toks = tokenize(src)
        self.pos = 0
        self.depth = 0
        v = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return v

    def _peek(self) -> Token:
        return self.toks[self.pos]

    def _next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def _expr(self):
        tok = self._peek()
        neg = False
        if tok.kind == "-":
            self._next()
            neg = True
        v = self._term()
        if neg:
            v = -v
        while self._peek().kind in ("+", "-"):
            op = self._next()
            rhs = self._term()
            v = v + rhs if op.kind == "+" else v - rhs
        return v

    def _term(self):
        v = self._factor()
        while self._peek().kind in ("*", "/"):
            op = self._next()
            rhs = self._factor()
            v = self.ops.bounded_mul(v, rhs, op) if op.kind == "*" else self.ops.div(v, rhs, op)
        return v

    def _factor(self):
        tok = self._peek()
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than the limit of {MAX_DEPTH}", tok.line, tok.col)
        self.depth += 1
        if tok.kind == "-":
            self._next()
            v = -self._factor()
        else:
            v = self._atom()
            if self._peek().kind == "^":
                op = self._next()
                v = self.ops.pow(v, self._int(), op)
        self.depth -= 1
        return v

    def _int(self) -> int:
        sign = 1
        tok = self._next()
        if tok.kind == "-":
            sign = -1
            tok = self._next()
        if tok.kind != "int":
            raise ParseError("integer exponent expected", tok.line, tok.col)
        return sign * _int_value(tok)

    def _atom(self):
        tok = self._next()
        if tok.kind == "int":
            return self.ops.scalar(self.ops.field.from_int(_int_value(tok)))
        if tok.kind == "name":
            if tok.text == "q":
                return self.ops.scalar(self.ops.field.q_power(1))
            if tok.text == "t":
                return self.ops.scalar(self.ops.field.t_power(1))
            try:
                return self.ops.atom(tok.text)
            except KeyError:
                raise ParseError(f"unknown generator {tok.text!r}", tok.line, tok.col) from None
        if tok.kind == "(":
            v = self._expr()
            close = self._next()
            if close.kind != ")":
                raise ParseError("expected ')'", close.line, close.col)
            return v
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)
