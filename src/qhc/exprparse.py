"""Expression front-end shared by the command line and the test rigs.

Grammar (one pass covers both coefficient and algebra expressions):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ['-'] atom ('^' int)?
    atom   := int | 'q' | 't' | generator-name | '(' expr ')'

'/' requires a scalar divisor; '^' takes integer exponents up to
MAX_EXPONENT in absolute value, negative ones only on scalars and on
invertible single generators.  A factor may sit inside at most MAX_DEPTH
parentheses and unary minus signs.  Errors carry line and column positions.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .ncpoly import NcPoly


#: largest |n| accepted in x^n; bounds the work and the size of a coefficient
MAX_EXPONENT = 1000

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
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
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


class ValueOps:
    """Adapter the parser evaluates against.

    Implementations must provide: scalar(coeff), atom(name), the field used
    for integer and q/t literals, and the value operations below.  Values are
    NcPoly or rewrite.LocElem; both provide scalar_coeff().
    """

    field = None

    def scalar(self, c):
        raise NotImplementedError

    def atom(self, name: str):
        raise NotImplementedError

    # -- default value algebra -------------------------------------------------

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def scalar_of(self, v) -> Optional[object]:
        """The coefficient if v is scalar (a multiple of the unit), else None."""
        return v.scalar_coeff()

    def div(self, a, b, tok: Token):
        c = self.scalar_of(b)
        if c is None:
            raise ParseError("division only by scalar expressions", tok.line, tok.col)
        if not c:
            raise ParseError("division by zero", tok.line, tok.col)
        return a.scale(self.field.invert(c))

    def pow(self, a, n: int, tok: Token):
        if abs(n) > MAX_EXPONENT:
            raise ParseError(f"exponent {n} exceeds the limit of {MAX_EXPONENT}", tok.line, tok.col)
        c = self.scalar_of(a)
        if c is not None:
            if not c and n < 0:
                raise ParseError("zero to a negative power", tok.line, tok.col)
            return self.scalar(c ** n)
        if n < 0:
            a, n = self.invert_value(a, tok), -n
        out = self.unit()
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def unit(self):
        return self.scalar(self.field.from_int(1))

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
                    return NcPoly.from_word(
                        self.spec.alphabet, (j,), self.field.invert(c), self.field
                    )
        raise ParseError("negative powers need an invertible generator", tok.line, tok.col)

    def mul(self, a, b):
        # a free product of sums grows its words multiplicatively before its
        # one reduction; normal forms are unique, so reducing after each
        # factor changes no result, and a acts on nf(b) with the suffix work
        # its words share done once
        return self.spec.mul_normal(a, self.spec.nf(b))


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
            v = self.ops.neg(v)
        while self._peek().kind in ("+", "-"):
            op = self._next()
            rhs = self._term()
            v = self.ops.add(v, rhs) if op.kind == "+" else self.ops.sub(v, rhs)
        return v

    def _term(self):
        v = self._factor()
        while self._peek().kind in ("*", "/"):
            op = self._next()
            rhs = self._factor()
            v = self.ops.mul(v, rhs) if op.kind == "*" else self.ops.div(v, rhs, op)
        return v

    def _factor(self):
        tok = self._peek()
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than the limit of {MAX_DEPTH}", tok.line, tok.col)
        self.depth += 1
        if tok.kind == "-":
            self._next()
            v = self.ops.neg(self._factor())
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
        return sign * int(tok.text)

    def _atom(self):
        tok = self._next()
        if tok.kind == "int":
            return self.ops.scalar(self.ops.field.from_int(int(tok.text)))
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
