"""The canonical-text parser as it was before products of bare atoms were
read as one monomial and the terms of a sum added up per denominator: every
atom, power, product and sum goes through MotiveClass arithmetic, one
operation at a time.  It is the independent reference for the library's
parser, which must give the same class on every text and raise the same
exception class on every text it rejects.
"""

from math import comb

from parahiggs.motive import PARSE_BOUND, PARSE_DEPTH, _den_degree, ring


class _Parser:
    """Exponents and C indices above PARSE_BOUND raise ValueError, and so does
    a power whose expansion could have more than PARSE_BOUND terms or a degree
    above PARSE_BOUND, so a corrupt cache record fails fast instead of
    expanding a huge power.  So do factors nested more than PARSE_DEPTH deep
    in parentheses and leading minus signs, each level of which costs up to
    four stack frames, so that deep nesting never reaches the interpreter's
    recursion limit."""

    def __init__(self, text, genus):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.R = ring(genus)

    def error(self, msg):
        raise ValueError(f"parse error at {self.pos}: {msg} in {self.text!r}")

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        node = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                node = node + self.term()
            elif ch == "-":
                self.pos += 1
                node = node - self.term()
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                node = node * self.factor()
            elif ch == "/":
                self.pos += 1
                node = node / self.factor()
            else:
                return node

    def factor(self):
        self.depth += 1
        if self.depth > PARSE_DEPTH:
            self.error(f"factors nested deeper than {PARSE_DEPTH}")
        if self.peek() == "-":
            self.pos += 1
            node = -self.factor()
            self.depth -= 1
            return node
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            sign = 1
            if self.peek() == "-":
                sign = -1
                self.pos += 1
            e = self.integer(PARSE_BOUND)
            # the power of a k-term sum has up to comb(k + e - 1, e) terms,
            # and e times the degree of its base
            k = len(node.num)
            degree = max(_den_degree(node.den), max(map(sum, node.num), default=0))
            if (k >= 2 and comb(k + e - 1, e) > PARSE_BOUND) or e * degree > PARSE_BOUND:
                self.error(f"the power {e} of a {k}-term class of degree {degree} "
                           f"exceeds the bound {PARSE_BOUND} on its terms and degree")
            node = node ** (sign * e)
        self.depth -= 1
        return node

    def integer(self, bound=None):
        self.skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        n = int(self.text[start : self.pos])
        if bound is not None and n > bound:
            self.error(f"{n} exceeds the bound {bound}")
        return n

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return node
        if ch.isdigit():
            return self.R.monomial(self.integer())
        if self.text.startswith("Pic", self.pos):
            self.pos += 3
            return self.R.Pic
        if ch == "C":
            self.pos += 1
            return self.R.C(self.integer(PARSE_BOUND))
        if ch == "L":
            self.pos += 1
            return self.R.L
        self.error(f"unexpected character {ch!r}")


def parse_class(text, genus):
    p = _Parser(text, genus)
    node = p.expr()
    p.skip()
    if p.pos != len(p.text):
        p.error("trailing input")
    return node
