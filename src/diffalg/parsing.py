"""Recursive-descent parsers for the text formats the command line accepts.

Grammars (ASCII):

    poly / rational expression:
        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := '-'* atom ('^' INT)?
        atom   := INT | var | '(' expr ')'
        var    := IDENT ('[' index ']')?
        index  := '0' | d-factor+        (d-factor := dINT ('^' INT)?)

    differential term:
        texpr   := tterm (('+'|'-') tterm)*
        tterm   := tfactor ('*' tfactor)*
        tfactor := '-' tfactor | dINT '(' texpr ')' | IDENT
                 | INT ('/' INT)? | '(' texpr ')'
        atom    := texpr ('='|'!=') texpr

    derivation spec:     eta: t -> 1; d: x -> u, y -> v     (or `eta: none`)

    configuration file:  k = 2
                         P: d1, d2
                         p[d1] = x[d1] - x[0]^2
                         eta: none            (or `eta[d1]: t -> 1, ...`)

Identifiers of the form d<digits> are reserved for derivation symbols and
cannot name variables.  Errors carry 1-based line and column positions.

Text is lexed in one pass of one master pattern (`_lex`).  A file of lines
(configuration, variety and triangular files) is lexed once, lazily, line
by line: a line's tokens are made when the parser asks for the line, so
a line the parser refuses raises before any later line is lexed.  Of two
errors the one on the earlier line is reported, as a reader going down the
file would meet it; lexing the whole file first would report a stray
character further down instead.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import partial
from json.decoder import JSONArray, JSONObject, scanstring
from json.scanner import py_make_scanner
from operator import add, mul, sub, truediv

from .algebra import JetVar, Poly, RatFun, Value, as_value
from .axioms import DefinableSetDesc, TriangularSystem
from .config import Configuration
from .derivation import DerSpec
from .errors import ParseError
from .jet import DiffTerm, JetAtom, TAdd, TConst, TDer, TMul, TNeg, TVar
from .monoid import COMMUTATIVE, FREE, MonoidElem, Record

# One master pattern (the tokenizer recipe of the `re` documentation): the
# kind of each match is its group's name.  "\n" alone ends a line.  Every
# other whitespace character, `\u00a0` and `\u2028` too, matches no group,
# so `finditer`'s search steps over it: whitespace separates tokens and makes
# none.  Any other character that starts no token is `bad`.
_TOKEN_RE = re.compile(
    r"(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>->|!=|[-+*/^()\[\],;:=])"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<nl>\n)"
    r"|(?P<bad>\S)"
)

_DNAME_RE = re.compile(r"^d(\d+)$")


# kind is 'int', 'ident', 'op' or 'eof'
Token = namedtuple("Token", "kind text line column")
_KEPT = frozenset(("int", "ident", "op"))  # the kinds of match that make a token

# Token((kind, text, line, column)) made in C, without namedtuple's Python-level __new__
_token = partial(tuple.__new__, Token)


def _lex(text: str):
    """The tokens of each line of text, a list per line, each list made when
    the lexer reaches the end of its line: a character that starts no token
    raises only once the lines before it have been handed out."""
    line, newline, tokens = 1, -1, []  # newline: the offset of the "\n" before the line
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind in _KEPT:
            tokens.append(_token((kind, m.group(), line, m.start() - newline)))
        elif kind == "nl":
            yield tokens
            line, newline, tokens = line + 1, m.start(), []
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, m.start() - newline)
    yield tokens


def tokenize(text: str) -> list[Token]:
    """The tokens of text, then an eof token just past its last character."""
    tokens = [tok for line in _lex(text) for tok in line]
    tokens.append(_token(("eof", "", text.count("\n") + 1, len(text) - text.rfind("\n"))))
    return tokens


def _shown(tok: "Token") -> str:
    return repr(tok.text) if tok.text else "end of input"


class _Cursor:
    """`tokens[i]` is the token at the cursor.  A parser steps with `i += 1`
    only past a token it has checked is not the eof token, so `i` never runs
    past the end."""

    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.i = 0

    # each expect_* reads the token at the cursor and steps past it: a token
    # of the kind asked for is never the eof token
    def expect_op(self, op: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {_shown(tok)}", tok.line, tok.column)
        self.i += 1
        return tok

    def expect_int(self) -> int:
        tok = self.tokens[self.i]
        if tok.kind != "int":
            raise ParseError(f"expected a number, found {_shown(tok)}", tok.line, tok.column)
        self.i += 1
        return int(tok.text)

    def expect_ident(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "ident":
            raise ParseError(f"expected a name, found {_shown(tok)}", tok.line, tok.column)
        self.i += 1
        return tok

    def expect_eof(self):
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)


def _lines(text: str):
    """A cursor over the tokens of each non-blank line of a file, which carry
    their file line and column, and end in an eof token just past the line's
    last token.  The file is lexed once, lazily, line by line: a parser that
    refuses a line raises before any later line is lexed, so of two errors
    the one on the earlier line is reported."""
    for tokens in _lex(text):
        if tokens:
            last = tokens[-1]
            tokens.append(_token(("eof", "", last.line, last.column + len(last.text))))
            yield _Cursor(tokens)


def _take(cur: _Cursor, *texts: str) -> bool:
    """Step past the next tokens if they have exactly these texts, none of them
    empty: a mismatch at the eof token stops the comparison there."""
    i = cur.i
    for text in texts:
        if cur.tokens[i].text != text:
            return False
        i += 1
    cur.i = i
    return True


def _once(declared: set, key, tok: Token, what: str) -> None:
    """Refuse a header or table that a file declares a second time."""
    if key in declared:
        raise ParseError(f"{what} is declared twice", tok.line, tok.column)
    declared.add(key)


def _fold(cur: _Cursor, ops: dict, operand):
    """operand (op operand)*, combined from the left by ops[op](left, right);
    each right operand is parsed after its operator is consumed."""
    value = operand()
    while (op := cur.tokens[cur.i].text) in ops:
        cur.i += 1
        value = ops[op](value, operand())
    return value


def _comma_list(cur: _Cursor, item) -> list:
    """Comma-separated items up to the end of the line; empty items are skipped."""
    out = []
    while cur.tokens[cur.i].kind != "eof":
        if cur.tokens[cur.i].text != ",":
            out.append(item())
            if cur.tokens[cur.i].text != ",":
                cur.expect_eof()
                break
        cur.i += 1
    return out


def _scan_k(tokens: Sequence[Token]) -> int:
    found = (_DNAME_RE.match(tok.text) for tok in tokens if tok.kind == "ident")
    return max([1] + [int(m.group(1)) for m in found if m])


# ----------------------------------------------------------------------
# monoid indices


def _generator(cur: _Cursor, k: int) -> int | None:
    """i for a generator d<i> at the cursor, stepped past and checked against
    k; None, stepping past nothing, when the next token names no generator
    (only an identifier can spell one)."""
    tok = cur.tokens[cur.i]
    m = _DNAME_RE.match(tok.text)
    if m is None:
        return None
    i = int(m.group(1))
    if not 1 <= i <= k:
        raise ParseError(f"generator d{i} exceeds k={k}", tok.line, tok.column)
    cur.i += 1
    return i


def _parse_index(cur: _Cursor, mode: str, k: int) -> MonoidElem:
    tok = cur.tokens[cur.i]
    if tok.kind == "int":
        if tok.text != "0":
            raise ParseError("an index is 0 or a product of d1, d2, ...", tok.line, tok.column)
        cur.i += 1
        return MonoidElem.identity(mode, k)
    if mode == FREE:
        letters = []
        while (i := _generator(cur, k)) is not None:
            letters.append(i)
        if not letters:
            raise ParseError("expected a derivation word", tok.line, tok.column)
        return MonoidElem.word(k, letters)
    exps = [0] * k
    seen = False
    while (i := _generator(cur, k)) is not None:
        e = 1
        if cur.tokens[cur.i].text == "^":
            cur.i += 1
            e = cur.expect_int()
        exps[i - 1] += e
        seen = True
    if not seen:
        raise ParseError("expected a monomial in d1, d2, ...", tok.line, tok.column)
    return MonoidElem.exponents(exps)


def _whole(text: str, k: int | None, parse):
    """parse(cursor, k) over all of the text; k is scanned from the text when not given."""
    tokens = tokenize(text)
    cur = _Cursor(tokens)
    out = parse(cur, _scan_k(tokens) if k is None else k)
    cur.expect_eof()
    return out


def parse_index_text(text: str, mode: str = COMMUTATIVE, k: int | None = None) -> MonoidElem:
    return _whole(text, k, lambda cur, k: _parse_index(cur, mode, k))


# ----------------------------------------------------------------------
# polynomial / rational expressions


_SUM = {"+": add, "-": sub}
_PRODUCT = {"*": mul, "/": truediv}


class _ExprParser:
    def __init__(self, cur: _Cursor, mode: str, k: int):
        self.cur = cur
        self.mode = mode
        self.k = k

    def expr(self):
        return _fold(self.cur, _SUM, self.term)

    def term(self):
        return _fold(self.cur, _PRODUCT, self.factor)

    def factor(self):
        cur = self.cur
        negate = False
        while cur.tokens[cur.i].text == "-":
            cur.i += 1
            negate = not negate
        value = self.atom()
        if cur.tokens[cur.i].text == "^":
            cur.i += 1
            value = value ** cur.expect_int()
        return -value if negate else value

    def atom(self):
        cur = self.cur
        tok = cur.tokens[cur.i]
        if tok.kind == "int":
            cur.i += 1
            return Poly.const(int(tok.text))
        if tok.kind == "ident":
            return Poly.variable(self.variable())
        if tok.text == "(":
            cur.i += 1
            value = self.expr()
            cur.expect_op(")")
            return value
        raise ParseError(f"expected a value, found {_shown(tok)}", tok.line, tok.column)

    def variable(self) -> JetVar:
        cur = self.cur
        tok = cur.expect_ident()
        if _DNAME_RE.match(tok.text):
            raise ParseError(f"{tok.text} is reserved for derivation symbols", tok.line, tok.column)
        bracket = cur.tokens[cur.i]
        if bracket.text != "[":
            return JetVar(tok.text)
        cur.i += 1
        if cur.tokens[cur.i].kind == "eof":
            raise ParseError("unterminated index", bracket.line, bracket.column)
        index = _parse_index(cur, self.mode, self.k)
        cur.expect_op("]")
        return JetVar(tok.text, index)


def parse_expression(text: str, mode: str = COMMUTATIVE, k: int | None = None):
    """A Poly, or a RatFun when the denominator does not cancel to a constant."""
    return _whole(text, k, lambda cur, k: as_value(_ExprParser(cur, mode, k).expr()))


def _poly(cur: _Cursor, mode: str, k: int) -> Poly:
    """A polynomial running to the end of the input."""
    start = cur.tokens[cur.i]
    value = as_value(_ExprParser(cur, mode, k).expr())
    cur.expect_eof()
    if isinstance(value, RatFun):
        raise ParseError("expected a polynomial, found a proper fraction", start.line, start.column)
    return value


def parse_poly(text: str, mode: str = COMMUTATIVE, k: int | None = None) -> Poly:
    return _whole(text, k, lambda cur, k: _poly(cur, mode, k))


def parse_ratfun(text: str, mode: str = COMMUTATIVE, k: int | None = None) -> Value:
    """A rational expression; a Poly when its denominator cancels to a constant."""
    return parse_expression(text, mode, k)


# ----------------------------------------------------------------------
# differential terms


_TERM_SUM = {"+": TAdd, "-": lambda a, b: TAdd(a, TNeg(b))}
_TERM_PRODUCT = {"*": TMul}


class _TermParser:
    def __init__(self, cur: _Cursor):
        self.cur = cur

    def expr(self) -> DiffTerm:
        return _fold(self.cur, _TERM_SUM, self.term)

    def term(self) -> DiffTerm:
        return _fold(self.cur, _TERM_PRODUCT, self.factor)

    def factor(self) -> DiffTerm:
        cur = self.cur
        tok = cur.tokens[cur.i]
        if tok.text == "-":
            cur.i += 1
            return TNeg(self.factor())
        if tok.kind == "int":
            cur.i += 1
            num = int(tok.text)
            if cur.tokens[cur.i].text == "/":
                cur.i += 1
                den_tok = cur.tokens[cur.i]
                den = cur.expect_int()
                if den == 0:
                    raise ParseError("zero denominator", den_tok.line, den_tok.column)
                return TConst(Fraction(num, den))
            return TConst(Fraction(num))
        if tok.kind == "ident":
            cur.i += 1
            m = _DNAME_RE.match(tok.text)
            if m:
                cur.expect_op("(")
                inner = self.expr()
                cur.expect_op(")")
                return TDer(int(m.group(1)), inner)
            return TVar(tok.text)
        if tok.text == "(":
            cur.i += 1
            value = self.expr()
            cur.expect_op(")")
            return value
        raise ParseError(f"expected a term, found {_shown(tok)}", tok.line, tok.column)


def parse_term(text: str) -> DiffTerm:
    cur = _Cursor(tokenize(text))
    value = _TermParser(cur).expr()
    cur.expect_eof()
    return value


def parse_term_atom(text: str) -> tuple[DiffTerm, str, DiffTerm]:
    """`lhs = rhs` or `lhs != rhs` as differential terms."""
    cur = _Cursor(tokenize(text))
    parser = _TermParser(cur)
    lhs = parser.expr()
    tok = cur.tokens[cur.i]
    if tok.text not in ("=", "!="):
        raise ParseError("expected '=' or '!='", tok.line, tok.column)
    cur.i += 1
    rhs = parser.expr()
    cur.expect_eof()
    return lhs, tok.text, rhs


# ----------------------------------------------------------------------
# derivation specs


def _table(cur: _Cursor, mode: str, k: int, table: dict[JetVar, Value]) -> None:
    """Add `target -> value, ...` to the table; `none` adds nothing."""
    if _take(cur, "none"):
        return
    while True:
        target_tok = cur.tokens[cur.i]
        target = _ExprParser(cur, mode, k).variable()
        cur.expect_op("->")
        value = _ExprParser(cur, mode, k).expr()
        if target in table:
            raise ParseError(f"duplicate entry for {target}", target_tok.line, target_tok.column)
        table[target] = value
        if cur.tokens[cur.i].text != ",":
            return
        cur.i += 1


def _derspec(cur: _Cursor, mode: str, k: int) -> DerSpec:
    """Sections `eta: ...; d: ...` running to the end of the input."""
    eta: dict[JetVar, Value] = {}
    images: dict[JetVar, Value] = {}
    while cur.tokens[cur.i].kind != "eof":
        section = cur.expect_ident()
        cur.expect_op(":")
        _table(cur, mode, k, eta if section.text == "eta" else images)
        if cur.tokens[cur.i].text != ";":
            break
        cur.i += 1
    cur.expect_eof()
    return DerSpec(eta=eta, images=images)


def parse_derspec(text: str, mode: str = COMMUTATIVE, k: int | None = None) -> DerSpec:
    """`eta: t -> 1; d: x -> u, y -> v`; either section may be `none`."""
    return _whole(text, k, lambda cur, k: _derspec(cur, mode, k))


# ----------------------------------------------------------------------
# configuration files


def parse_config(text: str) -> Configuration:
    k: int | None = None
    base = "x"
    leaders: list[MonoidElem] = []
    relation_lines: list[_Cursor] = []  # parsed once k is known
    eta_lines: list[_Cursor] = []
    declared: set = set()

    for cur in _lines(text):
        head = cur.tokens[0]
        if _take(cur, "k"):
            _once(declared, "k", head, "`k`")
            cur.expect_op("=")
            k = cur.expect_int()
            cur.expect_eof()
        elif _take(cur, "base"):
            _once(declared, "base", head, "`base`")
            cur.expect_op("=")
            base = cur.expect_ident().text
            cur.expect_eof()
        elif _take(cur, "P", ":"):
            if k is None:
                raise ParseError("k must be declared before P", head.line, head.column)
            leaders += _comma_list(cur, lambda: _parse_index(cur, COMMUTATIVE, k))
        elif _take(cur, "p", "["):
            relation_lines.append(cur)
        elif _take(cur, "eta"):
            eta_lines.append(cur)
        else:
            line = text.split("\n")[head.line - 1].split("#", 1)[0].strip()
            raise ParseError(f"unrecognized configuration line: {line!r}", head.line, head.column)

    if k is None:
        raise ParseError("missing `k = ...` header", 1, 1)
    if not leaders:
        raise ParseError("missing `P: ...` line", 1, 1)

    relations = {}
    for cur in relation_lines:
        pi = _parse_index(cur, COMMUTATIVE, k)
        _once(declared, ("p", pi), cur.tokens[0], f"`p[{pi}]`")
        cur.expect_op("]")
        cur.expect_op("=")
        relations[pi] = _poly(cur, COMMUTATIVE, k)

    etas: list[dict[JetVar, Value]] = [{} for _ in range(k)]
    for cur in eta_lines:
        slots = range(k)
        if _take(cur, "["):
            slots = [_eta_slot(cur, k)]
            cur.expect_op("]")
        cur.expect_op(":")
        table: dict[JetVar, Value] = {}
        _table(cur, COMMUTATIVE, k, table)
        cur.expect_eof()
        if not table:
            continue
        table = DerSpec(eta=table).eta
        for slot in slots:
            _once(declared, ("eta", slot), cur.tokens[0], f"the eta table of d{slot + 1}")
            etas[slot] = dict(table)

    return Configuration(k, leaders, relations, etas, base=base)


def _eta_slot(cur: _Cursor, k: int) -> int:
    tok = cur.tokens[cur.i]
    m = _DNAME_RE.match(tok.text) if tok.kind == "ident" else None
    if not m or not 1 <= int(m.group(1)) <= k:
        raise ParseError(f"eta index must be one of d1..d{k}", tok.line, tok.column)
    cur.i += 1
    return int(m.group(1)) - 1


# ----------------------------------------------------------------------
# variety files: polynomials, optional derivation and point lines


class VarietyInput(Record):
    __slots__ = ("variables", "gens", "spec", "point")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    variables: tuple[JetVar, ...]
    gens: tuple[Poly, ...]
    spec: DerSpec
    point: tuple[Value, ...] | None


def parse_variety(text: str) -> VarietyInput:
    gens: list[Poly] = []
    spec = DerSpec()
    point = None
    declared_vars: list[str] | None = None
    declared: set = set()

    for cur in _lines(text):
        k = _scan_k(cur.tokens)
        head = cur.tokens[0]
        if _take(cur, "vars", ":"):
            _once(declared, "vars", head, "`vars:`")
            declared_vars = _comma_list(cur, lambda: cur.expect_ident().text)
        elif _take(cur, "derivation", ":"):
            _once(declared, "derivation", head, "`derivation:`")
            spec = _derspec(cur, COMMUTATIVE, k)
        elif _take(cur, "point", ":"):
            _once(declared, "point", head, "`point:`")
            point = tuple(_comma_list(cur, _ExprParser(cur, COMMUTATIVE, k).expr))
        else:
            gens.append(_poly(cur, COMMUTATIVE, k))

    if declared_vars is not None:
        variables = tuple(JetVar(name) for name in declared_vars)
    else:
        seen = set().union(*(p.variables() for p in gens)) - set(spec.eta)
        variables = tuple(sorted(v for v in seen if v.index is None))
    return VarietyInput(variables, tuple(gens), spec, point)


# ----------------------------------------------------------------------
# triangular systems: `ambient: ...` then `main : poly` lines


def parse_triangular(text: str) -> TriangularSystem:
    ambient: tuple[JetVar, ...] | None = None
    equations: list[tuple[JetVar, Poly]] = []
    declared: set = set()
    for cur in _lines(text):
        k = _scan_k(cur.tokens)
        head = cur.tokens[0]
        if _take(cur, "ambient", ":"):
            _once(declared, "ambient", head, "`ambient:`")
            ambient = tuple(_comma_list(cur, _ExprParser(cur, COMMUTATIVE, k).variable))
            continue
        main = _ExprParser(cur, COMMUTATIVE, k).variable()
        tok = cur.tokens[cur.i]
        if tok.text != ":":
            raise ParseError("expected `main : polynomial`", tok.line, tok.column)
        cur.i += 1
        equations.append((main, _poly(cur, COMMUTATIVE, k)))

    if ambient is None:
        ambient = tuple(sorted(set().union(*(p.variables() for _, p in equations))))
    return TriangularSystem(ambient, tuple(equations))


# ----------------------------------------------------------------------
# definable-set descriptions as JSON


class _JsonText(str):
    """A JSON string value that knows the file line and column of its first
    character, and whether the file spells it without escapes."""


class _JsonObject(dict):
    """A JSON object; `where[key]` is the file line and column where a value starts."""


class _JsonArray(list):
    """A JSON array; `where[i]` is the file line and column where an item starts."""


def _place(s: str, at: int) -> tuple[int, int]:
    return s.count("\n", 0, at) + 1, at - s.rfind("\n", 0, at)


def _noting(found: list, scan_once):
    return lambda s, at: found.append(_place(s, at)) or scan_once(s, at)


def _parse_string(s: str, end: int, strict: bool):
    value, stop = scanstring(s, end, strict)
    out = _JsonText(value)
    out.line, out.column = _place(s, end)
    out.verbatim = "\\" not in s[end:stop]
    return out, stop


def _parse_object(s_and_end, strict, scan_once, *_):
    found: list = []
    pairs, end = JSONObject(s_and_end, strict, _noting(found, scan_once), None, list)
    out = _JsonObject(pairs)
    out.where = {key: at for (key, _), at in zip(pairs, found)}
    return out, end


def _parse_array(s_and_end, scan_once):
    found: list = []
    items, end = JSONArray(s_and_end, _noting(found, scan_once))
    out = _JsonArray(items)
    out.where = found
    return out, end


# json.loads, with every string a `_JsonText`, object a `_JsonObject` and array
# a `_JsonArray`.  Its scanner refers to itself, so it is built once: one per
# parse would leave a reference cycle for the collector each time.
_DECODER = json.JSONDecoder()
_DECODER.parse_string, _DECODER.parse_object, _DECODER.parse_array = _parse_string, _parse_object, _parse_array
_DECODER.scan_once = py_make_scanner(_DECODER)


def parse_definable_json(text: str) -> DefinableSetDesc:
    try:
        data = _DECODER.decode(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", err.lineno, err.colno) from None

    def entry(where: str, value: _JsonText, parse):
        """parse(value), with a parse error named by the entry and placed in the file."""
        try:
            return parse(value)
        except ParseError as err:
            column = value.column + err.column - 1 if value.verbatim else value.column
            raise ParseError(f"{where}: {err.message}", value.line, column) from None

    def variable(name: str) -> JetVar:
        return _whole(name, None, lambda cur, k: _ExprParser(cur, COMMUTATIVE, k).variable())

    def variables(key: str) -> tuple[JetVar, ...]:
        return tuple(entry(f"{key}[{i}]", name, variable) for i, name in enumerate(items(key, str, "strings")))

    def items(key: str, kind: type, noun: str) -> list:
        value = data[key]
        wrong = [data.where[key]] if not isinstance(value, list) else [
            at for x, at in zip(value, value.where) if not isinstance(x, kind)
        ]
        if wrong:
            raise ParseError(f"field {key!r} must be a list of {noun}", *wrong[0])
        return value

    if not isinstance(data, dict):
        raise ParseError("expected a JSON object", 1, 1)
    for key in ("indices", "atoms", "projection"):
        if key not in data:
            raise ParseError(f"missing field {key!r}", 1, 1)
    indices = variables("indices")
    atoms = []
    entries = items("atoms", dict, "objects")
    for i, atom in enumerate(entries):
        rel = atom.get("rel", "=")
        if rel not in ("=", "!="):
            where = (rel.line, rel.column) if isinstance(rel, _JsonText) else atom.where["rel"]
            raise ParseError(f"atoms[{i}].rel: unknown relation {rel!r}", *where)
        if not isinstance(atom.get("poly"), str):
            where = atom.where.get("poly", entries.where[i])
            raise ParseError(f"atoms[{i}]: every atom needs a string field 'poly'", *where)
        poly = entry(f"atoms[{i}].poly", atom["poly"], parse_poly)
        atoms.append(JetAtom(poly, str(rel)))
    return DefinableSetDesc(indices, tuple(atoms), variables("projection"))
