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
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
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

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>->|!=|[-+*/^()\[\],;:=])"
)

_DNAME_RE = re.compile(r"^d(\d+)$")


# kind is 'int', 'ident', 'op' or 'eof'
Token = namedtuple("Token", "kind text line column")


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    tokens = []
    line = first_line
    col = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def _shown(tok: "Token") -> str:
    return repr(tok.text) if tok.text else "end of input"


class _Cursor:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {_shown(tok)}", tok.line, tok.column)
        return self.advance()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError(f"expected a number, found {_shown(tok)}", tok.line, tok.column)
        self.advance()
        return int(tok.text)

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected a name, found {_shown(tok)}", tok.line, tok.column)
        return self.advance()

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)


def _lines(text: str):
    """Each non-blank line of a file without its comment, and a cursor over its
    tokens, which carry their file line and column."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].rstrip()
        cur = _Cursor(tokenize(line, lineno))
        if cur.peek().kind != "eof":
            yield line.strip(), cur


def _take(cur: _Cursor, *texts: str) -> bool:
    """Step past the next tokens if they have exactly these texts."""
    if [tok.text for tok in cur.tokens[cur.i:cur.i + len(texts)]] != list(texts):
        return False
    cur.i += len(texts)
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
    while cur.at_op(*ops):
        combine = ops[cur.advance().text]
        value = combine(value, operand())
    return value


def _comma_list(cur: _Cursor, item) -> list:
    """Comma-separated items up to the end of the line; empty items are skipped."""
    out = []
    while cur.peek().kind != "eof":
        if not cur.at_op(","):
            out.append(item())
            if not cur.at_op(","):
                cur.expect_eof()
                break
        cur.advance()
    return out


def _scan_k(tokens: Sequence[Token]) -> int:
    found = (_DNAME_RE.match(tok.text) for tok in tokens if tok.kind == "ident")
    return max([1] + [int(m.group(1)) for m in found if m])


# ----------------------------------------------------------------------
# monoid indices


def _generator(cur: _Cursor, k: int) -> int:
    tok = cur.advance()
    i = int(_DNAME_RE.match(tok.text).group(1))
    if not 1 <= i <= k:
        raise ParseError(f"generator d{i} exceeds k={k}", tok.line, tok.column)
    return i


def _parse_index(cur: _Cursor, mode: str, k: int) -> MonoidElem:
    tok = cur.peek()
    if tok.kind == "int":
        if tok.text != "0":
            raise ParseError("an index is 0 or a product of d1, d2, ...", tok.line, tok.column)
        cur.advance()
        return MonoidElem.identity(mode, k)
    if mode == FREE:
        letters = []
        while cur.peek().kind == "ident" and _DNAME_RE.match(cur.peek().text):
            letters.append(_generator(cur, k))
        if not letters:
            raise ParseError("expected a derivation word", tok.line, tok.column)
        return MonoidElem.word(k, letters)
    exps = [0] * k
    seen = False
    while cur.peek().kind == "ident" and _DNAME_RE.match(cur.peek().text):
        i = _generator(cur, k)
        e = 1
        if cur.at_op("^"):
            cur.advance()
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


class _ExprParser:
    def __init__(self, cur: _Cursor, mode: str, k: int):
        self.cur = cur
        self.mode = mode
        self.k = k

    def expr(self):
        return _fold(self.cur, {"+": add, "-": sub}, self.term)

    def term(self):
        return _fold(self.cur, {"*": mul, "/": truediv}, self.factor)

    def factor(self):
        negate = False
        while self.cur.at_op("-"):
            self.cur.advance()
            negate = not negate
        value = self.atom()
        if self.cur.at_op("^"):
            self.cur.advance()
            value = value ** self.cur.expect_int()
        return -value if negate else value

    def atom(self):
        tok = self.cur.peek()
        if tok.kind == "int":
            self.cur.advance()
            return Poly.const(int(tok.text))
        if tok.kind == "ident":
            return Poly.variable(self.variable())
        if self.cur.at_op("("):
            self.cur.advance()
            value = self.expr()
            self.cur.expect_op(")")
            return value
        raise ParseError(f"expected a value, found {_shown(tok)}", tok.line, tok.column)

    def variable(self) -> JetVar:
        tok = self.cur.expect_ident()
        if _DNAME_RE.match(tok.text):
            raise ParseError(f"{tok.text} is reserved for derivation symbols", tok.line, tok.column)
        if self.cur.at_op("["):
            bracket = self.cur.advance()
            if self.cur.peek().kind == "eof":
                raise ParseError("unterminated index", bracket.line, bracket.column)
            index = _parse_index(self.cur, self.mode, self.k)
            self.cur.expect_op("]")
            return JetVar(tok.text, index)
        return JetVar(tok.text)


def parse_expression(text: str, mode: str = COMMUTATIVE, k: int | None = None):
    """A Poly, or a RatFun when the denominator does not cancel to a constant."""
    return _whole(text, k, lambda cur, k: as_value(_ExprParser(cur, mode, k).expr()))


def _poly(cur: _Cursor, mode: str, k: int) -> Poly:
    """A polynomial running to the end of the input."""
    start = cur.peek()
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


class _TermParser:
    def __init__(self, cur: _Cursor):
        self.cur = cur

    def expr(self) -> DiffTerm:
        return _fold(self.cur, {"+": TAdd, "-": lambda a, b: TAdd(a, TNeg(b))}, self.term)

    def term(self) -> DiffTerm:
        return _fold(self.cur, {"*": TMul}, self.factor)

    def factor(self) -> DiffTerm:
        tok = self.cur.peek()
        if self.cur.at_op("-"):
            self.cur.advance()
            return TNeg(self.factor())
        if tok.kind == "int":
            self.cur.advance()
            num = int(tok.text)
            if self.cur.at_op("/"):
                self.cur.advance()
                den_tok = self.cur.peek()
                den = self.cur.expect_int()
                if den == 0:
                    raise ParseError("zero denominator", den_tok.line, den_tok.column)
                return TConst(Fraction(num, den))
            return TConst(Fraction(num))
        if tok.kind == "ident":
            self.cur.advance()
            m = _DNAME_RE.match(tok.text)
            if m:
                self.cur.expect_op("(")
                inner = self.expr()
                self.cur.expect_op(")")
                return TDer(int(m.group(1)), inner)
            return TVar(tok.text)
        if self.cur.at_op("("):
            self.cur.advance()
            value = self.expr()
            self.cur.expect_op(")")
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
    tok = cur.peek()
    if not cur.at_op("=", "!="):
        raise ParseError("expected '=' or '!='", tok.line, tok.column)
    rel = cur.advance().text
    rhs = parser.expr()
    cur.expect_eof()
    return lhs, rel, rhs


# ----------------------------------------------------------------------
# derivation specs


def _table(cur: _Cursor, mode: str, k: int, table: dict[JetVar, Value]) -> None:
    """Add `target -> value, ...` to the table; `none` adds nothing."""
    if _take(cur, "none"):
        return
    while True:
        target_tok = cur.peek()
        target = _ExprParser(cur, mode, k).variable()
        cur.expect_op("->")
        value = _ExprParser(cur, mode, k).expr()
        if target in table:
            raise ParseError(f"duplicate entry for {target}", target_tok.line, target_tok.column)
        table[target] = value
        if not cur.at_op(","):
            return
        cur.advance()


def _derspec(cur: _Cursor, mode: str, k: int) -> DerSpec:
    """Sections `eta: ...; d: ...` running to the end of the input."""
    eta: dict[JetVar, Value] = {}
    images: dict[JetVar, Value] = {}
    while cur.peek().kind != "eof":
        section = cur.expect_ident()
        cur.expect_op(":")
        _table(cur, mode, k, eta if section.text == "eta" else images)
        if not cur.at_op(";"):
            break
        cur.advance()
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

    for line, cur in _lines(text):
        head = cur.peek()
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
    tok = cur.advance()
    m = _DNAME_RE.match(tok.text) if tok.kind == "ident" else None
    if not m or not 1 <= int(m.group(1)) <= k:
        raise ParseError(f"eta index must be one of d1..d{k}", tok.line, tok.column)
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

    for _, cur in _lines(text):
        k = _scan_k(cur.tokens)
        head = cur.peek()
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
    for _, cur in _lines(text):
        k = _scan_k(cur.tokens)
        head = cur.peek()
        if _take(cur, "ambient", ":"):
            _once(declared, "ambient", head, "`ambient:`")
            ambient = tuple(_comma_list(cur, _ExprParser(cur, COMMUTATIVE, k).variable))
            continue
        main = _ExprParser(cur, COMMUTATIVE, k).variable()
        tok = cur.advance()
        if tok.text != ":":
            raise ParseError("expected `main : polynomial`", tok.line, tok.column)
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
