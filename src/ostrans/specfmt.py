"""Text format for algebras: scanner, parser, elaboration and printer.

The grammar is prefix-only abstract syntax:

    spec      := "algebra" IDENT item*
    item      := "sorts" IDENT+
               | "subsorts" pair (";" pair)*        pair := IDENT "<" IDENT
               | "op" IDENT ":" IDENT* "->" IDENT
               | "eq" term "=" term
               | "rule" term "=>" term
    term      := IDENT                               constant
               | IDENT "(" term ("," term)* ")"      application
               | IDENT ":" IDENT                     variable of a sort

Identifiers may be alphanumeric (``seq``, ``0``, ``Cast_nat_to_int``) or
start with a symbol character (``+``, ``-``, ``<=``, ``+AExp``), so
translated constructor names parse back.  ``#`` starts a line comment.
Order-sorted files use the ``.osa`` extension and may declare subsorts;
many-sorted ``.msa`` files must not, and their cast-named operators are
the non-core ones.

Elaboration reports every error in the text with the line and column
of its token, as a ``SpecError``.  The algebra constructor checks each
``eq`` and ``rule`` once (``terms._check_statement``); a ``.msa``
statement's sides must also have one sort.  Only when elaboration fails
are the statements before the failure checked again, in file order, so
that the first bad one is reported at its keyword.

One regular expression scans the text into token values; a value fixes
its token's kind.  The parser walks the values by index, recording token
indices, and works out a line and column only for a diagnostic.  Terms
are parsed and built with explicit stacks, so any depth parses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

from .errors import (
    CastNameReserved,
    DuplicateDeclaration,
    IllFormedTerm,
    InconsistentAnnotation,
    SpecError,
    SpecSyntaxError,
    SpecUnknownSort,
)
from .terms import (
    Equation,
    GroundTerm,
    MSAlgebra,
    MSSignature,
    Operator,
    OSAlgebra,
    OSSignature,
    Pattern,
    PNode,
    Rule,
    Var,
    _check_statement,
    print_term,
    sorts_of,
)
from .translate import is_reserved_name

_KEYWORDS = frozenset({"algebra", "sorts", "subsorts", "op", "eq", "rule"})
# The kind of every token value that is not an identifier.
_KIND = {"=": "EQ", "<": "LT", "(": "LPAREN", ")": "RPAREN", ",": "COMMA",
         ":": "COLON", ";": "SEMI", "->": "ARROW", "=>": "DARROW", "": "EOF",
         **dict.fromkeys(_KEYWORDS, "KW")}
# One token per match, then the whitespace and comments after it;
# ``_LEADING`` skips those before the first.  An identifier is an optional
# symbol run, which stops before "->", then an alphanumeric tail: "seq",
# "0", "+", "-int", "+AExp", "<=", ".Map".  Any other single character
# matches the last branch and is unexpected.
_SKIP = r"(?:[ \t\r\n]+|#[^\n]*)*"
_LEADING = re.compile(_SKIP)
_TOKEN = re.compile(
    r"(->|=>|<=\w*|[=<(),:;]|(?:-(?!>)|[+*/!?@$%^&~|.])+\w*|\w+|.)" + _SKIP, re.ASCII
)
_ONE_CHAR = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_=<(),:;+-*/!?@$%^&~|."
)


def _scan(text: str) -> list[str]:
    """The token values of ``text`` in order, then ``""`` for the end of input."""
    values = _TOKEN.findall(text, _LEADING.match(text).end())
    odd = [v for v in set(values) if len(v) == 1 and v not in _ONE_CHAR]
    if odd:
        i = min(map(values.index, odd))
        raise SpecSyntaxError(f"unexpected character {values[i]!r}", *_position(text, i))
    values.append("")
    return values


def _positions(text: str):
    """Line and column of each token of ``text``, then of the end of input.

    A comment runs to the end of its line, so only the end of input can
    follow one on the same line; it takes the comment's column.
    """
    starts = (m.start() for m in _TOKEN.finditer(text, _LEADING.match(text).end()))
    line, line_start, last = 1, 0, 0
    for start in chain(starts, (len(text),)):
        newlines = text.count("\n", last, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, start) + 1
        comment = text.find("#", max(last, line_start), start)
        last = start
        yield line, (start if comment < 0 else comment) - line_start + 1


def _position(text: str, index: int) -> tuple[int, int]:
    return next(islice(_positions(text), index, None))


class Token(NamedTuple):
    """Token ``index`` of a spec text; its position is worked out when read."""

    text: str
    index: int
    line = property(lambda self: _position(self.text, self.index)[0])
    col = property(lambda self: _position(self.text, self.index)[1])


# A term is its nodes in preorder, two entries each: the index of the head
# token and the arity, or -1 for a variable (its sort is two tokens on).
TermNodes = list

Item = tuple  # ("sorts", [...]), ("subsorts", [...]), ("op", ...), ("eq", ...), ("rule", ...)

# The token between the sides of each kind of statement.
_BETWEEN = {"eq": "=", "rule": "=>"}


@dataclass
class SpecDocument:
    """Parsed declarations, in file order, naming tokens by index in ``tokens``."""

    name: str
    declarations: list[Item]
    text: str
    tokens: list[str]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.values = _scan(text)
        self.pos = 0

    def fail(self, message: str, index: int):
        raise SpecSyntaxError(message, *_position(self.text, index))

    def take(self, what: str, value: str | None = None) -> int:
        """The index of the next token: ``value``, or an identifier if None."""
        i = self.pos
        self.pos += 1
        found = self.values[i]
        if (found in _KIND) if value is None else (found != value):
            self.fail(f"expected {what}, found {found!r}" if found
                      else f"expected {what}, found end of input", i)
        return i

    def names(self) -> list[int]:
        """The indices of the identifiers that follow."""
        start = self.pos
        while self.values[self.pos] not in _KIND:
            self.pos += 1
        return list(range(start, self.pos))

    def parse_document(self) -> SpecDocument:
        self.take("'algebra'", "algebra")
        name = self.values[self.take("an algebra name")]
        items: list[Item] = []
        while self.values[self.pos]:
            if self.values[self.pos] not in _KEYWORDS:
                self.fail(f"expected a declaration, found {self.values[self.pos]!r}", self.pos)
            items.append(self.parse_item())
        return SpecDocument(name, items, self.text, self.values)

    def parse_item(self) -> Item:
        i = self.pos
        self.pos += 1
        word = self.values[i]
        if word == "sorts":
            names = self.names()
            if not names:
                self.fail("sorts needs at least one name", i)
            return ("sorts", names)
        if word == "subsorts":
            pairs = [self.parse_pair()]
            while self.values[self.pos] == ";":
                self.pos += 1
                pairs.append(self.parse_pair())
            return ("subsorts", pairs)
        if word == "op":
            name = self.take("an operator name")
            self.take("':'", ":")
            args = self.names()
            self.take("'->'", "->")
            return ("op", name, args, self.take("a target sort"))
        if word in _BETWEEN:
            lhs = self.parse_term()
            self.take(f"'{_BETWEEN[word]}'", _BETWEEN[word])
            return (word, lhs, self.parse_term(), i)
        self.fail(f"unknown declaration {word!r}", i)

    def parse_pair(self) -> tuple[int, int]:
        lo = self.take("a sort name")
        self.take("'<'", "<")
        return (lo, self.take("a sort name"))

    def parse_term(self) -> TermNodes:
        """One term, in one loop over a stack of open argument lists."""
        values = self.values
        nodes: TermNodes = []
        arity_at: list[int] = []  # where each open application's arity is
        while True:
            i = self.take("a term")
            if values[self.pos] == "(":
                self.pos += 1
                arity_at.append(len(nodes) + 1)
                nodes += (i, 1)
                continue
            if values[self.pos] == ":":
                self.pos += 1
                self.take("a sort name")
                nodes += (i, -1)
            else:
                nodes += (i, 0)
            while arity_at:
                if values[self.pos] == ",":
                    self.pos += 1
                    nodes[arity_at[-1]] += 1
                    break
                self.take("')'", ")")
                arity_at.pop()
            else:
                return nodes


def parse_document(text: str) -> SpecDocument:
    return _Parser(text).parse_document()


def _build(values: list[str], nodes: TermNodes, var, app):
    """The term ``nodes`` describes, from ``var(name, sort)`` and ``app(name, args)``.

    Nodes are taken in reverse preorder, so each application finds its
    arguments on top of the stack, the first one last.
    """
    stack: list = []
    for k in range(len(nodes) - 2, -1, -2):
        i, arity = nodes[k], nodes[k + 1]
        if arity < 0:
            stack.append(var(values[i], values[i + 2]))
            continue
        cut = len(stack) - arity
        args = stack[cut:]
        del stack[cut:]
        args.reverse()
        stack.append(app(values[i], tuple(args)))
    return stack[0]


def _resolve_cast_profile(name: str, sorts: frozenset[str], op: Operator,
                          tok: Token) -> None:
    # A cast-named operator in a many-sorted file must be the cast it names.
    # Sort names may contain "_to_", so try every split of the name there.
    rest = name[len("Cast_"):]
    matches = []
    cut = rest.find("_to_")
    while cut != -1:
        sub, sup = rest[:cut], rest[cut + len("_to_"):]
        if sub in sorts and sup in sorts:
            matches.append((sub, sup))
        cut = rest.find("_to_", cut + 1)
    if len(matches) != 1:
        raise CastNameReserved(
            f"cast-named operator {name!r} does not name a unique sort pair",
            tok.line, tok.col,
        )
    sub, sup = matches[0]
    if op.arg_sorts != (sub,) or op.target_sort != sup:
        raise CastNameReserved(
            f"cast-named operator {name!r} must have profile {sub} -> {sup}",
            tok.line, tok.col,
        )


class _Elaborator:
    def __init__(self, doc: SpecDocument, kind: str):
        self.doc = doc
        self.kind = kind
        self.values = doc.tokens
        # Each declaration, by the index of the token that declares it.
        self.sorts: dict[str, int] = {}
        self.pairs: dict[tuple[str, str], int] = {}
        self.operators: dict[Operator, int] = {}
        self.arities: dict[str, set[int]] = {}
        self.equations: dict[Equation, int] = {}
        self.rules: dict[Rule, int] = {}

    def _at(self, index: int) -> tuple[int, int]:
        return _position(self.doc.text, index)

    def run(self):
        values = self.values
        for item in self.doc.declarations:
            if item[0] == "sorts":
                for i in item[1]:
                    if values[i] in self.sorts:
                        raise DuplicateDeclaration(
                            f"sort {values[i]!r} declared twice", *self._at(i)
                        )
                    self.sorts[values[i]] = i
        sort_set = frozenset(self.sorts)
        for item in self.doc.declarations:
            if item[0] == "subsorts":
                if self.kind == "msa":
                    raise SpecSyntaxError(
                        "a many-sorted file cannot declare subsorts", *self._at(item[1][0][0])
                    )
                for lo, hi in item[1]:
                    self._known_sort(lo)
                    self._known_sort(hi)
                    pair = (values[lo], values[hi])
                    if pair in self.pairs:
                        raise DuplicateDeclaration(
                            f"subsort pair {pair[0]} < {pair[1]} declared twice", *self._at(lo)
                        )
                    self.pairs[pair] = lo
            elif item[0] == "op":
                _, name, args, target = item
                for i in args + [target]:
                    self._known_sort(i)
                op = Operator(values[name], tuple([values[i] for i in args]), values[target])
                if is_reserved_name(op.constructor):
                    if self.kind == "osa":
                        raise CastNameReserved(
                            f"constructor {op.constructor!r} uses the reserved cast"
                            " naming scheme",
                            *self._at(name),
                        )
                    _resolve_cast_profile(op.constructor, sort_set, op, Token(self.doc.text, name))
                if op in self.operators:
                    raise DuplicateDeclaration(f"operator {op!r} declared twice", *self._at(name))
                self.operators[op] = name

        signature = self._signature()
        self.arities = _arities(self.operators)
        statements = {"eq": (Equation, self.equations, "equation"),
                      "rule": (Rule, self.rules, "rule")}
        try:
            for item in self.doc.declarations:
                if item[0] in statements:
                    kind, lhs, rhs, i = item
                    cls, seen, what = statements[kind]
                    statement = cls(self._pattern(lhs), self._pattern(rhs))
                    if seen.setdefault(statement, i) != i:
                        raise DuplicateDeclaration(f"{what} declared twice", *self._at(i))
            # The algebra constructor checks each statement.
            if self.kind == "osa":
                return OSAlgebra(signature, tuple(self.equations), tuple(self.rules))
            core = frozenset(
                eq for eq in self.equations if _is_core_equation(signature, eq)
            )
            return MSAlgebra(signature, tuple(self.equations), tuple(self.rules), core)
        except (SpecError, InconsistentAnnotation, IllFormedTerm):
            # A bad statement before the failure is the first error in the
            # file: check those built, in file order, to position it.
            built = sorted((i, statement, what)
                           for first, what in ((self.equations, "equation"),
                                               (self.rules, "rule"))
                           for statement, i in first.items())
            for i, statement, what in built:
                try:
                    _check_statement(signature, statement, what, self.kind == "msa")
                except (InconsistentAnnotation, IllFormedTerm) as exc:
                    raise SpecSyntaxError(str(exc), *self._at(i)) from None
            raise

    def _signature(self):
        if self.kind == "osa":
            return OSSignature(frozenset(self.sorts), frozenset(self.pairs),
                               tuple(self.operators))
        non_core = frozenset(
            op for op in self.operators if is_reserved_name(op.constructor)
        )
        return MSSignature(frozenset(self.sorts), tuple(self.operators), non_core)

    def _known_sort(self, i: int) -> None:
        if self.values[i] not in self.sorts:
            raise SpecUnknownSort(f"unknown sort {self.values[i]!r}", *self._at(i))

    def _pattern(self, nodes: TermNodes) -> Pattern:
        values = self.values
        # Checked in preorder, so the first offending token is reported.
        for k in range(0, len(nodes), 2):
            i, arity = nodes[k], nodes[k + 1]
            if arity < 0:
                if values[i + 2] not in self.sorts:
                    raise SpecUnknownSort(f"unknown sort {values[i + 2]!r}", *self._at(i))
            elif arity not in self.arities.get(values[i], ()):
                _known_constructor(self.arities, values[i], arity, Token(self.doc.text, i))
        return _build(values, nodes, Var, PNode)


def _arities(operators) -> dict[str, set[int]]:
    """The arities each constructor is declared with."""
    out: dict[str, set[int]] = {}
    for op in operators:
        out.setdefault(op.constructor, set()).add(op.arity)
    return out


def _known_constructor(arities: dict[str, set[int]], name: str, arity: int,
                       tok: Token) -> None:
    """Raise at ``tok`` unless ``name`` is declared with ``arity`` arguments."""
    known = arities.get(name)
    if not known:
        raise SpecSyntaxError(f"unknown constructor {name!r}", tok.line, tok.col)
    if arity not in known:
        raise SpecSyntaxError(
            f"constructor {name!r} used with {arity} arguments", tok.line, tok.col
        )


def _is_core_equation(sig: MSSignature, eq: Equation) -> bool:
    def chain_over_var(p: Pattern):
        casts = 0
        while not isinstance(p, Var):
            op = sig.ops_named(p.constructor)
            if len(p.args) != 1 or not op or op[0] not in sig.non_core:
                return None
            casts += 1
            p = p.args[0]
        return p.name, p.sort, casts

    a, b = chain_over_var(eq.lhs), chain_over_var(eq.rhs)
    return (
        a is not None and b is not None
        and a[:2] == b[:2] and a[2] >= 1 and b[2] >= 1
    )


def parse_spec(text: str, kind: str = "osa"):
    """Parse and elaborate a spec file into an algebra.

    ``kind`` selects the order-sorted (``"osa"``) or many-sorted
    (``"msa"``) elaboration; every diagnostic carries line and column.
    """
    if kind not in ("osa", "msa"):
        raise ValueError(f"unknown spec kind {kind!r}")
    return _Elaborator(parse_document(text), kind).run()


# --- printing ---------------------------------------------------------------

def print_spec(alg, name: str = "spec") -> str:
    """Deterministic text for an algebra; reparsing yields an equal one."""
    lines = [f"algebra {name}", ""]
    lines.append("sorts " + " ".join(sorted(alg.signature.sorts)))
    if isinstance(alg, OSAlgebra) and alg.signature.subsort_pairs:
        pairs = "; ".join(
            f"{lo} < {hi}" for lo, hi in sorted(alg.signature.subsort_pairs)
        )
        lines.append(f"subsorts {pairs}")
    lines.append("")
    for op in alg.signature.operators:
        args = " ".join(op.arg_sorts)
        lines.append(f"op {op.constructor} : {args + ' ' if args else ''}-> {op.target_sort}")
    for word, statements in (("eq", alg.equations), ("rule", alg.rules)):
        if statements:
            lines.append("")
            # Ordered by the two printed sides run together.
            sides = sorted([(print_term(s.lhs), print_term(s.rhs)) for s in statements],
                           key="".join)
            lines += [f"{word} {lhs} {_BETWEEN[word]} {rhs}" for lhs, rhs in sides]
    return "\n".join(lines) + "\n"


def parse_term_text(text: str, signature) -> GroundTerm:
    """Parse a single ground term against a signature (CLI helper).

    An ill-formed term is reported at the first node, in preorder, whose
    constructor the signature does not declare with that arity, or that
    no operator admits over well-formed arguments.
    """
    parser = _Parser(text)
    nodes = parser.parse_term()
    trailing = parser.values[parser.pos]
    if trailing:
        parser.fail(f"trailing input {trailing!r}", parser.pos)
    for k in range(1, len(nodes), 2):
        if nodes[k] < 0:
            parser.fail("ground term expected, found a variable", nodes[k - 1])
    term = _build(parser.values, nodes, None, GroundTerm)
    if not sorts_of(signature, term):
        arities = _arities(signature.operators)
        stack = [term]
        for k in range(0, len(nodes), 2):
            i, node = nodes[k], stack.pop()
            stack += reversed(node.args)
            _known_constructor(arities, parser.values[i], nodes[k + 1], Token(text, i))
            if all(sorts_of(signature, a) for a in node.args) and not sorts_of(signature, node):
                parser.fail("term is not well-formed in the signature", i)
    return term
