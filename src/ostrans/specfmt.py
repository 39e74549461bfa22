"""Text format for algebras: tokenizer, parser, elaboration and printer.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CastNameReserved,
    DuplicateDeclaration,
    InconsistentAnnotation,
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
    print_term,
    sorts_of,
    variables_of,
)
from .translate import is_reserved_name

_KEYWORDS = frozenset({"algebra", "sorts", "subsorts", "op", "eq", "rule"})
# An identifier is an optional symbol run followed by an alphanumeric
# tail: "seq", "0", "+", "-int", "+AExp", "<=", ".Map".
_SYM = frozenset("+-*/!?@$%^&~|.")
_ALNUM = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    col: int


_PUNCT = {"=": "EQ", "<": "LT", "(": "LPAREN", ")": "RPAREN", ",": "COMMA",
          ":": "COLON", ";": "SEMI"}


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if two == "->":
            tokens.append(Token("ARROW", two, line, col))
            i += 2
            col += 2
            continue
        if two == "=>":
            tokens.append(Token("DARROW", two, line, col))
            i += 2
            col += 2
            continue
        if two == "<=":
            j = i + 2
            while j < n and text[j] in _ALNUM:
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _ALNUM or ch in _SYM:
            j = i
            while j < n and text[j] in _SYM and text[j:j + 2] != "->":
                j += 1
            while j < n and text[j] in _ALNUM:
                j += 1
            word = text[i:j]
            tokens.append(Token("KW" if word in _KEYWORDS else "IDENT", word, line, col))
            col += j - i
            i = j
            continue
        raise SpecSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# Term syntax trees carry spans until elaboration resolves them.
TermAst = tuple  # ("const", name, tok) | ("app", name, args, tok) | ("var", name, sort, tok)

Item = tuple  # ("sorts", [...]), ("subsorts", [...]), ("op", ...), ("eq", ...), ("rule", ...)


@dataclass
class SpecDocument:
    """Parsed declarations, in file order, before elaboration."""

    name: str
    declarations: list[Item]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise SpecSyntaxError(
                f"expected {what}, found {tok.value!r}" if tok.value
                else f"expected {what}, found end of input",
                tok.line, tok.col,
            )
        return tok

    def keyword(self, word: str) -> Token:
        tok = self.next()
        if tok.kind != "KW" or tok.value != word:
            raise SpecSyntaxError(
                f"expected {word!r}, found {tok.value!r}" if tok.value
                else f"expected {word!r}, found end of input",
                tok.line, tok.col,
            )
        return tok

    def parse_document(self) -> SpecDocument:
        self.keyword("algebra")
        name = self.expect("IDENT", "an algebra name").value
        items: list[Item] = []
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind != "KW":
                raise SpecSyntaxError(
                    f"expected a declaration, found {tok.value!r}", tok.line, tok.col
                )
            items.append(self.parse_item())
        return SpecDocument(name=name, declarations=items)

    def parse_item(self) -> Item:
        tok = self.next()
        if tok.value == "sorts":
            names = []
            while self.peek().kind == "IDENT":
                names.append(self.next())
            if not names:
                raise SpecSyntaxError("sorts needs at least one name", tok.line, tok.col)
            return ("sorts", names)
        if tok.value == "subsorts":
            pairs = [self.parse_pair()]
            while self.peek().kind == "SEMI":
                self.next()
                pairs.append(self.parse_pair())
            return ("subsorts", pairs)
        if tok.value == "op":
            name = self.expect("IDENT", "an operator name")
            self.expect("COLON", "':'")
            args = []
            while self.peek().kind == "IDENT":
                args.append(self.next())
            self.expect("ARROW", "'->'")
            target = self.expect("IDENT", "a target sort")
            return ("op", name, args, target)
        if tok.value == "eq":
            lhs = self.parse_term()
            self.expect("EQ", "'='")
            rhs = self.parse_term()
            return ("eq", lhs, rhs, tok)
        if tok.value == "rule":
            lhs = self.parse_term()
            self.expect("DARROW", "'=>'")
            rhs = self.parse_term()
            return ("rule", lhs, rhs, tok)
        raise SpecSyntaxError(f"unknown declaration {tok.value!r}", tok.line, tok.col)

    def parse_pair(self) -> tuple[Token, Token]:
        lo = self.expect("IDENT", "a sort name")
        self.expect("LT", "'<'")
        hi = self.expect("IDENT", "a sort name")
        return (lo, hi)

    def parse_term(self) -> TermAst:
        head = self.expect("IDENT", "a term")
        nxt = self.peek()
        if nxt.kind == "LPAREN":
            self.next()
            args = [self.parse_term()]
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.parse_term())
            self.expect("RPAREN", "')'")
            return ("app", head.value, args, head)
        if nxt.kind == "COLON":
            self.next()
            sort = self.expect("IDENT", "a sort name")
            return ("var", head.value, sort.value, head)
        return ("const", head.value, head)


def parse_document(text: str) -> SpecDocument:
    return _Parser(text).parse_document()


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
        self.sorts: dict[str, Token] = {}
        self.pairs: dict[tuple[str, str], Token] = {}
        self.operators: dict[Operator, Token] = {}
        self.arities: dict[str, set[int]] = {}
        self.equations: dict[Equation, Token] = {}
        self.rules: dict[Rule, Token] = {}

    def run(self):
        for item in self.doc.declarations:
            if item[0] == "sorts":
                for tok in item[1]:
                    if tok.value in self.sorts:
                        raise DuplicateDeclaration(
                            f"sort {tok.value!r} declared twice", tok.line, tok.col
                        )
                    self.sorts[tok.value] = tok
        sort_set = frozenset(self.sorts)
        for item in self.doc.declarations:
            if item[0] == "subsorts":
                if self.kind == "msa":
                    tok = item[1][0][0]
                    raise SpecSyntaxError(
                        "a many-sorted file cannot declare subsorts",
                        tok.line, tok.col,
                    )
                for lo, hi in item[1]:
                    self._known_sort(lo)
                    self._known_sort(hi)
                    pair = (lo.value, hi.value)
                    if pair in self.pairs:
                        raise DuplicateDeclaration(
                            f"subsort pair {lo.value} < {hi.value} declared twice",
                            lo.line, lo.col,
                        )
                    self.pairs[pair] = lo
            elif item[0] == "op":
                _, name, args, target = item
                for tok in args + [target]:
                    self._known_sort(tok)
                op = Operator(
                    name.value,
                    tuple(tok.value for tok in args),
                    target.value,
                )
                if is_reserved_name(name.value):
                    if self.kind == "osa":
                        raise CastNameReserved(
                            f"constructor {name.value!r} uses the reserved cast"
                            " naming scheme",
                            name.line, name.col,
                        )
                    _resolve_cast_profile(name.value, sort_set, op, name)
                if op in self.operators:
                    raise DuplicateDeclaration(
                        f"operator {op!r} declared twice", name.line, name.col
                    )
                self.operators[op] = name

        signature = self._signature()
        for op in self.operators:
            self.arities.setdefault(op.constructor, set()).add(op.arity)
        for item in self.doc.declarations:
            if item[0] == "eq":
                _, lhs_ast, rhs_ast, tok = item
                eq = Equation(self._pattern(lhs_ast), self._pattern(rhs_ast))
                self._check_sides(signature, eq.lhs, eq.rhs, tok)
                if eq in self.equations:
                    raise DuplicateDeclaration("equation declared twice", tok.line, tok.col)
                self.equations[eq] = tok
            elif item[0] == "rule":
                _, lhs_ast, rhs_ast, tok = item
                rule = Rule(self._pattern(lhs_ast), self._pattern(rhs_ast))
                self._check_sides(signature, rule.lhs, rule.rhs, tok)
                if rule in self.rules:
                    raise DuplicateDeclaration("rule declared twice", tok.line, tok.col)
                self.rules[rule] = tok

        if self.kind == "osa":
            return OSAlgebra(signature, tuple(self.equations), tuple(self.rules))
        core = frozenset(
            eq for eq in self.equations if _is_core_equation(signature, eq)
        )
        return MSAlgebra(signature, tuple(self.equations), tuple(self.rules), core)

    def _signature(self):
        if self.kind == "osa":
            return OSSignature(frozenset(self.sorts), frozenset(self.pairs),
                               tuple(self.operators))
        non_core = frozenset(
            op for op in self.operators if is_reserved_name(op.constructor)
        )
        return MSSignature(frozenset(self.sorts), tuple(self.operators), non_core)

    def _known_sort(self, tok: Token) -> None:
        if tok.value not in self.sorts:
            raise SpecUnknownSort(f"unknown sort {tok.value!r}", tok.line, tok.col)

    def _pattern(self, ast: TermAst) -> Pattern:
        if ast[0] == "var":
            _, name, sort, tok = ast
            if sort not in self.sorts:
                raise SpecUnknownSort(f"unknown sort {sort!r}", tok.line, tok.col)
            return Var(name, sort)
        if ast[0] == "const":
            _, name, tok = ast
            self._known_constructor(name, 0, tok)
            return PNode(name, ())
        _, name, args, tok = ast
        self._known_constructor(name, len(args), tok)
        return PNode(name, tuple(self._pattern(a) for a in args))

    def _known_constructor(self, name: str, arity: int, tok: Token) -> None:
        arities = self.arities.get(name)
        if not arities:
            raise SpecSyntaxError(f"unknown constructor {name!r}", tok.line, tok.col)
        if arity not in arities:
            raise SpecSyntaxError(
                f"constructor {name!r} used with {arity} arguments", tok.line, tok.col
            )

    def _check_sides(self, signature, lhs: Pattern, rhs: Pattern, tok: Token) -> None:
        try:
            seen = variables_of(lhs)
            rhs_vars = variables_of(rhs)
        except InconsistentAnnotation as exc:
            raise SpecSyntaxError(str(exc), tok.line, tok.col) from None
        for name, sort in rhs_vars.items():
            if seen.setdefault(name, sort) != sort:
                raise SpecSyntaxError(
                    f"variable {name} carries two sorts", tok.line, tok.col
                )
        for side, label in ((lhs, "left"), (rhs, "right")):
            if not sorts_of(signature, side):
                raise SpecSyntaxError(
                    f"{label} side is not well-formed: {print_term(side)}",
                    tok.line, tok.col,
                )


def _is_core_equation(sig: MSSignature, eq: Equation) -> bool:
    def chain_over_var(p: Pattern):
        casts = 0
        while isinstance(p, PNode):
            op = sig.ops_named(p.constructor)
            if len(p.args) != 1 or not op or op[0] not in sig.non_core:
                return None
            casts += 1
            p = p.args[0]
        return (p.name, p.sort, casts) if isinstance(p, Var) else None

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
    if alg.equations:
        lines.append("")
        for eq in sorted(alg.equations, key=lambda e: print_term(e.lhs) + print_term(e.rhs)):
            lines.append(f"eq {print_term(eq.lhs)} = {print_term(eq.rhs)}")
    if alg.rules:
        lines.append("")
        for rule in sorted(alg.rules, key=lambda r: print_term(r.lhs) + print_term(r.rhs)):
            lines.append(f"rule {print_term(rule.lhs)} => {print_term(rule.rhs)}")
    return "\n".join(lines) + "\n"


def parse_term_text(text: str, signature) -> GroundTerm:
    """Parse a single ground term against a signature (CLI helper)."""
    parser = _Parser(text)
    ast = parser.parse_term()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise SpecSyntaxError(f"trailing input {tok.value!r}", tok.line, tok.col)

    def build(node: TermAst) -> GroundTerm:
        if node[0] == "var":
            raise SpecSyntaxError("ground term expected, found a variable",
                                  node[3].line, node[3].col)
        if node[0] == "const":
            return GroundTerm(node[1])
        return GroundTerm(node[1], tuple(build(a) for a in node[2]))

    term = build(ast)
    if not sorts_of(signature, term):
        raise SpecSyntaxError("term is not well-formed in the signature", 1, 1)
    return term
