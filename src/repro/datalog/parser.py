"""Parser for the Datalog dialect used throughout the paper.

Concrete syntax (matching the listings in Algorithms 1–7)::

    # Context-insensitive points-to analysis (Algorithm 1).
    .domains
    V 262144 variable.map
    H 65536

    .relations
    vP0    (variable : V, heap : H) input
    assign (dest : V0, source : V1) input
    vP     (variable : V, heap : H) output

    .rules
    vP(v, h)      :- vP0(v, h).
    vP(v1, h)     :- assign(v1, v2), vP(v2, h).
    hP(h1, f, h2) :- store(v1, f, v2), vP(v1, h1), vP(v2, h2).
    vP(v2, h2)    :- load(v1, f, v2), vP(v1, h1), hP(h1, f, h2).

Notes
-----
* ``#`` and ``//`` start comments; blank lines are ignored.
* Attribute domains may carry an explicit physical instance (``V1``);
  otherwise instances are assigned by position among same-domain
  attributes, exactly as bddbddb numbers ``V0, V1, ...``.
* Terms: lower-case identifiers are variables, ``_`` is a don't-care,
  integers are ordinal constants, and double-quoted strings are named
  constants resolved through the domain's name map at load time.
* Body atoms may be negated with ``!``; built-ins ``=`` and ``!=`` compare
  two terms of the same domain.
* A rule may span several physical lines; it ends at the terminating ``.``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .ast import (
    Atom,
    AttributeDecl,
    Comparison,
    DatalogError,
    DomainDecl,
    DontCare,
    NamedConst,
    NumberConst,
    ProgramAST,
    RelationDecl,
    Rule,
    Term,
    Variable,
)

__all__ = ["parse_program"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*|//[^\n]*)
  | (?P<string>"[^"]*")
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<turnstile>:-)
  | (?P<neq>!=)
  | (?P<sym>[(),.:=!_])
    """,
    re.VERBOSE,
)

_SECTION_RE = re.compile(r"^\.(domains|relations|rules)\s*$")


def _tokenize(text: str, line_offset: int) -> List[Tuple[str, str, int]]:
    """Tokenize one logical chunk; returns (kind, value, line) triples."""
    tokens = []
    line = line_offset
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            snippet = text[pos : pos + 20]
            raise DatalogError(f"line {line}: cannot tokenize near {snippet!r}")
        kind = m.lastgroup
        value = m.group()
        line += value.count("\n")
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        tokens.append((kind, value, line))
    return tokens


class _TokenStream:
    def __init__(self, tokens: List[Tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise DatalogError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, value: str) -> Tuple[str, str, int]:
        tok = self.next()
        if tok[1] != value:
            raise DatalogError(f"line {tok[2]}: expected {value!r}, got {tok[1]!r}")
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


def _strip_comment(line: str) -> str:
    for marker in ("#", "//"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line.rstrip()


_DOMAIN_REF_RE = re.compile(r"^([A-Za-z]+?)(\d*)$")


def _parse_domain_ref(text: str, known_domains: Dict[str, DomainDecl], line: int):
    """Resolve ``V`` / ``V1`` into (domain, instance)."""
    m = _DOMAIN_REF_RE.match(text)
    if m is None:
        raise DatalogError(f"line {line}: bad domain reference {text!r}")
    base, digits = m.group(1), m.group(2)
    if text in known_domains:
        # A domain literally named e.g. "H2" takes priority over H instance 2.
        return text, None
    if digits and base in known_domains:
        return base, int(digits)
    if base in known_domains:
        return base, None
    raise DatalogError(f"line {line}: unknown domain {text!r}")


def _parse_domain_line(line: str, lineno: int) -> DomainDecl:
    parts = line.split()
    if len(parts) not in (2, 3):
        raise DatalogError(f"line {lineno}: domain declaration needs 'NAME SIZE [mapfile]'")
    name, size_text = parts[0], parts[1]
    try:
        size = int(size_text)
    except ValueError:
        raise DatalogError(f"line {lineno}: bad domain size {size_text!r}")
    if size <= 0:
        raise DatalogError(f"line {lineno}: domain size must be positive")
    map_file = parts[2] if len(parts) == 3 else None
    return DomainDecl(name, size, map_file)


def _parse_relation_line(
    line: str, lineno: int, domains: Dict[str, DomainDecl]
) -> RelationDecl:
    m = re.match(r"^\s*([A-Za-z][A-Za-z0-9_]*)\s*\((.*)\)\s*(.*)$", line)
    if m is None:
        raise DatalogError(f"line {lineno}: bad relation declaration {line!r}")
    name, attr_text, flags_text = m.group(1), m.group(2), m.group(3)
    attributes = []
    for chunk in attr_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise DatalogError(f"line {lineno}: empty attribute in {name}")
        if ":" not in chunk:
            raise DatalogError(f"line {lineno}: attribute needs 'name : DOMAIN'")
        attr_name, dom_text = [p.strip() for p in chunk.split(":", 1)]
        domain, instance = _parse_domain_ref(dom_text, domains, lineno)
        attributes.append(AttributeDecl(attr_name, domain, instance))
    flags = set(flags_text.split())
    unknown = flags - {"input", "output", "printsize"}
    if unknown:
        raise DatalogError(f"line {lineno}: unknown relation flags {sorted(unknown)}")
    return RelationDecl(
        name,
        tuple(attributes),
        is_input="input" in flags,
        is_output="output" in flags,
    )


def _parse_term(stream: _TokenStream) -> Term:
    kind, value, line = stream.next()
    if kind == "ident":
        return Variable(value)
    if kind == "number":
        return NumberConst(int(value))
    if kind == "string":
        return NamedConst(value[1:-1])
    if value == "_":
        return DontCare()
    raise DatalogError(f"line {line}: unexpected term {value!r}")


def _parse_atom_or_comparison(stream: _TokenStream) -> Union[Atom, Comparison]:
    negated = False
    tok = stream.peek()
    if tok is not None and tok[1] == "!":
        stream.next()
        negated = True
    first = _parse_term(stream)
    tok = stream.peek()
    if tok is not None and tok[1] == "(" and isinstance(first, Variable):
        # Relation atom.
        stream.expect("(")
        terms: List[Term] = []
        while True:
            terms.append(_parse_term(stream))
            kind, value, line = stream.next()
            if value == ")":
                break
            if value != ",":
                raise DatalogError(f"line {line}: expected ',' or ')' in atom")
        return Atom(first.name, tuple(terms), negated=negated)
    # Comparison built-in.
    kind, value, line = stream.next()
    if value == "=":
        op = "="
    elif value == "!=":
        op = "!="
    else:
        raise DatalogError(f"line {line}: expected atom or comparison, got {value!r}")
    right = _parse_term(stream)
    if negated:
        op = "!=" if op == "=" else "="
    return Comparison(first, op, right)


def _parse_rule(text: str, lineno: int) -> Rule:
    tokens = _tokenize(text, lineno)
    stream = _TokenStream(tokens)
    head = _parse_atom_or_comparison(stream)
    if isinstance(head, Comparison) or head.negated:
        raise DatalogError(f"line {lineno}: rule head must be a positive atom")
    body: List[Union[Atom, Comparison]] = []
    tok = stream.peek()
    if tok is not None and tok[1] == ":-":
        stream.next()
        while True:
            body.append(_parse_atom_or_comparison(stream))
            tok = stream.peek()
            if tok is None:
                break
            if tok[1] == ",":
                stream.next()
                continue
            break
    if not stream.at_end():
        kind, value, line = stream.next()
        raise DatalogError(f"line {line}: trailing tokens {value!r} in rule")
    return Rule(head, tuple(body), line=lineno)


def parse_program(
    text: str, domain_sizes: Optional[Dict[str, int]] = None
) -> ProgramAST:
    """Parse Datalog source into a validated :class:`ProgramAST`.

    ``domain_sizes`` optionally overrides the declared domain sizes — the
    analysis drivers use it to shrink the paper's generous declarations
    (e.g. ``V 262144``) to the actual number of variables in the program
    under analysis, which keeps the BDDs narrow.
    """
    program = ProgramAST()
    section = None
    pending_rule: List[str] = []
    pending_start = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m is not None:
            if pending_rule:
                raise DatalogError(
                    f"line {pending_start}: unterminated rule before section"
                )
            section = m.group(1)
            continue
        if section == "domains":
            decl = _parse_domain_line(line.strip(), lineno)
            if decl.name in program.domains:
                raise DatalogError(f"line {lineno}: duplicate domain {decl.name}")
            program.domains[decl.name] = decl
        elif section == "relations":
            decl = _parse_relation_line(line, lineno, program.domains)
            if decl.name in program.relations:
                raise DatalogError(f"line {lineno}: duplicate relation {decl.name}")
            program.relations[decl.name] = decl
        elif section == "rules":
            if not pending_rule:
                pending_start = lineno
            pending_rule.append(line)
            if line.rstrip().endswith("."):
                rule_text = "\n".join(pending_rule)
                # Drop the final terminating dot only.
                rule_text = rule_text.rstrip()[:-1]
                program.rules.append(_parse_rule(rule_text, pending_start))
                pending_rule = []
        else:
            raise DatalogError(
                f"line {lineno}: content before any section header "
                f"(.domains / .relations / .rules)"
            )
    if pending_rule:
        raise DatalogError(f"line {pending_start}: unterminated rule at end of file")
    if domain_sizes:
        apply_domain_sizes(program, domain_sizes)
    program.validate()
    return program


def apply_domain_sizes(program: ProgramAST, domain_sizes: Dict[str, int]) -> None:
    """Override declared domain sizes in place (see :func:`parse_program`).

    Validation never reads sizes, so a caller can parse once, look at the
    declared domains, and size them afterwards.  Unknown domains raise
    :class:`DatalogError`.
    """
    for name, size in domain_sizes.items():
        if name not in program.domains:
            raise DatalogError(f"domain size override for unknown domain {name}")
        old = program.domains[name]
        program.domains[name] = DomainDecl(old.name, size, old.map_file)
