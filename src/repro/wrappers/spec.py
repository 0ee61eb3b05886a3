"""The declarative web-wrapping specification language ([Qu96]).

The paper describes the wrapping technology as "a high level declarative
language for the specification of what information can be extracted.  A
program in this specification language defines a transition network
corresponding to the possible transitions from one Web-page to another, and
regular expressions corresponding to what information is located on a page."

This module defines the abstract syntax of that language
(:class:`WrapperSpec` with its states, transitions and extraction rules) and
a parser for its concrete textual form.  A specification for the
exchange-rate site of Figure 2 looks like::

    EXPORT rates(fromCur string, toCur string, rate float)
    START index.html STATE index
    TRANSITION index -> quotes FOLLOW "rates/.*\\.html"
    EXTRACT quotes TUPLE "<tr><td>(?P<fromCur>[A-Z]{3})</td><td>(?P<toCur>[A-Z]{3})</td><td>(?P<rate>[0-9.]+)</td></tr>"

Meaning: start crawling at ``index.html`` (state ``index``); from pages in
state ``index`` follow every link matching ``rates/.*\\.html`` into state
``quotes``; on each ``quotes`` page, every match of the TUPLE pattern yields
one row of the exported relation ``rates``.

Two rule kinds exist:

* ``TUPLE`` — ``re.finditer`` over the page; every match's named groups form
  one record;
* ``FIELD`` — ``re.search`` over the page; the named groups become *page
  context* merged into every record extracted from the same page (and a page
  with only FIELD rules yields exactly one record) — this is how detail-page
  sites ("one company per page") are wrapped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import WrapperSpecError
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType


@dataclass(frozen=True)
class ExportedRelation:
    """The relational view a wrapper exports."""

    name: str
    attributes: Tuple[Tuple[str, DataType], ...]

    @property
    def schema(self) -> Schema:
        return Schema(Attribute(name=name, type=data_type) for name, data_type in self.attributes)

    @property
    def attribute_names(self) -> List[str]:
        return [name for name, _type in self.attributes]


@dataclass(frozen=True)
class Transition:
    """Follow links matching ``link_pattern`` from pages in ``source`` state."""

    source: str
    target: str
    link_pattern: str

    def compiled(self) -> "re.Pattern[str]":
        try:
            return re.compile(self.link_pattern)
        except re.error as exc:
            raise WrapperSpecError(f"bad link pattern {self.link_pattern!r}: {exc}") from exc


@dataclass(frozen=True)
class ExtractionRule:
    """A regular-expression extraction applied to pages of one state."""

    state: str
    pattern: str
    #: ``tuple`` (finditer, one record per match) or ``field`` (search, page context).
    mode: str = "tuple"

    def compiled(self) -> "re.Pattern[str]":
        try:
            return re.compile(self.pattern, re.DOTALL)
        except re.error as exc:
            raise WrapperSpecError(f"bad extraction pattern {self.pattern!r}: {exc}") from exc

    @property
    def group_names(self) -> List[str]:
        return list(self.compiled().groupindex)


@dataclass
class WrapperSpec:
    """A complete wrapper program: exported view + transition network + rules."""

    relation: ExportedRelation
    start_url: str
    start_state: str
    transitions: List[Transition] = field(default_factory=list)
    rules: List[ExtractionRule] = field(default_factory=list)
    #: Maximum number of pages a single crawl may fetch (a safety net).
    max_pages: int = 1000

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check internal consistency; raises :class:`WrapperSpecError`."""
        if not self.rules:
            raise WrapperSpecError("a wrapper spec needs at least one EXTRACT rule")
        states = {self.start_state}
        for transition in self.transitions:
            transition.compiled()
            states.add(transition.source)
            states.add(transition.target)
        known_attributes = set(self.relation.attribute_names)
        extracted: set = set()
        for rule in self.rules:
            if rule.mode not in ("tuple", "field"):
                raise WrapperSpecError(f"unknown extraction mode {rule.mode!r}")
            if rule.state not in states:
                raise WrapperSpecError(
                    f"extraction rule references unknown state {rule.state!r}"
                )
            groups = set(rule.group_names)
            unknown = groups - known_attributes
            if unknown:
                raise WrapperSpecError(
                    f"extraction rule captures unknown attributes {sorted(unknown)}"
                )
            extracted |= groups
        missing = known_attributes - extracted
        if missing:
            raise WrapperSpecError(
                f"no extraction rule captures attributes {sorted(missing)}"
            )

    # -- convenience ---------------------------------------------------------------

    def transitions_from(self, state: str) -> List[Transition]:
        return [transition for transition in self.transitions if transition.source == state]

    def rules_for(self, state: str) -> List[ExtractionRule]:
        return [rule for rule in self.rules if rule.state == state]

    @property
    def states(self) -> List[str]:
        names = {self.start_state}
        for transition in self.transitions:
            names.add(transition.source)
            names.add(transition.target)
        return sorted(names)


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

_EXPORT_RE = re.compile(r"^EXPORT\s+(\w+)\s*\((.*)\)\s*$", re.IGNORECASE)
_START_RE = re.compile(r"^START\s+(\S+)\s+STATE\s+(\w+)\s*$", re.IGNORECASE)
_TRANSITION_RE = re.compile(
    r"^TRANSITION\s+(\w+)\s*->\s*(\w+)\s+FOLLOW\s+(.+)$", re.IGNORECASE
)
_EXTRACT_RE = re.compile(r"^EXTRACT\s+(\w+)\s+(TUPLE|FIELD)\s+(.+)$", re.IGNORECASE)
_MAXPAGES_RE = re.compile(r"^MAXPAGES\s+(\d+)\s*$", re.IGNORECASE)


def _unquote(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    return text


def parse_wrapper_spec(text: str) -> WrapperSpec:
    """Parse the textual wrapper-specification language into a :class:`WrapperSpec`."""
    relation: Optional[ExportedRelation] = None
    start_url: Optional[str] = None
    start_state: Optional[str] = None
    transitions: List[Transition] = []
    rules: List[ExtractionRule] = []
    max_pages = 1000

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue

        match = _EXPORT_RE.match(line)
        if match:
            relation = _parse_export(match.group(1), match.group(2), line_number)
            continue

        match = _START_RE.match(line)
        if match:
            start_url, start_state = match.group(1), match.group(2)
            continue

        match = _TRANSITION_RE.match(line)
        if match:
            transitions.append(
                Transition(match.group(1), match.group(2), _unquote(match.group(3)))
            )
            continue

        match = _EXTRACT_RE.match(line)
        if match:
            rules.append(
                ExtractionRule(match.group(1), _unquote(match.group(3)), match.group(2).lower())
            )
            continue

        match = _MAXPAGES_RE.match(line)
        if match:
            max_pages = int(match.group(1))
            continue

        raise WrapperSpecError(f"line {line_number}: cannot parse {raw_line!r}")

    if relation is None:
        raise WrapperSpecError("missing EXPORT declaration")
    if start_url is None or start_state is None:
        raise WrapperSpecError("missing START declaration")

    spec = WrapperSpec(
        relation=relation,
        start_url=start_url,
        start_state=start_state,
        transitions=transitions,
        rules=rules,
        max_pages=max_pages,
    )
    spec.validate()
    return spec


def _parse_export(name: str, attribute_text: str, line_number: int) -> ExportedRelation:
    attributes: List[Tuple[str, DataType]] = []
    for chunk in attribute_text.split(","):
        parts = chunk.split()
        if not parts:
            continue
        if len(parts) > 2:
            raise WrapperSpecError(
                f"line {line_number}: bad attribute declaration {chunk.strip()!r}"
            )
        attribute_name = parts[0].strip()
        type_name = parts[1].strip() if len(parts) == 2 else "string"
        attributes.append((attribute_name, DataType.from_name(type_name)))
    if not attributes:
        raise WrapperSpecError(f"line {line_number}: EXPORT declares no attributes")
    return ExportedRelation(name=name, attributes=tuple(attributes))


def make_table_spec(relation_name: str, attributes: Sequence[Tuple[str, str]],
                    start_url: str = "index.html",
                    link_pattern: str = r".*\.html",
                    cell_pattern: Optional[str] = None,
                    max_pages: int = 1000) -> WrapperSpec:
    """Programmatic helper building the common "index page → table pages" spec.

    ``attributes`` are (name, type) pairs in table-column order; the generated
    TUPLE pattern matches one ``<tr>`` with one ``<td>`` per attribute.
    """
    if cell_pattern is None:
        cells = "".join(
            rf"<td>(?P<{name}>[^<]*)</td>\s*" for name, _type in attributes
        )
        cell_pattern = rf"<tr>\s*{cells}</tr>"
    exported = ExportedRelation(
        name=relation_name,
        attributes=tuple((name, DataType.from_name(type_name)) for name, type_name in attributes),
    )
    spec = WrapperSpec(
        relation=exported,
        start_url=start_url,
        start_state="index",
        transitions=[Transition("index", "data", link_pattern)],
        rules=[ExtractionRule("data", cell_pattern, "tuple")],
        max_pages=max_pages,
    )
    spec.validate()
    return spec
