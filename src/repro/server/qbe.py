"""The HTML Query-By-Example front end.

The prototype's second ready-to-use interface is "a HyperText Markup Language
(HTML) Query-By-Example (QBE)" form.  This module reproduces it without a
browser: :class:`QBEInterface` renders an HTML form for a chosen relation set
(one row of input fields per attribute: a checkbox to project the column, a
condition box, an optional example value), parses a submitted form back into a
SQL query, runs it through the mediation server, and renders the answer as an
HTML table annotated with the receiver context's modifier values.

Form field conventions (what a browser would POST):

* ``show__<binding>__<column>`` — "on" to include the column in the output;
* ``cond__<binding>__<column>`` — a condition fragment such as ``> 1000000``
  or ``= 'IBM'`` applied to the column;
* ``join__<n>`` — an explicit join condition such as ``r1.cname = r2.cname``;
* ``context`` — the receiver context to pose the query in;
* every other plain field (``consistency``, a deadline, the source-failure
  policy, ``tenant``) is a statement option, spelled as on the wire.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ClientError, ConsistencyError, ExecutionError
from repro.federation import Federation, FederationAnswer, FederationCursor
from repro.options import StatementOptions
from repro.server.gateway import AdmissionGateway
from repro.sql.parser import parse_expression


@dataclass
class QBEForm:
    """A parsed QBE submission."""

    relations: List[str]
    projections: List[Tuple[str, str]]
    conditions: List[str]
    joins: List[str]
    distinct: bool = False
    #: Receiver context, consistency mode, deadline, source-failure policy
    #: and tenant the form asked for.
    options: StatementOptions = StatementOptions()

    @property
    def context(self) -> Optional[str]:
        return self.options.receiver_context

    @property
    def consistency(self) -> str:
        return self.options.consistency

    def to_sql(self) -> str:
        """Assemble the SQL query the form describes."""
        if not self.relations:
            raise ClientError("the QBE form selects no relations")
        if not self.projections:
            raise ClientError("the QBE form selects no output columns")
        select_list = ", ".join(f"{binding}.{column}" for binding, column in self.projections)
        distinct = "DISTINCT " if self.distinct else ""
        sql = f"SELECT {distinct}{select_list} FROM {', '.join(self.relations)}"
        where_parts = list(self.joins) + list(self.conditions)
        if where_parts:
            sql += " WHERE " + " AND ".join(where_parts)
        return sql


class QBEInterface:
    """Generates QBE forms and turns submissions into mediated answers.

    Submissions open through ``Federation.open`` under this interface's
    admission gateway, so they pass the same overload discipline as every
    other entry point: per-tenant quotas, bounded queueing and streaming
    permits — a flood of form posts sheds cleanly instead of piling up.
    Pass the ``gateway`` the mediation server uses to share its budget
    (default: a private one).
    """

    def __init__(self, federation: Federation, gateway=None):
        self.federation = federation
        self.gateway = (gateway if isinstance(gateway, AdmissionGateway)
                        else AdmissionGateway(gateway))

    # -- form generation -------------------------------------------------------------

    def render_form(self, relations: Sequence[str], action: str = "/coin/qbe") -> str:
        """Render the HTML QBE form for the chosen relations."""
        rows: List[str] = []
        for relation in relations:
            for attribute in self.federation.describe_relation(relation):
                name = attribute["attribute"]
                rows.append(
                    "<tr>"
                    f"<td>{html.escape(relation)}</td>"
                    f"<td>{html.escape(str(name))}</td>"
                    f"<td>{html.escape(str(attribute['type']))}</td>"
                    f'<td><input type="checkbox" name="show__{relation}__{name}"></td>'
                    f'<td><input type="text" name="cond__{relation}__{name}"></td>'
                    "</tr>"
                )
        contexts = "".join(
            f'<option value="{html.escape(context)}">{html.escape(context)}</option>'
            for context in self.federation.receiver_contexts
        )
        return (
            f'<form method="POST" action="{html.escape(action)}">\n'
            "<table>\n"
            "<tr><th>relation</th><th>attribute</th><th>type</th>"
            "<th>show</th><th>condition</th></tr>\n"
            + "\n".join(rows)
            + "\n</table>\n"
            f'<select name="context">{contexts}</select>\n'
            '<input type="text" name="join__1">\n'
            '<input type="submit" value="Run query">\n'
            "</form>"
        )

    # -- form parsing -------------------------------------------------------------------

    def parse_submission(self, fields: Dict[str, str]) -> QBEForm:
        """Turn submitted form fields into a :class:`QBEForm`."""
        projections: List[Tuple[str, str]] = []
        conditions: List[str] = []
        joins: List[str] = []
        relations: List[str] = []

        def note_relation(name: str) -> None:
            if name not in relations:
                relations.append(name)

        for field_name, value in fields.items():
            if field_name.startswith("show__"):
                if value and value.lower() not in ("off", "false", "0", ""):
                    _prefix, relation, column = field_name.split("__", 2)
                    note_relation(relation)
                    projections.append((relation, column))
            elif field_name.startswith("cond__"):
                if value and value.strip():
                    _prefix, relation, column = field_name.split("__", 2)
                    note_relation(relation)
                    conditions.append(self._condition_sql(relation, column, value.strip()))
            elif field_name.startswith("join__"):
                if value and value.strip():
                    condition = value.strip()
                    # Validate that the fragment parses as an expression.
                    parse_expression(condition)
                    joins.append(condition)
                    for part in condition.replace("=", " ").split():
                        if "." in part:
                            note_relation(part.split(".", 1)[0])

        # Form posts are strings: a blank option is absent, and everything
        # but the identifiers is case-blind.
        options: Dict[str, str] = {}
        for field_name, value in fields.items():
            text = str(value or "").strip()
            if text and "__" not in field_name:
                options[field_name] = (
                    text if field_name in ("context", "tenant") else text.lower())
        try:
            parsed = StatementOptions.from_parameters(options, ClientError)
        except (ConsistencyError, ExecutionError) as exc:
            # Malformed form input is the client's fault, like every other
            # field here — keep the QBE error contract (ClientError).
            raise ClientError(f"invalid QBE form: {exc}") from exc
        return QBEForm(
            relations=relations,
            projections=projections,
            conditions=conditions,
            joins=joins,
            distinct=options.get("distinct") in ("on", "true", "1"),
            options=parsed,
        )

    def _condition_sql(self, relation: str, column: str, fragment: str) -> str:
        """Turn a QBE condition fragment into a SQL conjunct on the column."""
        fragment = fragment.strip()
        operators = ("<=", ">=", "<>", "!=", "=", "<", ">")
        if fragment.upper().startswith(("LIKE ", "IN ", "BETWEEN ", "IS ")):
            condition = f"{relation}.{column} {fragment}"
        elif fragment.startswith(operators):
            condition = f"{relation}.{column} {fragment}"
        else:
            # A bare example value means equality, QBE-style.
            literal = fragment if _looks_numeric(fragment) else f"'{fragment}'"
            condition = f"{relation}.{column} = {literal}"
        # Validate by parsing; raises SQLSyntaxError for malformed fragments.
        parse_expression(condition)
        return condition

    # -- end-to-end ---------------------------------------------------------------------------

    #: Rows pulled per batch when chunk-rendering a cursor.
    STREAM_BATCH = 256

    def submit(self, fields: Dict[str, str]) -> Tuple[QBEForm, FederationAnswer]:
        """Parse a submission, run the mediated query, return form + answer.

        This drives the same cursor path as the SQL entry points (the engine
        stages branches lazily and pulls in batches); the materialized
        :class:`FederationAnswer` the historical interface promises is the
        cursor's drain.
        """
        form, cursor = self.submit_stream(fields)
        return form, cursor.answer()

    def submit_stream(self, fields: Dict[str, str]) -> Tuple[QBEForm, FederationCursor]:
        """Parse a submission and open a streaming cursor over its answer.

        The cursor's first rows are available while slower sources are still
        fetching; closing it early cancels outstanding round trips — parity
        with ``Federation.query(..., stream=True)`` — and releases the
        streaming permit it holds for its whole life.
        """
        form = self.parse_submission(fields)
        return form, self.federation.open(form.to_sql(), form.options,
                                          gateway=self.gateway, service="qbe")

    def render_answer(self, answer: FederationAnswer, show_mediation: bool = True) -> str:
        """Render an answer as an HTML table (plus the mediated SQL, optionally)."""
        return "".join(self._render(
            answer.annotations, answer.relation.schema.names,
            [answer.relation.rows],
            answer.mediated_sql if show_mediation else None))

    def render_answer_stream(self, cursor: FederationCursor,
                             show_mediation: bool = True,
                             batch_size: Optional[int] = None) -> Iterator[str]:
        """Render an open cursor as incrementally-produced HTML chunks.

        The header chunk is emitted before any row arrives (annotations and
        the description are schema-level), then one chunk per fetched batch —
        the browser renders rows while slow sources are still in flight —
        and finally the closing tags (plus the mediated SQL).  The cursor is
        closed when the generator finishes or is abandoned.
        """
        size = batch_size or self.STREAM_BATCH
        try:
            yield from self._render(
                cursor.annotations, cursor.schema.names,
                iter(lambda: cursor.fetchmany(size), []),
                cursor.mediated_sql if show_mediation else None)
        finally:
            cursor.close()

    @staticmethod
    def _render(annotations, names, batches, mediated_sql) -> Iterator[str]:
        """The answer table's chunks: header, one per row batch, closing
        tags, and the mediated SQL unless it is None."""
        header = "".join(
            f"<th>{html.escape(annotation.label())}</th>"
            for annotation in annotations
        ) or "".join(f"<th>{html.escape(name)}</th>" for name in names)
        yield f"<table>\n<tr>{header}</tr>\n"
        for rows in batches:
            yield "\n".join(
                "<tr>" + "".join(
                    f"<td>{html.escape(_format(value))}</td>" for value in row
                ) + "</tr>"
                for row in rows
            ) + "\n"
        yield "</table>"
        if mediated_sql is not None:
            yield f"\n<p>Mediated query:</p>\n<pre>{html.escape(mediated_sql)}</pre>"


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _format(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
