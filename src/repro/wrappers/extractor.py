"""Regular-expression extraction of records from page content."""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

from repro.errors import ExtractionError
from repro.relational.types import DataType
from repro.wrappers.spec import ExportedRelation, ExtractionRule


def extract_tuples(rule: ExtractionRule, content: str) -> List[Dict[str, str]]:
    """Apply a TUPLE rule: every non-overlapping match yields one raw record."""
    pattern = rule.compiled()
    records = []
    for match in pattern.finditer(content):
        record = {name: value for name, value in match.groupdict().items() if value is not None}
        if record:
            records.append(record)
    return records


def extract_fields(rule: ExtractionRule, content: str) -> Dict[str, str]:
    """Apply a FIELD rule: the first match contributes page-level context values."""
    match = rule.compiled().search(content)
    if match is None:
        return {}
    return {name: value for name, value in match.groupdict().items() if value is not None}


def merge_page_records(tuple_records: List[Dict[str, str]],
                       field_context: Dict[str, str]) -> List[Dict[str, str]]:
    """Combine TUPLE records with FIELD context extracted from the same page.

    * With TUPLE records, the context is merged into each (tuple values win on
      conflicts — a page-level default never overrides an explicit cell).
    * With only FIELD context, the page yields a single record.
    * With neither, the page yields nothing.
    """
    if tuple_records:
        return [{**field_context, **record} for record in tuple_records]
    if field_context:
        return [dict(field_context)]
    return []


def coerce_record(record: Dict[str, str], relation: ExportedRelation,
                  strict: bool = False) -> Optional[List[Any]]:
    """Convert a raw (string-valued) record into a typed row of the exported view.

    Missing attributes become NULL.  Ill-typed values either raise
    (``strict=True``) or cause the record to be dropped (``strict=False``,
    the forgiving default appropriate for scraping semi-structured pages).
    """
    row: List[Any] = []
    for name, data_type in relation.attributes:
        raw = record.get(name)
        if raw is None:
            row.append(None)
            continue
        cleaned = clean_text(raw)
        try:
            row.append(_convert(cleaned, data_type))
        except (ValueError, TypeError) as exc:
            if strict:
                raise ExtractionError(
                    f"cannot convert {raw!r} to {data_type.value} for attribute {name!r}"
                ) from exc
            return None
    return row


def clean_text(text: str) -> str:
    """Strip tags and collapse whitespace in an extracted snippet."""
    without_tags = re.sub(r"<[^>]+>", " ", text)
    return re.sub(r"\s+", " ", without_tags).strip()


def _convert(text: str, data_type: DataType) -> Any:
    if text == "":
        return None
    if data_type is DataType.INTEGER:
        return int(float(text.replace(",", "")))
    if data_type is DataType.FLOAT:
        return float(text.replace(",", ""))
    if data_type is DataType.BOOLEAN:
        lowered = text.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return text
