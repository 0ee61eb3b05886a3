"""Execution of the transition network over a (simulated) web site.

Starting from the spec's start URL/state, the executor fetches pages, applies
the extraction rules attached to the page's state, and follows the outgoing
links that match a transition's pattern, tagging the targets with the
transition's target state.  The crawl is breadth-first, visits each
(URL, state) pair at most once, and is bounded by ``spec.max_pages``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.errors import WrapperError
from repro.sources.web import SimulatedWebSite
from repro.wrappers.extractor import extract_fields, extract_tuples, merge_page_records
from repro.wrappers.spec import WrapperSpec


@dataclass
class CrawlReport:
    """What a crawl did: visited pages, per-state counts, extracted record count."""

    pages_visited: int = 0
    records_extracted: int = 0
    pages_by_state: Dict[str, int] = field(default_factory=dict)
    visited_urls: List[str] = field(default_factory=list)


class TransitionNetworkExecutor:
    """Runs a :class:`WrapperSpec`'s transition network against one web site."""

    def __init__(self, spec: WrapperSpec, site: SimulatedWebSite):
        spec.validate()
        self.spec = spec
        self.site = site

    def crawl(self) -> Tuple[List[Dict[str, str]], CrawlReport]:
        """Crawl the site and return (raw string records, crawl report)."""
        report = CrawlReport()
        records: List[Dict[str, str]] = []
        queue: deque = deque([(self.spec.start_url, self.spec.start_state)])
        seen: Set[Tuple[str, str]] = set()

        while queue:
            if report.pages_visited >= self.spec.max_pages:
                raise WrapperError(
                    f"crawl exceeded the page budget of {self.spec.max_pages} pages"
                )
            url, state = queue.popleft()
            key = (url, state)
            if key in seen:
                continue
            seen.add(key)

            page = self.site.fetch_page(url)
            report.pages_visited += 1
            report.pages_by_state[state] = report.pages_by_state.get(state, 0) + 1
            report.visited_urls.append(url)

            # Extraction.
            page_records = self._extract(state, page.content)
            records.extend(page_records)
            report.records_extracted += len(page_records)

            # Transitions.
            links = page.find_links()
            for transition in self.spec.transitions_from(state):
                pattern = transition.compiled()
                for link in links:
                    if pattern.search(link):
                        queue.append((link, transition.target))

        return records, report

    def _extract(self, state: str, content: str) -> List[Dict[str, str]]:
        tuple_records: List[Dict[str, str]] = []
        field_context: Dict[str, str] = {}
        for rule in self.spec.rules_for(state):
            if rule.mode == "tuple":
                tuple_records.extend(extract_tuples(rule, content))
            else:
                field_context.update(extract_fields(rule, content))
        return merge_page_records(tuple_records, field_context)
