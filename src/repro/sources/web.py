"""Simulated semi-structured web sites.

The prototype demonstrates "integration of databases and semi-structured
information sources accessible from the Internet", with web sites serving as
both primary sources (stock prices) and ancillary sources (currency exchange
rates).  A live Internet is unavailable to this reproduction, so this module
simulates the web substrate: a :class:`SimulatedWebSite` is a graph of
:class:`WebPage` objects (HTML-ish text plus hyperlinks) served through a
fetch interface with artificial latency and access counting.

The web wrapping technology ([Qu96]) in :mod:`repro.wrappers` crawls these
sites exactly as it would crawl real pages: by following links matched by a
transition network and applying regular-expression extraction rules to page
content.  Nothing in the wrapper knows the pages are synthetic.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SourceError
from repro.sources.base import Source, SourceCapabilities


@dataclass
class WebPage:
    """A single page: a URL, a title, HTML-ish content and outgoing links."""

    url: str
    content: str
    title: str = ""
    links: Tuple[str, ...] = ()

    def find_links(self) -> List[str]:
        """Links declared explicitly plus any ``href="..."`` found in content."""
        found = list(self.links)
        for match in re.finditer(r'href="([^"]+)"', self.content):
            target = match.group(1)
            if target not in found:
                found.append(target)
        return found


class SimulatedWebSite(Source):
    """A crawlable web site made of in-memory pages.

    The site is also a :class:`Source` so it can be registered in the engine's
    catalog; however it exports no relations by itself — relational access
    goes through a :class:`repro.wrappers.wrapper.WebWrapper` compiled from a
    declarative specification.
    """

    kind = "web"

    def __init__(self, name: str, base_url: str, pages: Optional[Iterable[WebPage]] = None,
                 latency_per_fetch: float = 0.0, description: str = ""):
        super().__init__(name, SourceCapabilities.scan_only(), description)
        self.base_url = base_url.rstrip("/")
        self.latency_per_fetch = latency_per_fetch
        self._pages: Dict[str, WebPage] = {}
        #: Simulated clock: total latency "spent" fetching pages.  Kept as a
        #: counter instead of sleeping so benchmarks stay fast and exact.
        self.simulated_latency = 0.0
        #: Concurrent wrappers may fetch pages from worker threads; the
        #: simulated clock is guarded so no latency increment is lost.
        self._latency_lock = threading.Lock()
        if pages:
            for page in pages:
                self.add_page(page)

    # -- construction -----------------------------------------------------------

    def add_page(self, page: WebPage) -> "SimulatedWebSite":
        self._pages[self._normalize(page.url)] = page
        return self

    @property
    def page_count(self) -> int:
        return len(self._pages)

    # -- fetching ------------------------------------------------------------------

    def fetch_page(self, url: str) -> WebPage:
        """Fetch one page by URL (absolute or site-relative)."""
        self.check_available()
        normalized = self._normalize(url)
        page = self._pages.get(normalized)
        if page is None:
            raise SourceError(f"{self.name}: no such page {url!r}")
        self.statistics.add(pages_fetched=1)
        with self._latency_lock:
            self.simulated_latency += self.latency_per_fetch
        return page

    def has_page(self, url: str) -> bool:
        return self._normalize(url) in self._pages

    def _normalize(self, url: str) -> str:
        if url.startswith("http://") or url.startswith("https://"):
            return url
        return f"{self.base_url}/{url.lstrip('/')}"

    # -- Source interface (no direct relational access) ---------------------------

    def relation_names(self) -> List[str]:
        return []

    def schema_of(self, relation: str):
        raise SourceError(
            f"web site {self.name!r} has no native relations; access it through a wrapper"
        )

    def fetch(self, relation: str):
        raise SourceError(
            f"web site {self.name!r} has no native relations; access it through a wrapper"
        )


# ---------------------------------------------------------------------------
# Page builders for synthetic sites
# ---------------------------------------------------------------------------


def render_row_page(title: str, fields: Dict[str, object], links: Sequence[str] = ()) -> str:
    """Render one record as a small detail page with ``<b>name:</b> value`` lines."""
    lines = [f"<html><head><title>{title}</title></head><body>", f"<h1>{title}</h1>"]
    for name, value in fields.items():
        lines.append(f"<p><b>{name}:</b> {value}</p>")
    for link in links:
        lines.append(f'<a href="{link}">{link}</a>')
    lines.append("</body></html>")
    return "\n".join(lines)


def render_table_page(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]],
                      links: Sequence[str] = ()) -> str:
    """Render records as an HTML table, the layout most report sites use."""
    lines = [f"<html><head><title>{title}</title></head><body>", f"<h1>{title}</h1>", "<table>"]
    lines.append("<tr>" + "".join(f"<th>{header}</th>" for header in headers) + "</tr>")
    for row in rows:
        lines.append("<tr>" + "".join(f"<td>{value}</td>" for value in row) + "</tr>")
    lines.append("</table>")
    for link in links:
        lines.append(f'<a href="{link}">{link}</a>')
    lines.append("</body></html>")
    return "\n".join(lines)


def build_listing_site(name: str, base_url: str, entity: str, headers: Sequence[str],
                       rows: Sequence[Sequence[object]], rows_per_page: int = 10,
                       latency_per_fetch: float = 0.05) -> SimulatedWebSite:
    """Build a paginated listing site: an index page linking to data pages.

    The layout mimics sites "reporting security prices on the various stock
    exchanges at regular intervals": an index page lists links to numbered
    pages, each carrying a table of ``rows_per_page`` records.
    """
    site = SimulatedWebSite(name, base_url, latency_per_fetch=latency_per_fetch,
                            description=f"synthetic listing of {entity}")
    chunks = [rows[index : index + rows_per_page] for index in range(0, len(rows), rows_per_page)]
    if not chunks:
        chunks = [[]]
    page_urls = [f"{entity}/page{number}.html" for number in range(1, len(chunks) + 1)]
    index_content = render_table_page(
        f"{entity} index", ["page"], [[url] for url in page_urls], links=page_urls
    )
    site.add_page(WebPage(url="index.html", title=f"{entity} index", content=index_content,
                          links=tuple(page_urls)))
    for url, chunk in zip(page_urls, chunks):
        content = render_table_page(f"{entity} listing", headers, chunk)
        site.add_page(WebPage(url=url, title=f"{entity} listing", content=content))
    return site


def build_detail_site(name: str, base_url: str, entity: str, key_field: str,
                      records: Sequence[Dict[str, object]],
                      latency_per_fetch: float = 0.05) -> SimulatedWebSite:
    """Build a site with an index page linking to one detail page per record.

    This is the "company profile" style of site used by the financial-analysis
    demonstrations: every company has its own page listing its attributes.
    """
    site = SimulatedWebSite(name, base_url, latency_per_fetch=latency_per_fetch,
                            description=f"synthetic {entity} profiles")
    detail_urls = []
    for record in records:
        key = str(record[key_field]).replace(" ", "_").lower()
        url = f"{entity}/{key}.html"
        detail_urls.append(url)
        site.add_page(WebPage(
            url=url,
            title=f"{entity}: {record[key_field]}",
            content=render_row_page(f"{entity}: {record[key_field]}", record),
        ))
    index_content = render_table_page(
        f"{entity} directory", [key_field],
        [[record[key_field]] for record in records], links=detail_urls,
    )
    site.add_page(WebPage(url="index.html", title=f"{entity} directory",
                          content=index_content, links=tuple(detail_urls)))
    return site
