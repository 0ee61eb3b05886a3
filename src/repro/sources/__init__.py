"""Sources: the autonomous systems federated by the mediator.

Two families are provided, matching the paper's demonstration setting:

* :class:`~repro.sources.memory.MemorySQLSource` — an in-memory SQL database
  standing in for the on-line (Oracle) databases;
* :class:`~repro.sources.web.SimulatedWebSite` — a crawlable graph of
  HTML-ish pages standing in for semi-structured web sites, including the
  currency-exchange ancillary source of Figure 2
  (:func:`~repro.sources.exchange.build_exchange_rate_site`).
"""

from repro.sources.base import SOURCE_COUNTERS, Source, SourceCapabilities
from repro.sources.memory import MemorySQLSource, PartitionedCompanySource
from repro.sources.web import (
    SimulatedWebSite,
    WebPage,
    build_detail_site,
    build_listing_site,
    render_row_page,
    render_table_page,
)
from repro.sources.exchange import (
    DEFAULT_RATES,
    build_exchange_rate_site,
    complete_rates,
    lookup_rate,
    rates_to_rows,
)
from repro.sources.registry import SourceRegistry

__all__ = [
    "Source",
    "SourceCapabilities",
    "SOURCE_COUNTERS",
    "MemorySQLSource",
    "PartitionedCompanySource",
    "SimulatedWebSite",
    "WebPage",
    "build_detail_site",
    "build_listing_site",
    "render_row_page",
    "render_table_page",
    "DEFAULT_RATES",
    "build_exchange_rate_site",
    "complete_rates",
    "lookup_rate",
    "rates_to_rows",
    "SourceRegistry",
]
