"""Wrappers: the uniform SQL/relational interface over every source.

"Wrappers provide a uniform protocol for accessing corresponding sources and
constitute the interface between the mediator processes and the sources.  The
wrappers are not merely communication gateways [...], but they also provide a
SQL interface to any source including the Web-sites and deliver answers to the
queries in a relational table format."

Two wrapper families are implemented:

* :class:`RelationalWrapper` — fronts a SQL-capable source
  (:class:`~repro.sources.memory.MemorySQLSource`); pushed-down SQL is
  forwarded verbatim when the source's capabilities allow it, otherwise the
  wrapper falls back to fetching base relations and evaluating the query
  locally (so the engine never has to special-case a weak source).
* :class:`WebWrapper` — compiled from a declarative :class:`WrapperSpec`;
  answering a query triggers (or reuses a cache of) a crawl of the web site
  through the transition network, materializes the exported relation, and
  evaluates the SQL against it locally.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from repro.errors import WrapperError
from repro.relational.query import QueryProcessor
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.base import SourceCapabilities
from repro.sources.memory import MemorySQLSource
from repro.sources.web import SimulatedWebSite
from repro.sql.ast import Statement, TableRef, Union, walk
from repro.sql.parser import parse
from repro.wrappers.extractor import coerce_record
from repro.wrappers.network import CrawlReport, TransitionNetworkExecutor
from repro.wrappers.spec import WrapperSpec


class Wrapper:
    """Base class: a named SQL endpoint exporting one or more relations."""

    def __init__(self, name: str, capabilities: SourceCapabilities):
        self.name = name
        self.capabilities = capabilities
        self._invalidation_listeners: List = []

    # -- invalidation ------------------------------------------------------------

    def add_invalidation_listener(self, listener) -> None:
        """Register ``listener(wrapper_name)`` to fire when this wrapper's
        data is known to have changed.

        Engines subscribe here, so a wrapper-level invalidation (e.g.
        :meth:`WebWrapper.invalidate`) reaches everything they derived from
        this wrapper's data.  A listener that returns ``False`` declares
        itself dead and is removed.
        """
        self._invalidation_listeners.append(listener)

    def remove_invalidation_listener(self, listener) -> None:
        """Stop telling ``listener`` of changes (a no-op once it is gone)."""
        if listener in self._invalidation_listeners:
            self._invalidation_listeners.remove(listener)

    def notify_invalidated(self) -> None:
        """Tell every registered listener this wrapper's data changed."""
        self._invalidation_listeners = [
            listener for listener in list(self._invalidation_listeners)
            if listener(self.name) is not False
        ]

    def drop_memo(self) -> None:
        """Forget whatever this wrapper memoizes of its source's data
        (nothing, unless a subclass keeps a memo); listeners are not told."""

    # -- metadata ---------------------------------------------------------------

    def relation_names(self) -> List[str]:
        raise NotImplementedError

    def schema_of(self, relation: str) -> Schema:
        raise NotImplementedError

    # -- data access ---------------------------------------------------------------

    def fetch(self, relation: str) -> Relation:
        """Return the full extent of one exported relation."""
        raise NotImplementedError

    def query(self, statement) -> Relation:
        """Execute a SELECT/UNION mentioning only this wrapper's relations."""
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------------------

    def _parse(self, statement) -> Statement:
        if isinstance(statement, str):
            return parse(statement)
        return statement

    def _tables_in(self, statement: Statement) -> List[str]:
        names: List[str] = []
        selects = statement.selects if isinstance(statement, Union) else (statement,)
        for select in selects:
            for table in select.tables:
                for node in walk(table):
                    if isinstance(node, TableRef):
                        names.append(node.name)
        return names

    def _check_tables(self, statement: Statement) -> None:
        known = {name.lower() for name in self.relation_names()}
        for table in self._tables_in(statement):
            if table.lower() not in known:
                raise WrapperError(
                    f"wrapper {self.name!r} does not export relation {table!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class RelationalWrapper(Wrapper):
    """Wrapper over a SQL-capable source with capability-aware push-down."""

    def __init__(self, source: MemorySQLSource, name: Optional[str] = None):
        super().__init__(name or source.name, source.capabilities)
        self.source = source

    # -- metadata ---------------------------------------------------------------

    def relation_names(self) -> List[str]:
        return self.source.relation_names()

    def schema_of(self, relation: str) -> Schema:
        return self.source.schema_of(relation)

    # -- data access ---------------------------------------------------------------

    def fetch(self, relation: str) -> Relation:
        return self.source.fetch(relation)

    def query(self, statement) -> Relation:
        statement = self._parse(statement)
        self._check_tables(statement)
        if self._pushable(statement):
            return self.source.execute_sql(statement)
        # Fallback: fetch the base relations and evaluate locally.
        tables = {name: self.source.fetch(name) for name in set(self._tables_in(statement))}
        processor = QueryProcessor.over_tables(tables)
        return processor.execute(statement)

    # -- capability analysis ------------------------------------------------------

    def _pushable(self, statement: Statement) -> bool:
        capabilities = self.capabilities
        selects = statement.selects if isinstance(statement, Union) else (statement,)
        if isinstance(statement, Union) and not capabilities.union:
            return False
        for select in selects:
            if len(set(self._tables_in(select))) > 1 and not capabilities.join:
                return False
            if select.where is not None and not capabilities.selection:
                return False
            if (select.group_by or select.having is not None) and not capabilities.aggregation:
                return False
            if select.order_by and not capabilities.order_by:
                return False
        return True


class WebWrapper(Wrapper):
    """Wrapper over a simulated web site, compiled from a declarative spec."""

    def __init__(self, site: SimulatedWebSite, spec: WrapperSpec, name: Optional[str] = None,
                 cache_results: bool = True, strict: bool = False):
        super().__init__(name or site.name, site.capabilities)
        self.site = site
        self.spec = spec
        self.cache_results = cache_results
        self.strict = strict
        self._cache: Optional[Relation] = None
        #: The engine dispatches source requests from a thread pool; two
        #: distinct queries against this wrapper must not crawl concurrently.
        self._materialize_lock = threading.Lock()
        self.last_report: Optional[CrawlReport] = None

    # -- metadata ---------------------------------------------------------------

    def relation_names(self) -> List[str]:
        return [self.spec.relation.name]

    def schema_of(self, relation: str) -> Schema:
        if relation.lower() != self.spec.relation.name.lower():
            raise WrapperError(f"wrapper {self.name!r} does not export relation {relation!r}")
        return self.spec.relation.schema

    # -- materialization ----------------------------------------------------------

    def materialize(self, force: bool = False) -> Relation:
        """Crawl the site (or reuse the cache) and build the exported relation.

        A failed crawl (site outage, page-budget exhaustion, strict
        extraction errors) propagates with the serialization lock released —
        the retrying scheduler (or a concurrent query) can crawl again
        immediately — and with :attr:`last_report` still describing the last
        *successful* crawl; a half-crawled report is never published.
        The engine books failures and retries on this wrapper's record in
        its resilience policy, not on the site.
        """
        if self._cache is not None and self.cache_results and not force:
            return self._cache
        with self._materialize_lock:
            # Re-check under the lock: a concurrent caller may have finished
            # the crawl while this one waited.
            if self._cache is not None and self.cache_results and not force:
                return self._cache
            executor = TransitionNetworkExecutor(self.spec, self.site)
            raw_records, report = executor.crawl()
            relation = Relation(self.spec.relation.schema,
                                name=self.spec.relation.name)
            for record in raw_records:
                row = coerce_record(record, self.spec.relation, strict=self.strict)
                if row is not None:
                    relation.append(row)
            # Publish results only after the whole extraction succeeded.
            self.last_report = report
            if self.cache_results:
                self._cache = relation
            return relation

    def drop_memo(self) -> None:
        self._cache = None

    def invalidate(self) -> None:
        """Drop the cached crawl (e.g. when the site is known to have changed)
        and notify subscribed engines, which forget what they derived from
        it — the next query re-crawls."""
        self.drop_memo()
        self.notify_invalidated()

    # -- data access ---------------------------------------------------------------

    def fetch(self, relation: str) -> Relation:
        if relation.lower() != self.spec.relation.name.lower():
            raise WrapperError(f"wrapper {self.name!r} does not export relation {relation!r}")
        return self.materialize()

    def query(self, statement) -> Relation:
        statement = self._parse(statement)
        self._check_tables(statement)
        table = self.materialize()
        processor = QueryProcessor.over_tables({self.spec.relation.name: table})
        return processor.execute(statement)


class WrapperRegistry:
    """All wrappers known to a mediation server, with relation-level lookup."""

    def __init__(self, wrappers: Sequence[Wrapper] = ()):
        self._wrappers: Dict[str, Wrapper] = {}
        for wrapper in wrappers:
            self.register(wrapper)

    def register(self, wrapper: Wrapper) -> Wrapper:
        self._wrappers[wrapper.name.lower()] = wrapper
        return wrapper

    def get(self, name: str) -> Wrapper:
        try:
            return self._wrappers[name.lower()]
        except KeyError as exc:
            raise WrapperError(f"unknown wrapper {name!r}") from exc

    def has(self, name: str) -> bool:
        return name.lower() in self._wrappers

    @property
    def names(self) -> List[str]:
        return sorted(wrapper.name for wrapper in self._wrappers.values())

    def __iter__(self):
        return iter(self._wrappers.values())

    def __len__(self) -> int:
        return len(self._wrappers)
