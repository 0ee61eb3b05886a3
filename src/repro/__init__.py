"""repro — a reproduction of the COntext INterchange (COIN) mediator prototype.

The package reimplements, in pure Python, the system demonstrated in
S. Bressan et al., *The COntext INterchange Mediator Prototype* (SIGMOD 1997):
semantic mediation of SQL queries over heterogeneous relational and
semi-structured (web) sources, where conflicts between the contexts of sources
and receivers are detected and resolved at query time by an abductive context
mediator.

Layered architecture (bottom up):

* :mod:`repro.sql`, :mod:`repro.relational`, :mod:`repro.datalog` — substrates:
  SQL parsing/printing, an in-memory relational engine, and a deductive
  (datalog) engine with abduction;
* :mod:`repro.sources`, :mod:`repro.wrappers` — simulated databases and web
  sites plus the declarative wrapping technology giving them a SQL interface;
* :mod:`repro.coin` — the knowledge model: domain model, contexts, elevation
  axioms, conversion functions;
* :mod:`repro.mediation` — the context mediator (conflict detection, abductive
  branch enumeration, query rewriting, answer transformation);
* :mod:`repro.engine` — the multi-database access engine (catalog, cost-based
  planning, cross-source execution);
* :mod:`repro.consistency` — integrity constraints, violation scanning, and
  certain/possible answers over key-violating sources as a query rewrite;
* :mod:`repro.pipeline` — parse → mediate → plan, compiled once per statement;
* :mod:`repro.obs` — the telemetry spine (span tree, metrics registry, logs);
* :mod:`repro.server` — the access layer (HTTP-tunnelled protocol, ODBC-style
  driver, HTML QBE);
* :mod:`repro.federation` — the façade tying everything together;
* :mod:`repro.demo` — ready-made scenarios (including the paper's worked
  example).

Quickstart::

    from repro.demo import build_paper_federation, PAPER_QUERY

    federation = build_paper_federation().federation
    answer = federation.query(PAPER_QUERY)
    print(answer.mediated_sql)   # the 3-branch UNION of the paper's Section 3
    print(answer.records)        # [{'cname': 'NTT', 'revenue': 9600000.0}]
"""

from repro.federation import Federation, FederationAnswer

__version__ = "1.0.0"

__all__ = ["Federation", "FederationAnswer", "__version__"]
