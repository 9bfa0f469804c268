"""SQL front end: lexer, AST, parser, templates, and analysis info.

This package implements the SQL subset the paper's benchmark applications
use (SELECT with joins/aggregates/ORDER BY/LIMIT, INSERT, UPDATE, DELETE,
CREATE TABLE) plus the two facilities the AutoWebCache consistency engine
is built on:

- :mod:`repro.sql.template` -- *templateization*: a literal SQL string is
  normalised into a parameterised template plus a vector of dynamic
  values.  Templates are the static unit of the paper's query analysis;
  value vectors feed the run-time intersection tests.
- :mod:`repro.sql.analysis_info` -- per-statement read/write sets (tables,
  columns read, columns updated, WHERE equality bindings) extracted from
  the AST, consumed by :mod:`repro.cache.analysis`.
"""

from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import parse_statement
from repro.sql.template import PreparedStatement, QueryTemplate, prepare, templateize
from repro.sql.analysis_info import StatementInfo, extract_info
from repro.sql.lineage import Catalog, LineageInfo, OutputLineage, compute_lineage
from repro.sql import ast_nodes

__all__ = [
    "Catalog",
    "LineageInfo",
    "OutputLineage",
    "compute_lineage",
    "Token",
    "TokenType",
    "tokenize",
    "parse_statement",
    "PreparedStatement",
    "QueryTemplate",
    "prepare",
    "templateize",
    "StatementInfo",
    "extract_info",
    "ast_nodes",
]
