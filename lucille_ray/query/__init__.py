"""Pure-Python Lucene-syntax query library (parser / printer / AST rewrites).

This package is driver-side metadata machinery for the Ray Data engine: query ASTs
are tiny and picklable, so they are broadcast into Ray tasks, never stored in a
Dataset. Conformance-ported from the reference library's munit suites (see SURVEY.md
§2, §5).

The parser and printer names load their modules on first use (PEP 562): a
scorer actor unpickles query ASTs (``nodes``) and never parses or prints.
"""

from .. import _lazy

from .assoc import Op, associate_ops
from .nodes import (
    And,
    Boost,
    Field,
    Fuzzy,
    Group,
    ManyChar,
    MinimumMatch,
    Not,
    Or,
    Phrase,
    Prefix,
    Proximity,
    Query,
    SingleChar,
    Str,
    Term,
    TermQuery,
    TermRange,
    TermRegex,
    UnaryMinus,
    UnaryPlus,
    WildCard,
    WildCardOp,
    f32,
)


__all__ = [
    "And", "Boost", "Field", "Fuzzy", "Group", "ManyChar", "MinimumMatch", "Not",
    "Op", "Or", "ParseError", "Phrase", "Prefix", "Proximity", "Query",
    "QueryParser", "SingleChar", "Str", "Term", "TermQuery", "TermRange",
    "TermRegex", "UnaryMinus", "UnaryPlus", "WildCard", "WildCardOp",
    "and_parser", "associate_ops", "default_parser", "f32", "parse",
    "print_query", "with_default_operator_and", "with_default_operator_or",
]

__getattr__ = _lazy(globals(), {
    **dict.fromkeys(("ParseError", "QueryParser", "and_parser", "default_parser", "parse",
                     "with_default_operator_and", "with_default_operator_or"), ".parser"),
    "print_query": ".printer",
})
