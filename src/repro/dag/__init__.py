"""The abstract parse DAG: nodes, traversal, validation, and space metrics."""

from ..obs.space import (
    SpaceReport,
    ambiguity_overhead_percent,
    measure_disambiguated,
    measure_space,
)
from .nodes import (
    ERROR_SYMBOL,
    NO_STATE,
    ErrorNode,
    Node,
    ProductionNode,
    SymbolNode,
    TerminalNode,
    count_nodes,
)
from .sequences import (
    SequenceNode,
    SequencePart,
    parts_created,
    split_for_breakdown,
)
from .traversal import (
    ancestors_ending_at,
    choice_points,
    dump_tree,
    error_regions,
    first_terminal,
    last_terminal,
    next_terminal,
    previous_terminal,
    unparse,
    yield_tokens,
)
from .validate import (
    InvariantError,
    check_document,
    validate_document,
    validate_tree,
    validation_enabled,
)

__all__ = [
    "ERROR_SYMBOL",
    "NO_STATE",
    "ErrorNode",
    "InvariantError",
    "Node",
    "ProductionNode",
    "SequenceNode",
    "SequencePart",
    "SpaceReport",
    "SymbolNode",
    "TerminalNode",
    "parts_created",
    "split_for_breakdown",
    "ambiguity_overhead_percent",
    "ancestors_ending_at",
    "check_document",
    "choice_points",
    "count_nodes",
    "dump_tree",
    "error_regions",
    "first_terminal",
    "last_terminal",
    "measure_disambiguated",
    "measure_space",
    "next_terminal",
    "previous_terminal",
    "unparse",
    "validate_document",
    "validate_tree",
    "validation_enabled",
    "yield_tokens",
]
