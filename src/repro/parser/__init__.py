"""Parsers: batch LR/GLR, deterministic incremental LR, and IGLR."""

from ..obs import Tracer, format_trace
from .glr import GLRParser, enumerate_trees
from .gss import GssLink, GssNode
from .incremental_lr import IncrementalLRParser
from .input_stream import InputStream
from .iglr import IGLRParser, ParseError, ParseResult, ParseStats
from .lr import LRParser
from .plan import ParsePlan

__all__ = [
    "GLRParser",
    "GssLink",
    "GssNode",
    "IGLRParser",
    "IncrementalLRParser",
    "InputStream",
    "LRParser",
    "ParseError",
    "ParsePlan",
    "ParseResult",
    "ParseStats",
    "Tracer",
    "enumerate_trees",
    "format_trace",
]
