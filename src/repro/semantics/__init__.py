"""Semantic analysis substrate: scopes, filters, typedef disambiguation."""

from .analyzer import Decision, SemanticReport, TypedefAnalyzer
from .attributes import AttributeEvaluator, standard_evaluator
from .project import ProjectGraph
from .filters import (
    accept,
    apply_syntactic_filters,
    clear,
    is_rejected,
    prefer_tagged,
    production_tags,
    reject,
    reset_choice,
    resolved_view,
    semantic_select,
)
from .symtab import Binding, Namespace, Scope

__all__ = [
    "AttributeEvaluator",
    "Binding",
    "standard_evaluator",
    "Decision",
    "Namespace",
    "ProjectGraph",
    "Scope",
    "SemanticReport",
    "TypedefAnalyzer",
    "accept",
    "apply_syntactic_filters",
    "clear",
    "is_rejected",
    "prefer_tagged",
    "production_tags",
    "reject",
    "reset_choice",
    "resolved_view",
    "semantic_select",
]
