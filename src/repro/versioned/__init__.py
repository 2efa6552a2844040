"""Self-versioning documents: text, tokens, and parse DAG kept in sync."""

from .document import AnalysisReport, Document, Edit

__all__ = ["AnalysisReport", "Document", "Edit"]
