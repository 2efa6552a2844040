"""Test support: deterministic fault injection, edit-script drivers,
and differential oracles.

Nothing this package imports at load time depends on the rest of
``repro`` -- the analysis layers import *it* (for
:func:`~repro.testing.faults.crash_point`), so keeping it
dependency-free avoids import cycles and keeps the production-path
overhead of a disabled crash point to one attribute load.  The one
exception, :mod:`repro.testing.oracles` (reference implementations
built on the analysis layers), is never imported by this package;
tests import it directly.
"""

from .faults import (
    CRASH_ENV,
    FaultPlan,
    InjectedFault,
    crash_point,
    inject,
    observed_points,
    random_edit,
    register_points,
    registered_points,
)

__all__ = [
    "CRASH_ENV",
    "FaultPlan",
    "InjectedFault",
    "crash_point",
    "inject",
    "observed_points",
    "random_edit",
    "register_points",
    "registered_points",
]
