"""Synchronous dataflow front end: multirate graphs compiled into the
blocking-channel system model via homogeneous expansion."""

from repro.sdf.convert import SdfCompilation, sdf_to_system
from repro.sdf.graph import SdfGraph

__all__ = [
    "SdfCompilation",
    "SdfGraph",
    "sdf_to_system",
]
