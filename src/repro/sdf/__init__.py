"""Synchronous dataflow front end: multirate graphs compiled into the
blocking-channel system model via homogeneous expansion."""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.sdf.convert import (
        SdfCompilation as SdfCompilation,
        sdf_to_system as sdf_to_system,
    )
    from repro.sdf.graph import SdfGraph as SdfGraph
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".convert": ("SdfCompilation", "sdf_to_system"),
        ".graph": ("SdfGraph",),
    })
