"""Functional MPEG-2-style codec: the behavioural model of the case study."""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.mpeg2.codec.decoder import Decoder as Decoder
    from repro.mpeg2.codec.encoder import (
        Encoder as Encoder,
        EncoderConfig as EncoderConfig,
    )
    from repro.mpeg2.codec.frames import (
        Frame as Frame,
        VideoFormat as VideoFormat,
        psnr as psnr,
        synthetic_sequence as synthetic_sequence,
    )
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".decoder": ("Decoder",),
        ".encoder": ("Encoder", "EncoderConfig"),
        ".frames": ("Frame", "VideoFormat", "psnr", "synthetic_sequence"),
    })
