"""Functional MPEG-2-style codec: the behavioural model of the case study."""

from repro.mpeg2.codec.decoder import Decoder
from repro.mpeg2.codec.encoder import Encoder, EncoderConfig
from repro.mpeg2.codec.frames import (
    Frame,
    VideoFormat,
    psnr,
    synthetic_sequence,
)

__all__ = [
    "Decoder",
    "Encoder",
    "EncoderConfig",
    "Frame",
    "VideoFormat",
    "psnr",
    "synthetic_sequence",
]
