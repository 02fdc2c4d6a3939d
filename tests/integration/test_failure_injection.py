"""Failure injection: malformed inputs fail loudly and precisely."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import ChannelOrdering, motivating_example, save_system
from repro.errors import (
    ReproError,
    SimulationError,
    ValidationError,
)


class TestCliFailures:
    def test_malformed_json_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        # JSON decode failures surface as ValidationError -> exit 2,
        # never as a raw traceback.
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_wrong_schema_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 1, "name": "x",
                                    "processes": [], "channels": []}))
        # no workers -> ValidationError -> exit 2
        assert main(["analyze", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_foreign_ordering_rejected(self, tmp_path, capsys):
        system_path = tmp_path / "sys.json"
        save_system(motivating_example(), system_path)
        ordering_path = tmp_path / "ord.json"
        ordering_path.write_text(json.dumps({
            "format_version": 1,
            "gets": {"P2": ["ghost"]},
            "puts": {},
        }))
        assert main(["analyze", str(system_path),
                     "--ordering", str(ordering_path)]) == 2


class TestBitstreamCorruption:
    def test_corrupted_stream_raises_cleanly(self):
        from repro.mpeg2.codec import (
            Decoder,
            Encoder,
            EncoderConfig,
            VideoFormat,
            synthetic_sequence,
        )

        fmt = VideoFormat(64, 48)
        frames = synthetic_sequence(2, fmt, seed=0)
        video = Encoder(EncoderConfig(qscale=8)).encode_sequence(frames)
        corrupted = bytearray(video.bitstream)
        corrupted[4] ^= 0xFF
        # A flipped byte either desynchronizes the entropy decoder (raises)
        # or silently decodes to different pixels — never to the same ones.
        try:
            decoded = Decoder(fmt).decode_sequence(bytes(corrupted), 2)
        except (ValidationError, ReproError):
            return
        assert any(
            not np.array_equal(d.y, r.y)
            for d, r in zip(decoded, video.reconstructed)
        )

    def test_truncated_stream_raises(self):
        from repro.mpeg2.codec import (
            Decoder,
            Encoder,
            EncoderConfig,
            VideoFormat,
            synthetic_sequence,
        )

        fmt = VideoFormat(64, 48)
        frames = synthetic_sequence(2, fmt, seed=1)
        video = Encoder(EncoderConfig(qscale=8)).encode_sequence(frames)
        with pytest.raises(ValidationError):
            Decoder(fmt).decode_sequence(video.bitstream[:20], 2)


class TestSimulatorMisuse:
    def test_bad_ordering_rejected_at_construction(self, tiny_pipeline):
        from repro.sim import Simulator

        bad = ChannelOrdering(gets={"A": ("ghost",)}, puts={})
        with pytest.raises(ValidationError):
            Simulator(tiny_pipeline, ordering=bad)

    def test_behavior_exception_propagates(self, tiny_pipeline):
        from repro.sim import simulate

        def explode(k, inputs):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            simulate(tiny_pipeline, behaviors={"A": explode}, iterations=2)

    def test_step_budget_guard(self, tiny_pipeline):
        from repro.sim import Simulator

        with pytest.raises(SimulationError, match="budget"):
            Simulator(tiny_pipeline).run(iterations=50, max_steps=3)


class TestModelMisuse:
    def test_payload_type_errors_surface(self):
        # A behavior returning a non-mapping output is a programming error
        # that should surface as a TypeError, not be silently dropped.
        from repro.core import pipeline
        from repro.sim import simulate

        with pytest.raises((TypeError, ValueError, AttributeError)):
            simulate(
                pipeline(1),
                behaviors={"stage0": lambda k, ins: "not-a-dict"},
                iterations=2,
            )

    def test_functional_payload_shape_errors(self):
        # Wrong-shaped payloads crash inside numpy with a clear error
        # rather than producing silent garbage.
        from repro.mpeg2.codec.dct import dct2

        with pytest.raises(ValidationError):
            dct2(np.zeros((7, 7)))
