"""Error paths and round-trip guarantees of the JSON serialization."""

import json
import types

import pytest
from hypothesis import given, settings

from repro.core.serialization import (
    load_ordering,
    load_system,
    ordering_from_dict,
    ordering_to_dict,
    system_from_dict,
    system_to_dict,
)
from repro.errors import ValidationError
from repro.ordering import declaration_ordering
from tests.strategies import layered_systems


def _doc(**overrides):
    """A minimal valid system document, patched with ``overrides``."""
    doc = {
        "format_version": 1,
        "name": "t",
        "processes": [
            {"name": "s", "kind": "source"},
            {"name": "w", "latency": 2, "kind": "worker"},
            {"name": "k", "kind": "sink"},
        ],
        "channels": [
            {"name": "a", "producer": "s", "consumer": "w"},
            {"name": "b", "producer": "w", "consumer": "k"},
        ],
    }
    doc.update(overrides)
    return doc


class TestSystemDocuments:
    def test_minimal_document_loads(self):
        system = system_from_dict(_doc())
        assert list(system.process_names) == ["s", "w", "k"]

    def test_unknown_format_version(self):
        with pytest.raises(ValidationError, match="format version 99"):
            system_from_dict(_doc(format_version=99))

    def test_missing_format_version(self):
        doc = _doc()
        del doc["format_version"]
        with pytest.raises(ValidationError, match="format version None"):
            system_from_dict(doc)

    def test_non_object_document(self):
        with pytest.raises(ValidationError, match="JSON object"):
            system_from_dict([1, 2, 3])

    @pytest.mark.parametrize("key", ["processes", "channels"])
    def test_missing_section(self, key):
        doc = _doc()
        del doc[key]
        with pytest.raises(ValidationError, match=f"missing '{key}'"):
            system_from_dict(doc)

    def test_process_missing_name(self):
        doc = _doc(processes=[{"latency": 3}])
        with pytest.raises(ValidationError, match="missing required"):
            system_from_dict(doc)

    def test_process_extra_field(self):
        doc = _doc()
        doc["processes"][1]["delay"] = 7  # typo for "latency"
        with pytest.raises(ValidationError, match="unknown field.*delay"):
            system_from_dict(doc)

    def test_channel_missing_endpoint(self):
        doc = _doc()
        del doc["channels"][0]["consumer"]
        with pytest.raises(ValidationError, match="consumer"):
            system_from_dict(doc)

    def test_channel_extra_field(self):
        doc = _doc()
        doc["channels"][0]["tokens"] = 1  # typo for "initial_tokens"
        with pytest.raises(ValidationError, match="unknown field.*tokens"):
            system_from_dict(doc)

    def test_bad_process_kind(self):
        doc = _doc()
        doc["processes"][0]["kind"] = "testbench"
        with pytest.raises(ValidationError, match="'s'"):
            system_from_dict(doc)

    def test_duplicate_channel_names(self):
        doc = _doc()
        doc["channels"].append(dict(doc["channels"][0]))
        with pytest.raises(ValidationError, match="duplicate channel 'a'"):
            system_from_dict(doc)

    def test_duplicate_process_names(self):
        doc = _doc()
        doc["processes"].append({"name": "w"})
        with pytest.raises(ValidationError, match="duplicate process 'w'"):
            system_from_dict(doc)

    def test_non_dict_mapping_entries_load(self):
        doc = _doc()
        doc["processes"] = [types.MappingProxyType(p) for p in doc["processes"]]
        doc["channels"] = [types.MappingProxyType(c) for c in doc["channels"]]
        system = system_from_dict(doc)
        assert system_to_dict(system) == system_to_dict(system_from_dict(_doc()))

    @pytest.mark.parametrize(
        ("section", "entry", "message"),
        [
            ("processes", 3, "process entry must be an object, got 3"),
            (
                "channels",
                ["a", "s", "w"],
                "channel entry must be an object, got ['a', 's', 'w']",
            ),
            (
                "processes",
                {"latency": 3},
                "process is missing required field(s): name",
            ),
            (
                "channels",
                {"name": "z"},
                "channel 'z' is missing required field(s): consumer, producer",
            ),
            (
                "processes",
                {"name": "q", "delay": 7, "area": 1},
                "process 'q' has unknown field(s): area, delay "
                "(allowed: kind, latency, name)",
            ),
            (
                "channels",
                {"name": "z", "producer": "s", "consumer": "w", "tokens": 1},
                "channel 'z' has unknown field(s): tokens (allowed: capacity, "
                "consumer, initial_tokens, latency, name, producer)",
            ),
            (
                "channels",
                types.MappingProxyType({"producer": "s", "rate": 2}),
                "channel is missing required field(s): consumer, name",
            ),
        ],
    )
    def test_bad_entry_messages(self, section, entry, message):
        doc = _doc()
        doc[section].append(entry)
        with pytest.raises(ValidationError) as excinfo:
            system_from_dict(doc)
        assert str(excinfo.value) == message


class TestOrderingDocuments:
    def test_unknown_format_version(self):
        with pytest.raises(ValidationError, match="ordering format version"):
            ordering_from_dict({"format_version": 2, "gets": {}, "puts": {}})

    @pytest.mark.parametrize("key", ["gets", "puts"])
    def test_missing_section(self, key):
        doc = {"format_version": 1, "gets": {}, "puts": {}}
        del doc[key]
        with pytest.raises(ValidationError, match=f"missing '{key}'"):
            ordering_from_dict(doc)

    def test_non_mapping_section(self):
        with pytest.raises(ValidationError, match="map process names"):
            ordering_from_dict(
                {"format_version": 1, "gets": ["P1"], "puts": {}}
            )


class TestFileLoading:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_system(path)
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_ordering(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_system(tmp_path / "absent.json")


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(system=layered_systems())
    def test_system_survives_json_round_trip(self, system):
        wire = json.dumps(system_to_dict(system))
        clone = system_from_dict(json.loads(wire))
        assert system_to_dict(clone) == system_to_dict(system)
        # Declaration order (the default statement order) is preserved.
        assert clone.process_names == system.process_names
        assert [c.name for c in clone.channels] == [
            c.name for c in system.channels
        ]

    @settings(max_examples=30, deadline=None)
    @given(system=layered_systems())
    def test_ordering_survives_json_round_trip(self, system):
        ordering = declaration_ordering(system)
        wire = json.dumps(ordering_to_dict(ordering))
        clone = ordering_from_dict(json.loads(wire))
        assert clone == ordering
        clone.validate(system)


class TestWriteErrors:
    """Writers share the loaders' ValidationError contract."""

    def test_save_system_unwritable_path(self, tiny_pipeline):
        from repro.core.serialization import save_system

        with pytest.raises(ValidationError, match="cannot write system"):
            save_system(tiny_pipeline, "/nonexistent/dir/system.json")

    def test_save_ordering_unwritable_path(self, tiny_pipeline):
        from repro.core.serialization import save_ordering

        with pytest.raises(ValidationError, match="cannot write ordering"):
            save_ordering(
                declaration_ordering(tiny_pipeline),
                "/nonexistent/dir/ordering.json",
            )
