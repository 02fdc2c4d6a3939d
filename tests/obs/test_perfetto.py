"""Chrome trace-event (Perfetto) export round-trips."""

import json

from repro.core import motivating_example, pipeline
from repro.obs import MemorySink, render_chrome_trace
from repro.obs.perfetto import to_chrome_trace, CHANNEL_PID, PROCESS_PID
from repro.sim import Simulator


def _trace_events(system, iterations=20):
    sink = MemorySink()
    Simulator(system, sinks=[sink]).run(iterations=iterations)
    return sink.events()


class TestChromeTrace:
    def test_round_trip_is_valid_json(self):
        system = pipeline(3)
        text = render_chrome_trace(_trace_events(system), system)
        document = json.loads(text)
        assert isinstance(document["traceEvents"], list)
        assert document["traceEvents"]

    def test_every_event_well_formed(self):
        system = motivating_example()
        document = to_chrome_trace(_trace_events(system), system)
        for entry in document["traceEvents"]:
            assert entry["ph"] in ("M", "X", "i", "C")
            assert isinstance(entry["pid"], int)
            if entry["ph"] != "M":
                assert entry["ts"] >= 0
            if entry["ph"] == "X":
                assert entry["dur"] >= 0

    def test_one_thread_track_per_process(self):
        system = pipeline(2)
        document = to_chrome_trace(_trace_events(system), system)
        thread_names = {
            entry["args"]["name"]
            for entry in document["traceEvents"]
            if entry["ph"] == "M" and entry["name"] == "thread_name"
        }
        assert thread_names == set(system.process_names)

    def test_counter_track_per_channel_never_negative(self):
        system = motivating_example()
        document = to_chrome_trace(_trace_events(system), system)
        counters = [
            entry for entry in document["traceEvents"] if entry["ph"] == "C"
        ]
        assert counters
        assert {entry["pid"] for entry in counters} == {CHANNEL_PID}
        for entry in counters:
            assert entry["args"]["tokens"] >= 0

    def test_compute_slice_duration_matches_latency(self):
        system = pipeline(2)
        document = to_chrome_trace(_trace_events(system), system)
        latencies = {p.name: p.latency for p in system.processes}
        tid_to_name = {
            entry["tid"]: entry["args"]["name"]
            for entry in document["traceEvents"]
            if entry["ph"] == "M" and entry["name"] == "thread_name"
        }
        slices = [
            entry for entry in document["traceEvents"]
            if entry["ph"] == "X" and entry["name"] == "compute"
        ]
        assert slices
        for entry in slices:
            assert entry["pid"] == PROCESS_PID
            assert entry["dur"] == latencies[tid_to_name[entry["tid"]]]

    def test_stall_slices_name_the_peer(self):
        system = motivating_example()
        document = to_chrome_trace(_trace_events(system), system)
        stalls = [
            entry for entry in document["traceEvents"]
            if entry["ph"] == "X" and entry["cat"] == "stall"
        ]
        assert stalls  # the motivating example stalls by construction
        peers = {c.name: {c.producer, c.consumer} for c in system.channels}
        for entry in stalls:
            channel = entry["name"].removeprefix("stall:")
            assert entry["args"]["waiting_on"] in peers[channel]

    def test_without_topology_still_exports(self):
        events = _trace_events(pipeline(2))
        document = to_chrome_trace(events)  # no system given
        kinds = {entry["ph"] for entry in document["traceEvents"]}
        assert "X" in kinds and "C" in kinds
