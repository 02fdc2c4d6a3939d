"""The name-based decoding of a token-free cycle: the oracle of the
index-based :attr:`repro.model.build.StructureEntry.circular_wait`."""

from repro.model.build import critical_channels, critical_processes


def design_cycle(transitions):
    """A transition cycle decoded by name: each transition to its process
    or channel, the put and get sides of a buffered channel merged."""
    names = [
        (critical_processes((t,)) + critical_channels((t,)))[0]
        for t in transitions
    ]
    return tuple(n for j, n in enumerate(names) if n != names[j - 1])
