"""Every deadlock report names only the design, and every front end agrees.

The five ``ermes gen`` families under seeded per-process shuffles
(:func:`~repro.ordering.baselines.random_ordering`), with every channel's capacity
raised to at least 0, 1 and 2.  Several of these orderings deadlock
through a buffered channel, whose put and get sides are two nodes of the
marked graph: the decoding must still report the channel, and no front
end may crash on it.
"""

import re

import pytest

from repro.absint import analyze
from repro.cli import main
from repro.core import save_ordering, save_system
from repro.errors import DeadlockError
from repro.ir import lower
from repro.lint import format_witness, lint_system
from repro.model import analyze_system, build_structure, deadlock_cycle
from repro.ordering.baselines import random_ordering
from repro.verify import check_deadlock
from repro.workloads import FAMILIES, generate
from tests.model.witness_reference import design_cycle, transition_cycle

#: Shuffles per (family, capacity): 60 cases, 11 of them deadlocked, in
#: about 1 s.
SHUFFLES = 4


def _cases():
    for family in FAMILIES:
        base = generate(family, seed=1).system
        for capacity in (0, 1, 2):
            system = base.with_channel_capacities(
                {c.name: max(c.capacity, capacity) for c in base.channels}
            )
            for seed in range(SHUFFLES):
                key = f"{family}-c{capacity}"
                yield key, system, random_ordering(system, seed=seed)


def _assert_real_wait(system, cycle):
    """Every name is a process or channel of ``system``, and each pair of
    consecutive names (cyclically) is one process waiting on a channel it
    touches, or two channels of one process."""
    def owners(name):
        if system.has_process(name):
            return {name}
        assert system.has_channel(name), f"{name!r} is not in the design"
        channel = system.channel(name)
        return {channel.producer, channel.consumer}

    assert len(cycle) >= 2
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert owners(u) & owners(v), f"{u!r} -> {v!r} is no wait"


def test_witnesses_name_the_design_and_verdicts_agree(tmp_path, capsys):
    deadlocked = 0
    for i, (key, system, ordering) in enumerate(_cases()):
        cycle = deadlock_cycle(system, ordering)
        try:
            analyze_system(system, ordering)
            analyzed = None
        except DeadlockError as error:
            analyzed = tuple(error.cycle)
        static = analyze(system, ordering)
        codes = lint_system(system, ordering).codes()
        verified = check_deadlock(system, ordering)
        assert verified.conclusive, verified.reason

        dead = cycle is not None
        assert (analyzed is not None) == dead
        assert (static.certificate is None) == dead
        assert ("ERM201" in codes) == dead
        assert verified.deadlocked == dead
        if not dead:
            continue
        deadlocked += 1
        assert analyzed == static.token_free_cycle == cycle
        entry = build_structure(lower(system, ordering))
        assert cycle == design_cycle(transition_cycle(entry))
        _assert_real_wait(system, cycle)

        # The command line prints the same witness (lint_system ran above).
        system_path = str(tmp_path / f"{key}.json")
        ordering_path = str(tmp_path / f"ordering{i}.json")
        save_system(system, system_path)
        save_ordering(ordering, ordering_path)
        for command in ("check", "lint"):
            assert main([command, system_path, "--ordering", ordering_path]) == 1
            assert not capsys.readouterr().err
    assert deadlocked == 11


def _dead_through_buffer(system):
    """The first shuffle whose token-free cycle crosses a buffered
    channel's put or get side."""
    for seed in range(50):
        ordering = random_ordering(system, seed=seed)
        witness = transition_cycle(build_structure(lower(system, ordering)))
        if witness and any(
            name.endswith((".put", ".get")) for name in witness
        ):
            return ordering
    raise AssertionError("no shuffle deadlocks through a buffered channel")


@pytest.fixture()
def bursty_deadlock(tmp_path):
    system = generate("bursty-soc", seed=1).system
    ordering = _dead_through_buffer(system)
    system_path, ordering_path = tmp_path / "sys.json", tmp_path / "ord.json"
    save_system(system, system_path)
    save_ordering(ordering, ordering_path)
    return system, ordering, str(system_path), str(ordering_path)


def _assert_design_vocabulary(system, text):
    """Every quoted name is a channel and every hop of a circular wait
    opens with a process."""
    for quoted in re.findall(r"'([^']*)'", text):
        assert system.has_channel(quoted), quoted
    for hop in text.split(" -> ")[1:]:
        assert system.has_process(hop.split()[0]), hop


def test_cli_reports_a_buffered_deadlock_in_design_names(
    bursty_deadlock, capsys
):
    system, ordering, system_path, ordering_path = bursty_deadlock
    assert main(["check", system_path, "--ordering", ordering_path]) == 1
    out = capsys.readouterr().out
    wait = build_structure(lower(system, ordering)).circular_wait
    assert wait is not None
    through = out.splitlines()[0].removeprefix(
        "DEADLOCK: circular wait through "
    )
    assert tuple(through.split(" -> ")) == wait.cycle
    _assert_real_wait(system, wait.cycle)
    statements = out.splitlines()[1].strip()
    assert statements == format_witness(ordering, wait.statements)
    _assert_design_vocabulary(system, statements)

    assert main(["lint", system_path, "--ordering", ordering_path,
                 "--select", "ERM201"]) == 1
    out = capsys.readouterr().out
    assert "ERM201" in out
    [message] = [line for line in out.splitlines() if "circular wait" in line]
    chain = message.split("circular wait ", 1)[1].split(" — ", 1)[0]
    assert chain == format_witness(ordering, wait.statements)
