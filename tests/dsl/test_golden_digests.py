"""Golden structural digests: the DSL refactor changed no elaborated system.

Every hand-built generator was rebuilt on top of ``repro.dsl``; these
digests pin the exact lowered-program identity (process/channel tables,
latencies, capacities, tokens, default statement order) each produced
*before* the refactor.  A digest change here means the refactor altered
a published system — never accept a new value without diffing the
elaborated graphs.
"""

import hashlib
import json
import random

import pytest

from repro.core import (
    ChannelOrdering,
    fork_join,
    mesh_soc,
    motivating_example,
    pipeline,
    ring_soc,
    synthetic_soc,
)
from repro.core.serialization import system_to_dict
from repro.ir import lower

GOLDEN = {
    "motivating": (
        lambda: motivating_example(),
        "e58609bdcd544c1b07ddbd91a9f196f4e35a20347339da124c6079dc4281dcdf",
    ),
    "synthetic_soc_24_seed0": (
        lambda: synthetic_soc(24, seed=0),
        "75f9e0274632f7485138c5dc368f477938fee806e7c8570b7fa99a178739ac90",
    ),
    "synthetic_soc_60_seed7": (
        lambda: synthetic_soc(60, seed=7),
        "3bdd654c1324d6cd1ee998d653532169331b72659f6ec0e34feb46cd44e7c267",
    ),
    "pipeline_5": (
        lambda: pipeline(5),
        "f7b28a7474f420f6b81f26510af4dbd567f9243579d43d52195409239313d03f",
    ),
    "fork_join_3": (
        lambda: fork_join(3),
        "969d8e959e28c5086dd2ec46e334372b1bf981e921c3ea20ffc4ed5f88f461e9",
    ),
    "ring_soc_6": (
        lambda: ring_soc(6),
        "b833de5d19105dee5f72149957cd7abd2abfa58e053f4b0fdfe26bf83e672547",
    ),
    "mesh_soc_3x4": (
        lambda: mesh_soc(3, 4),
        "ec68c78403d587d9a7e0981cf0472c73bb3db8ca74b965f2e5c8a2d8d37308fa",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_generator_digest_is_pinned(case):
    factory, expected = GOLDEN[case]
    system = factory()
    digest = lower(
        system, ChannelOrdering.declaration_order(system)
    ).structural_hash
    assert digest == expected, (
        f"{case}: structural hash drifted — the DSL elaboration no longer "
        "reproduces the pre-refactor system"
    )


#: sha256 of ``json.dumps(system_to_dict(system))`` for the synthetic SoC
#: generator.  Unlike the structural hash (which sorts names away), the
#: document pins process and channel *declaration order* too, so a
#: generator rewrite must reproduce the exact build sequence, not just
#: an isomorphic graph.  The 500- and 10,000-process cases are the SCAL
#: inputs of the scalability study.
GOLDEN_DOCUMENTS = {
    "synthetic_soc_500_seed0": (
        lambda: synthetic_soc(500, seed=0),
        "cda6851f95ba88340a7278a49919e920edcafe1a4b334f510bc9146dc1c75054",
    ),
    "synthetic_soc_10000_seed0": (
        lambda: synthetic_soc(10_000, seed=0),
        "2f7392a3c964e06cb352f6db7aa508a023304909d3d350c7cfab30aaf76d89ee",
    ),
    "synthetic_soc_120_params": (
        lambda: synthetic_soc(
            120,
            n_channels=260,
            seed=11,
            feedback_fraction=0.1,
            layer_width=7,
        ),
        "471442d6c97e3215216cef731df4b56d306fd77ce8713a6e25e8e79546eb6528",
    ),
    "synthetic_soc_80_rng": (
        lambda: synthetic_soc(80, rng=random.Random(2024)),
        "0fddbf0f1c98308c1194515c3b134c5ba1def4b2b72351605bcc8841b13fd073",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DOCUMENTS))
def test_generator_document_is_pinned(case):
    factory, expected = GOLDEN_DOCUMENTS[case]
    document = json.dumps(system_to_dict(factory()))
    digest = hashlib.sha256(document.encode()).hexdigest()
    assert digest == expected, (
        f"{case}: serialized system drifted — names, latencies or "
        "declaration order no longer match the pinned generator output"
    )
