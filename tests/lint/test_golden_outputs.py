"""Golden lint outputs: every rendering of every finding, pinned to the byte.

CI diffs lint text and caches SARIF logs, so a change to the rule engine
must not move a single byte of what ``ermes lint`` prints.  These digests
pin ``render_text(verbose=True)``, ``render_json`` and ``render_sarif``
(with the tool ``version`` removed, so a release bump is not a drift)
over the shipped example designs, the paper's two motivating orderings,
the five ``ermes gen`` families, and MPEG-2 with its implementation
library, as built and with one dominated entry added (the built library
is Pareto-filtered, so only the second makes ``ERM303`` fire).  The
``fix`` digest pins the ordering ``ermes lint --fix`` writes.  Each hash
seed runs in a fresh interpreter, so set iteration order can never leak
into the output.  Never accept a new value without diffing the rendered
findings.

Run as a script (``PYTHONPATH=src python tests/lint/test_golden_outputs.py``)
to print the current digests as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DESIGNS = ROOT / "examples" / "designs"

GOLDEN = {
    "design:fork_join": {
        "text": "32861fe493ea7bb56d2ac17bc83bfd6a5cc463f7dd38bb63ed7a8fea65b97bfc",
        "json": "e9bf4b96eab0d9094f803595bddb2f194c6f17d60ea41598f753246627f6352f",
        "sarif": "1f11f8692c4eec67f90cffed63e945f7177f06fac4b43e7c96b21ebdeb0a685e",
        "fix": "346d4580b0bcf1a838c3b0cd0f13c419603163899f304abc20db0a9d6820bf55",
    },
    "design:motivating": {
        "text": "3c2b6788e7293fe3ff468d43fce81e6a2a1a14bca481061698023d95727795bb",
        "json": "4ada51c271453a79b8a7168fae60287690f84786471b475310bc1a03cf3e3094",
        "sarif": "2fb2af8c29b9d27bc73711a5ed58a63110c0a55b0d2f51861b382c6681861d7f",
        "fix": "dde03aacec469576820b8ab0a0029b0a9e42b420cf1ffd4c3d380eb267098a17",
    },
    "design:pipeline": {
        "text": "0f98de04b7de57122c9852870fba29e772954d2faa7a5575a276703e7ed524bb",
        "json": "affe0f25a5d835c3412b702fe8da1ad66f6c819b252a603bd6766128b9384038",
        "sarif": "e5cb86ef39ede54d52512b1668c3af57ad6330997122f4321a83e96dd8bfab4b",
        "fix": "5acc19a71bf79cf830a5bac3ddcea4e86baeb41da17277e18ebaeb4d009a28f5",
    },
    "design:soc24": {
        "text": "351328e91747ef00593818a34f011ef5b56f9d8c5fd949cbf2eb9210cb7504d2",
        "json": "b8f933cc64f8c0eda992db057af50a0a2d42062ae0f1529255800f7fc301ac54",
        "sarif": "80a774382013eb021ca5d87ee62188b1880049332f69ba09e45a3f44a1985af5",
        "fix": "ab3dd269bd118502be6927d8bd2b9b1b17dde10c5fe961c686fc8b762a68050e",
    },
    "gen:bursty-soc:seed1": {
        "text": "084fcc937c95f80acb2a7a39fa040252aee9f40bbfb4c2b852dd16bf3b37b505",
        "json": "85cc74135c780e037e2447cb227335c0e8f55a9276f81daaa0d7f1b9a8c70a7a",
        "sarif": "b7d631ef3ce03dbfb84c0e7c952f98a5a769bf7e82a100a73fc52391c56872fd",
        "fix": "8c55c1b409e8852c27cf854a1cd071e7e73fa923c4db717897981d53511d9b64",
    },
    "gen:butterfly:seed1": {
        "text": "13106fc6dc565a5e6a0a65506eb052b0ca8685578f1695af9afd8d24c2978540",
        "json": "f476cde0888940952126559ae99a792574fb4dfd8b23dd83b109c46c6e9059b5",
        "sarif": "1f10ae2afb65c07475dd7c543b6f760ef8015a94003662f5c5cf73c7b604e3a1",
        "fix": "3236be373f67e6d8aa03b700598bc9e08c01dba48bcc4da702b8a8ca444ec0bf",
    },
    "gen:noc-torus:seed1": {
        "text": "65b81dea915b1720bd6104b555777b3de2fb44d8bbf2fbf015cb4ff44fc1576c",
        "json": "83e0addadad358a976526dc14e80235c88bb9185bf9a2214ddbeaee5a67de91d",
        "sarif": "ac96dcad0ca8299608f56ac35805862795b9a17e55ab25fbf198ba21ff6fcf23",
        "fix": "a7ea210b37d2e1b5ccbc6058d8df8b8c78c4440343186a1c5635e9d64288a337",
    },
    "gen:ofdm-rx:seed1": {
        "text": "9f8f2ab0fdfc9f771d6d3c3a7c533e188da89cc855999c1d4baeafe2f62aa6e3",
        "json": "6b2cdca1f42a54cc6027ae523652a7dab470c874bf2075a04aff03356635a9eb",
        "sarif": "4be9d7ee413cc7d5f2ddc4309743be0591568ca2f51dcd58e4894b9dd3434ddf",
        "fix": "ab33ad308113824670e5e3a0eec2052e03df952a3e9b785dff70567bd6d27239",
    },
    "gen:rate-converter:seed1": {
        "text": "42dc56bbef50bb68d03b727685fded8ac1454aeb5d3f850e4b02e05e4549c232",
        "json": "efde66298c79b70b5ad5f561976884b615ee3cd90a5f61e760027e414f3a1222",
        "sarif": "ad408345cf8f50c8f4b9af4ca0ccb264e60fba7b68544c9fd10f5da46632bdbd",
        "fix": "f3b9912445788560bce2e49a3642c2ffa0a20eba5d5e11144d8c8d31b2a33d3d",
    },
    "motivating:deadlock": {
        "text": "01db29993e384831094e003664ba1f2eaeb07c3753eed323132614840bde3b83",
        "json": "0023fc17c31cac3c3fc7a8e86e062fe450ee176f3c3e4f3da8a55d0e90134240",
        "sarif": "d275d280bd0d6bca03e231825973c96e0f59c4bb8d75becf296ce7028cb83906",
        "fix": "816bf1c8ea5cf0bfe00bdeea6b689fc727751edd7df0978fce86cf80bb29a62a",
    },
    "motivating:suboptimal": {
        "text": "cdae22a17851a9f9fa09b711dcd7b5723d7f2a981ad3385546b2c0b75af02cbb",
        "json": "510fdcae2428ff787c6c7808e5697ddfda2b138243b73136391573a19d63e848",
        "sarif": "1c1986c0dbb0c657a736e0f6920c1d41f83016b5e04c0c0a1922bf49ed737e85",
        "fix": "816bf1c8ea5cf0bfe00bdeea6b689fc727751edd7df0978fce86cf80bb29a62a",
    },
    "mpeg2:dominated-entry": {
        "text": "94e743abe7f5327089aac8193b4891499ac88ec388344ba931cdf72c45451ffb",
        "json": "a9949436d766992b3145724a072cbcc8153de2103f7eb9b533219bdd06bb5cdb",
        "sarif": "a81901041d9faa0674ecd118ce89a696c3578188563dcb0c70e120cdf74f0894",
        "fix": "bc1f275884acd38b11efcef492e4a600a1d4e4ad8fef40f8507b57156992c981",
    },
    "mpeg2:library": {
        "text": "ce23f4eeedc72dc31642ac43d071c4363176848a55bac361cc503dd11a4db884",
        "json": "7b16423b8f505502225114097d2a9937e4e5dcd18d6d03b5a6d2848203ccfb51",
        "sarif": "1819d1ab7b109f28a1acd72b472a5b74072806be005c3e0fbeb10b3997c64f38",
        "fix": "bc1f275884acd38b11efcef492e4a600a1d4e4ad8fef40f8507b57156992c981",
    },
}


def _cases():
    from repro.core import (
        load_ordering,
        load_system,
        motivating_deadlock_ordering,
    )
    from repro.hls import Implementation, ImplementationLibrary, ParetoSet
    from repro.mpeg2 import build_mpeg2_library, build_mpeg2_system
    from repro.workloads import FAMILIES, generate

    for path in sorted(DESIGNS.glob("*.json")):
        if not path.name.endswith(".ordering.json"):
            yield f"design:{path.stem}", load_system(path), None, None
    motivating = load_system(DESIGNS / "motivating.json")
    suboptimal = load_ordering(DESIGNS / "motivating.suboptimal.ordering.json")
    yield "motivating:suboptimal", motivating, suboptimal, None
    deadlock = motivating_deadlock_ordering(motivating)
    yield "motivating:deadlock", motivating, deadlock, None
    for family in FAMILIES:
        yield f"gen:{family}:seed1", generate(family, seed=1).system, None, None
    mpeg2, library = build_mpeg2_system(), build_mpeg2_library()
    yield "mpeg2:library", mpeg2, None, library
    first = library.of(library.processes()[0])
    fastest = first.fastest
    dominated = Implementation(
        f"{first.process}.dominated", fastest.latency + 1, fastest.area + 1
    )
    with_dominated = ImplementationLibrary(
        ParetoSet(first.process, first.points + (dominated,))
        if pareto is first else pareto
        for pareto in library
    )
    yield "mpeg2:dominated-entry", mpeg2, None, with_dominated


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, dict[str, str]]:
    """Every case's rendering and fixed-ordering digests."""
    from repro.core import ordering_to_dict
    from repro.lint import (
        apply_fixes,
        lint_system,
        render_json,
        render_sarif,
        render_text,
    )

    out = {}
    for name, system, ordering, library in _cases():
        result = lint_system(system, ordering, library=library)
        sarif = json.loads(render_sarif(result))
        del sarif["runs"][0]["tool"]["driver"]["version"]
        fixed = apply_fixes(system, result.ordering, result.diagnostics)
        out[name] = {
            "fix": _sha(json.dumps(ordering_to_dict(fixed.ordering), indent=2)),
            "text": _sha(render_text(result, verbose=True)),
            "json": _sha(render_json(result)),
            "sarif": _sha(json.dumps(sarif, indent=2) + "\n"),
        }
    return out


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_lint_outputs_match_the_golden_digests(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True,
        text=True, check=True,
    )
    actual = json.loads(completed.stdout)
    assert sorted(actual) == sorted(GOLDEN)
    drifted = [
        f"{case}/{renderer}"
        for case in sorted(GOLDEN)
        for renderer in ("text", "json", "sarif", "fix")
        if actual[case][renderer] != GOLDEN[case][renderer]
    ]
    assert drifted == [], f"lint output drifted: {drifted}"


if __name__ == "__main__":
    print(json.dumps(digests(), indent=4, sort_keys=True))
