"""Golden files of the built-ins.

``cpv builtin NAME --emit FILE`` writes a ``cpv-1`` document whose bytes
are part of the contract: outcome order, outcome labels, price labels,
components and protocol trees.  These pin the sha256 of that file for
every built-in rule and protocol at a small size, and for every auction
at a second size whose values are spelled as fractions and decimals, so
that the price labels (normalized values) differ from the type labels.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from cpv.cli import main
from cpv.mechanisms import BUILTIN_PROTOCOLS, BUILTIN_RULES

# Values spelled four ways: the price of type "1.5" is written "3/2".
SPELLED = ["1/2", "1.5", 3, "0"]

CASES = {
    # every built-in rule
    "first_price": (
        {"n": 3, "values": [1, 2, 3, 4]},
        "23eaf3146055f6ad62d7af67aa8caf6de286feeaf4639fa7aa633b1ab4892b60",
    ),
    "second_price": (
        {"n": 3, "values": [1, 2, 3, 4]},
        "1979b75970ab12e0655919978b724e79c59a03a1db1f1df5df826d3915ee73c0",
    ),
    "kth_price": (
        {"n": 2, "k": 2, "values": [1, 2, 3]},
        "e599ed129efb8a06547b8fb34c21a823ac1c8cf556f8b48c678a1f6617714aa3",
    ),
    "uniform_price": (
        {"n": 4, "k": 2, "values": [1, 2, 3]},
        "2257ebda6d56c55b6095b129ce000a7ec42e4f9d2cb58bdd4b3d6f3ca05dff8e",
    ),
    "double_auction_walrasian": (
        {"n": 4, "values": [1, 2, 3]},
        "c697cb61b4e99345eacaa25f3a938b0dd02152a2a0886fa2dfd7b09d13924166",
    ),
    "fair_tiebreak_2x2": (
        {},
        "90a68173647604cb59205029fd6bc204d6f03cdfa48529b48d1669a6f7c67d79",
    ),
    "fig2_instance": (
        {},
        "bacaec6998fe08396a24b3bb0d125b4a89c5f0d94daccfcb08af7782c9f5d0cf",
    ),
    "appC_sp_restriction": (
        {},
        "7877ddc2034aee28866fd7e0123fde695590741d5c5f07d3722582d294085975",
    ),
    "non_clinching": (
        {},
        "a5b81690049600e9601bd22f0ef401b327881a6ccf2dadd6cb877b46bd7f75ee",
    ),
    "efficient_completions_2x2": (
        {},
        "5cb29aab1504d50259c5c197f367f3ac6a870267ed22f17996da72877b249ba3",
    ),
    "house_ir_efficient_family": (
        {},
        "9657ddfee001ed5f840b881e48b153bc8e2f1af089efc10a817e8e1eb2590cbf",
    ),
    "school_stable_family": (
        {},
        "6b64f7987c0d4b3fe2b0ab529c4806be174d78aca4d48f80f205859f008c8ee5",
    ),
    "school_count_instance": (
        {},
        "ea51ca6e3bb1dddf2e36eedff51e0c52abefd1c291fb625faacadc2af19882a6",
    ),
    # every built-in protocol; ``builtin serial_dictatorship`` emits the bundle
    "serial_dictatorship": (
        {"n": 3, "objects": ["A", "B", "C"], "order": [3, 1, 2]},
        "b966a492ca73db5aee884b23dc9b983a54167f68bcf1fedbb9556cd01f7699f8",
    ),
    "descending_first_price": (
        {"n": 3, "values": [1, 2, 3, 4]},
        "9cdb4918f8ef504f8d5979b23569bd74fadcdeca92864d8b47856f6f5043536c",
    ),
    "count_ascending_kplus1_price": (
        {"k": 2, "n": 4, "values": [1, 2, 3]},
        "aea9f0932c3f0d1767a3a844f14335504091d204c8f6cf40ee1366e0d0e7054c",
    ),
    "double_auction_count": (
        {"n": 4, "values": [1, 2, 3]},
        "ab1012d3cb1cc2c0ad192df5849e4cbcc8126b3b0d21bf35aa3caf662be6ad82",
    ),
    "multicount_stable_matching": (
        {},
        "fffa289f5299c4a66f7b0c9017fedf8fe12f722cd4dcd0a7b472710d40f79daf",
    ),
    "ascending_elicitation_sp": (
        {"n": 3, "values": [1, 2, 3, 4]},
        "20743a435a8c8acb28f5d2b920734d1d2a4fe4e1502930b033a54656389ae86a",
    ),
    "fair_two_query": (
        {},
        "912aca8437ae051f0a07192419323c65faba03688ccc0e7f89f62e4d9f5fe90b",
    ),
    # every auction again, with spelled values
    "first_price spelled": (
        {"n": 2, "values": SPELLED},
        "c0f9a30bf5079d2fbbe99f27fed537e7994ca274e223f440cc0a9b4e98774241",
    ),
    "second_price spelled": (
        {"n": 2, "values": SPELLED},
        "8f549a65d1e2e55aee588f4812c2e6df96beeeebc2722f4f51885c4faf019b23",
    ),
    "kth_price spelled": (
        {"n": 3, "k": 3, "values": SPELLED},
        "d1fe7a0c2fb67457ed218764e9a8cd2f691d0ab3cbb9b500c5db30fc5b476485",
    ),
    "uniform_price spelled": (
        {"n": 3, "k": 2, "values": SPELLED},
        "0587f581a360204b864c22fc7daffa09487cb459fa2ed9d62cd2f7b0aa8d7d8d",
    ),
    "double_auction_walrasian spelled": (
        {"n": 2, "values": SPELLED, "selection": "upper"},
        "1ef185250008ad8c4eceeb849cb7fe36f0c845d402b843786210f912ce8091ec",
    ),
    "descending_first_price spelled": (
        {"n": 2, "values": SPELLED},
        "0ed8d0f4e0d585cd9091d8d78d014865726c22bdf6c956ca8ae1d652576603c2",
    ),
    "count_ascending_kplus1_price spelled": (
        {"k": 1, "n": 3, "values": SPELLED},
        "5f5556f68ecc28dea2f549edb958c0e9db37033e650607ab274ecab32b3ad4fb",
    ),
    "double_auction_count spelled": (
        {"n": 2, "values": SPELLED},
        "9e30001e8eb4164032a6abd86da7ded6238071c2eadab938c71a73db38ecbf2a",
    ),
    "ascending_elicitation_sp spelled": (
        {"n": 2, "values": SPELLED},
        "b531fbecab13d0da8fdb3341259ad5839de9e0c30ce2cdbb9dc6960433da93a1",
    ),
}


def test_every_builtin_has_a_case():
    assert {case.split()[0] for case in CASES} == set(BUILTIN_RULES) | set(BUILTIN_PROTOCOLS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_emitted_file_is_unchanged(case, tmp_path, capsys):
    params, digest = CASES[case]
    path = tmp_path / "out.json"
    code = main(["builtin", case.split()[0], "--params", json.dumps(params), "--emit", str(path)])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0, report
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
