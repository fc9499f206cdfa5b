"""Golden outcomes of the fingerprint ladder.

Every fingerprint scheme resolves a target through the same three tiers:
the exact truth table up to ``FUNCTIONAL_WIDTH_LIMIT`` lines, then the
outputs on the sampled probe set, then a circuit's gate structure.  This
table pins, for every scheme, probe count, width and kind of target, the
full key the ladder produces or the ``FingerprintError`` it raises.  The
targets come from one seeded circuit per width, so a change to which tier
answers a case, or to any digest, fails here.  The recorded table is never
edited; only the line that builds a policy may follow the API.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.circuits.permutation import Permutation
from repro.circuits.random import random_circuit
from repro.exceptions import FingerprintError
from repro.oracles.oracle import CircuitOracle, FunctionOracle, PermutationOracle
from repro.quantum.oracle import QuantumCircuitOracle
from repro.service.fingerprint import build_registry

SCHEMES = ("auto", "exact", "probe")
PROBE_COUNTS = (0, 7, 64)
WIDTHS = (1, 4, 14, 15, 20)
KINDS = (
    "circuit",
    "circuit-oracle",
    "circuit-oracle-inverse",
    "permutation",
    "permutation-oracle",
    "quantum-oracle",
    "function-oracle",
)


@functools.lru_cache(maxsize=None)
def _circuit(width: int):
    return random_circuit(width, 2 * width + 4, random.Random(f"ladder:{width}"))


@functools.lru_cache(maxsize=None)
def _permutation(width: int) -> Permutation:
    return Permutation.from_circuit(_circuit(width))


def _target(kind: str, width: int):
    circuit = _circuit(width)
    if kind == "circuit":
        return circuit
    if kind == "circuit-oracle":
        return CircuitOracle(circuit)
    if kind == "circuit-oracle-inverse":
        return CircuitOracle(circuit, with_inverse=True)
    if kind == "permutation":
        return _permutation(width)
    if kind == "permutation-oracle":
        return PermutationOracle(_permutation(width))
    if kind == "quantum-oracle":
        return QuantumCircuitOracle(_permutation(width))
    return FunctionOracle(circuit.simulate, width)


def outcome(scheme: str, probe_count: int, width: int, kind: str) -> str:
    """The key the ladder gives the target, or ``"FingerprintError"``."""
    try:
        policy = build_registry(scheme, probe_count=probe_count)
        return policy.fingerprint(_target(kind, width)).key
    except FingerprintError:
        return "FingerprintError"


CASES = [
    (scheme, probe_count, width, kind)
    for scheme in SCHEMES
    for probe_count in PROBE_COUNTS
    for width in WIDTHS
    for kind in KINDS
]


def test_the_table_covers_every_case():
    assert sorted(GOLDEN_LADDER) == sorted(
        "/".join(map(str, case)) for case in CASES
    )


@pytest.mark.parametrize("scheme, probe_count, width, kind", CASES)
def test_ladder_outcome_is_pinned(scheme, probe_count, width, kind):
    case = f"{scheme}/{probe_count}/{width}/{kind}"
    assert outcome(scheme, probe_count, width, kind) == GOLDEN_LADDER[case]


#: "scheme/probe_count/width/kind" -> full fingerprint key or error name.
GOLDEN_LADDER = {
    "auto/0/1/circuit": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/0/1/circuit-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/0/1/circuit-oracle-inverse": "fp/v2:1:exact:function:inv:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/0/1/permutation": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/0/1/permutation-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/0/1/quantum-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/0/1/function-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/0/4/circuit": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/0/4/circuit-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/0/4/circuit-oracle-inverse": "fp/v2:4:exact:function:inv:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/0/4/permutation": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/0/4/permutation-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/0/4/quantum-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/0/4/function-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/0/14/circuit": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/0/14/circuit-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/0/14/circuit-oracle-inverse": "fp/v2:14:exact:function:inv:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/0/14/permutation": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/0/14/permutation-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/0/14/quantum-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/0/14/function-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/0/15/circuit": "fp/v2:15:structure:structure:fwd:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "auto/0/15/circuit-oracle": "fp/v2:15:structure:structure:fwd:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "auto/0/15/circuit-oracle-inverse": "fp/v2:15:structure:structure:inv:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "auto/0/15/permutation": "FingerprintError",
    "auto/0/15/permutation-oracle": "FingerprintError",
    "auto/0/15/quantum-oracle": "FingerprintError",
    "auto/0/15/function-oracle": "FingerprintError",
    "auto/0/20/circuit": "fp/v2:20:structure:structure:fwd:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "auto/0/20/circuit-oracle": "fp/v2:20:structure:structure:fwd:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "auto/0/20/circuit-oracle-inverse": "fp/v2:20:structure:structure:inv:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "auto/0/20/permutation": "FingerprintError",
    "auto/0/20/permutation-oracle": "FingerprintError",
    "auto/0/20/quantum-oracle": "FingerprintError",
    "auto/0/20/function-oracle": "FingerprintError",
    "auto/7/1/circuit": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/7/1/circuit-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/7/1/circuit-oracle-inverse": "fp/v2:1:exact:function:inv:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/7/1/permutation": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/7/1/permutation-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/7/1/quantum-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/7/1/function-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/7/4/circuit": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/7/4/circuit-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/7/4/circuit-oracle-inverse": "fp/v2:4:exact:function:inv:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/7/4/permutation": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/7/4/permutation-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/7/4/quantum-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/7/4/function-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/7/14/circuit": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/7/14/circuit-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/7/14/circuit-oracle-inverse": "fp/v2:14:exact:function:inv:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/7/14/permutation": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/7/14/permutation-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/7/14/quantum-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/7/14/function-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/7/15/circuit": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "auto/7/15/circuit-oracle": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "auto/7/15/circuit-oracle-inverse": "fp/v2:15:probe:probe:inv:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "auto/7/15/permutation": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "auto/7/15/permutation-oracle": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "auto/7/15/quantum-oracle": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "auto/7/15/function-oracle": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "auto/7/20/circuit": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "auto/7/20/circuit-oracle": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "auto/7/20/circuit-oracle-inverse": "fp/v2:20:probe:probe:inv:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "auto/7/20/permutation": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "auto/7/20/permutation-oracle": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "auto/7/20/quantum-oracle": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "auto/7/20/function-oracle": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "auto/64/1/circuit": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/64/1/circuit-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/64/1/circuit-oracle-inverse": "fp/v2:1:exact:function:inv:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/64/1/permutation": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/64/1/permutation-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/64/1/quantum-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/64/1/function-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "auto/64/4/circuit": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/64/4/circuit-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/64/4/circuit-oracle-inverse": "fp/v2:4:exact:function:inv:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/64/4/permutation": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/64/4/permutation-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/64/4/quantum-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/64/4/function-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "auto/64/14/circuit": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/64/14/circuit-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/64/14/circuit-oracle-inverse": "fp/v2:14:exact:function:inv:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/64/14/permutation": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/64/14/permutation-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/64/14/quantum-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/64/14/function-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "auto/64/15/circuit": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "auto/64/15/circuit-oracle": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "auto/64/15/circuit-oracle-inverse": "fp/v2:15:probe:probe:inv:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "auto/64/15/permutation": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "auto/64/15/permutation-oracle": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "auto/64/15/quantum-oracle": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "auto/64/15/function-oracle": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "auto/64/20/circuit": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "auto/64/20/circuit-oracle": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "auto/64/20/circuit-oracle-inverse": "fp/v2:20:probe:probe:inv:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "auto/64/20/permutation": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "auto/64/20/permutation-oracle": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "auto/64/20/quantum-oracle": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "auto/64/20/function-oracle": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "exact/0/1/circuit": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/0/1/circuit-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/0/1/circuit-oracle-inverse": "fp/v2:1:exact:function:inv:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/0/1/permutation": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/0/1/permutation-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/0/1/quantum-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/0/1/function-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/0/4/circuit": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/0/4/circuit-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/0/4/circuit-oracle-inverse": "fp/v2:4:exact:function:inv:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/0/4/permutation": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/0/4/permutation-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/0/4/quantum-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/0/4/function-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/0/14/circuit": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/0/14/circuit-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/0/14/circuit-oracle-inverse": "fp/v2:14:exact:function:inv:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/0/14/permutation": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/0/14/permutation-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/0/14/quantum-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/0/14/function-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/0/15/circuit": "fp/v2:15:structure:structure:fwd:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "exact/0/15/circuit-oracle": "fp/v2:15:structure:structure:fwd:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "exact/0/15/circuit-oracle-inverse": "fp/v2:15:structure:structure:inv:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "exact/0/15/permutation": "FingerprintError",
    "exact/0/15/permutation-oracle": "FingerprintError",
    "exact/0/15/quantum-oracle": "FingerprintError",
    "exact/0/15/function-oracle": "FingerprintError",
    "exact/0/20/circuit": "fp/v2:20:structure:structure:fwd:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "exact/0/20/circuit-oracle": "fp/v2:20:structure:structure:fwd:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "exact/0/20/circuit-oracle-inverse": "fp/v2:20:structure:structure:inv:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "exact/0/20/permutation": "FingerprintError",
    "exact/0/20/permutation-oracle": "FingerprintError",
    "exact/0/20/quantum-oracle": "FingerprintError",
    "exact/0/20/function-oracle": "FingerprintError",
    "exact/7/1/circuit": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/7/1/circuit-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/7/1/circuit-oracle-inverse": "fp/v2:1:exact:function:inv:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/7/1/permutation": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/7/1/permutation-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/7/1/quantum-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/7/1/function-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/7/4/circuit": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/7/4/circuit-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/7/4/circuit-oracle-inverse": "fp/v2:4:exact:function:inv:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/7/4/permutation": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/7/4/permutation-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/7/4/quantum-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/7/4/function-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/7/14/circuit": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/7/14/circuit-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/7/14/circuit-oracle-inverse": "fp/v2:14:exact:function:inv:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/7/14/permutation": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/7/14/permutation-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/7/14/quantum-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/7/14/function-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/7/15/circuit": "fp/v2:15:structure:structure:fwd:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "exact/7/15/circuit-oracle": "fp/v2:15:structure:structure:fwd:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "exact/7/15/circuit-oracle-inverse": "fp/v2:15:structure:structure:inv:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "exact/7/15/permutation": "FingerprintError",
    "exact/7/15/permutation-oracle": "FingerprintError",
    "exact/7/15/quantum-oracle": "FingerprintError",
    "exact/7/15/function-oracle": "FingerprintError",
    "exact/7/20/circuit": "fp/v2:20:structure:structure:fwd:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "exact/7/20/circuit-oracle": "fp/v2:20:structure:structure:fwd:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "exact/7/20/circuit-oracle-inverse": "fp/v2:20:structure:structure:inv:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "exact/7/20/permutation": "FingerprintError",
    "exact/7/20/permutation-oracle": "FingerprintError",
    "exact/7/20/quantum-oracle": "FingerprintError",
    "exact/7/20/function-oracle": "FingerprintError",
    "exact/64/1/circuit": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/64/1/circuit-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/64/1/circuit-oracle-inverse": "fp/v2:1:exact:function:inv:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/64/1/permutation": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/64/1/permutation-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/64/1/quantum-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/64/1/function-oracle": "fp/v2:1:exact:function:fwd:291548cd3e004d6eecf347691dd6957ce206204ff9980b401b7a5516c446a9e1",
    "exact/64/4/circuit": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/64/4/circuit-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/64/4/circuit-oracle-inverse": "fp/v2:4:exact:function:inv:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/64/4/permutation": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/64/4/permutation-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/64/4/quantum-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/64/4/function-oracle": "fp/v2:4:exact:function:fwd:f4cb435e7c7d38afe87c1643eacaf4a30251872d9c148832e8d0f4efa2240ae3",
    "exact/64/14/circuit": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/64/14/circuit-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/64/14/circuit-oracle-inverse": "fp/v2:14:exact:function:inv:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/64/14/permutation": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/64/14/permutation-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/64/14/quantum-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/64/14/function-oracle": "fp/v2:14:exact:function:fwd:18255dfb74b435b57ea5e7c8fbfd3eff61a9f1391e4d13f33c3eaa431e057546",
    "exact/64/15/circuit": "fp/v2:15:structure:structure:fwd:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "exact/64/15/circuit-oracle": "fp/v2:15:structure:structure:fwd:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "exact/64/15/circuit-oracle-inverse": "fp/v2:15:structure:structure:inv:895717915b00889e7a0325a367dad21d1350117aa79eae74ad3a4781fa80e63a",
    "exact/64/15/permutation": "FingerprintError",
    "exact/64/15/permutation-oracle": "FingerprintError",
    "exact/64/15/quantum-oracle": "FingerprintError",
    "exact/64/15/function-oracle": "FingerprintError",
    "exact/64/20/circuit": "fp/v2:20:structure:structure:fwd:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "exact/64/20/circuit-oracle": "fp/v2:20:structure:structure:fwd:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "exact/64/20/circuit-oracle-inverse": "fp/v2:20:structure:structure:inv:627a888a2758790ba7ca38f7d0a9af8675b8e841d789f883a9c3244bc2f97666",
    "exact/64/20/permutation": "FingerprintError",
    "exact/64/20/permutation-oracle": "FingerprintError",
    "exact/64/20/quantum-oracle": "FingerprintError",
    "exact/64/20/function-oracle": "FingerprintError",
    "probe/0/1/circuit": "FingerprintError",
    "probe/0/1/circuit-oracle": "FingerprintError",
    "probe/0/1/circuit-oracle-inverse": "FingerprintError",
    "probe/0/1/permutation": "FingerprintError",
    "probe/0/1/permutation-oracle": "FingerprintError",
    "probe/0/1/quantum-oracle": "FingerprintError",
    "probe/0/1/function-oracle": "FingerprintError",
    "probe/0/4/circuit": "FingerprintError",
    "probe/0/4/circuit-oracle": "FingerprintError",
    "probe/0/4/circuit-oracle-inverse": "FingerprintError",
    "probe/0/4/permutation": "FingerprintError",
    "probe/0/4/permutation-oracle": "FingerprintError",
    "probe/0/4/quantum-oracle": "FingerprintError",
    "probe/0/4/function-oracle": "FingerprintError",
    "probe/0/14/circuit": "FingerprintError",
    "probe/0/14/circuit-oracle": "FingerprintError",
    "probe/0/14/circuit-oracle-inverse": "FingerprintError",
    "probe/0/14/permutation": "FingerprintError",
    "probe/0/14/permutation-oracle": "FingerprintError",
    "probe/0/14/quantum-oracle": "FingerprintError",
    "probe/0/14/function-oracle": "FingerprintError",
    "probe/0/15/circuit": "FingerprintError",
    "probe/0/15/circuit-oracle": "FingerprintError",
    "probe/0/15/circuit-oracle-inverse": "FingerprintError",
    "probe/0/15/permutation": "FingerprintError",
    "probe/0/15/permutation-oracle": "FingerprintError",
    "probe/0/15/quantum-oracle": "FingerprintError",
    "probe/0/15/function-oracle": "FingerprintError",
    "probe/0/20/circuit": "FingerprintError",
    "probe/0/20/circuit-oracle": "FingerprintError",
    "probe/0/20/circuit-oracle-inverse": "FingerprintError",
    "probe/0/20/permutation": "FingerprintError",
    "probe/0/20/permutation-oracle": "FingerprintError",
    "probe/0/20/quantum-oracle": "FingerprintError",
    "probe/0/20/function-oracle": "FingerprintError",
    "probe/7/1/circuit": "fp/v2:1:probe:probe:fwd:fc88ad00f8c7358b3d1b7b06c14921a6c657e919ab5c0404cb24329758d4174a",
    "probe/7/1/circuit-oracle": "fp/v2:1:probe:probe:fwd:fc88ad00f8c7358b3d1b7b06c14921a6c657e919ab5c0404cb24329758d4174a",
    "probe/7/1/circuit-oracle-inverse": "fp/v2:1:probe:probe:inv:fc88ad00f8c7358b3d1b7b06c14921a6c657e919ab5c0404cb24329758d4174a",
    "probe/7/1/permutation": "fp/v2:1:probe:probe:fwd:fc88ad00f8c7358b3d1b7b06c14921a6c657e919ab5c0404cb24329758d4174a",
    "probe/7/1/permutation-oracle": "fp/v2:1:probe:probe:fwd:fc88ad00f8c7358b3d1b7b06c14921a6c657e919ab5c0404cb24329758d4174a",
    "probe/7/1/quantum-oracle": "fp/v2:1:probe:probe:fwd:fc88ad00f8c7358b3d1b7b06c14921a6c657e919ab5c0404cb24329758d4174a",
    "probe/7/1/function-oracle": "fp/v2:1:probe:probe:fwd:fc88ad00f8c7358b3d1b7b06c14921a6c657e919ab5c0404cb24329758d4174a",
    "probe/7/4/circuit": "fp/v2:4:probe:probe:fwd:1343548cce058570773e869017871e5c6399d63d7136b1dfb24aaccd3a8ebb07",
    "probe/7/4/circuit-oracle": "fp/v2:4:probe:probe:fwd:1343548cce058570773e869017871e5c6399d63d7136b1dfb24aaccd3a8ebb07",
    "probe/7/4/circuit-oracle-inverse": "fp/v2:4:probe:probe:inv:1343548cce058570773e869017871e5c6399d63d7136b1dfb24aaccd3a8ebb07",
    "probe/7/4/permutation": "fp/v2:4:probe:probe:fwd:1343548cce058570773e869017871e5c6399d63d7136b1dfb24aaccd3a8ebb07",
    "probe/7/4/permutation-oracle": "fp/v2:4:probe:probe:fwd:1343548cce058570773e869017871e5c6399d63d7136b1dfb24aaccd3a8ebb07",
    "probe/7/4/quantum-oracle": "fp/v2:4:probe:probe:fwd:1343548cce058570773e869017871e5c6399d63d7136b1dfb24aaccd3a8ebb07",
    "probe/7/4/function-oracle": "fp/v2:4:probe:probe:fwd:1343548cce058570773e869017871e5c6399d63d7136b1dfb24aaccd3a8ebb07",
    "probe/7/14/circuit": "fp/v2:14:probe:probe:fwd:e5ebcf926900a7865eb5142270144b9f02a8cc01dc041872ddabd0aa4760ab7f",
    "probe/7/14/circuit-oracle": "fp/v2:14:probe:probe:fwd:e5ebcf926900a7865eb5142270144b9f02a8cc01dc041872ddabd0aa4760ab7f",
    "probe/7/14/circuit-oracle-inverse": "fp/v2:14:probe:probe:inv:e5ebcf926900a7865eb5142270144b9f02a8cc01dc041872ddabd0aa4760ab7f",
    "probe/7/14/permutation": "fp/v2:14:probe:probe:fwd:e5ebcf926900a7865eb5142270144b9f02a8cc01dc041872ddabd0aa4760ab7f",
    "probe/7/14/permutation-oracle": "fp/v2:14:probe:probe:fwd:e5ebcf926900a7865eb5142270144b9f02a8cc01dc041872ddabd0aa4760ab7f",
    "probe/7/14/quantum-oracle": "fp/v2:14:probe:probe:fwd:e5ebcf926900a7865eb5142270144b9f02a8cc01dc041872ddabd0aa4760ab7f",
    "probe/7/14/function-oracle": "fp/v2:14:probe:probe:fwd:e5ebcf926900a7865eb5142270144b9f02a8cc01dc041872ddabd0aa4760ab7f",
    "probe/7/15/circuit": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "probe/7/15/circuit-oracle": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "probe/7/15/circuit-oracle-inverse": "fp/v2:15:probe:probe:inv:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "probe/7/15/permutation": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "probe/7/15/permutation-oracle": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "probe/7/15/quantum-oracle": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "probe/7/15/function-oracle": "fp/v2:15:probe:probe:fwd:82d98942734530946094dadf3c133973a1cff387cac82a94bc814b012be19703",
    "probe/7/20/circuit": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "probe/7/20/circuit-oracle": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "probe/7/20/circuit-oracle-inverse": "fp/v2:20:probe:probe:inv:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "probe/7/20/permutation": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "probe/7/20/permutation-oracle": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "probe/7/20/quantum-oracle": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "probe/7/20/function-oracle": "fp/v2:20:probe:probe:fwd:fe78ecd64a75d43faefd05ec201fa8fa2b0eebc01ac911ee36edbfb099ae41d3",
    "probe/64/1/circuit": "fp/v2:1:probe:probe:fwd:b42183994e0c9a5e59069f90e997c83f8e3260627b4ace242760a2347929ec40",
    "probe/64/1/circuit-oracle": "fp/v2:1:probe:probe:fwd:b42183994e0c9a5e59069f90e997c83f8e3260627b4ace242760a2347929ec40",
    "probe/64/1/circuit-oracle-inverse": "fp/v2:1:probe:probe:inv:b42183994e0c9a5e59069f90e997c83f8e3260627b4ace242760a2347929ec40",
    "probe/64/1/permutation": "fp/v2:1:probe:probe:fwd:b42183994e0c9a5e59069f90e997c83f8e3260627b4ace242760a2347929ec40",
    "probe/64/1/permutation-oracle": "fp/v2:1:probe:probe:fwd:b42183994e0c9a5e59069f90e997c83f8e3260627b4ace242760a2347929ec40",
    "probe/64/1/quantum-oracle": "fp/v2:1:probe:probe:fwd:b42183994e0c9a5e59069f90e997c83f8e3260627b4ace242760a2347929ec40",
    "probe/64/1/function-oracle": "fp/v2:1:probe:probe:fwd:b42183994e0c9a5e59069f90e997c83f8e3260627b4ace242760a2347929ec40",
    "probe/64/4/circuit": "fp/v2:4:probe:probe:fwd:a01d5c4f57a651be79523679b19584cf576825943e61b50d4e91f8296c8eb37a",
    "probe/64/4/circuit-oracle": "fp/v2:4:probe:probe:fwd:a01d5c4f57a651be79523679b19584cf576825943e61b50d4e91f8296c8eb37a",
    "probe/64/4/circuit-oracle-inverse": "fp/v2:4:probe:probe:inv:a01d5c4f57a651be79523679b19584cf576825943e61b50d4e91f8296c8eb37a",
    "probe/64/4/permutation": "fp/v2:4:probe:probe:fwd:a01d5c4f57a651be79523679b19584cf576825943e61b50d4e91f8296c8eb37a",
    "probe/64/4/permutation-oracle": "fp/v2:4:probe:probe:fwd:a01d5c4f57a651be79523679b19584cf576825943e61b50d4e91f8296c8eb37a",
    "probe/64/4/quantum-oracle": "fp/v2:4:probe:probe:fwd:a01d5c4f57a651be79523679b19584cf576825943e61b50d4e91f8296c8eb37a",
    "probe/64/4/function-oracle": "fp/v2:4:probe:probe:fwd:a01d5c4f57a651be79523679b19584cf576825943e61b50d4e91f8296c8eb37a",
    "probe/64/14/circuit": "fp/v2:14:probe:probe:fwd:4b631248dfbe8995cf934ae6b3d1125bb9b7560216606624420318ae6e87cc25",
    "probe/64/14/circuit-oracle": "fp/v2:14:probe:probe:fwd:4b631248dfbe8995cf934ae6b3d1125bb9b7560216606624420318ae6e87cc25",
    "probe/64/14/circuit-oracle-inverse": "fp/v2:14:probe:probe:inv:4b631248dfbe8995cf934ae6b3d1125bb9b7560216606624420318ae6e87cc25",
    "probe/64/14/permutation": "fp/v2:14:probe:probe:fwd:4b631248dfbe8995cf934ae6b3d1125bb9b7560216606624420318ae6e87cc25",
    "probe/64/14/permutation-oracle": "fp/v2:14:probe:probe:fwd:4b631248dfbe8995cf934ae6b3d1125bb9b7560216606624420318ae6e87cc25",
    "probe/64/14/quantum-oracle": "fp/v2:14:probe:probe:fwd:4b631248dfbe8995cf934ae6b3d1125bb9b7560216606624420318ae6e87cc25",
    "probe/64/14/function-oracle": "fp/v2:14:probe:probe:fwd:4b631248dfbe8995cf934ae6b3d1125bb9b7560216606624420318ae6e87cc25",
    "probe/64/15/circuit": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "probe/64/15/circuit-oracle": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "probe/64/15/circuit-oracle-inverse": "fp/v2:15:probe:probe:inv:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "probe/64/15/permutation": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "probe/64/15/permutation-oracle": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "probe/64/15/quantum-oracle": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "probe/64/15/function-oracle": "fp/v2:15:probe:probe:fwd:efa7f3621f9565f7a3a929534e27f918c7a5ef8766cc97eba84f6a8aa408cb68",
    "probe/64/20/circuit": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "probe/64/20/circuit-oracle": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "probe/64/20/circuit-oracle-inverse": "fp/v2:20:probe:probe:inv:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "probe/64/20/permutation": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "probe/64/20/permutation-oracle": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "probe/64/20/quantum-oracle": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
    "probe/64/20/function-oracle": "fp/v2:20:probe:probe:fwd:8d9bfc932835ec1af6a9d1ea3b45f1bdba499a822afd3a85d9319bce6012ab64",
}
