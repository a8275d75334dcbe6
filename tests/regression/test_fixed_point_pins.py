"""Bitwise pins of the fixed-point, robust-plan and augmentation paths.

The ``flat`` (r = 0) values were recorded before the fixed-point sweeps
began to reuse their evaluation frames and have not moved since; the
``default`` and ``deep`` values and the ``recursive`` digests were
re-recorded when the Newton solve replaced Kleene iteration, each value
moving closer to ``closed_form_pfail``.  The ``recursive/B`` digest was
re-recorded when a report began to break a recursive service down at its
own least fixed point (it had read ``A``'s value from the solve of ``A``
run before it); ``recursive/A`` did not move.  Keys
read ``parameters/solver/incremental/service/size`` (fixed point; the
``incremental`` field records that the pins were taken with the low-rank
update tier off, which is now the only path), ``parameters/size`` (robust
plan) and ``scenario/service/actuals`` (augmented-chain matrix, as the
first 24 hex digits of its SHA-256).
"""

import hashlib

import pytest

from repro.core import ReliabilityEvaluator, augment_with_failures
from repro.engine import compile_plan
from repro.errors import ProbabilityRangeError
from repro.scenarios import (
    RecursiveParameters,
    booking_assembly,
    local_assembly,
    pipeline_assembly,
    recursive_assembly,
    remote_assembly,
    replicated_assembly,
)

PARAMETERS = {
    "default": RecursiveParameters(),
    "deep": RecursiveParameters(
        internal_a=3e-3, internal_b=1e-4, recursion_probability=0.9
    ),
    "flat": RecursiveParameters(
        internal_a=5e-4, internal_b=4e-3, recursion_probability=0.0
    ),
}

FIXED_POINT = {
    "deep/auto/False/A/1.0": "0x1.ec7b80bb00e00p-6",
    "deep/auto/False/A/8.0": "0x1.ec7b80bb00e00p-6",
    "deep/auto/False/B/1.0": "0x1.bcaa17d78ddc0p-6",
    "deep/auto/False/B/8.0": "0x1.bcaa17d78ddc0p-6",
    "deep/dense/False/A/1.0": "0x1.ec7b80bb00e00p-6",
    "deep/dense/False/A/8.0": "0x1.ec7b80bb00e00p-6",
    "deep/dense/False/B/1.0": "0x1.bcaa17d78ddc0p-6",
    "deep/dense/False/B/8.0": "0x1.bcaa17d78ddc0p-6",
    "default/auto/False/A/1.0": "0x1.053ad1a0e0c00p-8",
    "default/auto/False/A/8.0": "0x1.053ad1a0e0c00p-8",
    "default/auto/False/B/1.0": "0x1.87c780502c100p-9",
    "default/auto/False/B/8.0": "0x1.87c780502c100p-9",
    "default/dense/False/A/1.0": "0x1.053ad1a0e0c00p-8",
    "default/dense/False/A/8.0": "0x1.053ad1a0e0c00p-8",
    "default/dense/False/B/1.0": "0x1.87c780502c100p-9",
    "default/dense/False/B/8.0": "0x1.87c780502c100p-9",
    "flat/auto/False/A/1.0": "0x1.0624dd2f1a800p-11",
    "flat/auto/False/A/8.0": "0x1.0624dd2f1a800p-11",
    "flat/auto/False/B/1.0": "0x0.0p+0",
    "flat/auto/False/B/8.0": "0x0.0p+0",
    "flat/dense/False/A/1.0": "0x1.0624dd2f1a800p-11",
    "flat/dense/False/A/8.0": "0x1.0624dd2f1a800p-11",
    "flat/dense/False/B/1.0": "0x0.0p+0",
    "flat/dense/False/B/8.0": "0x0.0p+0",
}

ROBUST = {
    "deep/1.0": "0x1.ec7b80bb00e00p-6",
    "deep/3.0": "0x1.ec7b80bb00e00p-6",
    "deep/8.0": "0x1.ec7b80bb00e00p-6",
    "default/1.0": "0x1.053ad1a0e0c00p-8",
    "default/3.0": "0x1.053ad1a0e0c00p-8",
    "default/8.0": "0x1.053ad1a0e0c00p-8",
    "flat/1.0": "0x1.0624dd2f1a800p-11",
    "flat/3.0": "0x1.0624dd2f1a800p-11",
    "flat/8.0": "0x1.0624dd2f1a800p-11",
}

AUGMENTED = {
    "booking/booking/(('itinerary', 8.0),)": "98653b2d07f4f09bab6c7aab",
    "booking/gds_backend/(('items', 8.0),)": "ca66d19f7fa6cf67472e83cf",
    "booking/hotel/(('items', 8.0),)": "6b73d2dfb6c999cbebe91e4b",
    "booking/payment/(('items', 8.0),)": "2f689d5344469d4eb5ae5f81",
    "booking/rpc_gds_backend/(('ip', 8.0), ('op', 8.0))": "af70341c3f1d13a5bdd1254a",
    "booking/rpc_hotel/(('ip', 8.0), ('op', 8.0))": "af70341c3f1d13a5bdd1254a",
    "booking/rpc_payment/(('ip', 8.0), ('op', 8.0))": "af70341c3f1d13a5bdd1254a",
    "local/lpc/(('ip', 501.0), ('op', 1.0))": "d2393761bcf929c67a290146",
    "local/search/(('elem', 1.0), ('list', 500.0), ('res', 1.0))": "0679bb4279114b4bc7789e95",
    "local/sort1/(('list', 500.0),)": "4885cc77de7715f22d97319b",
    "pipeline/cdn_0/(('mb', 32.0),)": "d0935008e921febd017917f4",
    "pipeline/cdn_1/(('mb', 32.0),)": "d0935008e921febd017917f4",
    "pipeline/cdn_2/(('mb', 32.0),)": "d0935008e921febd017917f4",
    "pipeline/ingest/(('mb', 32.0),)": "0fb2ed53768520346ffd44f3",
    "pipeline/package/(('mb', 32.0),)": "31c53abd722a112165994623",
    "pipeline/publish/(('mb', 32.0),)": "ef4eb1c138f31886e523bbfd",
    "pipeline/rpc_cdn_0/(('ip', 32.0), ('op', 32.0))": "56021161778ae2b812736b1e",
    "pipeline/rpc_cdn_1/(('ip', 32.0), ('op', 32.0))": "56021161778ae2b812736b1e",
    "pipeline/rpc_cdn_2/(('ip', 32.0), ('op', 32.0))": "56021161778ae2b812736b1e",
    "pipeline/rpc_ingest/(('ip', 32.0), ('op', 32.0))": "56021161778ae2b812736b1e",
    "pipeline/rpc_package/(('ip', 32.0), ('op', 32.0))": "56021161778ae2b812736b1e",
    "pipeline/rpc_transcode/(('ip', 32.0), ('op', 32.0))": "56021161778ae2b812736b1e",
    "pipeline/transcode/(('mb', 32.0),)": "949caf6c6daff8609cb71699",
    "recursive/A/(('size', 3.0),)": "4b0747cc4579186c20479092",
    "recursive/B/(('size', 3.0),)": "39ecbbfcd9237d1d2c0d7232",
    "remote/rpc/(('ip', 1001.0), ('op', 1.0))": "80c7b273499f19fc0d02ed67",
    "remote/search/(('elem', 1.0), ('list', 1000.0), ('res', 1.0))": "4c01f81b9244a4010ab88221",
    "remote/sort2/(('list', 1000.0),)": "e9b6c4dafa05e2da53cf7ed2",
    "replicated/report/(('size', 16.0),)": "557d4e4b741bb4c2436add44",
}

SCENARIOS = {
    "local": (local_assembly, "search", {"elem": 1.0, "list": 500.0, "res": 1.0}),
    "remote": (remote_assembly, "search", {"elem": 1.0, "list": 1000.0, "res": 1.0}),
    "booking": (lambda: booking_assembly(shared_gds=True), "booking",
                {"itinerary": 8.0}),
    "pipeline": (pipeline_assembly, "publish", {"mb": 32.0}),
    "replicated": (lambda: replicated_assembly(3, shared=True), "report",
                   {"size": 16.0}),
    "recursive": (lambda: recursive_assembly(PARAMETERS["deep"]), "A",
                  {"size": 3.0}),
}


@pytest.mark.parametrize("key", sorted(FIXED_POINT))
def test_fixed_point_pfail(key):
    label, solver, incremental, service, size = key.split("/")
    assert incremental == "False"
    evaluator = ReliabilityEvaluator(
        recursive_assembly(PARAMETERS[label]), solver=solver
    )
    assert evaluator.pfail(service, size=float(size)).hex() == FIXED_POINT[key]


@pytest.mark.parametrize("label", sorted(PARAMETERS))
def test_robust_plan_pfail(label):
    plan = compile_plan(recursive_assembly(PARAMETERS[label]), "A")
    for key in sorted(k for k in ROBUST if k.startswith(f"{label}/")):
        size = float(key.split("/")[1])
        assert plan.pfail({"size": size}).hex() == ROBUST[key]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_augmented_chain_matrices(scenario):
    build, service, actuals = SCENARIOS[scenario]
    assembly = build()
    evaluator = ReliabilityEvaluator(assembly)
    evaluator.pfail(service, **actuals)
    composites = sorted(
        key for key in (*evaluator._cache, *evaluator._sweep)
        if hasattr(assembly.service(key[0]), "flow")
    )
    seen = set()
    for name, bound in composites:
        target = assembly.service(name)
        report = evaluator.report(target, **dict(bound))
        chain = augment_with_failures(
            target.flow, target.evaluation_environment(dict(bound), check=False),
            {state.state: state.failure_probability for state in report.states},
        )
        key = f"{scenario}/{name}/{bound}"
        digest = hashlib.sha256(chain.matrix.tobytes()).hexdigest()[:24]
        assert digest == AUGMENTED[key], key
        seen.add(key)
    assert seen == {key for key in AUGMENTED if key.startswith(f"{scenario}/")}


@pytest.mark.parametrize("bad", [1.5, float("nan")])
def test_out_of_range_state_probability_inside_a_fixed_point(monkeypatch, bad):
    monkeypatch.setattr(
        "repro.core.evaluator.completion_class_failure",
        lambda k, groups, internal, external, masking: [bad] * len(internal),
    )
    with pytest.raises(ProbabilityRangeError) as info:
        ReliabilityEvaluator(recursive_assembly()).pfail("A", size=1.0)
    assert info.value.what == "failure probability of state 'call_a'"
