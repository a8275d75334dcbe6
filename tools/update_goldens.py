#!/usr/bin/env python
"""Regenerate the pinned golden values under ``tests/regression/goldens/``.

The regression suite (``tests/regression/test_goldens.py``) compares every
evaluation path — symbolic tree walk, compiled kernel, numeric recursion
with the dense and sparse solver backends — against the values pinned
here.  The goldens are the contract that refactors of the evaluation stack
must not move the numbers.

Reference values come from the cheapest *independent* source available:

- Figure 6 and Section 4 cases are pinned to the paper's **closed forms**
  (:mod:`repro.scenarios.search_sort_closed_forms`), so the goldens are
  analytically grounded, not engine echoes;
- scenario-module cases (booking, media pipeline, shared/replicated DB)
  have no closed form, so they pin the symbolic tree-walk result — the
  most direct rendering of the paper's recursive procedure — and guard
  every other path against drift from it.

Run from the repository root::

    python tools/update_goldens.py          # rewrite all golden files
    python tools/update_goldens.py --check  # exit 1 if anything moved

Tolerances are per *case*: symbolic paths reproduce closed forms to
~1e-12; the numeric paths go through absorbing-chain solves and get
1e-9 of relative slack.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

GOLDEN_DIR = REPO_ROOT / "tests" / "regression" / "goldens"
SCHEMA = "repro/goldens/1"

#: Figure 6 sample points: enough of the grid to pin the curve's shape
#: (small/medium/large lists) without a 120-point golden file.
FIGURE6_LISTS = (1.0, 17.0, 123.0, 400.0, 1000.0)
FIGURE6_SETTINGS = tuple(
    (phi1, gamma) for phi1 in (1e-06, 5e-06) for gamma in (0.005, 0.1)
)

#: Section 4 list sizes (mirrors the closed-form integration test).
SECTION4_LISTS = (1.0, 2.0, 5.0, 17.0, 50.0, 123.0, 400.0, 1000.0)


def build_assembly(spec: dict):
    """Build the assembly a case spec names (shared with the tests)."""
    from repro import scenarios

    kind = spec["scenario"]
    if kind in ("local", "remote"):
        params = scenarios.SearchSortParameters()
        if "phi1" in spec:
            params = params.with_figure6_point(spec["phi1"], spec["gamma"])
        builder = (
            scenarios.local_assembly if kind == "local"
            else scenarios.remote_assembly
        )
        return builder(params)
    if kind == "booking":
        return scenarios.booking_assembly(shared_gds=spec.get("shared", False))
    if kind == "pipeline":
        return scenarios.pipeline_assembly()
    if kind == "replicated-db":
        return scenarios.replicated_assembly(
            spec.get("replicas", 3), shared=spec.get("shared", False)
        )
    raise ValueError(f"unknown scenario {kind!r}")


def _closed_form(spec: dict, actuals: dict) -> float:
    from repro.scenarios import SearchSortParameters
    from repro.scenarios.search_sort_closed_forms import (
        pfail_search_local,
        pfail_search_remote,
    )

    params = SearchSortParameters()
    if "phi1" in spec:
        params = params.with_figure6_point(spec["phi1"], spec["gamma"])
    fn = pfail_search_local if spec["scenario"] == "local" else pfail_search_remote
    return float(fn(
        actuals["list"], params, elem=actuals["elem"], res=actuals["res"]
    ))


def _tree_walk(spec: dict, service: str, actuals: dict) -> float:
    from repro.engine.plan import compile_plan

    plan = compile_plan(build_assembly(spec), service, backend="symbolic")
    return float(plan.expression.evaluate(
        {name: float(value) for name, value in actuals.items()}
    ))


def golden_cases() -> dict[str, dict]:
    """All golden cases, keyed by golden file stem.

    Each case carries the assembly spec, target service, actuals, the
    reference source (``closed-form`` or ``tree-walk``) and per-path
    relative tolerances.  The regression tests iterate exactly this
    structure, so tool and tests can never disagree about what is pinned.
    """
    files: dict[str, dict] = {"figure6": {}, "section4": {}, "scenarios": {}}

    for phi1, gamma in FIGURE6_SETTINGS:
        for list_size in FIGURE6_LISTS:
            for scenario in ("local", "remote"):
                case_id = (
                    f"{scenario}/phi1={phi1:g}/gamma={gamma:g}/list={list_size:g}"
                )
                files["figure6"][case_id] = {
                    "spec": {"scenario": scenario, "phi1": phi1, "gamma": gamma},
                    "service": "search",
                    "actuals": {"list": list_size, "elem": 1.0, "res": 1.0},
                    "reference": "closed-form",
                    "rtol": {"symbolic": 1e-12, "numeric": 1e-09},
                }

    for list_size in SECTION4_LISTS:
        for scenario in ("local", "remote"):
            case_id = f"{scenario}/list={list_size:g}"
            files["section4"][case_id] = {
                "spec": {"scenario": scenario},
                "service": "search",
                "actuals": {"list": list_size, "elem": 1.0, "res": 1.0},
                "reference": "closed-form",
                "rtol": {"symbolic": 1e-12, "numeric": 1e-09},
            }

    scenario_targets = [
        ("booking", {"scenario": "booking"}, "booking", {"itinerary": 1.0}),
        ("booking-shared", {"scenario": "booking", "shared": True},
         "booking", {"itinerary": 1.0}),
        ("pipeline", {"scenario": "pipeline"}, "publish", {"mb": 4.0}),
        ("shared-db", {"scenario": "replicated-db", "shared": True},
         "report", {"size": 2.0}),
        ("replicated-db", {"scenario": "replicated-db", "shared": False},
         "report", {"size": 2.0}),
    ]
    for name, spec, service, actuals in scenario_targets:
        for scale in (1.0, 8.0):
            scaled = {k: v * scale for k, v in actuals.items()}
            point = ",".join(f"{k}={v:g}" for k, v in sorted(scaled.items()))
            files["scenarios"][f"{name}/{point}"] = {
                "spec": spec,
                "service": service,
                "actuals": scaled,
                "reference": "tree-walk",
                "rtol": {"symbolic": 1e-12, "numeric": 1e-09},
            }
    return files


def compute_reference(case: dict) -> float:
    """The pinned value for one case, from its declared reference source."""
    if case["reference"] == "closed-form":
        return _closed_form(case["spec"], case["actuals"])
    return _tree_walk(case["spec"], case["service"], case["actuals"])


def render_golden(cases: dict[str, dict]) -> str:
    """The canonical on-disk JSON for one golden file."""
    document = {
        "schema": SCHEMA,
        "cases": {
            case_id: {**case, "pfail": compute_reference(case)}
            for case_id, case in sorted(cases.items())
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify the files on disk match regenerated content (no writes)",
    )
    args = parser.parse_args(argv)

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    stale = []
    for stem, cases in golden_cases().items():
        path = GOLDEN_DIR / f"{stem}.json"
        content = render_golden(cases)
        if args.check:
            if not path.exists() or path.read_text() != content:
                stale.append(path)
                continue
            print(f"ok: {path.relative_to(REPO_ROOT)} ({len(cases)} cases)")
        else:
            path.write_text(content)
            print(f"wrote {path.relative_to(REPO_ROOT)} ({len(cases)} cases)")
    if stale:
        for path in stale:
            print(f"STALE: {path.relative_to(REPO_ROOT)} — rerun "
                  f"tools/update_goldens.py", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
