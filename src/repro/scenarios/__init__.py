"""Ready-made model instances shared by examples, tests and benchmarks.

- :mod:`repro.scenarios.search_sort` — the paper's section 4 example
  (Figures 1–6), plus hand-transcribed closed forms in
  :mod:`repro.scenarios.search_sort_closed_forms`;
- :mod:`repro.scenarios.travel_booking` — OR fault tolerance and the
  shared-GDS sharing trap;
- :mod:`repro.scenarios.shared_db` — the replicated-query sharing ablation;
- :mod:`repro.scenarios.media_pipeline` — deep composition with AND and
  2-of-3 states;
- :mod:`repro.scenarios.recursive` — the mutually recursive pair whose
  ``Pfail`` is a least fixed point.
"""

from repro.scenarios.media_pipeline import PipelineParameters, pipeline_assembly
from repro.scenarios.recursive import (
    RecursiveParameters,
    closed_form_pfail,
    recursive_assembly,
)
from repro.scenarios.search_sort import (
    PAPER_GAMMA_VALUES,
    PAPER_PHI1_VALUES,
    PAPER_PHI2,
    SearchSortParameters,
    build_search_component,
    build_sort_component,
    local_assembly,
    remote_assembly,
)
from repro.scenarios.shared_db import DatabaseParameters, replicated_assembly
from repro.scenarios.travel_booking import BookingParameters, booking_assembly

__all__ = [
    "BookingParameters",
    "DatabaseParameters",
    "PAPER_GAMMA_VALUES",
    "PAPER_PHI1_VALUES",
    "PAPER_PHI2",
    "PipelineParameters",
    "RecursiveParameters",
    "SearchSortParameters",
    "booking_assembly",
    "build_search_component",
    "build_sort_component",
    "closed_form_pfail",
    "local_assembly",
    "pipeline_assembly",
    "recursive_assembly",
    "remote_assembly",
    "replicated_assembly",
]
