"""Run one ``python -m repro`` command with layer timers installed.

Usage: ``python perfbench/traced_cli.py OUT.json <repro CLI arguments>``.
Writes ``{metric: [seconds per outermost call, ...]}`` to ``OUT.json`` when
the command ends, then exits with the command's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LayerTimer  # noqa: E402

#: (module, attribute, metric) of the public functions a CLI call crosses.
CLI_LAYERS = (
    ("repro.dsl", "load_assembly", "dsl.load"),
    ("repro.engine.plan", "compile_plan", "engine.compile_plan"),
    ("repro.symbolic.compiler", "compile_expression",
     "symbolic.compile_expression"),
)


def main(out: str, argv: list[str]) -> int:
    import repro.cli

    timer = LayerTimer()
    for module, attr, metric in CLI_LAYERS:
        timer.wrap_function(module, attr, metric)
    timer.wrap_method("repro.core.evaluator", "ReliabilityEvaluator", "pfail",
                      "core.pfail")
    try:
        return repro.cli.main(argv)
    finally:
        timer.restore()
        Path(out).write_text(json.dumps(timer.durations))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
