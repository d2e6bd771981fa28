"""The finder's verdict on every function of the two modeled systems.

``fixtures/finder_golden.json`` holds, per module and function qualname
of ``repro.cassandra`` and ``repro.hdfs``: the effective complexity terms,
the depth, the sorted transitive side-effect kinds, the PIL-safety verdict
and whether the function is offending.  It is compared byte for byte: a
change to the analysis that moves any verdict shows here, and must
re-record the file on purpose (write :func:`record` of the program the
test loads).
"""

import json
from pathlib import Path

from repro.analysis import Program

GOLDEN = Path(__file__).parent / "fixtures" / "finder_golden.json"


def record(program: Program) -> str:
    modules = {name: {} for name in program.modules}
    for module, analysis in program.functions():
        modules[module][analysis.qualname] = {
            "qualname": analysis.qualname,
            "terms": [term.as_dict() for term in analysis.effective_terms],
            "depth": analysis.effective_depth,
            "effects": sorted(analysis.transitive_effect_kinds),
            "pil_safe": analysis.pil_safe(program.registry),
            "offending": analysis.offending,
        }
    return json.dumps(modules, indent=1, sort_keys=True) + "\n"


def test_every_verdict_matches_the_golden():
    program = Program.load(["repro.cassandra", "repro.hdfs"])
    assert sum(len(unit.report.functions)
               for unit in program.modules.values()) == 367
    assert record(program) == GOLDEN.read_text()
