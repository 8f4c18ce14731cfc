"""Golden text: the built-in scenario reports at seeds 0 and 3 and the CLI
outputs, `#!` lines, error lines and exit codes included, byte for byte.

Each expected file under tests/golden/ holds "exit: N" and then the exact
stdout.  After a deliberate output change, rewrite them with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff.
"""
import io
import pathlib
import tempfile

import pytest

from reeselim.cli import main
from reeselim.scenarios import SCENARIO_NAMES

GOLDEN = pathlib.Path(__file__).with_name("golden")

INPUTS = {
    "ex69": "ring: Q[Y,Z]\ngen: Z^2+Y^5 w 2\n",
    "ex610": "ring: F2[Y,Z]\ngen: Z^2+Y^5 w 2\n",
    "ex610sat": "ring: F2[Y,Z]\ngen: Z^2+Y^5 w 2\ngen: Y^4 w 1\n",
    "ex514": "ring: F2[X,Y]\ngen: X^4+X^2*Y^5 w 4\n",
    "ex611": "ring: F3[X,Z]\ngen: Z^3+X^13*Z+X^16 w 3\n",
    "diag": "ring: F2[X,Y,Z]\ngen: Z^2+Y^5 w 2\ngen: X^2 w 2\n",
    "f4": "ring: F4[Y,Z]\ngen: Z^2+t*Y^3 w 2\ngen: (t+1)*Y^2*Z w 2\n",
    "mixed": "ring: Q[X,Y,Z]\ngen: 2*X^2*Y w 2\ngen: 3*Y^2*Z^3-X^3*Y w 3\n"
             "gen: X*Y*Z w 1\n",
    "f5": "ring: F5[X,Y,Z]\ngen: Z^2-X^3*Y w 2\ngen: X^2*Y^2+Z^3 w 3\n",
    "cover": "ring: F3[Y,Z]\ngen: Z^2-Y w 2\ngen: Z+Y^2 w 1\n",
}

CLI = {
    "saturate-ex69": ["saturate", "ex69"],
    "saturate-ex69-normalize": ["saturate", "ex69", "--normalize"],
    "saturate-ex610": ["saturate", "ex610"],
    "saturate-ex611-normalize": ["saturate", "ex611", "--normalize"],
    "saturate-f4": ["saturate", "f4"],
    "saturate-f5-active": ["saturate", "f5", "--active", "X,Y"],
    "sing-ex610": ["sing", "ex610"],
    "sing-ex514": ["sing", "ex514"],
    "sing-f4": ["sing", "f4"],
    "sing-f5": ["sing", "f5"],
    "sing-ex69": ["sing", "ex69"],
    "ord-ex514": ["ord", "ex514", "--at", "0,0"],
    "ord-mixed": ["ord", "mixed", "--at", "0,0,0"],
    "ord-f4": ["ord", "f4", "--at", "t,0"],
    "e0-ex514": ["e0", "ex514", "--at", "0,0"],
    "e0-ex611": ["e0", "ex611", "--at", "0,0"],
    "e0-ex69": ["e0", "ex69", "--at", "0,0"],
    "tau-diag": ["tau", "diag", "--at", "0,0,0"],
    "tau-ex610": ["tau", "ex610", "--at", "0,0"],
    "eliminate-ex610sat": ["eliminate", "ex610sat", "--monic", "0",
                           "--var", "Z"],
    "eliminate-ex611": ["eliminate", "ex611", "--monic", "0", "--var", "Z"],
    "eliminate-f5": ["eliminate", "f5", "--monic", "0", "--var", "Z"],
    "eliminate-ex69": ["eliminate", "ex69", "--monic", "0", "--var", "Z"],
    "blowup-ex69-Y": ["blowup", "ex69", "--center", "Y,Z", "--chart", "Y"],
    "blowup-ex69-Z": ["blowup", "ex69", "--center", "Y,Z", "--chart", "Z"],
    "blowup-ex69-repeated": ["blowup", "ex69", "--center", "Y,Z,Z",
                             "--chart", "Y"],
    "blowup-ex610-repeated-Z": ["blowup", "ex610", "--center", "Z,Y,Z",
                                "--chart", "Z"],
    "blowup-ex611-X": ["blowup", "ex611", "--center", "X,Z", "--chart", "X",
                       "--normalize"],
    "blowup-mixed-X": ["blowup", "mixed", "--center", "X,Y", "--chart", "X"],
    "blowup-mixed-Y": ["blowup", "mixed", "--center", "X,Y,Z",
                       "--chart", "Y"],
    "blowup-f4-Z": ["blowup", "f4", "--center", "Y,Z", "--chart", "Z",
                    "--normalize"],
    "blowup-f5-X": ["blowup", "f5", "--center", "X,Y,Z", "--chart", "X"],
    "blowup-f5-Z": ["blowup", "f5", "--center", "X,Y,Z", "--chart", "Z",
                    "--normalize"],
    "blowup-impermissible": ["blowup", "mixed", "--center", "Y,Z",
                             "--chart", "Y"],
    "blowup-chart-outside": ["blowup", "ex69", "--center", "Y", "--chart",
                             "Z"],
    "blowup-unknown-variable": ["blowup", "ex69", "--center", "Y,W",
                                "--chart", "Y"],
    "ramify-cover": ["ramify-verify", "cover", "--var", "Z"],
    "ramify-cover-F5": ["ramify-verify", "cover", "--field", "F5",
                        "--var", "Z"],
    "ramify-cover-F9": ["ramify-verify", "cover", "--field", "F9",
                        "--var", "Z"],
}

SCENARIOS = {"scenario-%s-seed%d" % (name, seed):
             ["scenario", name, "--seed", str(seed)]
             for name in SCENARIO_NAMES for seed in (0, 3)}

CASES = {**SCENARIOS, **CLI}


def render(argv, directory):
    """'exit: N' and then stdout, running argv with input names replaced by
    files written under directory."""
    args = []
    for arg in argv:
        if arg in INPUTS:
            path = pathlib.Path(directory) / (arg + ".alg")
            path.write_text(INPUTS[arg])
            arg = str(path)
        args.append(arg)
    out = io.StringIO()
    code = main(args, out=out)
    return "exit: %d\n%s" % (code, out.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    expected = (GOLDEN / (name + ".txt")).read_text(encoding="utf-8")
    assert render(CASES[name], tmp_path) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            (GOLDEN / (name + ".txt")).write_text(render(argv, tmp),
                                                  encoding="utf-8")
