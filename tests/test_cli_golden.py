"""The stdout and exit code of a fixed list of `sktsym` commands, compared
byte for byte against a golden file. The list runs every subcommand at
least once, every `--format csv` report, one `--output` run (the file's
contents are recorded) and the usage-error exits.

Regenerate (only when a change of the reports is intended) with
    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_reports.txt
"""

import contextlib
import io
import pathlib
import sys
import tempfile

from sktsym import cli

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_reports.txt"

SIMULATE_CONFIG = (
    "[simulate]\ngrid.x0 = 0\ngrid.x1 = 3.141592653589793\n"
    "grid.n = 16\nbc = zero-neumann\ncfl = 0.2\nt_end = 0.01\n"
    "init = seed-ode\noutput_stride = 20\n"
    "bind.alpha1 = 1.0\nbind.alpha2 = 2.0\n")
TRIG = ("--bind", "alpha1=-1", "--bind", "alpha2=-3", "--bind", "p=0.05",
        "--bind", "lambda1=1", "--bind", "lambda2=0")

# {config} and {out} stand for files in a scratch directory
COMMANDS = (
    ("validate", "--table", "1", "--case", "1"),
    ("validate", "--table", "2", "--case", "3", "--format", "csv"),
    ("validate",),
    ("validate", "--table", "9"),
    ("determining", "--generic"),
    ("determining", "--table", "2", "--case", "3"),
    ("determining",),
    ("check", "--table", "2", "--case", "3"),
    ("check", "--table", "2", "--case", "3", "--operator", "Z1"),
    ("check", "--table", "2", "--case", "3", "--operator", "Z3"),
    ("check", "--table", "2"),
    ("commutators", "--table", "1", "--case", "1"),
    ("verify-solution", "--family", "3-5"),
    ("verify-solution", "--family", "3-5", "--bind", "alpha1=0.8",
     "--bind", "alpha2=1.5", "--format", "csv"),
    ("verify-solution", "--family", "3-5", "--output", "{out}"),
    ("verify-solution", "--family", "3-6", "--bind", "alpha1"),
    ("verify-solution", "--family", "3-6", "--bind", "alpha1=x+"),
    ("verify-solution", "--family", "no-such-family"),
    ("orbit", "--family", "3-5", "--generator", "X1"),
    ("reduce", "--system", "3-2"),
    ("flux-check", "--family", "3-7", "--bind", "lambda2=0"),
    ("flux-check", "--family", "3-7", "--bind", "lambda2=0", "--x1", "pi/2"),
    ("simulate", "--config", "{config}"),
    ("simulate", "--config", "{config}.missing"),
    ("convergence", "--family", "3-7", *TRIG, "--sizes", "16,32",
     "--t-end", "0.05"),
    ("convergence", "--family", "3-7", *TRIG, "--sizes", "16,32",
     "--t-end", "0.05", "--format", "csv"),
    ("convergence", "--family", "3-7", *TRIG, "--sizes", "16"),
    ("catalog", "list"),
    ("catalog", "list", "--format", "csv"),
    ("catalog", "show", "--table", "3", "--case", "7"),
    ("catalog", "show"),
    ("bogus",),
)


def render():
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"config": f"{tmp}/run.cfg", "out": f"{tmp}/report.txt"}
        pathlib.Path(paths["config"]).write_text(SIMULATE_CONFIG)
        for argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main([a.format(**paths) for a in argv])
            lines.append(f"== sktsym {' '.join(argv)} (exit {code})")
            lines.append(out.getvalue().rstrip("\n"))
            if "{out}" in argv:
                lines.append(f"-- {{out}}:")
                lines.append(pathlib.Path(paths["out"]).read_text()
                             .rstrip("\n"))
    return "\n".join(lines) + "\n"


def test_cli_reports_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(render())
