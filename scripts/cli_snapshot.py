#!/usr/bin/env python3
"""Snapshot the CLI's output over a fixed list of commands.

    python scripts/cli_snapshot.py SRC OUT

imports `lerchphi.cli` from the source directory SRC, runs each command of
`commands()` in-process with OUT as the working directory, and writes its
stdout, stderr and exit code to OUT/<name>.out, OUT/<name>.err and
OUT/<name>.code.
Files a command writes itself (the README sweep's grid.csv) land in OUT too.
An exception that escapes `cli.main` is recorded as its last traceback line
on stderr and exit code 1, as the interpreter would exit.  To compare two
versions of the package, snapshot each into its own directory and run
`diff -r` on the two.
"""

import contextlib
import io
import os
import pathlib
import re
import shlex
import sys
import traceback

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The `lerchphi ...` lines of the README's CLI block, continuations
    joined, without the program name."""
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(),
                      re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("lerchphi ")]


SWEEP_630 = ["sweep", "--abs-z", "0.5:3:6", "--arg-z=-3:3:7",
             "--a-re=-1.5:3:5", "--a-im=-0.5:0.5:3", "--n", "3", "--out", "-"]
COMPARE_POINTS = {
    "readme": ["--z", "0,0.5", "--n", "1", "--a", "0.3,0"],
    "integer": ["--z", "0,2", "--n", "2", "--a", "2,0"],
    "disc": ["--z=-0.5,0.3", "--n", "3", "--a", "0.4,0.2"],
    "near-integer": ["--z", "0,2", "--n", "2", "--a", "2.000000005,0"],
}
# a = 2.000000005 outside the circle, and |z| - 1 = 1.1e-7 and -1.6e-10
METHOD_POINTS = {
    "near-integer": COMPARE_POINTS["near-integer"],
    "band-out": ["--z", "0.7648422714171291,0.6442177581016366", "--n", "2",
                 "--a", "0.3,0.1"],
    "band-in": ["--z=-0.4161468364805589,0.9092974266801941", "--n", "3",
                "--a", "0.4,0"],
}
# each is admissible for its route but for one non-finite or bad input
INVALID = {
    "nan-z-series": ["--z", "nan,0", "--n", "2", "--a", "0.5,0",
                     "--method", "series"],
    "inf-a-series": ["--z", "0.5,0", "--n", "2", "--a", "inf,0",
                     "--method", "series"],
    "inf-a-inverse": ["--z", "0,2", "--n", "2", "--a", "inf,0",
                      "--method", "inverse"],
    "zero-tol-series": ["--z", "0.5,0", "--n", "2", "--a", "0.5,0",
                        "--tol", "0", "--method", "series"],
    "nan-tol-integral": ["--z", "0.5,0", "--n", "2", "--a", "0.5,0",
                         "--tol", "nan", "--method", "integral"],
    "negative-tol-integer-a": ["--z", "0,2", "--n", "2", "--a", "2,0",
                               "--tol=-1", "--method", "integer-a"],
}
# the trigonometric term at large order, and the negative real axis where
# the integral route refuses n >= 172
LARGE_ORDER = {
    "n171": ["--z", "0,3", "--n", "171", "--a", "0.5,0"],
    "negative-real-n200": ["--z=-3,0", "--n", "200", "--a", "0.5,0"],
    "n200-integer-a": ["--z", "0,3", "--n", "200", "--a", "2,0",
                       "--method", "integer-a"],
    "n64-inverse": ["--z", "0,3", "--n", "64", "--a", "0.3,0.2",
                    "--method", "inverse"],
    # |Phi| is about 1e385, beyond the double range
    "n50-beyond-double-range": ["--z", "0,3", "--n", "50", "--a", "2e-8,0"],
}
SUITES = ("symmetry", "recurrences", "reflections", "theorem1")


def commands():
    """(name, argv) for every command of the snapshot, names unique."""
    cmds = [(f"readme-{i}", argv) for i, argv in enumerate(readme_commands())]
    cmds += [("sweep-630-csv", SWEEP_630),
             ("sweep-630-jsonl", SWEEP_630 + ["--format", "jsonl"]),
             ("check-all-grid-25", ["check", "--suite", "all", "--grid", "25",
                                    "--seed", "0"])]
    cmds += [(f"check-{suite}-tol-1e-12",
              ["check", "--suite", suite, "--grid", "10", "--seed", "0",
               "--tol", "1e-12"]) for suite in SUITES]
    cmds += [("check-theorem1-tol-1e-13",
              ["check", "--suite", "theorem1", "--grid", "10", "--seed", "0",
               "--tol", "1e-13"]),
             # a theorem-1 point where a fold formed with cancellation stalls
             ("eval-theorem1-pv-tol-1e-13",
              ["eval", "--z=-0.7698,-0.1896", "--n", "2",
               "--a", "0.6253,0.2742", "--method", "pv", "--tol", "1e-13"])]
    cmds += [(f"compare-{point}-{fmt}", ["compare", *flags, "--format", fmt])
             for point, flags in COMPARE_POINTS.items()
             for fmt in ("plain", "json", "csv")]
    cmds += [(f"eval-{point}-{method}", ["eval", *flags, "--method", method])
             for point, flags in METHOD_POINTS.items()
             for method in ("auto", "series", "integral", "pv", "inverse",
                            "integer-a")]
    cmds += [(f"eval-{point}-json", ["eval", *flags, "--format", "json"])
             for point, flags in METHOD_POINTS.items()]
    cmds += [
        ("eval-z1-n1", ["eval", "--z", "1,0", "--n", "1", "--a", "0.5,0"]),
        ("compare-z1-n1", ["compare", "--z", "1,0", "--n", "1",
                           "--a", "0.5,0"]),
        ("eval-z3", ["eval", "--z", "3,0", "--n", "1", "--a", "0.5,0"]),
        ("compare-z3", ["compare", "--z", "3,0", "--n", "1", "--a=-0.5,0"]),
        # the rows of phi's route table that no point above reaches
        ("eval-z0", ["eval", "--z", "0,0", "--n", "2", "--a", "0.5,0"]),
        ("eval-near-one", ["eval", "--z", "1.0000005,0", "--n", "2",
                           "--a", "0.5,0"]),
        ("eval-one-by-5e-13", ["eval", "--z", "1.0000000000005,0",
                               "--n", "2", "--a", "0.5,0"]),
        ("eval-negative-real-re-a-positive",
         ["eval", "--z=-3,0", "--n", "2", "--a", "0.3,0"]),
        ("eval-negative-real-re-a-negative",
         ["eval", "--z=-3,0", "--n", "2", "--a=-0.4,0"]),
        # the band row without --method, on both sides of the circle and
        # at Re a <= 0; next to z = 1 the integral refuses, and the inverse
        # route's stall shows as "(degraded)"
        ("eval-band-in", ["eval", *METHOD_POINTS["band-in"]]),
        ("eval-band-out", ["eval", *METHOD_POINTS["band-out"]]),
        ("eval-band-re-a-negative",
         ["eval", "--z=-0.4161468364805589,0.9092974266801941", "--n", "3",
          "--a=-1.6,0.3"]),
        ("eval-band-next-to-one",
         ["eval", "--z", "1,1e-8", "--n", "1", "--a", "1.3,0.2"]),
        # next to an integer shift the inverse expansion's trig side and
        # sum cancel: its whole estimate fails tol, and the integral
        # certifies; next to the cut the integral refuses, and the inverse
        # route's stall shows as "(degraded)"
        ("eval-near-integer-cancellation",
         ["eval", "--z=-6.131574141793447,0.8740346975162875", "--n", "8",
          "--a", "0.9833739082725641,0.006348207666513117"]),
        ("eval-near-integer-next-to-cut",
         ["eval", "--z", "1.5179296702451195,0.008648785460432244",
          "--n", "6", "--a=1.925577893870142,-0.09858362274525723"]),
        # pv where the terms of its cot sum are 106 times their sum, and
        # inverse next to a large integer, where it refuses a head of 2e6
        # terms
        ("eval-pv-cancellation",
         ["eval", "--z=-0.07710380204887377,0.09044325579190272", "--n", "14",
          "--a=-2.877013614439976,0.7607945100200548", "--method", "pv"]),
        ("eval-inverse-long-head",
         ["eval", "--z", "0.7648437169688631,0.6442189756730655", "--n", "2",
          "--a", "2e6,0", "--method", "inverse"]),
        # at |z| = 1 - 2e-6 the series' bound meets tol only past the term
        # ceiling, and the integral certifies; at z = 1 the Hurwitz sum's
        # ceil|a| + 20 terms pass the ceiling
        ("eval-near-circle-in",
         ["eval", "--z", "0.764840657600114,0.6442163988023166", "--n", "2",
          "--a", "0.3,0.1"]),
        ("eval-z1-past-the-term-ceiling",
         ["eval", "--z", "1,0", "--n", "2", "--a", "4e5,0"]),
        ("sweep-empty", ["sweep", "--abs-z", "0.2:0.8:0", "--arg-z", "0:1:2",
                         "--a-re", "0.5:0.5:1", "--a-im", "0:0:1", "--n", "2",
                         "--out", "-"]),
        ("sweep-unwritable", ["sweep", "--abs-z", "0.5:3:6",
                              "--arg-z", "0:1:2", "--a-re", "0.5:0.5:1",
                              "--a-im", "0:0:1", "--n", "2",
                              "--out", "no-such-dir/x.csv"]),
        ("check-bad-suite", ["check", "--suite", "nonsense"]),
        ("check-help", ["check", "--help"]),
    ]
    cmds += [(f"eval-{case}", ["eval", *flags])
             for case, flags in INVALID.items()]
    cmds += [(f"eval-{case}", ["eval", *flags])
             for case, flags in LARGE_ORDER.items()]
    return cmds


def run_one(main, argv):
    """(stdout, stderr, exit code) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping error: record it, go on
            err.write("".join(traceback.format_exception_only(exc)))
            code = 1
    return out.getvalue(), err.getvalue(), code


def run(src, out) -> int:
    src, out = pathlib.Path(src).resolve(), pathlib.Path(out).resolve()
    sys.path.insert(0, str(src))
    from lerchphi import cli

    if src not in pathlib.Path(cli.__file__).resolve().parents:
        raise SystemExit(f"lerchphi was already imported from {cli.__file__}")
    out.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, argv in commands():
            stdout, stderr, code = run_one(cli.main, argv)
            (out / f"{name}.out").write_text(stdout)
            (out / f"{name}.err").write_text(stderr)
            (out / f"{name}.code").write_text(f"{code}\n")
    finally:
        os.chdir(cwd)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1], sys.argv[2]))
