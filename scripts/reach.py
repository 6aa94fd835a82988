"""List the ``src/`` functions that no workload, experiment or example enters.

``python scripts/reach.py [--ledger scripts/reach_ledger.txt]`` runs, each in
its own child process under ``sys.setprofile`` and ``threading.setprofile``:
the five ``bench/workloads.py`` workloads (seed 7, 4 s, untraced),
``benchmarks/harness.py all --quick`` and every ``examples/*.py``.  It prints
each module- or class-level function under ``src/repro`` that none of them
called, as ``path.py:Class.function``.  A ledger line is a glob over those
names followed by the reason the function stays; the exit status is 1 when a
function is unreached and no ledger line matches it, or when a ledger line
matches no unreached function (it names deleted code or code now reached).
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
WORKLOADS = ("loop_memory", "loop_sqlite", "solve_topk", "register_scale", "serve_mixed")
RUNS = [
    ["bench/workloads.py", "--workload", name, "--seed", "7", "--seconds", "4", "--trace", "0"]
    for name in WORKLOADS
] + [["benchmarks/harness.py", "all", "--quick"]] + [
    [str(path.relative_to(ROOT))] for path in sorted((ROOT / "examples").glob("*.py"))
]


def child(out: str, script: str, args: list) -> None:
    """Run ``script`` as ``__main__``, recording the ``(file, first line)`` of each call."""
    prefix, reached = str(PACKAGE), set()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.argv = [script, *args]
    sys.path.insert(0, str(ROOT / Path(script).parent))
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        runpy.run_path(script, run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (None, 0):
            raise
    finally:
        sys.setprofile(None)
        Path(out).write_text(json.dumps(sorted(reached)))


def functions():
    """``(name, file, {def line, first decorator line}, length)`` of every module- and class-level function."""
    for path in sorted(PACKAGE.rglob("*.py")):
        stack = [(node, "") for node in ast.parse(path.read_text()).body]
        while stack:
            node, owner = stack.pop()
            if isinstance(node, ast.ClassDef):
                stack.extend((member, f"{owner}{node.name}.") for member in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = {node.lineno} | {d.lineno for d in node.decorator_list[:1]}
                name = f"{path.relative_to(PACKAGE)}:{owner}{node.name}"
                yield name, str(path), lines, node.end_lineno - min(lines) + 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ledger", type=Path, default=ROOT / "scripts" / "reach_ledger.txt")
    parser.add_argument("--child", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child[0], args.child[1], args.child[2:])
        return 0
    reached = set()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "reached.json"
        for run in RUNS:
            print("==", " ".join(run), file=sys.stderr, flush=True)
            subprocess.run([sys.executable, __file__, "--child", str(out), *run], cwd=ROOT, env=env,
                           check=True, stdout=subprocess.DEVNULL)
            reached |= {tuple(pair) for pair in json.loads(out.read_text())}
    ledger = []
    for line in args.ledger.read_text().splitlines():
        pattern, _, reason = line.split("#")[0].strip().partition(" ")
        if pattern and not reason.strip():
            raise SystemExit(f"{args.ledger}: {pattern} gives no reason")
        if pattern:
            ledger.append(pattern)
    unreached, length = [], 0
    for name, file, lines, size in functions():
        if not any((file, n) in reached for n in lines):
            unreached.append(name)
            length += size
    unexplained = [name for name in unreached if not any(fnmatch.fnmatchcase(name, p) for p in ledger)]
    for name in unreached:
        print(name, "" if name not in unexplained else "   <- in no ledger line")
    stale = [pattern for pattern in ledger if not any(fnmatch.fnmatchcase(name, pattern) for name in unreached)]
    for pattern in stale:
        print(f"ledger line {pattern} matches no unreached function", file=sys.stderr)
    print(f"{len(unreached)} functions ({length} lines) unreached, {len(unexplained)} in no ledger line, "
          f"{len(stale)} ledger lines stale", file=sys.stderr)
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
