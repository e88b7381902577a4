"""Line map of Tier-1: the statement lines of src/ramspect that no test runs.

src/, tests/, bench/ and pyproject.toml are copied to a temporary
directory, as the mutation harness copies them (mutants.copy_checkout),
and a sitecustomize.py is written into the copy's src/.  Python
imports it at start-up in every interpreter that has that src/ on its path:
the pytest process, which runs Tier-1 in the copy, and each CLI child that
a test starts, since every one of them puts the checkout's src/ on
PYTHONPATH.  It traces the frames of src/ramspect alone, on every thread,
and at exit writes the lines they ran into the copy.  A statement (from an
ast walk, docstrings left out) ran when one of its lines ran: any line of a
simple statement, a decorator or header line of a compound one.  Every
statement line that neither the pytest process nor any child ran, and that
ALLOW does not name, is printed, and so is an ALLOW entry whose line ran;
the exit status is 1 when either is found, 2 when Tier-1 itself fails.
Nothing is written into the checkout.

    python tests/coverage_map.py

Statements that share one physical line cannot be told apart by line
events, so a one-line `if x: return y` counts its body as run with its test.
tests/test_source.py checks that each ALLOW text occurs exactly once in its
file, on a raise line, with a reason.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from mutants import copy_checkout

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/ramspect"
TIMEOUT_S = 1200


class Allowed(NamedTuple):
    path: str    # relative to the repository root
    text: str    # occurs exactly once in that file and starts a raise statement
    reason: str


EXPOSE = "src/ramspect/double_exposure.py"

# guards that no input reaches while the code they guard is right; each is
# kept so that a wrong change ends in an error rather than a wrong result
ALLOW = (
    Allowed("src/ramspect/cli.py",
            'raise TypeError(f"not JSON-serializable: {type(obj).__name__}")',
            "json's default hook must raise TypeError for an object it cannot encode; "
            "every payload holds only the kinds the hook converts"),
    Allowed(EXPOSE, 'raise ContractViolation("emitted sizes collide despite separation")',
            "a cell's witness sizes are distinct and lie within Q*sqrt(n) of its "
            "anchor plus d/2, and selected anchors are more than 2Q*sqrt(n) apart"),
    Allowed(EXPOSE, 'raise ContractViolation("kept windows overlap")',
            "a window is kept only when its least size is above the last kept maximum"),
    Allowed(EXPOSE, 'raise ContractViolation("cross-window size collision")',
            "kept windows do not overlap and each lists distinct sizes"),
    Allowed("src/ramspect/ramsey_construct.py",
            'raise ContractViolation(\n            f"greedy independent set size',
            "greedy removal of a least-degree vertex meets Turan's bound "
            "k/(1 + average degree) on every graph"),
    Allowed("src/ramspect/spectrum_oracle.py", 'raise RamspectError(f"block walk covered',
            "the Gray walk visits the 2^h - 1 nonempty high parts, each with all "
            "2^b low parts, so it covers 2^n subsets"),
)


def allowed_line(entry: Allowed) -> int:
    """The line on which entry's text starts."""
    source = (ROOT / entry.path).read_text()
    return source[:source.index(entry.text)].count("\n") + 1


_SITE = '''\
import atexit, os, sys, threading

_seen = set()


def _line(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith({package!r}) else None


@atexit.register
def _write():
    sys.settrace(None)
    with open(os.path.join({out!r}, f"{{os.getpid()}}.lines"), "w") as f:
        f.writelines(f"{{name}}\\t{{line}}\\n" for name, line in _seen)


threading.settrace(_call)
sys.settrace(_call)
'''


def statement_lines(source: str) -> dict:
    """First line of each statement -> the lines any of whose line events
    shows that it ran.  A docstring is no statement."""
    tree = ast.parse(source)
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docs:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        # a compound statement's header runs up to its first inner statement
        last = max(node.lineno, body[0].lineno - 1) if isinstance(body, list) \
            else node.end_lineno
        out.setdefault(node.lineno, set()).update(range(first, last + 1))
    return out


def _ran(out_dir: Path, work: Path) -> dict:
    """pid -> {relative path: lines ran} from the files the processes wrote."""
    prefix = str(work) + os.sep
    ran = {}
    for f in out_dir.glob("*.lines"):
        per = ran.setdefault(int(f.stem), {})
        for row in f.read_text().splitlines():
            name, _, line = row.rpartition("\t")
            per.setdefault(name.removeprefix(prefix), set()).add(int(line))
    return ran


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="ramspect-lines-") as tmp:
        work = Path(tmp)
        env = copy_checkout(work)
        out_dir = work / "lines"
        out_dir.mkdir()
        (work / "src" / "sitecustomize.py").write_text(
            _SITE.format(package=str(work / PACKAGE) + os.sep, out=str(out_dir)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            log, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        summary = log.rstrip().splitlines()[-1] if log.strip() else ""
        print(f"Tier-1 under the tracer: {summary}")
        if proc.returncode != 0:
            print(log, file=sys.stderr)
            return 2
        ran = _ran(out_dir, work)
        in_process = ran.pop(proc.pid, {})
        statements = {str(p.relative_to(work)): statement_lines(p.read_text())
                      for p in sorted((work / PACKAGE).glob("*.py"))}
    anywhere = {}
    for per in (in_process, *ran.values()):
        for path, lines in per.items():
            anywhere.setdefault(path, set()).update(lines)
    allowed = {(a.path, allowed_line(a)): a for a in ALLOW}
    missed = {"in-process": 0, "anywhere": 0}
    left = []
    for path, stmts in statements.items():
        text = (ROOT / path).read_text().splitlines()
        for line, span in sorted(stmts.items()):
            missed["in-process"] += not (span & in_process.get(path, set()))
            if span & anywhere.get(path, set()):
                continue
            missed["anywhere"] += 1
            if (path, line) not in allowed:
                left.append(f"{path}:{line}: {text[line - 1].strip()}")
    stale = [f"{path}:{line}: allowed but ran: {a.text.splitlines()[0]}"
             for (path, line), a in allowed.items()
             if statements[path].get(line, set()) & anywhere.get(path, set())]
    total = sum(len(s) for s in statements.values())
    print(f"{total} statement lines; {missed['in-process']} not run in the pytest process, "
          f"{missed['anywhere']} not run in it or in any of {len(ran)} children; "
          f"{len(ALLOW)} allowed; {len(left)} left; {time.monotonic() - start:.0f}s")
    for row in left + stale:
        print(row)
    return 1 if left or stale else 0


if __name__ == "__main__":
    sys.exit(main())
