#!/usr/bin/env python3
"""List the functions of ``src/repro`` that no experiment reaches.

    python3 tools/reach.py [OUT]

Copies ``src/`` and ``benchmarks/`` to a temporary directory and rewrites
every function of the copied ``repro`` so that its first statement adds the
function's id to a set.  (An AST rewrite: on a 2-core host, ``table2_fig3``
at smoke scale took 7.8 s plain, 9.5 s rewritten and 22.6 s under a
call-only ``sys.settrace`` hook.)  Then it runs the roots in this process,
with the sweep cache on:

* ``--list``, and every registered experiment at ``--scale smoke --seed 1``;
* every ``--fault-plan`` on ``chaos_threeway`` and ``edge_gateway_crash``;
* every ``--scenario`` on each scenario experiment, plus one scenario whose
  own faults merge with a fault plan;
* ``--trace --metrics-out`` on ``fig15 fig15_federation``,
  ``chaos_threeway`` and ``fleet_scaling``;
* one ``--jobs 2`` sweep, traced;
* the ``benchmarks/perf`` workloads at their smoke size;
* ``benchmarks/bench_*.py`` at ``REPRO_SCALE=smoke``.

``tests/`` and ``examples/`` are not roots.  Pool workers and subprocesses
import the same probe and add their own sets at exit.  The report (every
unreached function, grouped by module, with its line count) goes to OUT,
else to standard output.  ~11 min on a 2-core host beside one other job.
"""

from __future__ import annotations

import ast
import atexit
import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Imported by every rewritten module; written into the copied ``src/``.
PROBE = '''\
import atexit
import multiprocessing.util
import os

HITS = set()


def dump():
    with open(os.path.join(os.environ["REACH_HITS_DIR"], f"{os.getpid()}.txt"), "a") as fh:
        fh.write("".join(f"{i}\\n" for i in HITS))


class _Child:
    pass


_CHILD = _Child()
atexit.register(dump)
# A pool worker leaves through os._exit, past atexit: register with the
# exit hook multiprocessing runs instead.
multiprocessing.util.register_after_fork(
    _CHILD, lambda _: multiprocessing.util.Finalize(None, dump, exitpriority=0)
)
'''


class Rewrite(ast.NodeTransformer):
    """Adds ``_reach_hits.add(<id>)`` at the top of every function body and
    records ``(module, qualname, first line, last line, enclosing id)``."""

    def __init__(self, module: str, table: list) -> None:
        self.module = module
        self.table = table
        self.scope: list[tuple[str, int | None]] = []  # (name, function id)

    def _enclosing(self) -> int | None:
        return next((fid for _, fid in reversed(self.scope) if fid is not None), None)

    def visit_ClassDef(self, node: ast.ClassDef) -> ast.ClassDef:
        self.scope.append((node.name, None))
        self.generic_visit(node)
        self.scope.pop()
        return node

    def visit_FunctionDef(self, node):
        fid = len(self.table)
        qualname = ".".join([name for name, _ in self.scope] + [node.name])
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.table.append((self.module, qualname, first, node.end_lineno, self._enclosing()))
        self.scope.append((node.name, fid))
        self.generic_visit(node)
        self.scope.pop()
        at = 1 if ast.get_docstring(node, clean=False) is not None else 0
        node.body.insert(at, ast.parse(f"_reach_hits.add({fid})").body[0])
        return node

    visit_AsyncFunctionDef = visit_FunctionDef


def instrument(package: Path, table: list) -> None:
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        tree = Rewrite(module, table).visit(ast.parse(path.read_text()))
        at = 1 if ast.get_docstring(tree, clean=False) is not None else 0
        while (at < len(tree.body) and isinstance(tree.body[at], ast.ImportFrom)
               and tree.body[at].module == "__future__"):
            at += 1
        tree.body.insert(at, ast.parse("from _reach_probe import HITS as _reach_hits").body[0])
        path.write_text(ast.unparse(ast.fix_missing_locations(tree)))


def run_roots(tmp: Path) -> None:
    from repro.faults import PLANS
    from repro.harness import runner
    from repro.scenario import SCENARIOS

    out = tmp / "out"
    out.mkdir()
    smoke = ["--scale", "smoke", "--seed", "1", "--jobs", "1"]
    traced = ["--trace", str(out / "t.jsonl"), "--metrics-out", str(out / "m.json")]
    scenario_ids = [e.id for e in runner.EXPERIMENTS.values() if "scenario" in e.params]
    roots = [["--list"]] + [[i, *smoke] for i in runner.EXPERIMENT_IDS]
    roots += [[i, "--fault-plan", p, *smoke]
              for p in sorted(PLANS) for i in ("chaos_threeway", "edge_gateway_crash")]
    roots += [[i, "--scenario", s, *smoke] for s in sorted(SCENARIOS) for i in scenario_ids]
    # cascading_trip's substation outages compile to partitions, so this
    # pair merges two fault plans (and at smoke scale fails the merge's
    # overlap check: the scenario's own windows on hydra5 overlap).
    roots.append([scenario_ids[0], "--scenario", "cascading_trip", "--fault-plan", "mixed",
                  *smoke])
    roots += [[*ids, *smoke, *traced]
              for ids in (["fig15", "fig15_federation"], ["chaos_threeway"], ["fleet_scaling"])]
    roots.append(["fig15", "fig15_threeway", "--scale", "smoke", "--seed", "1",
                  "--jobs", "2", "--no-cache", *traced])
    for argv in roots:
        print("runner", *argv[:4], file=sys.stderr)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runner.main(argv)
        except Exception as exc:  # a failing root still reached its code
            print(f"  failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    sys.path.insert(0, str(tmp / "benchmarks" / "perf"))
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        print("perf", name, file=sys.stderr)
        (out / name).mkdir()
        tally = workloads.Tally()
        for point in workload("smoke", 1, workloads.Ctx(str(out / name))):
            tally.add(point.label, point.call())
        tally.summary()

    import pytest

    print("pytest benchmarks/bench_*.py", file=sys.stderr)
    os.environ["REPRO_SCALE"] = "smoke"
    with contextlib.redirect_stdout(io.StringIO()):
        pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable",
                     "--rootdir", str(tmp), str(tmp / "benchmarks")])


def report(table: list, hits: set[int]) -> str:
    unreached = [fid for fid in range(len(table)) if fid not in hits]
    lines = [f"{len(table) - len(unreached)} of {len(table)} functions reached; "
             f"unreached (lines, first line, name):"]
    module = None
    for fid in unreached:
        mod, qualname, first, last, enclosing = table[fid]
        if mod != module:
            module = mod
            own = [f for f in unreached
                   if table[f][0] == mod and table[f][4] not in unreached]
            total = sum(table[f][3] - table[f][2] + 1 for f in own)
            lines.append(f"\n{mod}  ({total} lines)")
        lines.append(f"  {last - first + 1:5d}  l.{first:<5d} {qualname}")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve() if argv else None
    with tempfile.TemporaryDirectory(prefix="reach-") as name:
        tmp = Path(name)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", "results", "out")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=ignore)
        shutil.copytree(ROOT / "benchmarks", tmp / "benchmarks", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (tmp / "src" / "_reach_probe.py").write_text(PROBE)
        (tmp / "hits").mkdir()
        table: list = []
        instrument(tmp / "src" / "repro", table)

        os.environ.update(
            REACH_HITS_DIR=str(tmp / "hits"),
            REPRO_CACHE_DIR=str(tmp / "cache"),
            PYTHONPATH=os.pathsep.join([str(tmp / "src"), str(tmp)]),
        )
        os.environ.pop("REPRO_JOBS", None)
        sys.path[:0] = [str(tmp / "src"), str(tmp)]
        os.chdir(tmp)
        try:
            run_roots(tmp)
        finally:
            os.chdir(ROOT)
            probe = sys.modules.get("_reach_probe")
            if probe is not None:  # this process reports its hits itself
                atexit.unregister(probe.dump)
        hits = set(probe.HITS)
        for path in (tmp / "hits").iterdir():
            hits.update(int(i) for i in path.read_text().split())
    text = report(table, hits)
    if out is not None:
        out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
