"""The benchmark drives the package by name: `perfbench/spans.py` wraps its
attributes and `perfbench/run.py` sends CLI argvs. A rename or a removed
flag must fail here, not only in a benchmark run."""

import ast
import os
import types
from pathlib import Path
from unittest import mock

import pytest

from fastgas import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _exec(name: str) -> tuple[types.ModuleType, str]:
    """perfbench/<name>.py executed from its source, so no bytecode cache is
    written under perfbench/, and that source."""
    path = PERFBENCH / f"{name}.py"
    source = path.read_text(encoding="utf-8")
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(source, str(path), "exec"), module.__dict__)
    return module, source


def test_spans_install_and_restore():
    spans, _ = _exec("spans")
    t = spans.Tracer()
    spans.install(t, part_cap=lambda n, K: n)
    patched = list(t._patches)
    try:
        assert len(patched) == 21
        for module, attr, orig in patched:
            assert getattr(module, attr).__wrapped__ is orig
            assert not hasattr(orig, "__wrapped__")
    finally:
        t.restore()
    for module, attr, orig in patched:
        assert getattr(module, attr) is orig


def test_benchmark_argvs_parse(tmp_path):
    """Every argv of a benchmark pass, and its one `partition` run, settles
    to the workload's K and budget without an argparse exit."""
    with mock.patch.dict(os.environ):  # run.py sets the BLAS thread variables
        run, source = _exec("run")
    # the partition argv is a literal inside end_to_end; evaluate it there
    fn = next(n for n in ast.parse(source).body
              if isinstance(n, ast.FunctionDef) and n.name == "end_to_end")
    literal = next(n.value for n in ast.walk(fn) if isinstance(n, ast.Assign)
                   and [getattr(t, "id", None) for t in n.targets] == ["part_argv"])
    partition_argv = compile(ast.Expression(literal), run.__file__, "eval")
    inp = {"pool_path": tmp_path / "pool", "tests_path": tmp_path / "tests"}
    for workload, spec in run.WORKLOADS.items():
        stages = run.stage_argvs(spec, inp, tmp_path)
        names = {"graph_path": stages[0][2], "part_path": tmp_path / "partition.json", "spec": spec}
        argvs = [argv for _, argv, _ in stages] + [eval(partition_argv, {**vars(run), **names})]
        assert [argv[0] for argv in argvs].count("partition") == 1
        for argv in argvs:
            try:
                args = cli.settle_args(argv)
            except SystemExit as e:
                pytest.fail(f"{workload}: {argv} exits {e.code}")
            if argv[0] in ("partition", "select"):
                assert args.K == spec["K"], (workload, argv)
            if argv[0] == "select":
                assert args.budget == spec["M"], (workload, argv)
