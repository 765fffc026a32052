"""The traced benchmark (`perfbench/spans.py`) wraps package attributes by
name; a rename must fail here, not only in a traced benchmark run."""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_spans_install_and_restore():
    # executed from its source, so no bytecode cache is written under perfbench/
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans.__dict__)
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
