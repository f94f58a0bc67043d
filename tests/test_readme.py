"""The README quick start runs and prints the values its comments state,
and every public name it draws on resolves."""

import contextlib
import io
import pathlib
import re

import jackvar

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

STATED = (  # (expression the block prints, its comment, the exact value)
    ("report.var_exact", "3.0", 3.0),
    ("report.ej, report.ek", "(6, 6, 0), (0, 6, 0)", ((6, 6, 0), (0, 6, 0))),
    ("report.spectrum", "(0, 3, 0)", (0, 3, 0)),
)


def test_quick_start_prints_what_it_says():
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), ns)
    for expr, comment, value in STATED:
        assert re.search(rf"print\({re.escape(expr)}\) +# {re.escape(comment)}(?![\d.])", block), expr
        assert eval(expr, ns) == value
    assert "print(report.brackets[0])      # p=1 bracket [3, 3] around Var S" in block
    b = ns["report"].brackets[0]
    assert (b.p, b.lower_jk, b.upper_jk) == (1, 3.0, 3.0)
    est = ns["est"]  # the order-2 total moment, exactly 6
    assert abs(est.mean - 6.0) <= 4 * est.std_error


def test_every_public_name_resolves():
    assert len(set(jackvar.__all__)) == len(jackvar.__all__)
    assert [name for name in jackvar.__all__ if not hasattr(jackvar, name)] == []
