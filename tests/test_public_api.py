import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import privsvm

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(privsvm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    # a stale __all__ entry breaks `from privsvm.<module> import *`
    module = importlib.import_module(f"privsvm.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    rng = np.random.default_rng(5)
    points = rng.uniform(-1.0, 1.0, (30, 2))
    labels = np.where(points[:, 0] + points[:, 1] >= 0, 1, -1)
    (tmp_path / "train.csv").write_text(
        "".join(f"{x!r},{y!r},{l:+d}\n" for (x, y), l in zip(points.tolist(), labels))
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert out.startswith("[") and out.count("\n") == 1
