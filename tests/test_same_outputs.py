"""``tools/same_outputs.py`` on its quick run set: a checkout against
itself reads all equal, and a checkout with one limiter constant changed
differs on limited outputs only."""

import importlib.util
import shutil
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_tool():
    path = REPO / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def limited_outputs(tool, run_set):
    """Names of the outputs of ``run_set`` that a limited step makes."""
    names = {f"{name}-on{sign}.npy" for name, *_ in tool.FIELDS[run_set]
             for sign in ("", "-neg")}
    names |= {f"{name}-on.npy" for name, *_ in tool.RANDOM_FLOWS[run_set]}
    for name, limited, args in tool.CLI[run_set]:
        if limited:
            names |= {f"{name}.stdout", *(Path(a).name for a in args if a.startswith("{out}/"))}
    return names


def test_a_checkout_against_itself_is_all_equal():
    tool = load_tool()
    rows = tool.compare(REPO, REPO, "quick")
    assert rows and all(row["equal"] for row in rows), tool.report(rows)
    assert "errors" not in {key for row in rows for key in row}
    assert limited_outputs(tool, "quick") < {row["name"] for row in rows}


def test_a_perturbed_limiter_differs_on_limited_outputs_only(tmp_path):
    tool = load_tool()
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fct = tmp_path / "src" / "fvadvect" / "fct.py"
    text = fct.read_text()
    assert text.count("TV_SAFETY_FACTOR = 1.25\n") == 1
    fct.write_text(text.replace("TV_SAFETY_FACTOR = 1.25\n", "TV_SAFETY_FACTOR = 1.5\n"))
    rows = tool.compare(REPO, tmp_path, "quick")
    differ = {row["name"] for row in rows if not row["equal"]}
    assert differ and differ <= limited_outputs(tool, "quick"), tool.report(rows)
    for row in rows:
        if not row["equal"]:
            d = row["difference"]
            assert d is not None and 0.0 < d["max_abs"] and 0.0 < d["l1"] <= d["max_abs"]
            assert d["max_rel"] > 0.0
