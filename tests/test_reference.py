"""Cross-commit numeric contract: the shipped configs' outputs against tests/reference/.

The rule and the way to regenerate the reference files are in
``tests/reference/regenerate.py``.
"""

import shutil

import pytest
import regenerate
from regenerate import EXAMPLES, HERE, compare, produce


@pytest.mark.parametrize("example", EXAMPLES)
def test_outputs_match_the_reference(tmp_path, example):
    scales = produce(example, tmp_path)
    problems, _ = compare(tmp_path, HERE / example, scales)
    assert problems == []


def _perturbed(tmp_path, name, line, column, edit):
    """A copy of example1's reference with one field of one file replaced by ``edit(text)``."""
    out = tmp_path / "example1"
    shutil.copytree(HERE / "example1", out)
    lines = (out / name).read_text().splitlines(keepends=True)
    fields = lines[line - 1].rstrip("\n").split(",")
    k = lines[1].rstrip("\n").split(",").index(column)
    fields[k] = edit(fields[k])
    lines[line - 1] = ",".join(fields) + "\n"
    (out / name).write_text("".join(lines))
    return out


# largest snapshot norm of example1's "full" label is about 70
SCALES = {"full": 70.0}


@pytest.mark.parametrize("name, line, column, edit, held", [
    ("results.csv", 3, "error_e", lambda t: repr(float(t) * (1 + 1e-8)), False),
    ("results.csv", 3, "error_e", lambda t: repr(float(t) * (1 + 1e-12)), True),
    ("results.csv", 3, "error_e", lambda t: repr(float(t) * (1 + 1e-6)), False),
    ("results.csv", 3, "seed", lambda t: str(int(t) + 1), False),
    ("aggregates.csv", 5, "count", lambda t: str(int(t) - 1), False),
    # n = 12: 9.1e-12, at the roundoff of its snapshots; the floor is 7e-13
    ("pod_decay.csv", 14, "approximation_error", lambda t: repr(float(t) + 5e-16), True),
    ("pod_decay.csv", 14, "approximation_error", lambda t: repr(float(t) + 1e-12), False),
])
def test_comparator_catches_a_perturbed_reference(tmp_path, name, line, column, edit, held):
    out = _perturbed(tmp_path, name, line, column, edit)
    problems, _ = compare(out, HERE / "example1", SCALES)
    assert (problems == []) is held, problems


def test_comparator_catches_reordered_and_missing_rows(tmp_path):
    out = tmp_path / "example1"
    shutil.copytree(HERE / "example1", out)
    lines = (out / "results.csv").read_text().splitlines(keepends=True)
    lines[2], lines[3] = lines[3], lines[2]
    (out / "results.csv").write_text("".join(lines))
    (out / "pod_decay.csv").unlink()
    problems, _ = compare(out, HERE / "example1", SCALES)
    assert any(p.startswith("results.csv line 3") for p in problems)
    assert any(p.startswith("pod_decay.csv") for p in problems)



@pytest.mark.parametrize("drift, held", [(9e-17, True), (1e-13, False)])
def test_roundoff_level_error_has_an_absolute_floor(tmp_path, drift, held):
    # a noiseless case's error sits at roundoff, about 1e-14, and moved by up to
    # 9e-17 when the BLAS grouping of its block changed
    ref = _perturbed(tmp_path / "ref", "results.csv", 3, "error_e", lambda t: "1e-14")
    out = _perturbed(tmp_path / "out", "results.csv", 3, "error_e",
                     lambda t: repr(1e-14 + drift))
    problems, _ = compare(out, ref, SCALES)
    assert (problems == []) is held, problems


def test_regenerate_rewrites_only_the_named_entries(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(regenerate, "HERE", tmp_path)
    assert regenerate.main(["example3"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["example3"]
    assert sorted(p.name for p in (tmp_path / "example3").iterdir()) == sorted(
        p.name for p in (HERE / "example3").iterdir())
    assert regenerate.main(["example3", "nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err
