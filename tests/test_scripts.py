import importlib.util
import json
from pathlib import Path

from stpz.imaging import load_ppm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_methods_prints_one_row_per_method(capsys):
    load_script("compare_methods").main(["--ranks", "2"])
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [["stpsvd", "2"], ["tsvd", "2"]]
    for row in rows:
        assert len(row) == 8 and all(float(v) >= 0 for v in row[2:])


def test_make_test_image_writes_the_requested_size(tmp_path, capsys):
    out = tmp_path / "img.ppm"
    load_script("make_test_image").main([
        "--output", str(out), "--height", "32", "--width", "48",
        "--m2", "4", "--n2", "4", "--rank", "2",
    ])
    assert load_ppm(out.read_bytes()).samples.shape == (32, 48, 3)
    assert str(out) in capsys.readouterr().out


TOY = '''LIMIT = 10


def clip(x):
    if x > LIMIT:
        return LIMIT
    return x


def both(a, b):
    return a and b
'''


def test_mutate_reports_killed_survived_and_known_mutants(tmp_path, capsys):
    # Five mutants of a toy module: LIMIT +- 1 and the deleted `if` change
    # clip(11); `x >= LIMIT` changes nothing the test can see and is listed
    # as known; `a or b` is untested and survives.  The toy's test is a
    # Hypothesis test, whose example database must not land in the
    # working tree (pytest's cwd, tmp_path), where one mutant's failing
    # examples would be replayed against the next.
    (tmp_path / "src" / "toy").mkdir(parents=True)
    module = tmp_path / "src" / "toy" / "clip.py"
    module.write_text(TOY)
    tests = tmp_path / "tests" / "test_clip.py"
    tests.parent.mkdir()
    tests.write_text(
        "from hypothesis import given, strategies as st\n\nfrom toy.clip import clip\n\n\n"
        "@given(st.integers(-10, 9))\ndef test_clip(x):\n"
        "    assert clip(11) == 10 and clip(x) == x\n"
    )
    known = tmp_path / "known.json"
    equivalent = "clip: compare x > LIMIT -> x >= LIMIT"
    known.write_text(json.dumps([{"module": "toy/clip.py", "id": equivalent, "reason": "toy"}]))
    before = sorted((p.relative_to(tmp_path), p.read_bytes()) for p in tmp_path.rglob("*.py"))
    report = tmp_path / "report.json"
    code = load_script("mutate").main([
        "toy/clip.py", str(tests), "--src", str(tmp_path / "src"),
        "--known", str(known), "--report", str(report),
    ])
    assert code == 0
    got = json.loads(report.read_text())
    assert {m["id"]: m["status"] for m in got["mutants"]} == {
        "<module>: const LIMIT = 10 -> LIMIT = 11": "killed",
        "<module>: const LIMIT = 10 -> LIMIT = 9": "killed",
        equivalent: "equivalent",
        "clip: delete if x > LIMIT: -> pass": "killed",
        "both: boolop a and b -> a or b": "survived",
    }
    assert (got["killed"], got["survived"], got["equivalent"]) == (3, 1, 1)
    after = sorted((p.relative_to(tmp_path), p.read_bytes()) for p in tmp_path.rglob("*.py"))
    assert after == before
    assert not (tmp_path / ".hypothesis").exists()
    assert "3 of 5 killed" in capsys.readouterr().out


def test_known_mutants_exist_in_the_source():
    # Every accepted equivalent mutant is still generated from its module.
    mutate = load_script("mutate")
    for entry in json.loads((SCRIPTS / "mutation-known.json").read_text()):
        source = (SCRIPTS.parent / "src" / entry["module"]).read_text()
        assert entry["id"] in {m["id"] for m in mutate.mutants(source)}, entry["id"]
        assert entry["reason"]
