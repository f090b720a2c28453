import importlib.util
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
