import importlib.util
import os
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
SRC = SCRIPT.parent.parent / "src"


def load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_refuses_a_tree_without_the_package(tmp_path, capsys):
    assert load_script().main([str(tmp_path), str(SRC), "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"no cyclonorm package under {tmp_path.resolve()}\n"


def test_refuses_a_tree_whose_package_loads_from_elsewhere(tmp_path, capfd, monkeypatch):
    # without __init__.py the tree's cyclonorm is only a namespace portion,
    # so the regular package on PYTHONPATH wins the import
    (tmp_path / "cyclonorm").mkdir()
    (tmp_path / "cyclonorm" / "cli.py").write_text("")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    assert load_script().main([str(tmp_path), str(SRC), "1"]) == 2
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(f"not from {tmp_path.resolve()}")
