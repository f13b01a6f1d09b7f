"""The file layer: library writers leave an existing file untouched when they
fail, decode errors name the file, a leading byte-order mark is dropped, and
no module but ``fileio`` opens files or renames temp files into place.  Beside it, a structure test keeps the one
error path: the library raises no bare ValueError or TypeError."""

import ast
import io
import re
from pathlib import Path

import numpy as np
import pytest

import rssinav
from rssinav import cli, rfsim, scan_ingest
from rssinav.errors import ToolkitError
from rssinav.features import FeatureSelection
from rssinav.fileio import read_text, write_rows
from rssinav.model import save_model
from rssinav.rfsim import load_world, reference_world, render_scan_text, save_world, simulate_scan
from rssinav.scan_ingest import FingerprintDataset, SchemaMismatch, parse_scan_text, read_csv, read_scan_directory, write_csv

from test_model import small_bundle

SRC = Path(rssinav.__file__).parent


def raising_after(calls, original):
    """``original`` for the first ``calls`` calls, then a RuntimeError."""
    count = [0]

    def wrapper(*args):
        count[0] += 1
        if count[0] > calls:
            raise RuntimeError("formatting failed partway")
        return original(*args)

    return wrapper


def assert_untouched(path, before):
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temp file left beside it


class TestFailedWritesLeaveTheOldFile:
    def test_save_model(self, tmp_path):
        bundle = small_bundle()
        path = tmp_path / "model.bin"
        save_model(bundle.model, bundle.selection, bundle.params, path)
        before = path.read_bytes()
        selection = bundle.selection
        two_kept = FeatureSelection(selection.kept_columns[:2], selection.pcc_x, selection.pcc_y, selection.threshold)
        assert len(bundle.params.feature_min) == 3
        with pytest.raises(ValueError, match="not aligned to kept columns"):
            save_model(bundle.model, two_kept, bundle.params, path)
        assert_untouched(path, before)

    def test_save_world(self, tmp_path, monkeypatch):
        path = tmp_path / "world.txt"
        save_world(reference_world(), path)
        before = path.read_bytes()
        monkeypatch.setattr(rfsim, "format_number", raising_after(12, rfsim.format_number))
        with pytest.raises(RuntimeError, match="partway"):
            save_world(reference_world(rng_seed=9), path)
        assert_untouched(path, before)

    def test_write_csv(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        dataset = FingerprintDataset(("AA:00:00:00:00:01",), np.array([[-50.0], [-60.0], [-70.0]]), [1, 2, 3], [4, 5, 6])
        write_csv(dataset, path)
        before = path.read_bytes()
        monkeypatch.setattr(scan_ingest, "format_number", raising_after(4, scan_ingest.format_number))
        with pytest.raises(RuntimeError, match="partway"):
            write_csv(dataset, path)
        assert_untouched(path, before)


def test_write_rows_takes_an_open_file_or_a_path(tmp_path):
    rows = [("a", 0.1, None, 3), ("b", np.float64(-0.0), "", 4)]
    buf = io.StringIO()
    write_rows(buf, ["name", "value", "note", "n"], rows)
    write_rows(tmp_path / "rows.csv", ["name", "value", "note", "n"], rows)
    assert buf.getvalue() == (tmp_path / "rows.csv").read_text() == "name,value,note,n\na,0.1,,3\nb,-0.0,,4\n"


@pytest.mark.parametrize(
    "value, cell",
    [
        (np.float64(1.5), "1.5"),
        (np.float64(-0.0), "-0.0"),
        (np.float64(5e-324), "5e-324"),
        (np.float64("nan"), "nan"),
        (np.float64("inf"), "inf"),
        (-np.inf, "-inf"),
        (0.1 + 0.2, "0.30000000000000004"),
        (None, ""),
        (np.int64(3), "3"),
        ("a,b", '"a,b"'),
    ],
    ids=["float64", "negative-zero", "subnormal", "nan", "inf", "minus-inf", "repr-digits", "none", "int64", "quoted"],
)
def test_write_rows_writes_a_float_as_its_repr_and_none_empty(value, cell):
    buf = io.StringIO()
    write_rows(buf, ["v", "n"], [(value, 1)])  # a lone empty cell would be quoted, to tell the row from a blank line
    assert buf.getvalue() == f"v,n\n{cell},1\n"


class TestDecodeErrorsNameTheFile:
    @pytest.mark.parametrize("as_file", [False, True])
    def test_world(self, tmp_path, as_file):
        path = tmp_path / "world.txt"
        path.write_bytes(b"2 2 1\n..\n..\nrobot 1 1 0 0.4 1 1\nap 02:00:00:00:00:01 caf\xe9 1 1 -40 3 2\n")
        with pytest.raises(rfsim.WorldFormatError, match=re.escape(f"world file {path} is not UTF-8 text")):
            if as_file:
                with open(path, encoding="utf-8") as fh:
                    load_world(fh)
            else:
                load_world(path)

    @pytest.mark.parametrize("as_file", [False, True])
    def test_dataset(self, tmp_path, as_file):
        path = tmp_path / "data.csv"
        path.write_bytes(b"AA:00:00:00:00:01,x,y\n-50,3,\xe97\n")
        with pytest.raises(SchemaMismatch, match=re.escape(f"dataset {path} is not UTF-8 text")):
            if as_file:
                with open(path, encoding="utf-8", newline="") as fh:
                    read_csv(fh)
            else:
                read_csv(path)

    def test_line_endings_are_kept(self, tmp_path):
        path = tmp_path / "text"
        path.write_bytes(b"a\r\nb\rc\n")
        assert read_text(path, ToolkitError, "text") == "a\r\nb\rc\n"


BOM = "\ufeff".encode()


class TestALeadingByteOrderMarkIsDropped:
    """Editors on some systems start UTF-8 text with U+FEFF; read as text, it
    would hide the first scan cell, rename the first dataset column or break
    the world header."""

    def test_capture_keeps_its_first_cell(self, tmp_path):
        text = render_scan_text(simulate_scan(reference_world(), (0.5, 0.5), draw_index=0))
        (tmp_path / "0.5_0.5_0.txt").write_bytes(BOM + text.encode())
        snapshots, errors = read_scan_directory(tmp_path)
        assert errors == [] and len(snapshots[0].entries) == 6
        assert list(snapshots[0].entries) == parse_scan_text(text)

    @pytest.mark.parametrize("as_file", [False, True])
    def test_dataset_csv(self, tmp_path, ref_dataset, as_file):
        path = tmp_path / "data.csv"
        write_csv(ref_dataset, path)
        path.write_bytes(BOM + path.read_bytes())
        if as_file:
            with open(path, encoding="utf-8", newline="") as fh:
                assert read_csv(fh) == ref_dataset
        else:
            assert read_csv(path) == ref_dataset

    @pytest.mark.parametrize("as_file", [False, True])
    def test_world_file(self, tmp_path, as_file):
        path = tmp_path / "world.txt"
        save_world(reference_world(), path)
        path.write_bytes(BOM + path.read_bytes())
        if as_file:
            with open(path, encoding="utf-8") as fh:
                assert load_world(fh) == reference_world()
        else:
            assert load_world(path) == reference_world()

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(BOM + b"epochs = 3\n")
        assert cli._parse_config_file(str(path)) == {"epochs": 3}

    def test_only_one_is_dropped(self, tmp_path):
        path = tmp_path / "text"
        path.write_bytes(BOM + BOM + b"a")
        assert read_text(path, ToolkitError, "text") == "\ufeffa"


_PATH_IO = ("read_text", "read_bytes", "write_text", "write_bytes")


def _file_layer_bypasses(tree: ast.Module) -> list[str]:
    """Each call of ``open``, ``os.replace`` or a ``Path`` read/write method (any
    ``x.read_text(`` and the like but ``fileio``'s own) and each import of
    ``tempfile`` in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
            if isinstance(func, ast.Name) and func.id == "open":
                found.append(f"line {node.lineno}: open(")
            if isinstance(func, ast.Attribute) and func.attr == "replace" and owner == "os":
                found.append(f"line {node.lineno}: os.replace(")
            if isinstance(func, ast.Attribute) and func.attr in _PATH_IO and owner != "fileio":
                found.append(f"line {node.lineno}: .{func.attr}(")
        elif isinstance(node, ast.Import) and any(alias.name == "tempfile" for alias in node.names):
            found.append(f"line {node.lineno}: import tempfile")
        elif isinstance(node, ast.ImportFrom) and node.module == "tempfile":
            found.append(f"line {node.lineno}: from tempfile import")
    return found


def test_only_the_file_layer_opens_files():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "fileio.py" in modules and len(modules) > 5
    bypasses = {p.name: _file_layer_bypasses(ast.parse(p.read_text(encoding="utf-8"))) for p in modules if p.name != "fileio.py"}
    assert {name: found for name, found in bypasses.items() if found} == {}


def test_the_check_sees_each_bypass():
    source = "import os, tempfile\nfrom tempfile import mkstemp\nopen('x')\nos.replace('a', 'b')\n"
    source += "Path(p).read_text()\np.read_bytes()\nPath(p).write_text('')\nself.path.write_bytes(b'')\n"
    assert len(_file_layer_bypasses(ast.parse(source))) == 8


def test_the_check_allows_the_file_layer_and_its_helpers():
    source = "fileio.read_text(p, E, 'x')\nfileio.read_bytes(p)\nread_bytes(p)\nread_text(p, E, None)\n"
    assert _file_layer_bypasses(ast.parse(source)) == []


def _bare_raises(tree: ast.Module) -> list[str]:
    """Each ``raise ValueError`` or ``raise TypeError`` in a module, with or without arguments."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                found.append(f"line {node.lineno}: raise {exc.id}")
    return found


def test_one_error_path_to_the_cli():
    """The library raises ToolkitError subclasses only, so ``cli.main`` catches
    ToolkitError and OSError and lets any other exception show as a bug."""
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, tree in modules.items() if (found := _bare_raises(tree))} == {}
    main = next(node for node in modules["cli.py"].body if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert [{name.id for name in ast.walk(h.type) if isinstance(name, ast.Name)} for h in handlers] == [{"ToolkitError", "OSError"}]


def test_the_raise_check_sees_each_bare_raise():
    source = "raise ValueError('x')\nraise TypeError\nraise ValueError from None\nraise InvalidParameter('x')\nraise\n"
    assert _bare_raises(ast.parse(source)) == ["line 1: raise ValueError", "line 2: raise TypeError", "line 3: raise ValueError"]
