"""File-format tests: bit-exact matrix round-trips, parse errors with line
numbers, label columns, result tables, and flat config files."""

import dataclasses
import errno
import io
import os

import numpy as np
import pytest

from linkanom import storage
from linkanom.cli import main
from linkanom.ensembles import SeedSpec
from linkanom.storage import (
    read_config_file,
    read_labels_csv,
    read_matrix_csv,
    read_scenario,
    write_config_file,
    write_labels_csv,
    write_matrix_csv,
    write_scenario,
    write_table,
)
from linkanom.traffic import ScenarioConfig, assemble_scenario


class TestMatrixCsv:
    def test_single_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("3.5\n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[3.5]])

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(123)
        matrix = rng.normal(scale=1e3, size=(120, 640)) * rng.choice([1e-12, 1.0, 1e9], size=(120, 640))
        path = tmp_path / "big.csv"
        write_matrix_csv(matrix, path)
        np.testing.assert_array_equal(read_matrix_csv(path), matrix)

    def test_text_is_format_float(self, tmp_path):
        matrix = np.array([[0.0, -0.0, 1e-5, 5e-324], [0.1, -2.5e300, 123456789.0, 1.0 / 3.0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path)
        want = "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in matrix)
        assert path.read_text() == want

    def test_ragged_rows_name_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5,6,7\n")
        with pytest.raises(ValueError, match="line 2"):
            read_matrix_csv(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 2.*non-numeric"):
            read_matrix_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_matrix_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1,2\n3,inf\n")
        with pytest.raises(ValueError, match="line 2.*non-finite"):
            read_matrix_csv(path)

    def test_one_dimensional_write_rejected(self, tmp_path):
        path = tmp_path / "row.csv"
        with pytest.raises(ValueError, match="^matrix must be 2-D, got ndim=1$"):
            write_matrix_csv(np.arange(3.0), path)
        assert not path.exists()

    @pytest.mark.parametrize(
        ("matrix", "message"),
        [
            ([[np.nan, 1.0]], "^matrix has 1 non-finite values"),
            ([[1.0, np.inf], [-np.inf, 2.0]], "^matrix has 2 non-finite values"),
            (np.zeros((0, 3)), r"^matrix must have at least one row and one column, got shape \(0, 3\)$"),
            (np.zeros((2, 0)), r"^matrix must have at least one row and one column, got shape \(2, 0\)$"),
        ],
        ids=["nan", "inf", "no-rows", "no-columns"],
    )
    def test_unreadable_matrix_write_rejected(self, tmp_path, matrix, message):
        # each would write a file that read_matrix_csv rejects
        with pytest.raises(ValueError, match=message):
            write_matrix_csv(matrix, tmp_path / "m.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((3, 4)),
            [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0], [1.0, 0.0, -0.0]],
            [[5e-324, -2.5e-320, 0.0], [2.2250738585072009e-308, 1e-310, -5e-324]],
            [[1e17, -1e17, 123456789012345678.0], [9007199254740993.0, 1e16, 0.0]],
            [[1e-300, -1e-300, 1.7976931348623157e308], [0.0, 1e-300, 0.0]],
            [[1.0, 2.0, 3.0], [-4.0, 0.0, 65536.0], [0.0, 0.0, 0.0]],
        ],
        ids=["zero-rows", "negative-zero", "subnormal", "1e17", "1e-300", "integer-valued"],
    )
    def test_text_is_savetxt(self, tmp_path, matrix):
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path)
        oracle = io.StringIO()
        np.savetxt(oracle, np.asarray(matrix, dtype=float), fmt="%.17g", delimiter=",")
        assert path.read_text() == oracle.getvalue()

    @pytest.mark.parametrize(
        "text",
        [
            "1,2\r\n3,4\r\n",
            "1,2\r3,4\r",
            "1,2\n\n3,4\n",
            "1,2\n \t \n3,4\n",
            "1_0,2\n3,4\n",
            "\uff11,2\n3,4\n",
            "1,\x1c2\n3,4\n",
            "1,2\n3,inf\n",
            "1,2\nnan,4\n",
            "1,2\n3,1e999\n",
            "1,2\n3,4,5\n",
            "1,2,\n3,4,\n",
            "1,2\n3,oops\n",
            "",
            "\n \n\t\n",
        ],
        ids=[
            "crlf", "cr", "blank-line", "whitespace-line", "underscore", "full-width-digit",
            "file-separator", "inf", "nan", "overflow", "ragged", "trailing-comma",
            "non-numeric", "empty", "all-blank",
        ],
    )
    def test_reader_matches_line_loop(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        try:
            want = storage._read_matrix_lines(path)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                read_matrix_csv(path)
            assert str(raised.value) == str(error)
        else:
            got = read_matrix_csv(path)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_written_files_take_the_c_parse(self, tmp_path, monkeypatch):
        # a future numpy or writer change must not send every read to the line loop
        def no_line_loop(path):
            raise AssertionError(f"{path} went through the line loop")

        matrices = [
            np.array([[0.0, -0.0, 5e-324], [0.0, 0.0, 0.0], [-2.5e-320, 1e17, -1e-300]]),
            np.zeros((2, 5)),
            np.array([[3.5]]),
        ]
        paths = [tmp_path / f"m{index}.csv" for index in range(len(matrices))]
        for path, matrix in zip(paths, matrices):
            write_matrix_csv(matrix, path)
        scen = tmp_path / "scen"
        assert main(["generate", "--m", "12", "--n", "24", "--t", "40", "--r-true", "3",
                     "--anomaly-count", "4", "--output", str(scen)]) == 0
        paths.append(scen / "Y.csv")
        matrices.append(storage._read_matrix_lines(scen / "Y.csv"))
        monkeypatch.setattr(storage, "_read_matrix_lines", no_line_loop)
        for path, matrix in zip(paths, matrices):
            got = read_matrix_csv(path)
            assert got.shape == matrix.shape and got.tobytes() == matrix.tobytes()


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        labels = np.array([True, False, True, True, False])
        path = tmp_path / "labels.csv"
        write_labels_csv(labels, path)
        assert path.read_text() == "1\n0\n1\n1\n0\n"
        np.testing.assert_array_equal(read_labels_csv(path), labels)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1\n2\n")
        with pytest.raises(ValueError, match="line 2"):
            read_labels_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="empty labels file"):
            read_labels_csv(path)

    @pytest.mark.parametrize(
        ("labels", "message"),
        [([], "must be nonempty"), (True, "must be 1-D, got ndim=0"),
         ([[1, 0], [0, 1]], "must be 1-D, got ndim=2")],
        ids=["empty", "scalar", "2-D"],
    )
    def test_unreadable_write_rejected(self, tmp_path, labels, message):
        # [] would write "\n", which reads back as an empty labels file
        with pytest.raises(ValueError, match=f"^labels {message}$"):
            write_labels_csv(labels, tmp_path / "labels.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        ("labels", "message"),
        [(["0", "1"], "must hold real numbers, got dtype <U1"), ([0.5], "must be 0/1 or bool, got 0.5"),
         ([2], "must be 0/1 or bool, got 2"), ([-1], "must be 0/1 or bool, got -1")],
        ids=["text", "half", "two", "minus-one"],
    )
    def test_labels_outside_the_rule_rejected(self, tmp_path, labels, message):
        # each used to be cast to bool and written as a column of 1s, though
        # `score` rejects it
        with pytest.raises(ValueError, match=f"^labels {message}$"):
            write_labels_csv(labels, tmp_path / "labels.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint64, np.float64])
    def test_0_1_labels_of_any_real_dtype_are_written(self, tmp_path, dtype):
        write_labels_csv(np.array([1, 0, 1], dtype=dtype), tmp_path / "labels.csv")
        assert (tmp_path / "labels.csv").read_text() == "1\n0\n1\n"


class TestTable:
    def test_text(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [("pca", 8, np.float64(0.1), float("nan"), 3), ("rbad", 16, 1.0 / 3.0, -0.0, 0)]
        write_table(("method", "rank", "rate", "tpr", "flags"), rows, path)
        assert path.read_text() == (
            "method,rank,rate,tpr,flags\n"
            "pca,8,0.10000000000000001,nan,3\n"
            "rbad,16,0.33333333333333331,-0,0\n"
        )


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.echo"
        write_config_file({"m": 120, "beta": 0.005, "method": "pca"}, path)
        assert read_config_file(path) == {"m": "120", "beta": "0.005", "method": "pca"}

    def test_inner_blanks_and_equals_signs_round_trip(self, tmp_path):
        path = tmp_path / "run.echo"
        entries = {"output": "a  b", "input": "x = y", "y": "z\u2028z"}
        write_config_file(entries, path)
        assert read_config_file(path) == entries

    @pytest.mark.parametrize("entries, message", [
        ({"output": " sp"}, r"^config value of 'output' would not read back: ' sp' has leading"),
        ({"output": "sp\t"}, "^config value of 'output'"),
        ({"output": "a\u2028"}, "^config value of 'output'"),
        ({"output": "nl\nx"}, r"^config value of 'output' .* or a line break$"),
        ({"output": "cr\rx"}, "^config value of 'output'"),
        ({" m": 7}, "^config key ' m' would not read back"),
        ({"m\n2": 7}, r"^config key 'm\\n2'"),
        ({"a=b": 7}, r"^config key 'a=b' would not read back: it has leading or trailing "
                     r"whitespace, a line break, '=' or a leading '#'$"),
        ({"#m": 7}, "^config key '#m'"),
    ], ids=["value-space", "value-tab", "value-u2028", "value-lf", "value-cr", "key-space",
            "key-lf", "key-equals", "key-hash"])
    def test_entry_that_would_not_read_back(self, tmp_path, entries, message):
        # the file would read back as other entries, or fail to read
        with pytest.raises(ValueError, match=message):
            write_config_file({"m": 7, **entries}, tmp_path / "run.echo")
        assert list(tmp_path.iterdir()) == []

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\nm = 7\n")
        assert read_config_file(path) == {"m": "7"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("m = 7\nnope\n")
        with pytest.raises(ValueError, match="line 2"):
            read_config_file(path)

    def test_repeated_key(self, tmp_path):
        # an echo never repeats a key, so every echo still reads back
        path = tmp_path / "c.txt"
        path.write_text("rank = 8\n# comment\nmethod = pca\nrank = 3\n")
        with pytest.raises(ValueError, match="key 'rank' is set on line 1 and again on line 4$"):
            read_config_file(path)


class TestScenarioDir:
    def test_write_then_read(self, tmp_path):
        cfg = ScenarioConfig(m=10, n=20, t=30, r_true=3, anomaly_count=4, seed=SeedSpec(1))
        scenario = assemble_scenario(cfg)
        write_scenario(scenario, tmp_path / "scen")
        names = sorted(p.name for p in (tmp_path / "scen").iterdir())
        assert names == ["R.csv", "U.csv", "V.csv", "W.csv", "Y.csv", "anomalies.csv", "labels.csv"]
        y, labels = read_scenario(tmp_path / "scen")
        np.testing.assert_array_equal(y, scenario.y)
        np.testing.assert_array_equal(labels, scenario.labels)

    @pytest.mark.parametrize("r_true", [0, 3])
    def test_draws_rebuild_x_and_a(self, tmp_path, r_true):
        cfg = ScenarioConfig(m=10, n=20, t=30, r_true=r_true, anomaly_count=6, seed=SeedSpec(1))
        scenario = assemble_scenario(cfg)
        scen = tmp_path / "scen"
        write_scenario(scenario, scen)
        for name, matrix in [("Y", scenario.y), ("R", scenario.routing), ("V", scenario.v)]:
            np.testing.assert_array_equal(read_matrix_csv(scen / f"{name}.csv"), matrix)
        # X = U W^T bit for bit; with r_true = 0 each file holds one zero column
        u, w = read_matrix_csv(scen / "U.csv"), read_matrix_csv(scen / "W.csv")
        assert u.shape == (20, max(r_true, 1)) and w.shape == (30, max(r_true, 1))
        np.testing.assert_array_equal(u @ w.T, scenario.u @ scenario.w.T)
        lines = (scen / "anomalies.csv").read_text().splitlines()
        assert lines[0] == "flow,snapshot,value"
        rows = [line.split(",") for line in lines[1:]]
        flows, snapshots = (np.array([int(row[i]) for row in rows]) for i in (0, 1))
        np.testing.assert_array_equal(flows * 30 + snapshots, scenario.anomaly_positions)
        np.testing.assert_array_equal([float(row[2]) for row in rows], scenario.anomaly_values)

    def test_no_anomalies_write_a_header_only_table(self, tmp_path):
        cfg = ScenarioConfig(m=10, n=20, t=30, r_true=3, anomaly_count=0, seed=SeedSpec(1))
        write_scenario(assemble_scenario(cfg), tmp_path / "scen")
        assert (tmp_path / "scen" / "anomalies.csv").read_text() == "flow,snapshot,value\n"

    def test_failed_write_removes_earlier_files(self, tmp_path):
        cfg = ScenarioConfig(m=10, n=20, t=30, r_true=3, anomaly_count=4, seed=SeedSpec(1))
        scen = tmp_path / "scen"
        (scen / "R.csv.tmp").mkdir(parents=True)  # R.csv, the second file, cannot be written
        with pytest.raises(OSError):
            write_scenario(assemble_scenario(cfg), scen)
        assert sorted(path.name for path in scen.iterdir()) == ["R.csv.tmp"]

    def test_failed_write_leaves_no_directory_it_made(self, tmp_path):
        cfg = ScenarioConfig(m=10, n=20, t=30, r_true=3, anomaly_count=4, seed=SeedSpec(1))
        scenario = assemble_scenario(cfg)
        y = scenario.y.copy()
        y[2, 3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            write_scenario(dataclasses.replace(scenario, y=y), tmp_path / "a" / "b")
        assert list(tmp_path.iterdir()) == []

    def test_failed_block_keeps_a_made_directory_that_holds_something(self, tmp_path):
        out = tmp_path / "a" / "b"
        with pytest.raises(KeyboardInterrupt):
            with storage._all_or_none(out):
                storage.write_labels_csv([True, False], out / "labels.csv")
                (tmp_path / "a" / "kept.txt").write_text("not the block's\n")
                raise KeyboardInterrupt
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "a", tmp_path / "a" / "kept.txt"]

    def test_nested_block_directories_go_with_the_outer_block(self, tmp_path):
        with pytest.raises(ValueError, match="the outer block failed"):
            with storage._all_or_none(tmp_path / "a"):
                with storage._all_or_none(tmp_path / "a" / "b" / "c"):
                    storage.write_labels_csv([True], tmp_path / "a" / "b" / "c" / "labels.csv")
                raise ValueError("the outer block failed")
        assert list(tmp_path.iterdir()) == []

    def test_label_snapshot_mismatch(self, tmp_path):
        cfg = ScenarioConfig(m=10, n=20, t=30, r_true=3, anomaly_count=4, seed=SeedSpec(1))
        write_scenario(assemble_scenario(cfg), tmp_path / "scen")
        (tmp_path / "scen" / "labels.csv").write_text("1\n0\n")
        with pytest.raises(ValueError, match="labels"):
            read_scenario(tmp_path / "scen")


def _tree(directory):
    """Every path under `directory`, with each file's bytes (None for a
    directory)."""
    return {path.relative_to(directory): path.read_bytes() if path.is_file() else None
            for path in directory.rglob("*")}


class TestCommit:
    """A block renames its staged files into place all or none: when a
    rename fails, every earlier file is back as it was, and no temp or
    backup is left behind."""

    CFG = ScenarioConfig(m=10, n=20, t=30, r_true=3, anomaly_count=4, seed=SeedSpec(1))
    RERUN = dataclasses.replace(CFG, seed=SeedSpec(2))

    def test_rerun_replaces_every_file_and_leaves_no_backup(self, tmp_path):
        scen = tmp_path / "scen"
        write_scenario(assemble_scenario(self.CFG), scen)
        write_scenario(assemble_scenario(self.RERUN), tmp_path / "fresh")
        write_scenario(assemble_scenario(self.RERUN), scen)
        assert _tree(scen) == _tree(tmp_path / "fresh")

    def test_target_that_is_no_file_fails_before_any_rename(self, tmp_path):
        scen = tmp_path / "scen"
        write_scenario(assemble_scenario(self.CFG), scen)
        (scen / "R.csv").unlink()
        (scen / "R.csv").mkdir()
        (scen / "R.csv" / "kept.txt").write_text("not a scenario file\n")
        before = _tree(scen)
        with pytest.raises(FileExistsError, match=r"R\.csv exists and is not a regular file$"):
            write_scenario(assemble_scenario(self.RERUN), scen)
        assert _tree(scen) == before

    def test_taken_backup_name_fails_before_any_rename(self, tmp_path):
        scen = tmp_path / "scen"
        write_scenario(assemble_scenario(self.CFG), scen)
        (scen / "V.csv.bak").write_text("an earlier V.csv\n")
        before = _tree(scen)
        with pytest.raises(FileExistsError, match=r"V\.csv\.bak exists and may hold an earlier V\.csv$"):
            write_scenario(assemble_scenario(self.RERUN), scen)
        assert _tree(scen) == before

    # the rerun renames six earlier files to backups and seven temps into
    # place, W.csv among them as a new file: 13 renames
    @pytest.mark.parametrize("k", range(1, 14))
    def test_failure_in_the_kth_rename_restores_every_earlier_file(self, tmp_path, monkeypatch, k):
        scen = tmp_path / "scen"
        write_scenario(assemble_scenario(self.CFG), scen)
        (scen / "W.csv").unlink()
        before = _tree(scen)
        replace, calls = os.replace, []

        def failing_replace(src, dst):
            calls.append(src)
            if len(calls) == k:
                raise OSError(errno.EIO, "injected rename failure")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected rename failure"):
            write_scenario(assemble_scenario(self.RERUN), scen)
        monkeypatch.undo()
        assert _tree(scen) == before
        if k == 13:  # the last rename, once every other one has succeeded
            assert calls[k - 1].name == "labels.csv.tmp"
