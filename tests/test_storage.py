"""File-format tests: bit-exact matrix round-trips, parse errors with line
numbers, label columns, result tables, and flat config files."""

import numpy as np
import pytest

from linkanom.ensembles import SeedSpec
from linkanom.storage import (
    format_float,
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
        want = "".join(",".join(format_float(x) for x in row) + "\n" for row in matrix)
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

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\nm = 7\n")
        assert read_config_file(path) == {"m": "7"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("m = 7\nnope\n")
        with pytest.raises(ValueError, match="line 2"):
            read_config_file(path)


class TestScenarioDir:
    def test_write_then_read(self, tmp_path):
        cfg = ScenarioConfig(m=10, n=20, t=30, r_true=3, anomaly_count=4, seed=SeedSpec(1))
        scenario = assemble_scenario(cfg)
        write_scenario(scenario, tmp_path / "scen")
        names = sorted(p.name for p in (tmp_path / "scen").iterdir())
        assert names == ["A.csv", "R.csv", "V.csv", "X.csv", "Y.csv", "labels.csv"]
        y, labels = read_scenario(tmp_path / "scen")
        np.testing.assert_array_equal(y, scenario.y)
        np.testing.assert_array_equal(labels, scenario.labels)

    def test_failed_write_removes_earlier_files(self, tmp_path):
        cfg = ScenarioConfig(m=10, n=20, t=30, r_true=3, anomaly_count=4, seed=SeedSpec(1))
        scen = tmp_path / "scen"
        (scen / "R.csv.tmp").mkdir(parents=True)  # R.csv, the second file, cannot be written
        with pytest.raises(OSError):
            write_scenario(assemble_scenario(cfg), scen)
        assert sorted(path.name for path in scen.iterdir()) == ["R.csv.tmp"]

    def test_label_snapshot_mismatch(self, tmp_path):
        cfg = ScenarioConfig(m=10, n=20, t=30, r_true=3, anomaly_count=4, seed=SeedSpec(1))
        write_scenario(assemble_scenario(cfg), tmp_path / "scen")
        (tmp_path / "scen" / "labels.csv").write_text("1\n0\n")
        with pytest.raises(ValueError, match="labels"):
            read_scenario(tmp_path / "scen")
