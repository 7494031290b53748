"""Command-line tests: subcommand pipelines, config-file precedence, echo
reproducibility, and error-path cleanup."""

import errno
import os
import subprocess
import sys

import numpy as np
import pytest

from linkanom import cli, evaluation, linalg, storage
from linkanom.cli import main
from linkanom.ensembles import SeedSpec
from linkanom.storage import read_config_file, read_matrix_csv

SMALL_ARGS = [
    "--m", "24", "--n", "48", "--t", "90", "--r-true", "6",
    "--anomaly-count", "10", "--master-seed", "9",
]

EMPTY_METHOD = "bad value for method: expected at least one comma-separated item, got ''"


def run_cli(args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "linkanom.cli", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def echo_without_output(directory):
    lines = (directory / "config.echo").read_text(encoding="utf-8").splitlines()
    return [line for line in lines if not line.startswith("output = ")]


class TestGenerate:
    def test_writes_scenario_and_echo(self, tmp_path):
        out = tmp_path / "scen"
        assert main(["generate", *SMALL_ARGS, "--output", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "R.csv", "U.csv", "V.csv", "W.csv", "Y.csv", "anomalies.csv", "config.echo", "labels.csv"]
        echo = read_config_file(out / "config.echo")
        assert echo["m"] == "24"
        assert echo["anomaly_count"] == "10"
        assert echo["subcommand"] == "generate"

    def test_default_anomaly_count_resolved_into_echo(self, tmp_path):
        out = tmp_path / "scen"
        assert main(["generate", "--m", "10", "--n", "20", "--t", "30", "--r-true", "3",
                     "--output", str(out)]) == 0
        # round(0.001 * 10 * 30) = 0
        assert read_config_file(out / "config.echo")["anomaly_count"] == "0"

    def test_failed_write_leaves_no_partial_scenario(self, tmp_path, capsys):
        out = tmp_path / "scen"
        (out / "R.csv.tmp").mkdir(parents=True)  # R.csv, the second file, cannot be written
        assert main(["generate", *SMALL_ARGS, "--output", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == ["R.csv.tmp"]

    def test_failed_rerun_keeps_earlier_scenario(self, tmp_path, capsys):
        out = tmp_path / "scen"
        assert main(["generate", *SMALL_ARGS, "--output", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(before) == 8
        (out / "U.csv.tmp").mkdir()  # U.csv, the third file, cannot be written
        rerun = [*SMALL_ARGS[:-1], "10"]  # another master seed
        assert main(["generate", *rerun, "--output", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        after = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
        assert after == before

    def test_failed_matrix_write_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        matrix_lines, staged = storage._matrix_lines, []
        out = tmp_path / "scen"

        def failing_matrix_lines(matrix):
            # runs inside the write, once the matrix's temp file is staged
            staged.append(sorted(path.name for path in out.iterdir()))
            if len(staged) == 3:  # U.csv, the third matrix
                raise OSError(errno.ENOSPC, "No space left on device")
            yield from matrix_lines(matrix)

        monkeypatch.setattr(storage, "_matrix_lines", failing_matrix_lines)
        assert main(["generate", *SMALL_ARGS, "--output", str(out)]) == 1
        assert "No space left" in capsys.readouterr().err
        assert staged[-1] == ["R.csv.tmp", "U.csv.tmp", "Y.csv.tmp", "config.echo.tmp"]
        assert not out.exists()

    @pytest.mark.parametrize("variance", ["nan", "inf", "-inf"])
    def test_non_finite_noise_variance_rejected(self, tmp_path, capsys, variance):
        out = tmp_path / "scen"
        assert main(["generate", *SMALL_ARGS, f"--noise-variance={variance}",
                     "--output", str(out)]) == 1
        assert "noise_variance" in capsys.readouterr().err
        assert not out.exists()

    def test_echo_regenerates_every_file(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", *SMALL_ARGS, "--output", str(a)]) == 0
        assert main(["generate", "--config", str(a / "config.echo"), "--output", str(b)]) == 0
        assert sorted(path.name for path in b.iterdir()) == sorted(path.name for path in a.iterdir())
        for path in a.glob("*.csv"):
            assert (b / path.name).read_bytes() == path.read_bytes(), path.name
        assert echo_without_output(b) == echo_without_output(a)

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", *SMALL_ARGS, "--output", str(a)])
        main(["generate", *SMALL_ARGS, "--output", str(b)])
        assert (a / "Y.csv").read_bytes() == (b / "Y.csv").read_bytes()


class TestDetect:
    @pytest.fixture()
    def scenario_dir(self, tmp_path):
        out = tmp_path / "scen"
        assert main(["generate", *SMALL_ARGS, "--output", str(out)]) == 0
        return out

    def test_reference_pipeline_row_count(self, tmp_path):
        # full default dimensions: generate then detect must exit 0 and
        # report one row per snapshot (t=640)
        scen = tmp_path / "scen"
        out = tmp_path / "rep"
        assert main(["generate", "--output", str(scen)]) == 0
        assert main(["detect", "--input", str(scen), "--method", "pca", "--rank", "24",
                     "--output", str(out)]) == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "snapshot,spe,q_beta,flag,label"
        assert len(lines) == 1 + 640

    @pytest.mark.parametrize("method", ["pca", "rbad", "sspbad"])
    def test_all_methods_run(self, scenario_dir, tmp_path, method):
        out = tmp_path / f"rep-{method}"
        assert main(["detect", "--input", str(scenario_dir), "--method", method,
                     "--rank", "6", "--output", str(out)]) == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 90

    def test_center_switch_changes_rbad_report(self, scenario_dir, tmp_path):
        plain, centered = tmp_path / "plain", tmp_path / "centered"
        base = ["detect", "--input", str(scenario_dir), "--method", "rbad", "--rank", "6",
                "--master-seed", "12"]
        assert main([*base, "--output", str(plain)]) == 0
        assert main([*base, "--center", "true", "--output", str(centered)]) == 0
        assert read_config_file(centered / "config.echo")["center"] == "True"
        assert (plain / "report.csv").read_text() != (centered / "report.csv").read_text()

    def test_missing_input_fails(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["detect", "--method", "pca", "--output", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_removes_every_directory_it_made(self, tmp_path, capsys):
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "a" / "b" / "c"
        assert main(["detect", "--method", "pca", "--output", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_failed_run_keeps_a_made_directory_that_holds_something(
        self, tmp_path, monkeypatch, capsys
    ):
        def run(cfg, out):
            (out.parent / "kept.txt").write_text("not the run's\n")
            raise ValueError("the subcommand failed")

        monkeypatch.setitem(cli._SUBCOMMANDS, "detect", cli._SUBCOMMANDS["detect"]._replace(run=run))
        out = tmp_path / "a" / "b" / "c"
        assert main(["detect", "--method", "pca", "--output", str(out)]) == 1
        assert "error: the subcommand failed" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "a", out.parent, out.parent / "kept.txt"]

    def test_interrupted_run_removes_every_directory_it_made(self, tmp_path, monkeypatch):
        def run(cfg, out):
            storage.write_table(("snapshot",), [(0,)], out / "report.csv")
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._SUBCOMMANDS, "detect", cli._SUBCOMMANDS["detect"]._replace(run=run))
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(KeyboardInterrupt):
            main(["detect", "--method", "pca", "--output", str(tmp_path / "a" / "b" / "c")])
        assert sorted(tmp_path.rglob("*")) == before

    def test_echo_rerun_reproduces_bit_exactly(self, scenario_dir, tmp_path):
        first, second = tmp_path / "r1", tmp_path / "r2"
        assert main(["detect", "--input", str(scenario_dir), "--method", "rbad",
                     "--rank", "6", "--master-seed", "33", "--output", str(first)]) == 0
        assert main(["detect", "--config", str(first / "config.echo"),
                     "--output", str(second)]) == 0
        assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()

    def test_flags_override_config_file(self, scenario_dir, tmp_path):
        first = tmp_path / "r1"
        assert main(["detect", "--input", str(scenario_dir), "--method", "pca",
                     "--rank", "6", "--output", str(first)]) == 0
        override = tmp_path / "r2"
        assert main(["detect", "--config", str(first / "config.echo"), "--rank", "4",
                     "--output", str(override)]) == 0
        assert read_config_file(override / "config.echo")["rank"] == "4"

    def test_failed_rerun_keeps_earlier_report(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "rep"
        args = ["detect", "--input", str(scenario_dir), "--method", "pca", "--rank", "6",
                "--output", str(out)]
        assert main(args) == 0
        before = (out / "report.csv").read_bytes()
        (out / "report.csv.tmp").mkdir()  # the rerun's write of report.csv fails
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err
        assert (out / "report.csv").read_bytes() == before
        assert (out / "config.echo").exists()

    def test_broken_input_leaves_no_partial_outputs(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        assert main(["generate", *SMALL_ARGS, "--output", str(scen)]) == 0
        (scen / "Y.csv").write_text("1,2\n3\n")
        out = tmp_path / "rep"
        assert main(["detect", "--input", str(scen), "--method", "pca",
                     "--rank", "6", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err
        assert not out.exists()


class TestSweep:
    def test_three_methods_one_point(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", *SMALL_ARGS, "--method", "pca,rbad,sspbad",
                     "--rank-grid", "6", "--trials", "1", "--output", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "method,rank,trial,detection_rate,tpr,far,flag_count"
        assert len(lines) == 1 + 3
        mean_lines = (out / "sweep_mean.csv").read_text().strip().splitlines()
        assert mean_lines[0] == "method,rank,mean_detection_rate,std_detection_rate"
        assert len(mean_lines) == 1 + 3

    def test_rerun_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["sweep", *SMALL_ARGS, "--method", "pca,sspbad", "--rank-grid", "4,8",
                "--trials", "2"]
        assert main([*args, "--output", str(a)]) == 0
        assert main([*args, "--output", str(b)]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        assert (a / "sweep_mean.csv").read_bytes() == (b / "sweep_mean.csv").read_bytes()

    def test_unsorted_grid_kept_in_order(self, tmp_path):
        given, ascending = tmp_path / "given", tmp_path / "ascending"
        args = ["sweep", *SMALL_ARGS, "--method", "pca,sspbad", "--trials", "2"]
        assert main([*args, "--rank-grid", "8,4", "--output", str(given)]) == 0
        assert main([*args, "--rank-grid", "4,8", "--output", str(ascending)]) == 0
        for name, ranks in (("sweep.csv", ["8", "8", "4", "4"] * 2),
                            ("sweep_mean.csv", ["8", "4"] * 2)):
            lines = (given / name).read_text().splitlines()
            assert [line.split(",")[1] for line in lines[1:]] == ranks
            # the same rows as the ascending grid's, in the given order
            assert sorted(lines) == sorted((ascending / name).read_text().splitlines())

    def test_parallel_matches_serial(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["sweep", *SMALL_ARGS, "--method", "rbad", "--rank-grid", "4,8", "--trials", "3"]
        assert main([*args, "--workers", "1", "--output", str(a)]) == 0
        assert main([*args, "--workers", "3", "--output", str(b)]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


class TestVariances:
    def test_table_shape(self, tmp_path):
        scen = tmp_path / "scen"
        assert main(["generate", *SMALL_ARGS, "--output", str(scen)]) == 0
        out = tmp_path / "var"
        assert main(["variances", "--input", str(scen), "--rank", "6",
                     "--output", str(out)]) == 0
        lines = (out / "variances.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "index"
        assert header[1:] == [
            "pca", "rbad", "sspbad-gaussian", "sspbad-bernoulli-half",
            "sspbad-markov-column-stochastic", "sspbad-rademacher",
        ]
        assert len(lines) == 1 + 24

    def test_input_reads_only_the_traffic(self, tmp_path):
        # the table never uses labels, so a scenario without them will do
        scen = tmp_path / "scen"
        assert main(["generate", *SMALL_ARGS, "--output", str(scen)]) == 0
        full = tmp_path / "full"
        assert main(["variances", "--input", str(scen), "--rank", "6",
                     "--output", str(full)]) == 0
        (scen / "labels.csv").unlink()
        bare = tmp_path / "bare"
        assert main(["variances", "--input", str(scen), "--rank", "6",
                     "--output", str(bare)]) == 0
        assert (bare / "variances.csv").read_bytes() == (full / "variances.csv").read_bytes()

    def test_rank_beyond_the_traffic_is_an_error(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        assert main(["generate", *SMALL_ARGS, "--noise-variance", "0", "--anomaly-count", "0",
                     "--output", str(scen)]) == 0
        out = tmp_path / "var"
        assert main(["variances", "--input", str(scen), "--rank", "8", "--output", str(out)]) == 1
        assert "rank 8" in capsys.readouterr().err
        assert not (out / "variances.csv").exists()


class TestErrorSurface:
    def test_unknown_subcommand_prints_usage(self):
        proc = run_cli(["defragment"])
        assert proc.returncode != 0
        assert "usage" in proc.stderr.lower()

    def test_unknown_method(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        assert main(["generate", *SMALL_ARGS, "--output", str(scen)]) == 0
        assert main(["detect", "--input", str(scen), "--method", "rpca",
                     "--output", str(tmp_path / "out")]) == 1
        assert "unknown method" in capsys.readouterr().err

    def test_repeated_sweep_method(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", *SMALL_ARGS, "--method", "pca,pca", "--rank-grid", "4",
                     "--trials", "1", "--output", str(out)]) == 1
        assert "repeat method 'pca'" in capsys.readouterr().err
        assert not out.exists()

    def test_ensembles_flag_is_a_usage_error(self, tmp_path, capsys):
        # sspbad always switches among the four families; no flag picks a subset
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as rejected:
            main(["sweep", *SMALL_ARGS, "--ensembles", "gaussian", "--rank-grid", "4",
                  "--trials", "1", "--output", str(out)])
        assert rejected.value.code == 2
        assert "unrecognized arguments: --ensembles gaussian" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--y", "--labels"])
    def test_traffic_file_flags_are_usage_errors(self, tmp_path, capsys, flag):
        # --input DIR is the one traffic source
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as rejected:
            main(["detect", "--input", "scen", flag, "scen/file.csv", "--output", str(out)])
        assert rejected.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert f"unrecognized arguments: {flag} scen/file.csv" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["y", "labels"])
    def test_traffic_file_config_keys_are_unknown(self, tmp_path, capsys, key):
        # an echo written while y and labels were keys must lose those lines
        config = tmp_path / "old.echo"
        config.write_text(f"subcommand = detect\n{key} = scen/file.csv\nmethod = pca\n")
        out = tmp_path / "out"
        assert main(["detect", "--config", str(config), "--input", "scen",
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: unknown config key {key!r} in {config}"]
        assert not out.exists()

    def test_ensembles_config_key_is_unknown(self, tmp_path, capsys):
        # an echo written while the key existed must lose its `ensembles =` line
        scen = tmp_path / "scen"
        assert main(["generate", *SMALL_ARGS, "--output", str(scen)]) == 0
        capsys.readouterr()
        config = tmp_path / "old.echo"
        config.write_text(f"subcommand = detect\ninput = {scen}\nmethod = sspbad\n"
                          "ensembles = gaussian,bernoulli-half,markov-column-stochastic,rademacher\n")
        out = tmp_path / "out"
        assert main(["detect", "--config", str(config), "--output", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: unknown config key 'ensembles' in {config}"]
        assert not out.exists()

    @pytest.mark.parametrize("name", [" sp", "sp ", "nl\nx", "cr\rx"])
    def test_output_that_the_echo_would_not_read_back(self, tmp_path, monkeypatch, capsys, name):
        # read back, such an echo names another directory or no pair at all
        monkeypatch.chdir(tmp_path)
        assert main(["generate", *SMALL_ARGS, "--output", name]) == 1
        captured = capsys.readouterr()
        # the echo is checked before the run, so no scenario is made or reported
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: config value of 'output' would not read back: {name!r} has leading or "
            "trailing whitespace or a line break"]
        assert list(tmp_path.iterdir()) == []

    def test_sweep_whose_echo_would_not_read_back_runs_no_trial(
        self, tmp_path, monkeypatch, capsys
    ):
        def assemble(config):
            raise AssertionError("a trial ran before the echo was checked")

        monkeypatch.setattr(evaluation, "assemble_scenario", assemble)
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", *SMALL_ARGS, "--rank-grid", "4", "--trials", "2",
                     "--output", "sp "]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: config value of 'output' would not read back: 'sp ' has leading or "
            "trailing whitespace or a line break"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, message", [
        (["detect", "--center", "maybe"], "bad value for center"),
        (["sweep", "--trials", "x"], "bad value for trials"),
        (["variances", "--input", "{tmp}"], "Y.csv"),
        (["detect", "--input", "{scen}", "--method", "pca,rbad"],
         "detect takes exactly one --method"),
        # an empty method list names no method, even where a default exists
        (["detect", "--input", "{scen}", "--method", ""], EMPTY_METHOD),
        (["sweep", "--method", ""], EMPTY_METHOD),
        (["detect", "--input", "{scen}", "--config", "{tmp}/empty-method.cfg"], EMPTY_METHOD),
        (["sweep", "--config", "{tmp}/empty-method.cfg"], EMPTY_METHOD),
        # --input names a directory with the traffic and one label per snapshot
        (["detect", "--input", "{tmp}"], "Y.csv"),
        (["detect", "--input", "{tmp}/short"],
         "short/labels.csv: 2 labels do not match 90 snapshots"),
        (["detect", "--input", "{scen}", "--config", "{tmp}/repeated-rank.cfg"],
         "key 'rank' is set on line 1 and again on line 2"),
    ])
    def test_bad_arguments_exit_1(self, tmp_path, capsys, args, message):
        scen = tmp_path / "scen"
        assert main(["generate", *SMALL_ARGS, "--output", str(scen)]) == 0
        (tmp_path / "empty-method.cfg").write_text("method =\n")
        (tmp_path / "repeated-rank.cfg").write_text("rank = 8\nrank = 3\n")
        (tmp_path / "short").mkdir()
        (tmp_path / "short" / "Y.csv").write_bytes((scen / "Y.csv").read_bytes())
        (tmp_path / "short" / "labels.csv").write_text("1\n0\n")
        out = tmp_path / "out"
        argv = [arg.format(scen=scen, tmp=tmp_path) for arg in args]
        assert main([*argv, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_rank_needs_two_links(self, tmp_path, capsys):
        scen, out = tmp_path / "scen", tmp_path / "out"
        assert main(["generate", "--m", "1", "--n", "2", "--t", "3", "--r-true", "1",
                     "--output", str(scen)]) == 0
        assert main(["detect", "--input", str(scen), "--rank", "1", "--output", str(out)]) == 1
        assert "error: rank must be in [1, m - 1], which needs m >= 2 links, got m = 1" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("turbo = yes\n")
        assert main(["generate", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_console_entry_point_matches_module(self, tmp_path):
        proc = run_cli(["generate", *SMALL_ARGS, "--output", str(tmp_path / "scen")])
        assert proc.returncode == 0
        assert (tmp_path / "scen" / "Y.csv").exists()
        matrix = read_matrix_csv(tmp_path / "scen" / "Y.csv")
        assert matrix.shape == (24, 90)
        assert np.isfinite(matrix).all()


class TestLocale:
    def test_non_ascii_path_under_an_ascii_locale(self, tmp_path):
        # an ASCII locale hands the path over as bytes; every file is UTF-8
        env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C"}
        scen = tmp_path / "résultats"
        proc = run_cli(["generate", "--m", "12", "--n", "24", "--t", "40",
                        "--output", str(scen)], env)
        assert proc.returncode == 0, proc.stderr
        assert f"output = {scen}\n".encode() in (scen / "config.echo").read_bytes()
        # the echo's output path names the scenario directory again
        proc = run_cli(["detect", "--config", str(scen / "config.echo"), "--input", str(scen),
                        "--rank", "2"], env)
        assert proc.returncode == 0, proc.stderr
        assert (scen / "report.csv").exists()

    def test_echo_rerun_under_an_ascii_locale_reads_the_same_paths(self, tmp_path):
        # the echo holds the path as UTF-8 text, which an ASCII locale cannot
        # encode: `_parse_path` turns it back into the bytes it names
        utf8 = {**os.environ, "PYTHONUTF8": "1"}
        ascii_only = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
                      "LC_ALL": "C", "LANG": "C"}
        scen, first, again = tmp_path / "café", tmp_path / "d1", tmp_path / "d2"
        for args, env in (
            (["generate", "--m", "12", "--n", "24", "--t", "40", "--output", str(scen)], utf8),
            (["detect", "--input", str(scen), "--rank", "2", "--output", str(first)], utf8),
            (["detect", "--config", str(first / "config.echo"), "--output", str(again)],
             ascii_only),
        ):
            proc = run_cli(args, env)
            assert proc.returncode == 0, proc.stderr
        assert (again / "report.csv").read_bytes() == (first / "report.csv").read_bytes()


@pytest.mark.skipif(linalg._openblas_threads() is None,
                    reason="no OpenBLAS thread-count symbols in numpy.libs")
class TestBlasThreadCount:
    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        # at this size both (R U) W^T in generate and pca's eigendecomposition
        # in detect round differently on two OpenBLAS threads than on one
        written = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            scen, det = tmp_path / f"scen{threads}", tmp_path / f"det{threads}"
            for args in (
                ["generate", "--m", "160", "--n", "320", "--t", "853", "--master-seed", "7",
                 "--output", str(scen)],
                ["detect", "--input", str(scen), "--method", "pca", "--rank", "24",
                 "--master-seed", "7", "--output", str(det)],
            ):
                proc = run_cli(args, env)
                assert proc.returncode == 0, proc.stderr
            written[threads] = ((scen / "Y.csv").read_bytes(), (det / "report.csv").read_bytes())
        assert written["1"][0] == written["2"][0]
        assert written["1"][1] == written["2"][1]


class TestResolve:
    def test_subcommands_read_settled_values(self, tmp_path, monkeypatch):
        seen = {}

        def record(cfg, out):
            with pytest.raises(TypeError):
                cfg["method"] = ("rbad",)  # read-only: the echo is what ran
            seen[cfg["subcommand"]] = dict(cfg)

        for name in ("detect", "sweep"):
            monkeypatch.setitem(cli._SUBCOMMANDS, name, cli._SUBCOMMANDS[name]._replace(run=record))
        assert main(["detect", "--input", "scen", "--beta", "5e-3",
                     "--output", str(tmp_path / "detect")]) == 0
        assert main(["sweep", "--m", "10", "--t", "30", "--output", str(tmp_path / "sweep")]) == 0
        assert seen["detect"]["method"] == ("pca",)
        assert seen["detect"]["beta"] == 0.005
        assert seen["sweep"]["method"] == ("pca", "rbad", "sspbad")
        assert seen["sweep"]["anomaly_count"] == 0  # round(0.001 * 10 * 30)
        echo = read_config_file(tmp_path / "detect" / "config.echo")
        assert (echo["method"], echo["beta"]) == ("pca", "0.005")


class TestParser:
    def test_cached_parser_carries_nothing_between_calls(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()
        with pytest.raises(SystemExit) as rejected:
            main(["sweep", "--method", "pca", "--trials", "3", "--rank-grid", "8", "--bogus"])
        assert rejected.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        runs = {
            "generate": ["generate", *SMALL_ARGS],
            "sweep": ["sweep", *SMALL_ARGS, "--method", "rbad", "--rank-grid", "4"],
        }
        for name, argv in runs.items():
            here, fresh = tmp_path / name, tmp_path / f"fresh-{name}"
            assert main([*argv, "--output", str(here)]) == 0
            proc = run_cli([*argv, "--output", str(fresh)])
            assert proc.returncode == 0, proc.stderr
            assert echo_without_output(here) == echo_without_output(fresh)


class TestSubstreams:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 3: detect hands sspbad the scenario's own seed, and candidate i "
        "draws from its branch (i,), the scenario's flows, routing, anomalies and noise"))
    def test_detect_draws_from_no_scenario_substream(self, tmp_path, monkeypatch):
        paths, real = {}, SeedSpec.generator

        def generator(seed):
            paths[run].add((seed.stream_index, seed.branch))
            return real(seed)

        monkeypatch.setattr(SeedSpec, "generator", generator)
        seed_args = ["--master-seed", "7", "--stream-index", "2"]
        run = "generate"
        paths[run] = set()
        assert main(["generate", "--m", "12", "--n", "24", "--t", "40", "--anomaly-count", "3",
                     *seed_args, "--output", str(tmp_path / "scen")]) == 0
        assert len(paths["generate"]) == 4
        for run in ("pca", "rbad", "sspbad"):
            paths[run] = set()
            assert main(["detect", "--input", str(tmp_path / "scen"), "--method", run, "--rank", "3",
                         *seed_args, "--output", str(tmp_path / run)]) == 0
        assert {run: paths[run] & paths["generate"] for run in ("pca", "rbad", "sspbad")} == {
            "pca": set(), "rbad": set(), "sspbad": set()}
