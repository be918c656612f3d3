from __future__ import annotations

import numpy as np
import pytest

from obci import INFINITE, CriticalValueEntry, CriticalValueTable, SeedSpec, cli, experiments, limits
from obci.cli import (
    EXIT_DEGENERATE_ESTIMATE,
    EXIT_DEGENERATE_INTERVAL,
    EXIT_OK,
    EXIT_OUT_OF_MEMORY,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)


def _write_normal_data(path, n=200, seed=77):
    values = SeedSpec(seed, 0).generator().standard_normal(n)
    path.write_text("\n".join(f"{v:.12g}" for v in values) + "\n")
    return values


def test_critvals_writes_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main([
        "critvals", "--methods", "ob1", "--betas", "0.25", "--b-inf", "inf,4",
        "--quantiles", "0.9,0.95", "--reps", "10000", "--grid", "128",
        "--seed", "99", "--out", str(out),
    ])
    assert code == EXIT_OK
    table = CriticalValueTable.from_csv(out)
    assert len(table.entries) == 4
    table.validate()


def test_critvals_empty_quantiles_is_usage_error(tmp_path):
    code = main([
        "critvals", "--betas", "0.25", "--quantiles", "", "--out", str(tmp_path / "t.csv"),
    ])
    assert code == EXIT_USAGE


def test_ci_round_trip_table_vs_in_process(tmp_path, capsys):
    data_file = tmp_path / "data.txt"
    _write_normal_data(data_file, n=200)
    table_file = tmp_path / "table.csv"
    assert main([
        "critvals", "--methods", "ob1", "--betas", "0.25", "--b-inf", "inf",
        "--quantiles", "0.975", "--reps", "10000", "--grid", "128",
        "--seed", "4242", "--out", str(table_file),
    ]) == EXIT_OK
    capsys.readouterr()
    assert main([
        "ci", "--method", "ob1", "--m", "50", "--d", "1", "--alpha", "0.05",
        "--estimator", "mean", "--data", str(data_file), "--table", str(table_file),
    ]) == EXIT_OK
    from_table = capsys.readouterr().out.strip()
    assert main([
        "ci", "--method", "ob1", "--m", "50", "--d", "1", "--alpha", "0.05",
        "--estimator", "mean", "--data", str(data_file),
        "--reps", "10000", "--grid", "128", "--seed", "4242",
    ]) == EXIT_OK
    in_process = capsys.readouterr().out.strip()
    assert from_table == in_process
    assert len(from_table.split(",")) == 9


def test_ci_table_dir_env(tmp_path, capsys, monkeypatch):
    data_file = tmp_path / "data.txt"
    _write_normal_data(data_file, n=100)
    table_dir = tmp_path / "tables"
    table_dir.mkdir()
    assert main([
        "critvals", "--methods", "ob1", "--betas", "0.25", "--b-inf", "inf",
        "--quantiles", "0.975", "--reps", "10000", "--grid", "64",
        "--seed", "5", "--out", str(table_dir / "t.csv"),
    ]) == EXIT_OK
    monkeypatch.setenv("OBCI_TABLE_DIR", str(table_dir))
    code = main([
        "ci", "--method", "ob1", "--m", "25", "--d", "1",
        "--estimator", "mean", "--data", str(data_file), "--table", "t.csv",
    ])
    assert code == EXIT_OK


def test_ci_exit_codes(tmp_path):
    constant = tmp_path / "const.txt"
    constant.write_text("\n".join(["1.0"] * 50) + "\n")
    assert main([
        "ci", "--method", "ob1", "--m", "10", "--d", "5", "--estimator", "mean",
        "--data", str(constant), "--beta-declared", "0",
    ]) == EXIT_DEGENERATE_INTERVAL

    bad = tmp_path / "bad.txt"
    for text in ("1.0\nnope\n", "1.0\nnan\n2.0\n"):
        bad.write_text(text)
        assert main([
            "ci", "--method", "ob1", "--m", "2", "--d", "1", "--estimator", "mean",
            "--data", str(bad),
        ]) == EXIT_PARSE

    normal = tmp_path / "norm.txt"
    _write_normal_data(normal, n=60)
    assert main([
        "ci", "--method", "ob1", "--m", "15", "--d", "5",
        "--estimator", "cvar:0.5:99", "--data", str(normal), "--beta-declared", "0",
    ]) == EXIT_DEGENERATE_ESTIMATE

    assert main([
        "ci", "--method", "ob1", "--m", "15", "--d", "5",
        "--estimator", "mystery", "--data", str(normal),
    ]) == EXIT_USAGE

    assert main([
        "ci", "--method", "ob1", "--m", "15", "--d", "5",
        "--estimator", "mean", "--data", str(tmp_path / "missing.txt"),
    ]) == EXIT_PARSE


def test_ci_out_of_memory_exit(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.0 GiB for an array")

    monkeypatch.setattr(cli, "build_interval", exhausted)
    data_file = tmp_path / "data.txt"
    _write_normal_data(data_file, n=100)
    capsys.readouterr()
    code = main([
        "ci", "--method", "ob1", "--m", "25", "--d", "1", "--estimator", "quantile:0.9",
        "--data", str(data_file),
    ])
    assert code == EXIT_OUT_OF_MEMORY
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if not line.startswith("# config:")] == [
        "ci: out of memory (Unable to allocate 14.0 GiB for an array); "
        "try a smaller --m or a shorter series"
    ]


def test_critvals_unknown_method_draws_nothing(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("no critical value should be drawn")

    monkeypatch.setattr(cli, "critical_values", fail)
    code = main([
        "critvals", "--methods", "ob1,ob9", "--betas", "0.25", "--quantiles", "0.95",
        "--out", str(tmp_path / "t.csv"),
    ])
    assert code == EXIT_USAGE
    assert not (tmp_path / "t.csv").exists()


def test_ci_ss_method(tmp_path, capsys):
    data_file = tmp_path / "data.txt"
    _write_normal_data(data_file, n=144)
    assert main([
        "ci", "--method", "ss", "--estimator", "mean", "--data", str(data_file),
    ]) == EXIT_OK
    line = capsys.readouterr().out.strip()
    assert len(line.split(",")) == 9


def test_ci_ob3_short_prefixes_run_to_completion(tmp_path, capsys):
    data_file = tmp_path / "four.txt"
    data_file.write_text("0.4\n-1.2\n0.9\n0.1\n")
    # m = min_window leaves only the j = m prefix defined, whose deviation is
    # structurally zero: the run completes cleanly with the degenerate-interval
    # code rather than crashing on the undefined prefixes
    code = main([
        "ci", "--method", "ob3", "--m", "2", "--d", "1", "--estimator", "ar1",
        "--data", str(data_file), "--beta-declared", "0",
    ])
    assert code == EXIT_DEGENERATE_INTERVAL
    code = main([
        "ci", "--method", "ob3", "--m", "3", "--d", "1", "--estimator", "ar1",
        "--data", str(data_file), "--beta-declared", "0",
    ])
    assert code == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert len(line.split(",")) == 9


def test_coverage_small_run(capsys):
    code = main([
        "coverage", "--study", "cvar", "--gamma", "0.7", "--n", "120",
        "--method", "ss", "--reps", "200", "--seed", "9",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "study,n,method,beta,d,coverage,half_width,mc_se,na_count,replications,seed"
    fields = out[1].split(",")
    assert fields[0] == "cvar" and fields[1] == "120" and fields[2] == "ss"


def test_coverage_preset_row(capsys):
    code = main(["coverage", "--preset", "cvar70-n1000-ss", "--reps", "150", "--seed", "3"])
    assert code == EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[0] == "cvar" and row[1] == "1000" and row[2] == "ss"


def test_coverage_unknown_study(capsys):
    assert main(["coverage", "--study", "mystery", "--reps", "100"]) == EXIT_USAGE


def test_coverage_unknown_preset():
    assert main(["coverage", "--preset", "nope"]) == EXIT_USAGE


def test_usage_exit_code():
    assert main(["unknown-subcommand"]) == EXIT_USAGE


def _error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if not line.startswith("# config:")]


@pytest.mark.parametrize("bad", [["--betas", "1.5"], ["--reps", "100"], ["--quantiles", "1.5"]])
def test_critvals_bad_values_are_usage_errors(tmp_path, capsys, bad):
    argv = ["critvals", "--betas", "0.25", "--quantiles", "0.95", "--reps", "10000",
            "--grid", "32", "--out", str(tmp_path / "t.csv")]
    flag = argv.index(bad[0])
    argv[flag + 1] = bad[1]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert len(_error_lines(capsys)) == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "bad", [["--alpha", "2"], ["--m", "1"], ["--m", "61"], ["--beta-declared", "1.5"]]
)
def test_ci_bad_values_are_usage_errors(tmp_path, capsys, bad):
    data_file = tmp_path / "data.txt"
    _write_normal_data(data_file, n=60)
    argv = ["ci", "--method", "ob1", "--m", "15", "--d", "1", "--estimator", "mean",
            "--data", str(data_file), "--reps", "10000", "--grid", "32", *bad]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert len(_error_lines(capsys)) == 1


def test_ci_low_reps_is_a_usage_error_before_loading(tmp_path, capsys, monkeypatch):
    def unexpected(path):
        raise AssertionError("the data file was read")

    monkeypatch.setattr(cli, "load_series", unexpected)
    capsys.readouterr()
    assert main([
        "ci", "--method", "ob3", "--m", "250", "--d", "1", "--estimator", "ar1",
        "--data", str(tmp_path / "data.txt"), "--reps", "100",
    ]) == EXIT_USAGE
    assert len(_error_lines(capsys)) == 1


def test_ci_bad_estimator_is_a_usage_error_before_loading(tmp_path, capsys, monkeypatch):
    def unexpected(path):
        raise AssertionError("the data file was read")

    monkeypatch.setattr(cli, "load_series", unexpected)
    capsys.readouterr()
    assert main([
        "ci", "--method", "ob3", "--m", "250", "--d", "1", "--estimator", "quantile:1.5",
        "--data", str(tmp_path / "data.txt"), "--reps", "10000",
    ]) == EXIT_USAGE
    assert len(_error_lines(capsys)) == 1


@pytest.mark.parametrize("missing", ["--m", "--d"])
def test_ci_missing_batch_size_is_a_usage_error_before_loading(tmp_path, capsys, monkeypatch, missing):
    def unexpected(path):
        raise AssertionError("the data file was read")

    monkeypatch.setattr(cli, "load_series", unexpected)
    given = {"--m": "15", "--d": "1"}
    del given[missing]
    capsys.readouterr()
    assert main([
        "ci", "--method", "ob1", "--estimator", "mean", "--data", str(tmp_path / "data.txt"),
        *[arg for item in given.items() for arg in item],
    ]) == EXIT_USAGE
    assert _error_lines(capsys) == ["ci: --m and --d are required for OB methods"]


@pytest.mark.parametrize("table", ["missing", "bad-header", "no-entry"])
def test_ci_unusable_table_is_a_parse_error(tmp_path, capsys, table):
    data_file = tmp_path / "data.txt"
    _write_normal_data(data_file, n=60)
    path = tmp_path / f"{table}.csv"
    if table == "bad-header":
        path.write_text("method,beta\nOB-I,0.25\n")
    elif table == "no-entry":
        only_ob2 = CriticalValueTable()
        only_ob2.add(CriticalValueEntry("ob2", 0.25, INFINITE, 0.975, 2.5, 10_000, 32, 1))
        only_ob2.to_csv(path)
    capsys.readouterr()
    code = main([
        "ci", "--method", "ob1", "--m", "15", "--d", "1", "--estimator", "mean",
        "--data", str(data_file), "--table", str(path),
    ])
    assert code == EXIT_PARSE
    assert len(_error_lines(capsys)) == 1


def test_coverage_zero_reps_is_usage_error(capsys):
    capsys.readouterr()
    assert main(["coverage", "--study", "cvar", "--method", "ss", "--reps", "0"]) == EXIT_USAGE
    assert _error_lines(capsys) == ["coverage: at least one replication is required"]


def test_coverage_bad_alpha_is_a_usage_error_before_drawing(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(limits, "draw_limit_samples", lambda *args: calls.append(args))
    capsys.readouterr()
    assert main(["coverage", "--study", "cvar", "--alpha", "2", "--reps", "10"]) == EXIT_USAGE
    assert _error_lines(capsys) == ["coverage: alpha must lie in (0, 1)"]
    assert calls == []


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", ["critvals", "ci", "coverage"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, command, threads):
    def unexpected(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in [(cli, "critical_values"), (cli, "load_series"),
                         (experiments, "coverage_experiment")]:
        monkeypatch.setattr(module, name, unexpected)
    argv = {
        "critvals": ["--betas", "0.25", "--quantiles", "0.95", "--out", str(tmp_path / "t.csv")],
        "ci": ["--method", "ob1", "--m", "15", "--d", "1", "--estimator", "mean",
               "--data", str(tmp_path / "data.txt")],
        "coverage": ["--study", "cvar", "--reps", "10"],
    }[command]
    capsys.readouterr()
    assert main([command, *argv, "--threads", threads]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"{command}: --threads must be at least 1, got {threads}"
    ]
