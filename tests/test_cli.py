import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from domsolve import exact, games, montecarlo
from domsolve.cli import _EXACT_TABLES, _decimal, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_exact_solvability_range(capsys):
    code, out, _ = run_cli(capsys, "exact", "solvability", "--n", "1..5")
    assert code == 0
    rows = parse_csv(out)
    assert [r["value"] for r in rows] == ["1", "3/4", "5/8", "35/64", "63/128"]
    assert rows[1]["decimal"] == "0.75"


def test_exact_iterations_mean(capsys):
    code, out, _ = run_cli(capsys, "exact", "iterations-mean", "--n", "2")
    rows = parse_csv(out)
    assert code == 0 and rows[0]["value"] == "5/3"


def test_exact_stirling(capsys):
    code, out, _ = run_cli(capsys, "exact", "stirling", "--n", "4")
    rows = parse_csv(out)
    assert [r["value"] for r in rows] == ["6", "11", "6", "1"]


def test_exact_stirling_beyond_float_range(capsys):
    code, out, _ = run_cli(capsys, "exact", "stirling", "--n", "1000")
    rows = parse_csv(out)
    assert code == 0 and [int(r["k"]) for r in rows] == list(range(1, 1001))
    assert int(rows[0]["value"]) == math.factorial(999)
    assert rows[0]["decimal"] == "4.0238726007709377e+2564"
    assert rows[-1]["decimal"] == "1.0"


def test_decimal_renders_exact_values():
    assert _decimal(Fraction(3, 4)) == "0.75"
    assert _decimal(0) == "0.0"
    assert _decimal(10**400 - 1) == "1.0000000000000000e+400"  # the rounding carries
    assert _decimal(-(10**400) * 7 // 3) == "-2.3333333333333333e+400"
    assert _decimal(Fraction(1, 10**400)) == "1.0000000000000000e-400"
    assert _decimal(Fraction(5, 10**310)) == "5.0000000000000000e-310"  # a subnormal float
    assert _decimal(Fraction(2, 3) * 10**308) == repr(2 / 3 * 1e308)  # a normal float
    assert _decimal(Fraction(2, 3) * 10**309) == "6.6666666666666667e+308"


def test_exact_fractions_beyond_the_int_string_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run_cli(capsys, "exact", "survivors-dist", "--n", "400")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    rows = parse_csv(out)
    assert code == 0 and len(rows) == 400
    assert max(len(r["value"]) for r in rows) > 640
    assert sum(Fraction(r["value"]) for r in rows) == 1


def valued(keys, value, decimal=True):
    return [*keys, value, _decimal(value)] if decimal else [*keys, value]


def iterations_dist_row(n):
    probs = exact.iteration_distribution_2xn(n)
    return [n, *probs, *map(_decimal, probs)]


def no_dominated_3xn_row(n):
    lo, hi = exact.no_dominated_column_bounds_3xn(n)
    return [n, lo, _decimal(lo), hi]


# Per table of `domsolve exact`, in the order of its choices: the CSV header
# and the rows for one (m, n).
EXACT_TABLES = {
    "solvability": (
        ["n", "value", "decimal"],
        lambda m, n: [valued([n], exact.solvable_probability_2xn(n))],
    ),
    "iterations-dist": (
        ["n", "pr_1_round", "pr_2_rounds", "pr_3_rounds", "decimal_1", "decimal_2", "decimal_3"],
        lambda m, n: [iterations_dist_row(n)],
    ),
    "iterations-mean": (
        ["n", "value", "decimal"],
        lambda m, n: [valued([n], exact.mean_iterations_2xn(n))],
    ),
    "undominated-dist": (
        ["n", "k", "value", "decimal"],
        lambda m, n: [
            valued([n, k], p) for k, p in enumerate(exact.undominated_distribution_2xn(n), 1)
        ],
    ),
    "survivors-dist": (
        ["n", "k", "value", "decimal"],
        lambda m, n: [
            valued([n, k], p) for k, p in enumerate(exact.survivor_distribution_2xn(n), 1)
        ],
    ),
    "survivors-mean": (
        ["n", "value", "decimal"],
        lambda m, n: [valued([n], exact.mean_survivors_2xn(n))],
    ),
    "survivors-var": (
        ["n", "value", "decimal"],
        lambda m, n: [valued([n], exact.var_survivors_2xn(n))],
    ),
    "stirling": (
        ["n", "k", "value", "decimal"],
        lambda m, n: [valued([n, k], s) for k, s in enumerate(exact.stirling_row(n), 1)],
    ),
    "undominated-mean": (
        ["m", "n", "value", "decimal"],
        lambda m, n: [valued([m, n], exact.mean_undominated(m, n))],
    ),
    "undominated-bounds": (
        ["m", "n", "lower", "upper"],
        lambda m, n: [[m, n, *exact.undominated_mean_bounds(m, n)]],
    ),
    "union-lower-bound": (
        ["m", "n", "value"],
        lambda m, n: [valued([m, n], exact.undominated_fraction_lower_bound(m, n), False)],
    ),
    "blocking-event": (
        ["m", "j", "value", "decimal"],
        lambda m, n: [valued([m, n], exact.blocking_event_probability(m, n))],
    ),
    "row-elim-bound": (
        ["m", "n", "value"],
        lambda m, n: [valued([m, n], exact.row_elimination_probability_bound(m, n), False)],
    ),
    "solvability-lower-bound": (
        ["m", "n", "value", "decimal"],
        lambda m, n: [valued([m, n], exact.solvable_probability_lower_bound(m, n))],
    ),
    "point-rat-unique": (
        ["m", "n", "value", "decimal"],
        lambda m, n: [valued([m, n], exact.unique_point_rationalizable_probability(m, n))],
    ),
    "no-dominated-3xn": (
        ["n", "lower", "lower_decimal", "upper"],
        lambda m, n: [no_dominated_3xn_row(n)],
    ),
}


def test_exact_tables_are_the_cli_choices():
    assert list(_EXACT_TABLES) == list(EXACT_TABLES)


@pytest.mark.parametrize("table", list(EXACT_TABLES))
def test_exact_table_matches_exact_functions(capsys, table):
    header, rows = EXACT_TABLES[table]
    code, out, _ = run_cli(capsys, "exact", table, "--n", "2..4", "--m", "3")
    assert code == 0
    lines = list(csv.reader(io.StringIO(out)))
    assert lines[0] == header
    want = [row for n in (2, 3, 4) for row in rows(3, n)]
    assert lines[1:] == [[repr(v) if isinstance(v, float) else str(v) for v in row] for row in want]


def test_enumerate_uc3xn(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "uc3xn", "--n", "6")
    rows = parse_csv(out)
    assert [r["count"] for r in rows] == [
        "14400",
        "63228",
        "134909",
        "164193",
        "109959",
        "31711",
    ]


def test_enumerate_full2xn(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "full2xn", "--n", "3")
    assert code == 0
    assert "5/8" in out


def test_enumerate_full2xn_n7_equals_exact(capsys):
    n = 7
    solvable = exact.solvable_probability_2xn(n)
    want = [
        {"n": n, "states": math.factorial(n) * 2**n, "solvable": solvable, "solvable_decimal": _decimal(solvable)}
    ]
    for name, dist in (
        ("iterations", exact.iteration_distribution_2xn(n)),
        ("undominated", exact.undominated_distribution_2xn(n)),
        ("survivors", exact.survivor_distribution_2xn(n)),
    ):
        want += [{"n": n, name: k, "probability": p} for k, p in enumerate(dist, start=1)]
    # Reduced Fractions print canonically, so equal strings are equal values.
    code, out, _ = run_cli(capsys, "enumerate", "full2xn", "--n", str(n), "--format", "json")
    assert code == 0
    assert json.loads(out) == json.loads(json.dumps(want, default=str))  # ints stay numbers
    code, out, _ = run_cli(capsys, "enumerate", "full2xn", "--n", str(n))
    assert code == 0
    fields = {key for row in want for key in row}
    assert parse_csv(out) == [{key: str(row.get(key, "")) for key in fields} for row in want]


def test_enumerate_pointrat(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "pointrat2x2")
    rows = parse_csv(out)
    assert rows[0]["unique_point_rationalizable"] == "3/4"


def test_enumerate_capacity_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "uc3xn", "--n", "9")
    assert code == 3
    assert "capacity" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "exact", "solvability", "--n", "5..1")
    assert code == 2
    code, _, err = run_cli(capsys, "simulate", "--metric", "pi", "--samples", "10")
    assert code == 2 and "--m and --n" in err


@pytest.mark.parametrize("metric", ["pi", "mixed-pi"])
def test_simulate_rejects_crra_on_normal_payoffs(capsys, monkeypatch, metric):
    # CRRA needs nonnegative payoffs: refused when the source is built,
    # before anything is drawn.
    def never(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(games, "sample_class_batch", never)
    code, out, err = run_cli(
        capsys,
        "simulate", "--metric", metric, "--m", "3", "--n", "3", "--dist", "normal",
        "--alpha", "0.5", "--samples", "300", "--seed", "1",
    )
    assert code == 2 and not out and "nonnegative payoffs" in err


def test_simulate_csv_schema_and_determinism(capsys):
    argv = (
        "simulate",
        "--metric",
        "pi",
        "--m",
        "2",
        "--n",
        "5",
        "--samples",
        "20000",
        "--seed",
        "7",
    )
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = parse_csv(out1)
    for field in (
        "metric",
        "class",
        "m",
        "n",
        "distribution",
        "alpha",
        "samples",
        "estimate",
        "se",
        "conditioning_count",
        "seed",
    ):
        assert field in rows[0]
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_simulate_threads_do_not_change_results(capsys):
    base = (
        "simulate", "--metric", "cond-iterations", "--m", "3", "--n", "3",
        "--samples", "30000", "--seed", "11",
    )
    _, out1, _ = run_cli(capsys, *base, "--threads", "1")
    _, out16, _ = run_cli(capsys, *base, "--threads", "16")
    assert out1 == out16


def test_simulate_nplayer(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--metric", "pi", "--dims", "2,4,1",
        "--samples", "20000", "--seed", "3",
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["dims"] == "2,4,1"
    assert 0.4 < float(rows[0]["estimate"]) < 0.75


def test_simulate_nplayer_survivor_metrics(capsys):
    for metric in ("survivor-mean", "survivor-dist"):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--metric", metric, "--dims", "2,2,2",
            "--samples", "100", "--seed", "1",
        )
        assert code == 0 and parse_csv(out)


def test_simulate_nplayer_mixed_and_best_response_metrics(capsys):
    for metric in ("mixed-pi", "point-rat-unique", "pure-nash-dist"):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--metric", metric, "--dims", "3,3,3",
            "--samples", "300", "--seed", "2",
        )
        assert code == 0 and parse_csv(out)[0]["dims"] == "3,3,3"


def test_simulate_nplayer_refuses_payoff_law_flags(capsys):
    base = ("simulate", "--metric", "pi", "--dims", "2,2,2", "--samples", "200", "--seed", "1")
    for flags in (("--dist", "normal", "--alpha", "0.5"), ("--alpha", "0.5"), ("--class", "potential")):
        code, out, err = run_cli(capsys, *base, *flags)
        assert (code, out) == (2, "") and "uniform baseline" in err


def test_simulate_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--metric", "pi", "--m", "2", "--n", "3",
        "--samples", "5000", "--seed", "1", "--format", "json",
    )
    data = json.loads(out)
    assert data[0]["metric"] == "pi"


def test_game_generate_and_trace_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "game", "generate", "--m", "3", "--n", "3", "--seed", "5")
    assert code == 0
    game_path = tmp_path / "g.json"
    game_path.write_text(out)
    data = json.loads(out)
    from domsolve.games import game_from_json_dict

    assert game_from_json_dict(json.loads(json.dumps(data))) == game_from_json_dict(data)
    code, out, _ = run_cli(capsys, "game", "trace", "--game", str(game_path))
    assert code == 0
    trace = json.loads(out)
    assert "solvable" in trace and "rounds" in trace


def test_game_trace_closes_the_game_file(tmp_path):
    game_path = tmp_path / "g.json"
    game_path.write_text('{"type": "ordinal", "row_ranks": [[1], [2]], "col_ranks": [[1], [1]]}')
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "domsolve.cli", "game", "trace", "--game", str(game_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(done.stdout)["surviving"] == [[1], [0]]
    assert "ResourceWarning" not in done.stderr


@pytest.mark.parametrize(
    "text",
    [
        '{"type": "ordinal"}',
        "[1, 2]",
        "null",
        '{"type": "cardinal", "u_row": [], "u_col": []}',
        '{"type": "ordinal", "row_ranks": [1, 2], "col_ranks": [[1], [1]]}',
        '{"type": "ordinal", "row_ranks": [[1e400]], "col_ranks": [[1]]}',
        '{"type": "tensor", "dims": 2, "ranks": []}',
    ],
)
def test_game_trace_rejects_malformed_json(capsys, tmp_path, text):
    game_path = tmp_path / "g.json"
    game_path.write_text(text)
    code, out, err = run_cli(capsys, "game", "trace", "--game", str(game_path))
    assert code == 2 and not out and err.startswith("error:")


def test_game_generate_cardinal_with_alpha(capsys):
    code, out, _ = run_cli(
        capsys,
        "game", "generate", "--m", "2", "--n", "2", "--seed", "5",
        "--cardinal", "--alpha", "0.41",
    )
    data = json.loads(out)
    assert data["type"] == "cardinal"
    assert all(0 < x < 1 for row in data["u_row"] for x in row)


def test_game_generate_nplayer(capsys):
    code, out, _ = run_cli(capsys, "game", "generate", "--dims", "2,2,2", "--seed", "5")
    data = json.loads(out)
    assert data["type"] == "tensor" and data["dims"] == [2, 2, 2]


def test_diagnose_asymptotics(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "asymptotics", "--n", "64..66")
    rows = parse_csv(out)
    assert code == 0 and len(rows) == 3
    assert float(rows[0]["sqrt_n_solvable"]) == pytest.approx(1.1262, abs=1e-3)


def test_diagnose_asymptotics_from_n1(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "asymptotics", "--n", "1..3")
    rows = parse_csv(out)
    assert code == 0 and [r["n"] for r in rows] == ["1", "2", "3"]
    assert float(rows[0]["sqrt_n_pr_two_rounds"]) == 0.0


def test_diagnose_clt(capsys):
    code, out, _ = run_cli(
        capsys, "diagnose", "clt", "--n", "200", "--samples", "5000", "--seed", "2"
    )
    rows = parse_csv(out)
    assert code == 0 and float(rows[0]["ks_distance"]) < 0.25


def test_diagnose_bounds(capsys):
    code, out, _ = run_cli(
        capsys,
        "diagnose", "bounds", "--grid", "2,10;3,50", "--samples", "20000", "--seed", "2",
    )
    rows = parse_csv(out)
    assert code == 0
    assert [r["pi_ok"] for r in rows] == ["True", "True"]


def test_capacity_guards_exit_before_allocating(capsys, monkeypatch):
    # Each is refused by an estimate or a bound checked before any draw; the
    # stubs keep a missing guard from allocating.
    def never(*args):
        raise AssertionError("work started past the guard")

    monkeypatch.setattr(montecarlo, "_pure_batch_tallies", never)
    monkeypatch.setattr(montecarlo.kernels, "records_law", never)
    for n in ("100000", "30000"):
        code, _, err = run_cli(
            capsys, "simulate", "--metric", "pi", "--m", "2", "--n", n, "--samples", "10"
        )
        assert code == 3
    assert "GiB" in err
    code, _, err = run_cli(
        capsys,
        "simulate", "--metric", "pi", "--m", "1", "--n", "40000", "--samples", "1",
        "--batch-size", "1",
    )
    assert code == 3 and "int16" in err
    code, _, err = run_cli(capsys, "diagnose", "clt", "--n", "1000000", "--samples", "10")
    assert code == 3 and "clt_check" in err


def test_config_precedence(capsys, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"samples": 5000, "seed": 9}))
    code, out, _ = run_cli(
        capsys,
        "--config", str(config),
        "simulate", "--metric", "pi", "--m", "2", "--n", "3", "--seed", "4",
    )
    rows = parse_csv(out)
    assert rows[0]["samples"] == "5000"  # from config
    assert rows[0]["seed"] == "4"  # flag wins over config
    config.write_text(json.dumps({"bogus_key": 1}))
    code, _, err = run_cli(
        capsys,
        "--config", str(config),
        "simulate", "--metric", "pi", "--m", "2", "--n", "3",
    )
    assert code == 2 and "bogus_key" in err
    config.write_text("5")
    code, _, err = run_cli(
        capsys,
        "--config", str(config),
        "simulate", "--metric", "pi", "--m", "2", "--n", "3",
    )
    assert code == 2 and "JSON object" in err


@pytest.mark.parametrize("size", ["0", "-7"])
def test_simulate_rejects_batch_size_below_one(capsys, size):
    code, out, err = run_cli(
        capsys,
        "simulate", "--metric", "pi", "--m", "3", "--n", "3", "--samples", "100",
        "--seed", "1", "--batch-size", size,
    )
    assert code == 2 and not out and "batch_size must be >= 1" in err


def test_out_file_and_env_dir(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "exact", "solvability", "--n", "1..3", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert "3/4" in out_path.read_text()
    monkeypatch.setenv("DOMSOLVE_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "exact", "solvability", "--n", "1..3", "--out", "env.csv")
    assert code == 0
    assert (tmp_path / "env.csv").exists()
