import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from domsolve import cli, exact, games, montecarlo, rationalizability
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


ENUMERATE_2X2_STDOUT = json.loads((Path(__file__).parent / "data" / "enumerate_2x2_stdout.json").read_text())


@pytest.mark.parametrize("command", sorted(ENUMERATE_2X2_STDOUT))
def test_enumerate_2x2_stdout_is_pinned(capsys, command):
    # Every class2x2 class in csv and json, and pointrat2x2, byte for byte.
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert out == ENUMERATE_2X2_STDOUT[command]


ENUMERATE_2XN_3XN_STDOUT = json.loads((Path(__file__).parent / "data" / "enumerate_2xn_3xn_stdout.json").read_text())


@pytest.mark.parametrize("command", sorted(ENUMERATE_2XN_3XN_STDOUT))
def test_enumerate_2xn_3xn_stdout_is_pinned(capsys, command):
    # full2xn at n = 6 (six chunks) and n = 7 (79 chunks) and uc3xn at n = 6
    # (six blocks), in csv and json, byte for byte.
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert out == ENUMERATE_2XN_3XN_STDOUT[command]


def test_enumerate_capacity_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "uc3xn", "--n", "9")
    assert code == 3
    assert "capacity" in err


def test_simulate_exact_fallback_capacity_exit_code(capsys, monkeypatch):
    # Every LP check of a 3 x 3 game has k + p = 5 above the cap.
    monkeypatch.setattr(rationalizability, "_PIVOTS_PER_DIMENSION", 0)
    monkeypatch.setattr(rationalizability, "EXACT_GAP_LIMIT", 4)
    code, out, err = run_cli(
        capsys, "simulate", "--metric", "mixed-pi", "--m", "3", "--n", "3", "--samples", "300", "--seed", "1"
    )
    assert code == 3 and not out
    assert err.startswith("capacity error:") and "Traceback" not in err


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


def test_game_generate_draws_from_the_source(capsys):
    # Default flags print the ranks sample_baseline draws; a baseline
    # ordinal game honours --dist, and the payoff-law and class flags are
    # refused where simulate refuses them.
    code, out, _ = run_cli(capsys, "game", "generate", "--m", "3", "--n", "4", "--seed", "5")
    assert code == 0 and json.loads(out) == games.sample_baseline(3, 4, games.Seed(5)).to_json_dict()
    code, out, _ = run_cli(capsys, "game", "generate", "--m", "3", "--n", "4", "--seed", "5", "--dist", "normal")
    u_row, u_col = games.sample_class_batch(games.Seed(5).generator(), 1, 3, 4, distribution="normal")
    want = games.OrdinalBimatrix(games.rank_along(u_row[0], 0).tolist(), games.rank_along(u_col[0], 1).tolist())
    assert code == 0 and json.loads(out) == want.to_json_dict()
    for flags in (
        ("--dims", "2,2,2", "--dist", "normal", "--alpha", "0.5"),
        ("--dims", "2,2,2", "--dist", "normal"),
        ("--dims", "2,2", "--class", "symmetric"),
        ("--dims", "2,2", "--cardinal"),
        ("--m", "2", "--n", "2", "--dist", "normal", "--alpha", "0.5"),
        ("--m", "2", "--n", "2", "--alpha", "2"),
    ):
        code, out, err = run_cli(capsys, "game", "generate", *flags)
        assert (code, out) == (2, "") and err.startswith("error:"), flags


def test_game_generate_capacity_guard(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("drew past the guard")

    for name in ("sample_class", "sample_class_batch", "sample_nplayer"):
        monkeypatch.setattr(cli, name, never)
    for flags in (("--m", "40000", "--n", "40000"), ("--dims", "400,400,400"), ("--m", "3000", "--n", "3000", "--cardinal")):
        code, out, err = run_cli(capsys, "game", "generate", *flags)
        assert (code, out) == (3, "") and "GiB" in err, flags
    # 2000 x 2000 (a measured peak of 0.75 GB as a cardinal game) passes the guard.
    small = games.sample_class(games.GameClass.BASELINE, 2, 2, games.Seed(0))
    monkeypatch.setattr(cli, "sample_class", lambda *args: small)
    code, out, _ = run_cli(capsys, "game", "generate", "--m", "2000", "--n", "2000", "--cardinal")
    assert code == 0 and json.loads(out) == small.to_json_dict()


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
    assert [r["sqrt_n_pr_not_three"] for r in rows[:2]] == ["1.0", repr(math.sqrt(2))]


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
    monkeypatch.setattr(montecarlo, "_mixed_batch_tallies", never)
    monkeypatch.setattr(montecarlo.kernels, "records_law", never)
    monkeypatch.setattr(montecarlo.kernels, "survivors_2xn_batch", never)
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
    # 10^8 samples would hold about 4 GB.
    code, out, err = run_cli(capsys, "diagnose", "clt", "--n", "100", "--samples", "100000000")
    assert (code, out) == (3, "") and "GiB" in err and "Traceback" not in err
    # An --n range is refused before its list of values is built.
    code, out, err = run_cli(capsys, "exact", "solvability", "--n", "1..100000000000")
    assert (code, out) == (3, "") and f"limit of {cli.N_RANGE_LIMIT}" in err
    # A batch count above MAX_BATCHES is refused before the list of batch
    # sizes is built.
    huge = str(10**20)
    for argv in (
        ("simulate", "--metric", "pi", "--m", "2", "--n", "2", "--samples", huge),
        ("simulate", "--metric", "mixed-pi", "--m", "2", "--n", "2", "--samples", huge),
        ("diagnose", "clt", "--n", "100", "--samples", huge),
        ("diagnose", "bounds", "--samples", huge),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "") and f"more than {montecarlo.MAX_BATCHES} batches" in err, argv
    monkeypatch.setattr(exact, "harmonic", never)
    n = str(exact.NO_DOMINATED_3XN_LIMIT + 1)
    code, out, err = run_cli(capsys, "exact", "no-dominated-3xn", "--n", n)
    assert (code, out) == (3, "") and "no_dominated_column_bounds_3xn" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--metric", "pi", "--m", "3", "--n", "3", "--samples", "100"),
        ("diagnose", "bounds", "--samples", "100"),
    ],
    ids=["simulate", "diagnose"],
)
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_are_refused(capsys, monkeypatch, argv, threads):
    def never(*args):
        raise AssertionError("a run was started")

    monkeypatch.setattr(montecarlo, "_run_batches", never)
    code, out, err = run_cli(capsys, *argv, "--threads", threads)
    assert code == 2 and not out and "--threads must be >= 1" in err


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


HUGE = str(10**20)
# Flag combinations a game source refuses (exit 2).
_SIMULATE = ("simulate", "--metric", "pi", "--samples", "50", "--seed", "1")
_GENERATE = ("game", "generate", "--seed", "1")
REFUSED_SOURCES = [
    (*_SIMULATE,),  # neither --m/--n nor --dims
    (*_SIMULATE, "--m", "2"),
    (*_SIMULATE, "--dims", "3"),  # one player
    (*_SIMULATE, "--dims", "2,0"),
    (*_SIMULATE, "--m", "2", "--n", "3", "--class", "symmetric"),
    (*_SIMULATE, "--m", "2", "--n", "3", "--class", "strat-complements-sym"),
    (*_SIMULATE, "--m", "2", "--n", "2", "--dist", "normal", "--alpha", "0.5"),
    (*_GENERATE, "--m", "2", "--n", "3", "--class", "symmetric"),
    (*_GENERATE, "--dist", "normal", "--alpha", "0.5"),
    (*_GENERATE, "--dims", "2,2", "--cardinal"),
] + [
    (*command, "--dims", "2,2", *flags)
    for command in (_SIMULATE, _GENERATE)
    for flags in (("--class", "potential"), ("--dist", "normal"), ("--alpha", "0.5"))
]
CLASSES = [c.value for c in games.GameClass]
# Every class under the uniform law, and the normal law on the baseline.
PAYOFF_LAWS = [("--class", c) for c in CLASSES] + [("--dist", d) for d in games.DISTRIBUTIONS if d != games.UNIFORM]
# Each subcommand with small valid values, and the numeric options to vary;
# --dims and --grid take the value as their first number. Every table,
# metric, class and distribution name is a base.
_BOUNDARY_BASES = (
    [(("exact", table, "--m", "2", "--n", "5"), ("--m", "--n")) for table in _EXACT_TABLES]
    + [(("enumerate", what, "--n", "3"), ("--n",)) for what in ("full2xn", "uc3xn", "class2x2", "pointrat2x2")]
    + [(("enumerate", "class2x2", "--class", c, "--n", "3"), ("--n",)) for c in CLASSES]
    + [
        (
            ("simulate", "--metric", metric, "--m", "2", "--n", "3", "--samples", "200", "--seed", "1",
             "--stream", "0", "--batch-size", "64", "--threads", "1"),
            ("--m", "--n", "--dims", "--alpha", "--samples", "--seed", "--stream", "--batch-size", "--threads"),
        )
        for metric in montecarlo.METRICS
    ]
    + [
        (("simulate", "--metric", "pi", "--m", "3", "--n", "3", *law, "--samples", "200", "--seed", "1"),
         ("--m", "--n", "--alpha"))
        for law in PAYOFF_LAWS
    ]
    + [
        (("game", "generate", "--m", "3", "--n", "3", *law, "--seed", "1"), ("--m", "--n", "--alpha"))
        for law in PAYOFF_LAWS
    ]
    + [
        (
            ("diagnose", what, "--n", "200", "--samples", "200", "--seed", "1", "--stream", "0",
             "--threads", "1", "--grid", "2,5"),
            ("--n", "--samples", "--seed", "--stream", "--threads", "--grid"),
        )
        for what in ("asymptotics", "clt", "bounds")
    ]
    + [
        (
            ("game", "generate", "--m", "2", "--n", "3", "--seed", "1", "--stream", "0"),
            ("--m", "--n", "--dims", "--alpha", "--seed", "--stream"),
        )
    ]
)


def _with_value(base, option, value):
    argv = list(base)
    if option in ("--dims", "--grid"):
        value = f"{value},2"
    if option == "--dims":  # a source takes --dims or --m/--n
        for flag in ("--m", "--n"):
            del argv[argv.index(flag) : argv.index(flag) + 2]
    if option in argv:
        argv[argv.index(option) + 1] = value
    else:
        argv += [option, value]
    return argv


BOUNDARY_CASES = [
    _with_value(base, option, value)
    for base, options in _BOUNDARY_BASES
    for option in options
    for value in ("0", "1", "-1", HUGE, "2.5")
] + [
    # Each crashed, ran out of memory or ran for seconds to hours before it
    # was capped or computed without big integers.
    ["exact", "undominated-bounds", "--m", "172", "--n", "10"],
    ["exact", "row-elim-bound", "--m", "100000", "--n", "10"],
    ["exact", "iterations-mean", "--n", "1000000000"],
    ["exact", "iterations-dist", "--n", "1000000000"],
    ["exact", "undominated-dist", "--n", "1000000"],
    ["exact", "survivors-var", "--n", "10000000"],
    ["exact", "survivors-mean", "--n", "10000000000"],
    ["exact", "undominated-mean", "--m", "5", "--n", "10000000"],
    ["exact", "blocking-event", "--m", "100000", "--n", "5"],
    ["exact", "solvability-lower-bound", "--m", "100000000", "--n", "10"],
    ["exact", "union-lower-bound", "--m", "1000000000", "--n", "10"],
    ["simulate", "--metric", "pi", "--m", "2", "--n", "2", "--samples", HUGE],
    ["diagnose", "clt", "--n", "100", "--samples", "2", "--seed", "1"],
    ["diagnose", "clt", "--n", "100", "--samples", "100000000"],
    ["exact", "solvability", "--n", "1..100000000000"],
] + [list(argv) for argv in REFUSED_SOURCES]
# Seconds per case; every case takes well under 0.2 s.
BOUNDARY_BUDGET = 2.0


class OverBudget(Exception):
    pass


@pytest.mark.parametrize("argv", BOUNDARY_CASES, ids=" ".join)
def test_boundary_values_exit_cleanly(capsys, argv):
    def over_budget(signum, frame):
        raise OverBudget(f"over {BOUNDARY_BUDGET} s")

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.setitimer(signal.ITIMER_REAL, BOUNDARY_BUDGET)
    start = time.perf_counter()
    try:
        try:
            code = main(argv)
        except SystemExit as refused:  # argparse: not an integer
            code = refused.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4) and "Traceback" not in err, err
    assert code == 2 or tuple(argv) not in REFUSED_SOURCES
    assert elapsed < BOUNDARY_BUDGET
