"""End-to-end CLI behavior: output, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from gentropy.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_uniform(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute",
        "--entropy",
        '{"id":"shannon"}',
        "--dist",
        "[0.25,0.25,0.25,0.25]",
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.log(4), abs=1e-14)


def test_compute_with_params(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute",
        "--entropy",
        '{"id":"tsallis","params":{"q":2.0}}',
        "--dist",
        "[0.5,0.5]",
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.5, abs=1e-14)


def test_compute_from_files(tmp_path, capsys):
    entropy_path = tmp_path / "spec.json"
    entropy_path.write_text('{"id": "renyi", "params": {"q": 2.0}}')
    dist_path = tmp_path / "dist.csv"
    dist_path.write_text("0.5\n0.5\n")
    code, out, _ = run_cli(
        capsys, "compute", "--entropy", str(entropy_path), "--dist", str(dist_path)
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.log(2), abs=1e-14)


def test_coarsen(capsys):
    code, out, _ = run_cli(
        capsys,
        "coarsen",
        "--dist",
        "[0.2,0.3,0.5]",
        "--partition",
        '{"blocks":[[0,1],[2]]}',
    )
    assert code == 0
    assert json.loads(out) == {"probs": [0.5, 0.5]}


def test_verify_small_campaign_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--entropy",
        '{"id":"shannon"}',
        "--n",
        "3..5",
        "--cases",
        "20",
        "--seed",
        "0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 2
    assert len(report["entries"]) == 60


def test_verify_counterexample_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--entropy",
        '{"id":"counterexample_HE"}',
        "--n",
        "3..4",
        "--cases",
        "50",
    )
    assert code == 1


def test_verify_needs_specs(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "3..4")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("tolerance", ["inf", "-inf", "nan"])
def test_verify_rejects_non_finite_tolerance_before_running(capsys, monkeypatch, tolerance):
    """A non-finite tolerance is an argument error, not a failed emission."""
    from gentropy import verify

    def refuse(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(verify, "run_monotonicity_campaign", refuse)
    argv = ["verify", "--entropy", '{"id":"shannon"}', "--n", "3", "--cases", "2",
            f"--tolerance={tolerance}"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert "--tolerance: must be positive and finite" in captured.err


def _refuse(*args, **kwargs):
    raise AssertionError("a campaign or axiom probe ran")


def _usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert message in captured.err


def test_main_reuses_one_parser_like_a_fresh_process(capsys):
    """A usage error, then a valid call, print what a fresh process prints.

    The refused call has appended an --entropy already; none of it may
    reach the next call through the parser that ``main`` keeps.
    """
    _usage_error(capsys, ["verify", "--entropy", '{"id":"shannon"}', "--cases", "0"],
                 "--cases: must be a positive integer")
    argv = ["verify", "--entropy", '{"id":"tsallis","params":{"q":2.0}}', "--n", "3",
            "--cases", "2"]
    code, out, _ = run_cli(capsys, *argv)
    fresh = subprocess.run([sys.executable, "-m", "gentropy", *argv], capture_output=True,
                           text=True)
    assert (code, out) == (fresh.returncode, fresh.stdout) == (0, out)
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("seed", ["-1", "-1729"])
def test_negative_seed_is_usage_error_before_running(capsys, monkeypatch, seed):
    """A negative seed is an argument error, not a traceback exiting 1."""
    from gentropy import cli, verify

    monkeypatch.setattr(verify, "run_monotonicity_campaign", _refuse)
    monkeypatch.setattr(cli, "check_basic_axioms", _refuse)
    monkeypatch.setattr(cli, "check_product_composability", _refuse)
    message = "--seed: must be a non-negative integer"
    _usage_error(capsys, ["verify", "--entropy", '{"id":"shannon"}', "--n", "3",
                          f"--seed={seed}"], message)
    _usage_error(capsys, ["axioms", "--entropy", '{"id":"shannon"}', f"--seed={seed}"],
                 message)


@pytest.mark.parametrize("count", ["0", "-2"])
def test_non_positive_counts_are_usage_errors_before_running(capsys, monkeypatch, count):
    """--cases 0 is not an empty passed campaign, nor --samples 0 one probed case."""
    from gentropy import cli, verify

    monkeypatch.setattr(verify, "run_monotonicity_campaign", _refuse)
    monkeypatch.setattr(cli, "check_basic_axioms", _refuse)
    monkeypatch.setattr(cli, "check_product_composability", _refuse)
    message = "must be a positive integer"
    _usage_error(capsys, ["verify", "--entropy", '{"id":"shannon"}', "--n", "3",
                          f"--cases={count}"], "--cases: " + message)
    _usage_error(capsys, ["axioms", "--entropy", '{"id":"shannon"}',
                          f"--samples={count}"], "--samples: " + message)


@pytest.mark.parametrize("n_range", ["3..", "a", "5..3"])
def test_malformed_or_empty_n_is_usage_error_before_running(capsys, monkeypatch, n_range):
    """A traceback would exit 1, the code for violations; 5..3 is no vacuous pass."""
    from gentropy import verify

    monkeypatch.setattr(verify, "run_monotonicity_campaign", _refuse)
    _usage_error(capsys, ["verify", "--entropy", '{"id":"shannon"}', f"--n={n_range}"],
                 "argument --n: ")


@pytest.mark.parametrize("argv, message", [
    (("compute", "--dist", "[0.5, 0.5"), "bad distribution JSON"),
    (("compute", "--dist", '{"probs": [0.5, 0.5}'), "bad distribution JSON"),
    (("compute", "--dist", '["a", 0.5]'), "probs must be numbers"),
    (("coarsen", "--dist", "[0.5, 0.5]", "--partition", '{"blocks": [[0], [1]]'),
     "bad partition JSON"),
    (("coarsen", "--dist", "[0.2, 0.3, 0.5]", "--partition", '{"blocks": [[0, 1.5], [2]]}'),
     "integer indices"),
    (("compute", "--dist", '["0.5", "0.5"]'), "probs must be numbers"),
])
def test_malformed_inputs_are_usage_errors(capsys, argv, message):
    if argv[0] == "compute":
        argv += ("--entropy", '{"id":"shannon"}')
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_replay_prints_the_campaign_entry_and_its_verdict(capsys):
    """The counterexample's worst case replays to its entry, a violation (exit 1)."""
    selection = ("--entropy", '{"id":"shannon"}', "--entropy", '{"id":"counterexample_HE"}',
                 "--seed", "3")
    code, out, _ = run_cli(capsys, "verify", *selection, "--n", "4..5", "--cases", "6")
    assert code == 1
    report = json.loads(out)
    worst = report["summary"][1]["worst"]
    assert worst["spec_index"] == 1
    code, out, _ = run_cli(capsys, "replay", *selection, "--spec-index", "1",
                           "--n", str(worst["n"]), "--case", str(worst["index"]))
    assert code == 1
    entry = json.loads(out)
    assert not entry["passed"] and entry["margin"] == report["summary"][1]["min_margin"]
    assert entry in report["entries"]


@pytest.mark.parametrize("coordinates, message", [
    (("--spec-index", "1", "--n", "4", "--case", "0"), "spec index 1 is out of range"),
    (("--spec-index", "0", "--n", "2", "--case", "0"), "n >= 3"),
])
def test_replay_rejects_coordinates_outside_the_campaign(capsys, coordinates, message):
    code, out, err = run_cli(capsys, "replay", "--entropy", '{"id":"shannon"}', *coordinates)
    assert code == 2 and out == ""
    assert message in err


def test_replay_needs_specs_and_a_non_negative_case(capsys):
    code, out, err = run_cli(capsys, "replay", "--spec-index", "0", "--n", "3", "--case", "0")
    assert code == 2 and out == ""
    assert "replay needs --all or at least one --entropy" in err
    _usage_error(capsys, ["replay", "--all", "--spec-index", "0", "--n", "3", "--case=-1"],
                 "--case: must be a non-negative integer")


def test_axioms_with_no_admissible_sample_fails(capsys):
    """delta = 3 exceeds 1 + ln n for every sampled n = 2..6: nothing is probed."""
    code, out, _ = run_cli(
        capsys, "axioms", "--entropy", '{"id":"s_delta","params":{"delta":3.0}}'
    )
    residuals = json.loads(out)["residuals"]
    assert [r["axiom_id"] for r in residuals] == [
        "positivity", "expandability", "symmetry", "continuity"
    ]
    assert all(r["cases_run"] == 0 and r["worst_case"] is None for r in residuals)
    assert code == 1


def test_axioms_counts_only_admitted_samples(capsys):
    """delta = 2 rejects n = 2 only, so a fifth of the samples are skipped."""
    code, out, _ = run_cli(
        capsys, "axioms", "--entropy", '{"id":"s_delta","params":{"delta":2.0}}',
        "--samples", "100",
    )
    assert code == 0
    assert all(r["cases_run"] == 80 for r in json.loads(out)["residuals"])


def test_verify_byte_identical_runs(capsys):
    args = ("verify", "--all", "--n", "3..4", "--cases", "3", "--seed", "0")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_classify_shannon_passes(capsys):
    code, out, _ = run_cli(capsys, "classify", "--entropy", '{"id":"shannon"}')
    assert code == 0
    checks = {entry["check"]: entry for entry in json.loads(out)}
    assert checks["slope_condition"]["passed"]


def test_classify_counterexample_fails(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--entropy", '{"id":"counterexample_HE"}'
    )
    assert code == 1
    checks = {entry["check"]: entry for entry in json.loads(out)}
    witness = checks["slope_condition"]["witness"]
    assert witness["slope_at_x"] == pytest.approx(1.0, abs=1e-6)
    assert witness["slope_at_x_plus_p"] == pytest.approx(2.0, abs=1e-6)


def test_classify_output_is_strict_json_when_phi_undefined_at_zero(capsys):
    """The unstable group_entropy sample has no phi(0): null, not Infinity."""
    spec = '{"id":"group_entropy","params":{"coeffs":[-1.0,1.0],"l":-1,"m":0,"sigma":0.5}}'
    code, out, _ = run_cli(capsys, "classify", "--entropy", spec)
    assert code == 1

    def reject(token):
        raise AssertionError(f"bare {token} in classify output")

    checks = {entry["check"]: entry for entry in json.loads(out, parse_constant=reject)}
    slope = checks["slope_condition"]
    assert slope["max_violation"] is None
    assert slope["detail"]["component_zero_deviation"] is None
    assert slope["detail"]["component_zero_ok"] is False


def test_axioms_shannon(capsys):
    code, out, _ = run_cli(
        capsys, "axioms", "--entropy", '{"id":"shannon"}', "--samples", "100"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 0 and payload["spec"] == "shannon"
    rows = {entry["axiom_id"]: entry for entry in payload["residuals"]}
    assert rows["product_additivity"]["max_abs_residual"] <= 1e-10


def test_counterexample_exit_semantics(capsys):
    code, out, err = run_cli(capsys, "counterexample")
    assert code == 1  # violations present by design, flagged loudly
    assert "expected=true" in err
    assert "1.3" in out and "1.5" in out
    code, _, _ = run_cli(capsys, "counterexample", "--expect-violation")
    assert code == 0


def test_counterexample_curve_csv(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys, "counterexample", "--expect-violation", "--curve", str(curve)
    )
    assert code == 0
    lines = curve.read_text().strip().splitlines()
    assert lines[0] == "x,phi"
    assert len(lines) == 402
    xs, phis = zip(*(map(float, line.split(",")) for line in lines[1:]))
    assert phis[xs.index(0.25)] == pytest.approx(0.25, abs=1e-12)
    assert phis[xs.index(0.5)] == pytest.approx(0.75, abs=1e-12)
    assert max(phis) <= 0.75 and min(phis) >= 0.0


def test_partitions_json(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == payload["bell"] == 15
    assert len(payload["partitions"]) == 15


def test_partitions_csv(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--n", "3", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 6  # header + Bell(3)


def test_bad_entropy_json_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "compute", "--entropy", "{not json", "--dist", "[1.0]")
    assert code == 2
    assert "error" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--entropy", "/nonexistent/spec.json", "--dist", "[1.0]"
    )
    assert code == 2
    assert "/nonexistent/spec.json" in err


def test_unknown_subcommand_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "gentropy", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_module_entry_point_matches_api():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "gentropy",
            "compute",
            "--entropy",
            '{"id":"shannon"}',
            "--dist",
            "[0.5,0.5]",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(math.log(2), abs=1e-14)
