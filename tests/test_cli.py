"""End-to-end CLI behavior: output, exit codes, determinism."""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import gentropy
from gentropy import axioms, cli
from gentropy.catalog import EntropySpec, default_campaign_specs, spec_from_json, spec_to_json
from gentropy.cli import _print_json, build_parser, main
from gentropy.distributions import sample_dirichlet_uniform
from gentropy.partitions import bell_number, enumerate_partitions
from gentropy.verify import corollary1_check, emit_report, exhaustive_lattice_check


# A child ``python -m gentropy`` imports the package this process imported:
# PYTHONPATH starts with the directory that holds it.
_PACKAGE_ROOT = str(Path(gentropy.__file__).resolve().parent.parent)
_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")))),
}


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


_UNDERFLOW = "the component sum is 0.0 (an underflow), and its log is not finite"
_UNDERFLOWING = ['{"id":"renyi","params":{"q":944}}', '{"id":"sharma_mittal_rs","params":{"r":1000,"s":2}}']


@pytest.mark.parametrize("entropy", _UNDERFLOWING, ids=["renyi", "sharma_mittal_rs"])
def test_compute_on_an_underflowed_power_sum_is_a_usage_error(capsys, entropy):
    """A power sum that underflows to 0.0 under a log outer map is a typed
    error (exit 2), not a math domain error's traceback."""
    code, out, err = run_cli(capsys, "compute", "--entropy", entropy, "--dist", "[0.25,0.25,0.25,0.25]")
    assert (code, out, err) == (2, "", f"error: {_UNDERFLOW}\n")


def test_verify_skips_and_counts_underflowed_cases(capsys):
    code, out, _ = run_cli(capsys, "verify", "--entropy", _UNDERFLOWING[0], "--n", "4")
    (summary,) = json.loads(out)["summary"]
    assert code == 0 and summary["violations"] == 0
    assert 0 < summary["skipped"] < summary["cases"]
    assert summary["skip_reasons"] == {f"NonFinite: {_UNDERFLOW}": summary["skipped"]}


# Bracketed power sums that reach 0.0, where h' is undefined
_UNMAPPED = [
    '{"id":"renyi","params":{"q":300}}', _UNDERFLOWING[0],
    '{"id":"mathai_Mq_star","params":{"q":-900}}',
    '{"id":"nath","params":{"alpha":900,"lambda":-1}}', _UNDERFLOWING[1],
]


@pytest.mark.parametrize(
    "entropy", _UNMAPPED, ids=[spec_from_json(entropy).label() for entropy in _UNMAPPED]
)
def test_classify_judges_grid_points_where_h_prime_fails(capsys, entropy):
    """h' raised out of the outer-map pairing (a traceback, exit 1) at these
    admitted specs.  The pairing judges such a point: not certified, written
    null in strict JSON; the exit code is the slope-or-pairing rule's."""
    code, out, err = run_cli(capsys, "classify", "--entropy", entropy)

    def reject(token):
        raise AssertionError(f"bare {token} in classify output")

    slope, _, pairing = json.loads(out, parse_constant=reject)
    assert (code, err) == (0 if slope["passed"] else 1, "")
    assert not pairing["passed"] and pairing["witness"]["slope_at_x_plus_p"] is None


@pytest.mark.parametrize("argv", [
    # h' overflows at a continuity case's tiny power sum
    ("axioms", "--entropy", _UNDERFLOWING[1]),
    # h's expm1 overflows: m = 4002 times the log of the power sum 1.71
    ("compute", "--entropy", '{"id":"sharma_mittal_rs","params":{"r":0.5,"s":-2000}}',
     "--dist", "[0.25,0.25,0.5]"),
], ids=["axioms", "compute"])
def test_an_outer_map_overflow_is_a_usage_error(capsys, argv):
    """An error line and exit 2, not an OverflowError."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "math range error" in err


def test_axioms_on_a_power_sum_whose_derivative_underflows_is_a_usage_error(capsys):
    """sigma = 5e-324 gives the terms -0.5 x**5e-324 and 0.5 x**-5e-324, whose w * e
    round to 0.0: phi' would have no term left (a TypeError, exit 3).  The record
    refuses them at construction, naming the underflow."""
    params = '{"l":-1,"m":1,"sigma":5e-324,"coeffs":[-0.5,0.0,0.5]}'
    entropy = f'{{"id":"group_entropy","params":{params}}}'
    code, out, err = run_cli(capsys, "axioms", "--entropy", entropy, "--samples", "1")
    assert (code, out) == (2, "")
    assert err == "error: phi' would lose the term -0.5 x**5e-324: w * e underflows to 0.0\n"


def test_compute_on_an_infinite_outer_constant_is_a_usage_error(capsys):
    """sharma_mittal_rs(r=1+2**-40, s=1e300) has the outer constant m = (s-1)/(r-1) = inf,
    and evaluate gave NaN on [1.0]; [0.5, 0.5] still exited 0.  The record refuses it."""
    entropy = '{"id":"sharma_mittal_rs","params":{"r":1.0000000000009095,"s":1e300}}'
    code, out, err = run_cli(capsys, "compute", "--entropy", entropy, "--dist", "[0.5,0.5]")
    assert (code, out) == (2, "")
    assert err.startswith("error: the form _PowerSum(terms=((1.0, 1.0000000000009095),), ")
    assert err.endswith(" outer=('expm1_log', inf, -1e+300), zero_safe=True, phi_at_zero=0.0)"
                        " reads inf, which is not finite\n")


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


def test_an_internal_error_exits_3_not_1(capsys, monkeypatch):
    """An exception that is no ``GentropyError`` or ``OSError`` is a fault of the
    program: exit 3 with its traceback, never 1, the code for violations found."""
    from gentropy import verify

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "run_monotonicity_campaign", crash)
    code, out, err = run_cli(capsys, "verify", "--entropy", '{"id":"shannon"}', "--n", "3")
    assert (code, out) == (3, "")
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().endswith("internal error: RuntimeError: boom")


@pytest.mark.parametrize("spec_id", ['["x"]', '{"a": 1}'])
@pytest.mark.parametrize("command", ["compute", "verify", "classify"])
def test_a_non_string_entropy_id_is_an_unknown_id_not_an_internal_error(capsys, command, spec_id):
    """An unhashable id is refused as an unknown one (exit 2), not a ``TypeError`` (exit 3)."""
    argv = [command, "--entropy", f'{{"id": {spec_id}}}']
    argv += ["--dist", "[0.5, 0.5]"] if command == "compute" else []
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unknown entropy id {json.loads(spec_id)!r}")


@pytest.mark.parametrize("option", ["--entropy", "--dist", "--partition"])
def test_an_input_file_that_is_not_utf8_is_a_read_error(capsys, tmp_path, option):
    """Undecodable bytes in an input file exit 2 as a read error, not 3."""
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe")
    argv = {"--entropy": ["compute", "--entropy", str(path), "--dist", "[0.5, 0.5]"],
            "--dist": ["compute", "--entropy", '{"id": "shannon"}', "--dist", str(path)],
            "--partition": ["coarsen", "--dist", "[0.5, 0.5]", "--partition", str(path)]}[option]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode")


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
                           text=True, env=_CHILD_ENV)
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
    # a probe too large to fit in memory is refused, not a numpy traceback (exit 1)
    (("classify", "--grid-density", "1000000"), "'grid_density' must be <= 2000"),
    (("axioms", "--samples", "1000000000"), "'samples' must be <= 1000000"),
])
def test_malformed_inputs_are_usage_errors(capsys, argv, message):
    if argv[0] != "coarsen":
        argv += ("--entropy", '{"id":"shannon"}')
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("family", ["universal_group", "group_entropy"])
@pytest.mark.parametrize("coeffs", ['"abc"', '"ab"', "5", '[1, "x"]', "[true]", "[1e400]"])
def test_malformed_coeffs_are_usage_errors(capsys, family, coeffs):
    """Each entry is a finite number, not a bool; exit 1 would mean a violation."""
    params = '"l": -1, "m": 0, "sigma": 0.5, ' if family == "group_entropy" else ""
    entropy = f'{{"id": "{family}", "params": {{{params}"coeffs": {coeffs}}}}}'
    code, out, err = run_cli(capsys, "compute", "--entropy", entropy, "--dist", "[0.5, 0.5]")
    assert code == 2 and out == ""
    assert "'coeffs'" in err


def test_s_cd_outside_its_gamma_domain_is_a_usage_error_not_a_vacuous_pass(capsys):
    """With d <= -1 every evaluation would be skipped and verify would exit 0."""
    entropy = '{"id":"s_cd","params":{"c":0.5,"d":-2}}'
    code, out, err = run_cli(capsys, "verify", "--entropy", entropy, "--n", "3..4", "--cases", "2")
    assert code == 2 and out == ""
    assert "d > -1" in err


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


class _HashingStdout(io.TextIOBase):
    """A stdout that keeps only the sha256 of the UTF-8 bytes written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.sha.update(text.encode("utf-8"))
        return len(text)


# The stdout of the north-star command and of the counterexample suite, pinned.
# A change that alters these report bytes on purpose updates the digest here
# and says so in CHANGES.md.
_PINNED_STDOUT = (
    (("verify", "--all", "--seed", "0"), 0,
     "0ace087e68e72d35c7c7e257ccbb9f492601e648b62dc0c67a722efcedb5d441"),
    (("counterexample", "--format", "json"), 1,
     "a638873d39a01a5f065e8aed37aba1cc7c0ef183f7238d639922926f253c3b0d"),
    (("counterexample", "--format", "markdown"), 1,
     "48d55167cdb7fce514c46a64b22dcc7d2cdb8d8ce6136d0dcbdcb60897ea2add"),
    (("counterexample", "--format", "csv"), 1,
     "0371300c211977807c15a5e9607a1398ec3a9af938cd3913b788efa1cb73ec2d"),
    # the campaign benchmark's unit shape at its held-out seed, with n = 9..12 added
    (("verify", "--all", "--n", "3..12", "--cases", "5", "--seed", "1729000"), 0,
     "4a7c92b78c890af29cb4bded57d8f2492cdadb73c73e276b42d8e81f6d8b9b4a"),
    # dimensions above 12, where label rows are padded to a width of 40, and
    # across 256, where they leave uint8
    (("verify", "--all", "--n", "13,20,40", "--cases", "3", "--seed", "5"), 0,
     "2c7f09532809534e3faa98aaac1d795626f1aeb4ff9318b10e5eecdb21a3a208"),
    (("verify", "--all", "--n", "255..257", "--cases", "1", "--seed", "5"), 0,
     "43d61174d4a4dd3f3c28dc156af3413f3b4bec8a60f241516dd8aaba27937061"),
    # n = 9, past the kept tables: label rows of 5 states grown by the last four
    (("partitions", "--n", "9", "--format", "csv"), 0,
     "9a12fef2091ca6eebc05f4b8471986dff142b5a3cf89ee187374c1def53da69a"),
    (("partitions", "--n", "9", "--format", "json"), 0,
     "d198b316372f2e2e2c9d97f755c4aed7312b208ed515e5d66dec568f53eeeffe"),
    (("partitions", "--n", "9", "--format", "markdown"), 0,
     "c739a9df1f12e89808941cfb1e0eb25815deeaa01a5eeecd72108c76c438bcd4"),
    # the axioms probes past their default sample count and seed: zero-safe, an outer
    # map over an incomplete gamma, a dimension bound that rejects n = 2, and breakpoints
    (("axioms", "--entropy", '{"id": "shannon"}', "--samples", "5000", "--seed", "1729"), 0,
     "a26dbb8987f507cd05ac9858bd86ec352115ea9428d4d721b97187cbe5cd7f1d"),
    (("axioms", "--entropy", '{"id": "s_cd", "params": {"c": 0.8, "d": 0.5}}',
      "--samples", "5000", "--seed", "1729"), 0,
     "38b7f0c54f3d4e828fe8718b1496793bae9f14b4d8e58926535a43fc042dadd8"),
    (("axioms", "--entropy", '{"id": "s_delta", "params": {"delta": 2.0}}',
      "--samples", "5000", "--seed", "1729"), 0,
     "01bfe91c498318cf756b1f3017c1420a035b38ef5ddc1f80c66c35fb47934d91"),
    (("axioms", "--entropy", '{"id": "counterexample_HE"}', "--samples", "5000", "--seed", "1729"),
     0, "7b392da1b3fa3e6749ca4f8a4854a8f72539424ed6b0e1264cc9fa6cd4afe762"),
)


def test_report_bytes_are_pinned(monkeypatch):
    for argv, expected_code, digest in _PINNED_STDOUT:
        sink = _HashingStdout()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", sink)
            code = main(list(argv))
        assert (code, sink.sha.hexdigest()) == (expected_code, digest), argv


# The JSON of both exhaustive oracles at n = 8 on sample_dirichlet_uniform(8, 0),
# pinned: a passing spec, the counterexample, and a spec that skips every row.
_PINNED_ORACLES = (
    ({"id": "shannon"},
     "f095097331dbabc17b918f7f1a3857dd9f84a5e06e3c166ef23866ea0eda8c96",
     "f443779e25dd3cbd360720d6f0e808b4821daa2ea1453a0e970c02d92ec4fba7"),
    ({"id": "counterexample_HE"},
     "93ad18f7a5a62ce7b21270f0643aa60f110aaff59e11e7bb1c9c4861e0075dcb",
     "5ba15bb92b38218746526e9287ec6c472fcfa44d6d02a4274241c310fcc733a2"),
    ({"id": "s_delta", "params": {"delta": 3.0}},
     "7022816a601efec489d111dd19a7c25be4c933ee9abdd62b6fe9342c9270395f",
     "7cbd46868647abcbe9b1d9589eb5a81cb627302565e226ced66b9e4a5d07015d"),
)


def test_oracle_report_bytes_are_pinned():
    dist = sample_dirichlet_uniform(8, 0)
    for spec_json, lattice, corollary in _PINNED_ORACLES:
        spec = spec_from_json(json.dumps(spec_json))
        for check, digest in ((exhaustive_lattice_check, lattice), (corollary1_check, corollary)):
            report = emit_report(check(spec, dist))
            assert hashlib.sha256(report).hexdigest() == digest, (spec.label(), check.__name__)


# The stdout of `classify` and `axioms` with default options, concatenated over
# the 61 default specs and the counterexample, pinned with each nonzero exit.
_PINNED_CERTIFY = (
    ("classify", {"s_delta(delta=2.0)": 1, "counterexample_HE": 1},
     "559e4b70a18403cb53b3282795c8d817d7ce49c935f18bb3f9ae70400ae633b6"),
    ("axioms", {},
     "de16d95858954bd6218109e89452bf1ca729e54cc11f9d8afb409846a166a967"),
)


def test_classify_and_axioms_bytes_are_pinned(monkeypatch):
    specs = default_campaign_specs() + [EntropySpec("counterexample_HE")]
    for command, expected_codes, digest in _PINNED_CERTIFY:
        sink, codes = _HashingStdout(), {}
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", sink)
            for spec in specs:
                code = main([command, "--entropy", spec_to_json(spec)])
                if code:
                    codes[spec.label()] = code
        assert (codes, sink.sha.hexdigest()) == (expected_codes, digest), command


def _certify_bytes(monkeypatch, specs, argv, cold):
    """Each spec's exit code and stdout of ``argv``, the store of kept inputs
    emptied before every call where ``cold``."""
    sink, out = io.StringIO(), []
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", sink)
        for spec in specs:
            if cold:
                axioms._clear_kept()
            code = main([argv[0], "--entropy", spec_to_json(spec), *argv[1:]])
            out.append((spec.label(), code, sink.getvalue()))
            sink.seek(0)
            sink.truncate()
    return sorted(out)


@pytest.mark.parametrize("argv", [
    ("classify",),
    ("axioms", "--samples", "1000", "--seed", "0"),
    ("axioms", "--samples", "333", "--seed", "7"),
])
def test_kept_inputs_give_the_cold_bytes_in_either_order(monkeypatch, argv):
    """A spec that reads an input kept for another (of the other ``zero_safe``
    kind, or other breakpoints) prints other bytes than its cold call."""
    specs = default_campaign_specs() + [EntropySpec("counterexample_HE")]
    cold = _certify_bytes(monkeypatch, specs, argv, cold=True)
    for order in (specs, specs[::-1]):
        axioms._clear_kept()
        assert _certify_bytes(monkeypatch, order, argv, cold=False) == cold


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


def test_classify_past_the_float_range_is_strict_json_and_not_certified(capsys):
    """s_delta(delta=1000): phi overflows on the grid.  The outer-map pairing's sum
    range holds an inf, written null inside its list; numpy warns nowhere, and the
    command exits 1 (not certified), not 2."""
    spec = '{"id":"s_delta","params":{"delta":1000}}'
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "classify", "--entropy", spec)
    assert (code, err, caught) == (1, "", [])

    def reject(token):
        raise AssertionError(f"bare {token} in classify output")

    checks = {entry["check"]: entry for entry in json.loads(out, parse_constant=reject)}
    assert checks["outer_map_pairing"]["detail"]["sum_range"][1] is None
    assert not any(check["passed"] for check in checks.values())


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
    # the bytes phi wrote one point at a time
    assert hashlib.sha256(curve.read_bytes()).hexdigest() == (
        "aca636b8ab77fba87011ca6f4ffb8540ee586c5bc7411dec941a1e7a1e1b5e3e"
    )



def test_counterexample_curve_into_a_missing_directory_is_an_io_error(tmp_path, capsys):
    curve = tmp_path / "missing" / "curve.csv"
    code, _, err = run_cli(capsys, "counterexample", "--expect-violation", "--curve", str(curve))
    assert code == 2
    assert "i/o error" in err
    assert not curve.parent.exists()

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


def test_partitions_markdown(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--n", "3", "--format", "markdown")
    assert code == 0
    assert out.splitlines() == [
        "# Partitions of {0..2} (count 5)",
        "- 0: Partition[{0, 1, 2}]",
        "- 1: Partition[{0, 1}, {2}]",
        "- 2: Partition[{0, 2}, {1}]",
        "- 3: Partition[{0}, {1, 2}]",
        "- 4: Partition[{0}, {1}, {2}]",
    ]


_FORMATS = ("json", "csv", "markdown")


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("n", ["0", "13"])
def test_partitions_refuses_n_before_writing(capsys, n, fmt):
    """An n outside 1..12 is an error line and exit 2, with nothing on stdout."""
    code, out, err = run_cli(capsys, "partitions", "--n", n, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def _materialising_partitions(n: int, fmt: str) -> None:
    """``partitions`` as it was written before it streamed, the reference for its
    bytes: the list of every partition, the csv join and ``_print_json`` of the payload."""
    parts = list(enumerate_partitions(n))
    if fmt == "csv":
        lines = ["index,blocks"]
        for i, part in enumerate(parts):
            blocks = ";".join("|".join(map(str, b)) for b in part.blocks)
            lines.append(f"{i},{blocks}")
        print("\n".join(lines))
    elif fmt == "markdown":
        print(f"# Partitions of {{0..{n - 1}}} (count {len(parts)})")
        for i, part in enumerate(parts):
            print(f"- {i}: {part!r}")
    else:
        payload = {
            "n": n,
            "count": len(parts),
            "bell": bell_number(n),
            "partitions": [[list(b) for b in part.blocks] for part in parts],
        }
        _print_json(payload)


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("n", range(1, 10))
def test_partitions_streamed_bytes_match_the_materialising_writer(capsys, n, fmt):
    _materialising_partitions(n, fmt)
    expected = capsys.readouterr().out
    assert run_cli(capsys, "partitions", "--n", str(n), "--format", fmt) == (0, expected, "")


@pytest.mark.parametrize("fmt", _FORMATS)
def test_partitions_output_memory_is_flat_in_n(monkeypatch, fmt):
    """What ``partitions`` holds to write does not grow with the count: its
    tracemalloc peak at n = 9 (21,147 partitions) is within 2x of that at n = 6 (203).

    The partitions come from lists made beforehand, so the peak is the writer's
    alone: enumeration past n = 8 holds a group of partitions at a time.  A first
    run at each n fills ``_template``'s bounded cache and CPython's free lists, and
    the collector is off while measuring, since a full collection empties them."""
    kept = {n: list(enumerate_partitions(n)) for n in (6, 9)}
    monkeypatch.setattr(cli, "enumerate_partitions", lambda n: iter(kept[n]))

    def peak(n: int) -> int:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(["partitions", "--n", str(n), "--format", fmt]) == 0
        return tracemalloc.get_traced_memory()[1] - before

    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        gc.disable()
        tracemalloc.start()
        try:
            peak(6), peak(9)
            at_6, at_9 = peak(6), peak(9)
        finally:
            tracemalloc.stop()
            gc.enable()
    assert at_9 <= 2 * at_6, (at_6, at_9)


def test_bad_entropy_json_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "compute", "--entropy", "{not json", "--dist", "[1.0]")
    assert code == 2
    assert "error" in err


def test_s_cd_past_the_gamma_range_is_an_error_not_a_traceback(capsys):
    """Gamma(1 + d) passes the float range above d of about 170.6: an error
    line and exit 2, not an OverflowError."""
    code, out, err = run_cli(
        capsys, "compute", "--entropy", '{"id":"s_cd","params":{"c":0.5,"d":200}}',
        "--dist", "[0.5,0.5]",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "overflows the float range" in err


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
        env=_CHILD_ENV,
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
        env=_CHILD_ENV,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(math.log(2), abs=1e-14)


@pytest.mark.parametrize("argv", [
    ["classify", "--entropy", '{"id":"shannon"}'],
    ["classify", "--entropy", '{"id":"counterexample_HE"}'],
])
def test_module_entry_point_exits_with_the_code_main_returns(capsys, monkeypatch, argv):
    """``python -m gentropy`` in a subprocess, and its ``__main__`` run in
    process, print what ``main`` prints and exit with what it returns."""
    code, out, _ = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "gentropy", *argv], capture_output=True,
                          text=True, env=_CHILD_ENV)
    assert (proc.returncode, proc.stdout) == (code, out)
    monkeypatch.setattr(sys, "argv", ["gentropy", *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("gentropy", run_name="__main__")
    assert (exit_info.value.code, capsys.readouterr().out) == (code, out)
