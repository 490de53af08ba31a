"""CLI: subcommands, exit codes, output formats, schema conformance, and
byte-identical determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from subchan import channel, cli, grassmann
from subchan.channel import build_dmc
from subchan.cli import main
from subchan.errors import NonConvergenceError

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"
INLINE = ["--q", "2", "--T", "3", "--h", "2", "--rank-def", "0.5,0.3,0.2"]


def _schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacity:
    def test_closed_form_text(self, capsys):
        code, out, _ = _run(capsys, ["capacity", "--q", "2", "--T", "3", "--h", "2", "--rank-def", "1,0,0"])
        assert code == 0
        assert "capacity: 2.807355 bits per channel use" in out
        assert "rho=0" in out and "rho=2" in out

    def test_total_deficiency_is_zero(self, capsys):
        code, out, _ = _run(capsys, ["capacity", "--q", "2", "--T", "3", "--h", "2", "--rank-def", "0,0,1"])
        assert code == 0
        assert "capacity: 0.000000" in out

    def test_verify_passes_within_tolerance(self, capsys):
        code, out, _ = _run(capsys, ["capacity", *INLINE, "--verify", "--tol", "1e-6"])
        assert code == 0
        assert "verification" in out

    def test_verify_exit_3_when_tolerance_unreachable(self, capsys):
        code, _, err = _run(capsys, ["capacity", *INLINE, "--verify", "--tol", "1e-30"])
        assert code == 3
        assert "verification failed" in err

    def test_json_output_matches_schema(self, capsys):
        code, out, _ = _run(capsys, ["capacity", *INLINE, "--verify", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema("capacity_report.schema.json"))
        expected = 0.5 * math.log2(7) + 0.3 * math.log2(7 / 3)
        assert payload["capacity"] == pytest.approx(expected, abs=1e-12)

    def test_verify_json_gap_bound_never_negative(self, capsys):
        # Blahut-Arimoto's upper and lower bounds round to a difference of
        # about -3e-16 on this spec; the schema requires a gap bound >= 0.
        argv = ["capacity", "--q", "2", "--T", "3", "--h", "2", "--rank-def", "0.492,0.186,0.322"]
        code, out, _ = _run(capsys, [*argv, "--verify", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema("capacity_report.schema.json"))
        assert payload["verification"]["ba_gap_bound"] >= 0.0

    def test_non_finite_rank_def_exit_2(self, capsys):
        for vec in ("nan,nan,nan", "inf,0,0", "0.5,nan,0.5"):
            code, out, err = _run(capsys, ["capacity", "--q", "2", "--T", "3", "--h", "2",
                                           "--rank-def", vec, "--format", "json"])
            assert code == 2, vec
            assert out == ""
            assert "finite" in err

    def test_log_base_q(self, capsys):
        code, out, _ = _run(capsys, ["capacity", *INLINE, "--log-base", "q", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["log_base"] == 2.0

    def test_bad_log_base(self, capsys):
        code, _, err = _run(capsys, ["capacity", *INLINE, "--log-base", "1"])
        assert code == 2
        assert "log-base" in err

    @pytest.mark.parametrize("base", ["nan", "inf", "abc"])
    @pytest.mark.parametrize(
        "command", [["capacity"], ["simulate", "--draws", "10", "--pipeline"], ["simulate", "--draws", "5"]]
    )
    def test_non_finite_log_base_exit_2(self, capsys, command, base):
        code, out, err = _run(capsys, [*command, *INLINE, "--log-base", base])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: --log-base must be a finite number > 1 or 'q', got {base!r}"]

    def test_verify_nonconvergence_exit_3(self, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise NonConvergenceError("Blahut-Arimoto did not reach gap <= 1e-09 within 1 iterations")

        monkeypatch.setattr(cli, "blahut_arimoto", no_convergence)
        code, out, err = _run(capsys, ["capacity", *INLINE, "--verify"])
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["verification failed: Blahut-Arimoto did not reach gap <= 1e-09 within 1 iterations"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tol_exit_2(self, capsys, tol):
        with pytest.raises(SystemExit) as exc_info:
            _run(capsys, ["capacity", *INLINE, "--verify", "--tol", tol])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol must be a finite number > 0" in captured.err


class TestSpecSources:
    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"q": 2, "T": 3, "h": 2, "rank_def": [1, 0, 0]}))
        code, out, _ = _run(capsys, ["capacity", "--spec", str(path)])
        assert code == 0
        assert "2.807355" in out

    def test_spec_file_renormalization_warning(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"q": 2, "T": 3, "h": 2, "rank_def": [0.5, 0.3, 0.2 + 3e-10]}))
        code, _, err = _run(capsys, ["capacity", "--spec", str(path)])
        assert code == 0
        assert "renormalized" in err

    def test_conflicting_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        with pytest.raises(SystemExit) as exc_info:
            _run(capsys, ["capacity", "--spec", str(path), *INLINE])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize(
        "content, message",
        [(None, "cannot read spec file"), ("{", "spec file is not valid JSON")],
        ids=["unreadable", "not-json"],
    )
    def test_bad_spec_file_exit_2(self, capsys, tmp_path, content, message):
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc_info:
            _run(capsys, ["capacity", "--spec", str(path)])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_non_numeric_inline_rank_def_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            _run(capsys, ["capacity", "--q", "2", "--T", "3", "--h", "2", "--rank-def", "0.5,x"])
        assert exc_info.value.code == 2
        assert "--rank-def must be comma-separated numbers, got '0.5,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["null", "5", "[1, 2]"])
    def test_spec_file_not_an_object_exit_2(self, capsys, tmp_path, content):
        path = tmp_path / "spec.json"
        path.write_text(content)
        code, out, err = _run(capsys, ["capacity", "--spec", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: channel spec must be a JSON object, got ")

    def test_missing_parameters_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            _run(capsys, ["capacity", "--q", "2"])
        assert exc_info.value.code == 2

    def test_invalid_spec_named_in_message(self, capsys):
        code, _, err = _run(capsys, ["capacity", "--q", "6", "--T", "3", "--h", "2", "--rank-def", "1,0,0"])
        assert code == 2
        assert "prime power" in err
        code, _, err = _run(capsys, ["capacity", "--q", "2", "--T", "2", "--h", "3", "--rank-def", "1,0,0,0"])
        assert code == 2
        assert "1 <= h <= T" in err
        code, _, err = _run(capsys, ["capacity", "--q", "2", "--T", "3", "--h", "2", "--rank-def", "0.9,0,0"])
        assert code == 2
        assert "sum" in err

    @pytest.mark.parametrize(
        "key, value, minimum",
        [("q", "x", 2), ("q", True, 2), ("q", 2.5, 2), ("T", 3.7, 1), ("T", "3", 1), ("h", 2.5, 1), ("h", None, 1)],
    )
    def test_non_integer_spec_values_exit_2(self, capsys, tmp_path, key, value, minimum):
        data = {"q": 2, "T": 3, "h": 2, "rank_def": [0.5, 0.3, 0.2]}
        data[key] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        code, out, err = _run(capsys, ["capacity", "--spec", str(path)])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {key} must be an integer >= {minimum}, got {value!r}"]

    def test_integral_float_spec_values_accepted(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"q": 2.0, "T": 3.0, "h": 2.0, "rank_def": [1, 0, 0]}))
        code, out, _ = _run(capsys, ["capacity", "--spec", str(path)])
        assert code == 0
        assert "2.807355" in out

    @pytest.mark.parametrize("rank_def", ["abc", ["a", "b", "c"], [True, False, False], {"a": 1}, [[1], [0, 0]]])
    def test_non_numeric_rank_def_exit_2(self, capsys, tmp_path, rank_def):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"q": 2, "T": 3, "h": 2, "rank_def": rank_def}))
        code, out, err = _run(capsys, ["capacity", "--spec", str(path)])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: rank_def must be a list of numbers, got {rank_def!r}"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", *INLINE],
            ["matrix", *INLINE],
            ["simulate", *INLINE, "--draws", "10"],
            ["count", "bases", "--h", "2", "--q", "2"],
        ],
    )
    def test_unwritable_out_path_exit_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = _run(capsys, [*argv, "--out", str(target)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == f"error: cannot write {target}: No such file or directory"

    def test_unnormalized_beyond_tolerance_rejected(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"q": 2, "T": 3, "h": 2, "rank_def": [0.6, 0.3, 0.2]}))
        code, _, err = _run(capsys, ["capacity", "--spec", str(path)])
        assert code == 2
        assert "sum" in err


class TestMatrix:
    def test_csv_shape_and_sizes_note(self, capsys):
        code, out, err = _run(capsys, ["matrix", *INLINE])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 8
        assert len(lines[0].split(",")) == 16
        assert "input alphabet: 7 subspaces; output alphabet: 15 subspaces" in err

    def test_row_sum_audit(self, capsys):
        code, _, err = _run(capsys, ["matrix", *INLINE, "--audit-row-sums"])
        assert code == 0
        assert "rows equal 1.0" in err

    def test_row_sum_audit_catches_a_repeated_column(self, capsys, monkeypatch):
        """A row listing one output column twice still has slot values that
        sum to 1, but its exported dense row keeps only one of them."""

        def repeated(spec):
            dmc = build_dmc(spec)
            support = dmc.support.copy()
            support[:, 1] = support[:, 0]
            return dataclasses.replace(dmc, support=support)

        monkeypatch.setattr(cli, "build_dmc", repeated)
        code, _, err = _run(capsys, ["matrix", *INLINE, "--audit-row-sums"])
        assert code == 3
        assert "row-sum audit failed" in err

    def test_json_matches_schema(self, capsys):
        code, out, _ = _run(capsys, ["matrix", *INLINE, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema("dmc_matrix.schema.json"))
        assert len(payload["transitions"]) == 7

    def test_enumeration_cap_exit_2_with_sizes(self, capsys):
        args = ["matrix", "--q", "2", "--T", "20", "--h", "10", "--rank-def", ",".join(["1"] + ["0"] * 10)]
        code, _, err = _run(capsys, args)
        assert code == 2
        assert "|X|" in err and "|Y|" in err and "cap" in err

    # sha256 of the exports, recorded when they were written from a dense
    # transition matrix; rows are now built one at a time from the support.
    @pytest.mark.parametrize(
        "q, T, h, rank_def, fmt, digest",
        [
            (2, 4, 2, "0.5,0.3,0.2", "csv", "c69c22c16a7b3d4be516c432d2627245ca0d35929664d23ddb46aa6971888f15"),
            (2, 4, 2, "0.5,0.3,0.2", "json", "47fca0e5a2766a21ed3781a7d05ac9ca3891328e8ecf2306a3f537e553f8e8c3"),
            (3, 3, 2, "0.6,0,0.4", "csv", "cd7799fc16a01feb10041230052aa1f8cda964de22b89a4981a3832ef16e0a96"),
            (3, 3, 2, "0.6,0,0.4", "json", "dafcd32125b033330de8f3f6c16614f5598c320d3d80df41f3359e02e05398d4"),
            (4, 3, 2, "0.25,0.5,0.25", "csv", "d151f8aa9b8e19416b22e064746e320e9627ccbfdee8ddfb2fe7c7e28503e549"),
            (4, 3, 2, "0.25,0.5,0.25", "json", "ab472371c67c3814ce4d9a307ec3fe036e8539a918078d654bc172c0d7c5c4e7"),
        ],
    )
    def test_export_golden_hash(self, capsys, q, T, h, rank_def, fmt, digest):
        args = ["matrix", "--q", str(q), "--T", str(T), "--h", str(h), "--rank-def", rank_def]
        code, out, err = _run(capsys, [*args, "--format", fmt, "--audit-row-sums"])
        assert code == 0
        assert "rows equal 1.0" in err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "dmc.csv"
        code, out, _ = _run(capsys, ["matrix", *INLINE, "--out", str(target)])
        assert code == 0
        assert out == ""
        assert len(target.read_text().strip().split("\n")) == 8

    def test_csv_export_streams_to_the_file(self, capsys, tmp_path):
        """q2 T6 h3 is 11.7 MB of CSV: rows are written straight to the output,
        so the traced peak stays far below the text, and the file holds the
        bytes stdout gets."""
        args = ["matrix", "--q", "2", "--T", "6", "--h", "3", "--rank-def", "0.4,0.3,0.2,0.1", "--format", "csv"]
        target = tmp_path / "dmc.csv"
        tracemalloc.start()
        try:
            code = main([*args, "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert target.stat().st_size > 10 << 20
        assert peak < 4 << 20
        code, out, _ = _run(capsys, args)
        assert code == 0
        assert target.read_bytes() == out.encode()

    def test_json_export_streams_to_the_file(self, capsys, tmp_path):
        """q2 T6 h3 is 32.9 MB of JSON: rows are written straight to the
        output, so the traced peak stays far below the text, and the file
        holds the bytes stdout gets."""
        args = ["matrix", "--q", "2", "--T", "6", "--h", "3", "--rank-def", "0.4,0.3,0.2,0.1", "--format", "json"]
        target = tmp_path / "dmc.json"
        tracemalloc.start()
        try:
            code = main([*args, "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert target.stat().st_size > 30 << 20
        assert peak < 5 << 20
        code, out, _ = _run(capsys, args)
        assert code == 0
        assert target.read_bytes() == out.encode()


class TestSimulate:
    def test_deterministic_channel_report(self, capsys):
        args = ["simulate", "--q", "2", "--T", "3", "--h", "2", "--rank-def", "1,0,0",
                "--draws", "50", "--seed", "4"]
        code, out, _ = _run(capsys, args)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema("mc_report.schema.json"))
        assert payload["max_abs_deviation"] == 0.0
        assert payload["off_support_hits"] == 0

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", *INLINE, "--draws", "200", "--seed", "9"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, capsys):
        code, out, _ = _run(capsys, ["simulate", *INLINE, "--draws", "100", "--seed", "1", "--format", "csv"])
        assert code == 0
        assert out.startswith("input,output,count,expected_prob,z\n")

    # sha256 of the CSV report, recorded before the cells were scored as arrays.
    # The writer prints repr of each float, so a numpy scalar in a cell would
    # change these bytes.
    @pytest.mark.parametrize(
        "rank_def, digest",
        [
            ("0.5,0.3,0.2", "901f8c282b85ace8fb32f718319d9bda5eb9ec203ac71b29221dd0d3728e47b4"),
            ("1,0,0", "8e798e3ee2262108aed60a26aa7fb70b1db87e38e683e5a10cb4e105d7da5910"),
        ],
    )
    def test_csv_golden_hash(self, capsys, rank_def, digest):
        args = ["simulate", "--q", "2", "--T", "4", "--h", "2", "--rank-def", rank_def]
        code, out, _ = _run(capsys, [*args, "--draws", "2000", "--seed", "1", "--format", "csv"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_pipeline_matches_schema(self, capsys):
        code, out, _ = _run(capsys, ["simulate", *INLINE, "--draws", "2000", "--seed", "3", "--pipeline"])
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema("pipeline_report.schema.json"))
        assert sum(payload["deficiency_counts"]) == 2000

    def test_pipeline_rejects_csv(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            _run(capsys, ["simulate", *INLINE, "--draws", "10", "--pipeline", "--format", "csv"])
        assert exc_info.value.code == 2

    def test_draws_validated(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            _run(capsys, ["simulate", *INLINE, "--draws", "0"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("extra", [[], ["--pipeline"]])
    def test_negative_seed_exit_2(self, capsys, extra):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", *INLINE, "--draws", "10", "--seed", "-1", *extra])
        assert exc_info.value.code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err


class TestEnumCapEnvironment:
    @pytest.mark.parametrize("value", ["abc", "-5", "0"])
    @pytest.mark.parametrize(
        "argv",
        [["capacity", *INLINE, "--verify"], ["matrix", *INLINE], ["simulate", *INLINE, "--draws", "10"]],
    )
    def test_bad_enum_cap_exit_2(self, capsys, monkeypatch, value, argv):
        monkeypatch.setenv("SUBCHAN_ENUM_CAP", value)
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: SUBCHAN_ENUM_CAP must be an integer >= 1, got {value!r}"]


class TestCount:
    @pytest.mark.parametrize(
        "args, expected",
        [
            (["count", "gauss", "--n", "3", "--l", "2", "--q", "2"], "7"),
            (["count", "gauss", "--n", "4", "--l", "2", "--q", "2"], "35"),
            (["count", "gauss", "--n", "5", "--l", "6", "--q", "2"], "0"),
            (["count", "bases", "--h", "2", "--q", "2"], "6"),
            (["count", "bases", "--h", "0", "--q", "3"], "1"),
        ],
    )
    def test_values(self, capsys, args, expected):
        code, out, _ = _run(capsys, args)
        assert code == 0
        assert out.strip() == expected

    def test_bad_q(self, capsys):
        code, _, err = _run(capsys, ["count", "gauss", "--n", "3", "--l", "2", "--q", "6"])
        assert code == 2
        assert "prime power" in err

    @pytest.mark.parametrize(
        "args, name",
        [
            (["gauss", "--n", "-1", "--l", "1", "--q", "2"], "n"),
            (["gauss", "--n", "3", "--l", "-1", "--q", "2"], "ell"),
            (["bases", "--h", "-1", "--q", "2"], "h"),
        ],
    )
    def test_negative_arguments_exit_2(self, capsys, args, name):
        code, out, err = _run(capsys, ["count", *args])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {name} must be an integer >= 0, got -1"]


class TestOversizedSizes:
    """Sizes with more digits than Python converts to text (4,300 by default)
    exit 2 with the size as a power of ten, not 1 with a ValueError.  Each
    runs in a fresh interpreter with a timeout, so that a hang fails."""

    SPEC = ["--q", "2", "--T", "20000", "--h", "2", "--rank-def", "0.5,0.3,0.2"]

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["matrix", *SPEC], "alphabet sizes |X| = about 10^12040.4, |Y| = about 10^12040.4, exceeding"),
            (["simulate", *SPEC, "--draws", "10"], "alphabet sizes |X| = about 10^12040.4"),
            (["count", "gauss", "--n", "20000", "--l", "2", "--q", "2"], "the count is about 10^12040.4"),
            (["count", "bases", "--h", "200", "--q", "2"], "the count is about 10^12040.7"),
        ],
        ids=["matrix", "simulate", "count-gauss", "count-bases"],
    )
    def test_exit_2_naming_the_size_as_a_power_of_ten(self, argv, text):
        self._check_exit_2(argv, text, timeout=60)

    # C(10^7, 2)_2 alone takes seconds to build exactly; its log10 is enough
    # to reject it.
    TEN_MILLION = pytest.mark.parametrize(
        "argv",
        [
            ["matrix", "--q", "2", "--T", "10000000", "--h", "2", "--rank-def", "0.5,0.3,0.2"],
            ["count", "gauss", "--n", "10000000", "--l", "2", "--q", "2"],
        ],
        ids=["matrix", "count-gauss"],
    )

    @TEN_MILLION
    def test_size_is_rejected_before_it_is_built(self, argv):
        self._check_exit_2(argv, "about 10^6020599.1", timeout=5)

    @TEN_MILLION
    def test_no_exact_coefficient_is_built(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError(f"gaussian_coefficient{args} was built")

        for module in (grassmann, channel, cli):
            monkeypatch.setattr(module, "gaussian_coefficient", refuse, raising=False)
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert "about 10^6020599.1" in err

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["matrix", "--q", "2", "--T", "1" + "0" * 400, "--h", "2", "--rank-def", "0.5,0.3,0.2"],
             "alphabet sizes |X| = about 10^inf, |Y| = about 10^inf, exceeding"),
            (["count", "gauss", "--n", "1" + "0" * 400, "--l", "2", "--q", "2"], "the count is about 10^inf"),
            (["count", "bases", "--h", "1" + "0" * 200, "--q", "2"], "the count is about 10^inf"),
        ],
        ids=["matrix", "count-gauss", "count-bases"],
    )
    def test_a_size_past_the_float_range_is_about_ten_to_the_inf(self, argv, text):
        """10^400 does not convert to a float: its log10 is infinite."""
        self._check_exit_2(argv, text, timeout=5)

    @pytest.mark.parametrize(
        "argv, text",
        [
            # |GL(6000, 2)| has 10.8 million digits; it is named from its log10.
            (["count", "bases", "--h", "6000", "--q", "2"], "the count is about 10^10837079.3"),
            # 5 * 10^7 terms of the log10 sum, all but the last 64 exactly 0.0.
            (["count", "gauss", "--n", "100000000", "--l", "50000000", "--q", "2"], "the count is about 10^75257498915"),
        ],
        ids=["count-bases", "count-gauss"],
    )
    def test_a_size_is_named_in_time_however_many_factors(self, argv, text):
        self._check_exit_2(argv, text, timeout=5)

    def test_closed_form_at_a_billion(self):
        """The capacity needs only log C(T, k)_q: no coefficient of 10^9 digits
        is built, so the answer comes within the timeout."""
        run = self._run(["capacity", "--q", "2", "--T", "1000000000", "--h", "2", "--rank-def", "0.5,0.3,0.2"], 5)
        assert run.returncode == 0 and run.stderr == ""
        assert run.stdout.startswith("capacity: 1299999998.2320")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_capacity_past_the_float_range_exits_2(self, capsys, fmt):
        """log2 C(10^400, 2)_2 is infinite: no "capacity: inf", and no JSON
        Infinity, which is not valid JSON.  The message names that coefficient."""
        T = "1" + "0" * 400
        argv = ["capacity", "--q", "2", "--T", T, "--h", "2", "--rank-def", "0.5,0.3,0.2", "--format", fmt]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: capacity past the float range: C({T}, 2)_2 is about 10^inf\n"

    def test_a_prime_field_size_near_a_billion_answers_in_time(self):
        """Trial division stops at sqrt(q): about 31,600 steps for this prime q."""
        run = self._run(["count", "gauss", "--n", "3", "--l", "2", "--q", "1000000007"], 5)
        assert (run.returncode, run.stdout, run.stderr) == (0, "1000000015000000057\n", "")

    @classmethod
    def _check_exit_2(cls, argv, text, timeout):
        run = cls._run(argv, timeout)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("error: ") and text in run.stderr and "Traceback" not in run.stderr

    @staticmethod
    def _run(argv, timeout):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "subchan.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout
        )


class TestChannelSpecSchema:
    def test_example_spec_validates(self):
        spec = {"q": 2, "T": 3, "h": 2, "rank_def": [0.5, 0.3, 0.2]}
        jsonschema.validate(spec, _schema("channel_spec.schema.json"))
