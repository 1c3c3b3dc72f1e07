import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pdfactor import cli, errors, flowsim
from pdfactor.cli import load_chain, load_matrix, main, save_chain, save_matrix
from pdfactor.errors import InvalidInput, NotPositiveDefinite
from pdfactor.flowsim import (
    ParticleCloud,
    segments_from_chain,
    simulate,
    write_trajectory_csv,
)
from pdfactor.planar import SweepTable

from _helpers import hard_floats, hilbert, rng

DISPLAY_FACTORS = [
    [5.48, 0.0, 0.0, 0.18],
    [0.34, 0.92, 0.92, 5.50],
    [4.33, -2.35, -2.35, 1.50],
    [3.32, 2.71, 2.71, 2.52],
    [1.58, -2.34, -2.34, 4.08],
]


def write_matrix(path, M):
    save_matrix(str(path), np.asarray(M, dtype=float))
    return str(path)


def write_chain(path, factors):
    doc = {
        "n": int(round(math.sqrt(len(factors[0])))),
        "factors": [list(map(float, f)) for f in factors],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def read_csv(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, body


class TestFactorCommand:
    def test_minus_identity(self, tmp_path, capsys):
        target = write_matrix(tmp_path / "m.json", -np.eye(2))
        out = tmp_path / "chain.json"
        rc = main(["factor", target, "--max-cond", "30", "--output", str(out)])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["passed"] is True
        assert report["factor_count"] == 5
        assert report["residual"] <= 1e-10
        chain = load_chain(str(out))
        assert np.linalg.norm(chain.product() + np.eye(2)) <= 1e-10

    def test_identity_single_factor(self, tmp_path, capsys):
        target = write_matrix(tmp_path / "i.json", np.eye(2))
        rc = main(["factor", target])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["factor_count"] == 1

    def test_negative_determinant_message(self, tmp_path, capsys):
        target = write_matrix(tmp_path / "f.json", np.diag([1.0, -1.0]))
        rc = main(["factor", target])
        err = capsys.readouterr().err
        assert rc == 1
        assert "determinant not positive" in err

    def test_numerically_singular_spd_is_singular(self, tmp_path, capsys):
        target = write_matrix(tmp_path / "h.json", hilbert(16))
        rc = main(["factor", target])
        err = capsys.readouterr().err
        assert rc == 1
        assert "singular" in err

    def test_half_turn_unreachable_at_four_factors(self, tmp_path, capsys):
        target = write_matrix(tmp_path / "m.json", -np.eye(2))
        rc = main(["factor", target, "--factors", "4"])
        capsys.readouterr()
        assert rc == 2

    def test_unparsable_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        rc = main(["factor", str(bad)])
        capsys.readouterr()
        assert rc == 1

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["factor", str(tmp_path / "absent.json")])
        capsys.readouterr()
        assert rc == 1

    def test_wrong_data_length(self, tmp_path, capsys):
        doc = {"n": 2, "data": [1.0, 2.0, 3.0]}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["factor", str(path)])
        capsys.readouterr()
        assert rc == 1

    @pytest.mark.parametrize("doc", [
        {"n": 2, "data": ["a", 0.0, 0.0, 1.0]},
        {"n": 2, "data": [[1.0, 2.0], [3.0]]},
        {"n": math.inf, "data": [1.0]},
    ], ids=["string_entry", "ragged_rows", "infinite_n"])
    def test_malformed_data(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["factor", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("n", [2.7, "2", True],
                             ids=["fractional", "string", "boolean"])
    def test_dimension_must_be_json_integer(self, tmp_path, capsys, n):
        # int() would factor 2.7 as a 2x2, parse "2", and read true as 1.
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": n, "data": [2, 0, 0, 3]}), encoding="utf-8")
        rc = main(["factor", str(path)])
        assert rc == 1
        assert "n must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("tol, code", [("1e-8", 0), ("1e-300", 3)],
                             ids=["passes", "fails_verify"])
    def test_closed_stdout_keeps_exit_code(self, tmp_path, monkeypatch,
                                           capsys, tol, code):
        # A reader that stops early (| head) closes the pipe: no error is
        # printed, the chain file is written, and the command's own code
        # comes back.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        Phi = rng(71).standard_normal((3, 3))
        if np.linalg.det(Phi) < 0:
            Phi[:, 0] = -Phi[:, 0]
        target = write_matrix(tmp_path / "phi.json", Phi)
        out = tmp_path / "chain.json"
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        rc = main(["factor", target, "--tol", tol, "--output", str(out)])
        monkeypatch.undo()
        assert rc == code
        assert capsys.readouterr().err == ""
        assert len(load_chain(str(out)).factors) >= 1

    def test_huge_entries_raise_no_warning(self, tmp_path):
        # Norms of factors and stretches with entries near 1e200 must not
        # overflow; with warnings as errors any overflow would exit 1.
        doc = {"n": 2, "data": [1e200, 2e200, -3e200, 1e200]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pdfactor", "factor",
             str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["passed"] is True

    def test_factor_then_verify_roundtrip(self, tmp_path, capsys):
        r = rng(70)
        Phi = r.standard_normal((3, 3))
        if np.linalg.det(Phi) < 0:
            Phi[:, 0] = -Phi[:, 0]
        target = write_matrix(tmp_path / "phi.json", Phi)
        out = tmp_path / "chain.json"
        assert main(["factor", target, "--output", str(out)]) == 0
        capsys.readouterr()
        rc = main(["verify", "--chain", str(out), "--target", target])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["passed"] is True


class TestChainFileFormat:
    def test_bit_exact_roundtrip(self, tmp_path, capsys):
        target = write_matrix(tmp_path / "m.json", -np.eye(2))
        out = tmp_path / "chain.json"
        assert main(["factor", target, "--max-cond", "30",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        chain = load_chain(str(out))
        copy = tmp_path / "copy.json"
        save_chain(str(copy), chain)
        assert copy.read_bytes() == out.read_bytes()
        again = load_chain(str(copy))
        for A, B in zip(chain.factors, again.factors):
            assert np.array_equal(A, B)

    def test_meta_survives_roundtrip(self, tmp_path):
        doc = {
            "n": 2,
            "factors": [[1.0, 0.0, 0.0, 1.0]],
            "meta": {"lambda": 30.0, "theta_rad": 1.2270000000000001, "k": 5},
        }
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        chain = load_chain(str(path))
        assert chain.params is not None
        assert chain.params.lam == 30.0
        assert chain.params.theta == 1.2270000000000001
        out = tmp_path / "again.json"
        save_chain(str(out), chain)
        assert json.loads(out.read_text())["meta"]["theta_rad"] == (
            1.2270000000000001
        )

    @pytest.mark.parametrize("bad, error, what", [
        ([1.0, 2.0, 0.0, 1.0], InvalidInput, "not symmetric"),
        ([1e300, 2e300, 0.0, 1e300], InvalidInput, "not symmetric"),
        ([1.0, 0.0, 0.0, -1.0], NotPositiveDefinite, "not positive definite"),
    ], ids=["asymmetric", "asymmetric_1e300", "indefinite"])
    def test_load_names_first_failing_factor(self, tmp_path, bad, error, what):
        path = write_chain(
            tmp_path / "bad.json", [[2.0, 0.0, 0.0, 0.5], bad, [1.0, 2.0, 0.0, 1.0]]
        )
        with pytest.raises(error, match=f"factor 1 is {what}"):
            load_chain(path)

    def test_non_spd_factor_rejected_on_load(self, tmp_path, capsys):
        chain = write_chain(
            tmp_path / "bad.json", [[1.0, 0.0, 0.0, -1.0]]
        )
        target = write_matrix(tmp_path / "m.json", np.eye(2))
        rc = main(["verify", "--chain", chain, "--target", target])
        capsys.readouterr()
        assert rc == 1


class TestMatrixFileFormat:
    @pytest.mark.parametrize("M", [
        [[1.0, 2.0], [3.0]],
        np.ones((2, 3)),
        [["a", "b"], ["c", "d"]],
        [[1.0, math.nan], [0.0, 1.0]],
    ], ids=["ragged", "non_square", "non_numeric", "non_finite"])
    def test_save_rejects_and_writes_nothing(self, tmp_path, M):
        path = tmp_path / "m.json"
        with pytest.raises(InvalidInput):
            save_matrix(str(path), M)
        assert not path.exists()

    def test_bit_exact_roundtrip(self, tmp_path):
        r = rng(90)
        for n in (1, 2, 5):
            M = r.standard_normal((n, n)) * 10.0 ** r.uniform(-300, 300)
            first, second = tmp_path / "a.json", tmp_path / "b.json"
            save_matrix(str(first), M)
            loaded = load_matrix(str(first))
            assert np.array_equal(loaded, M)
            save_matrix(str(second), loaded)
            assert second.read_bytes() == first.read_bytes()

    def test_file_bytes(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(str(path), [[1.0, -0.5], [1e-300, 3.0]])
        assert path.read_bytes() == b'{"n": 2, "data": [1.0, -0.5, 1e-300, 3.0]}\n'

    def test_empty_path_is_os_error(self):
        with pytest.raises(OSError):
            save_matrix("", np.eye(2))


class TestSweepCommand:
    def test_unit_lambda_is_flat(self, capsys):
        rc = main(["sweep", "--k", "3", "--lambda", "1", "--steps", "50"])
        out = capsys.readouterr().out
        header, body = read_csv(out)
        assert rc == 0
        assert header == ["theta_deg", "lambda", "phi_deg"]
        assert body.shape == (50, 3)
        assert np.all(body[:, 2] == 0.0)

    def test_five_factor_pi_crossing(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--k", "5", "--lambda", "30",
                   "--theta-max", "90", "--steps", "900",
                   "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        _, body = read_csv(out.read_text(encoding="utf-8"))
        # The curve does pass within 0.2 deg of a half turn on this grid,
        # a little past 70.3: the crossing itself sits near 70.86. (It dips
        # back through 180 once more near 79, hence any() not all().)
        hits = body[np.abs(body[:, 2] - 180.0) <= 0.2]
        assert hits.shape[0] >= 1
        assert np.any(np.abs(hits[:, 0] - 70.3) <= 1.0)
        nearest = body[np.argmin(np.abs(body[:, 0] - 70.3))]
        assert abs(nearest[2] - 179.3) <= 0.1

    def test_four_factor_extreme_lambda(self, capsys):
        rc = main(["sweep", "--k", "4", "--lambda", "10000",
                   "--steps", "4000"])
        out = capsys.readouterr().out
        _, body = read_csv(out)
        assert rc == 0
        assert body[:, 2].max() >= 175.0
        assert body[:, 2].max() < 180.0

    def test_multiple_lambda_values(self, capsys):
        rc = main(["sweep", "--k", "3", "--lambda", "5,30", "--steps", "40"])
        out = capsys.readouterr().out
        _, body = read_csv(out)
        assert rc == 0
        assert body.shape[0] == 80
        assert set(body[:, 1]) == {5.0, 30.0}

    def test_output_file_uses_lf(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--k", "3", "--lambda", "2", "--steps", "10",
                   "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").splitlines()[0] == "theta_deg,lambda,phi_deg"

    @pytest.mark.parametrize("to_file, hard", [
        (True, False), (False, False), (True, True), (False, True),
    ], ids=["file", "stdout", "file_hard_floats", "stdout_hard_floats"])
    def test_bytes_match_per_row_reference(self, tmp_path, capsys, monkeypatch,
                                           to_file, hard):
        # The command encodes the rows with numpy; this per-row loop is the
        # reference, and the bytes must be the same. The lambda values
        # include 1 (a flat curve of exact zeros) and a non-integer. In the
        # hard_floats case, a stand-in for phi_sweep takes any lambda and
        # puts the hard cases of %.17g in every column, degrees unconverted.
        lams, k, theta_max, steps = [1.0, 2.5, 30.0, 1.0000001], 5, 170.0, 1777
        if hard:
            values = hard_floats(rng(17))
            lams, steps = values[:40].tolist(), values.size
            monkeypatch.setattr(cli, "DEG", 1.0)
            monkeypatch.setattr(cli, "phi_sweep", lambda lam, k, theta_max, steps:
                                SweepTable(lam, k, values, values[::-1]))
        deg = cli.DEG
        lines = ["theta_deg,lambda,phi_deg"]
        for lam in lams:
            table = cli.phi_sweep(lam, k, theta_max * deg, steps)
            for th, ph in zip(table.theta, table.phi):
                lines.append("%.17g,%.17g,%.17g" % (th / deg, lam, ph / deg))
        reference = ("\n".join(lines) + "\n").encode("utf-8")
        out = tmp_path / "sweep.csv"
        lam_args = ["--lambda", "1,2.5", "--lambda", "30", "--lambda", "1.0000001"]
        if hard:
            lam_args = ["--lambda=" + ",".join(map(repr, lams))]
        argv = ["sweep", "--k", str(k), *lam_args, "--theta-max", str(theta_max),
                "--steps", str(steps)]
        rc = main(argv + (["--output", str(out)] if to_file else []))
        assert rc == 0
        captured = capsys.readouterr().out
        got = out.read_bytes() if to_file else captured.encode("utf-8")
        assert got == reference

    def test_empty_output_path_means_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["sweep", "--k", "3", "--lambda", "2", "--steps", "10",
                   "--output", ""])
        assert rc == 0
        assert capsys.readouterr().out.startswith("theta_deg,lambda,phi_deg\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_lambda_flag(self, capsys):
        rc = main(["sweep", "--k", "3"])
        capsys.readouterr()
        assert rc == 1

    def test_bad_steps(self, capsys):
        rc = main(["sweep", "--k", "3", "--lambda", "2", "--steps", "1"])
        capsys.readouterr()
        assert rc == 1

    def test_bad_lambda_value(self, capsys):
        rc = main(["sweep", "--k", "3", "--lambda", "abc"])
        capsys.readouterr()
        assert rc == 1


class TestVerifyCommand:
    def test_identity_chain_passes(self, tmp_path, capsys):
        chain = write_chain(tmp_path / "c.json", [[1.0, 0.0, 0.0, 1.0]])
        target = write_matrix(tmp_path / "t.json", np.eye(2))
        rc = main(["verify", "--chain", chain, "--target", target])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["residual"] == 0.0

    def test_rounded_reference_at_loose_tol(self, tmp_path, capsys):
        chain = write_chain(tmp_path / "d.json", DISPLAY_FACTORS)
        target = write_matrix(tmp_path / "t.json", -np.eye(2))
        rc = main(["verify", "--chain", chain, "--target", target,
                   "--tol", "0.1"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        # two-decimal rounding leaves a residual of about 0.084
        assert abs(report["residual"] - 0.08426217052851065) <= 1e-12

    def test_rounded_reference_at_tight_tol(self, tmp_path, capsys):
        chain = write_chain(tmp_path / "d.json", DISPLAY_FACTORS)
        target = write_matrix(tmp_path / "t.json", -np.eye(2))
        rc = main(["verify", "--chain", chain, "--target", target,
                   "--tol", "1e-8"])
        capsys.readouterr()
        assert rc == 3

    @pytest.mark.parametrize("tol", ["-1", "0"])
    def test_nonpositive_tol_is_one_error_line(self, tmp_path, capsys, tol):
        # As for factor --tol: an input error (exit 1), not a failed
        # verification (exit 3).
        chain = write_chain(tmp_path / "c.json", [[1.0, 0.0, 0.0, 1.0]])
        target = write_matrix(tmp_path / "t.json", np.eye(2))
        rc = main(["verify", "--chain", chain, "--target", target, "--tol", tol])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_dimension_mismatch(self, tmp_path, capsys):
        chain = write_chain(tmp_path / "c.json", [[1.0, 0.0, 0.0, 1.0]])
        target = write_matrix(tmp_path / "t.json", np.eye(3))
        rc = main(["verify", "--chain", chain, "--target", target])
        capsys.readouterr()
        assert rc == 1


class TestSimulateCommand:
    def write_particles(self, path, rows, n=2):
        head = ",".join(f"x{i + 1}" for i in range(n))
        body = "\n".join(",".join(str(v) for v in row) for row in rows)
        path.write_text(head + "\n" + body + "\n", encoding="utf-8")
        return str(path)

    def test_identity_chain_is_constant(self, tmp_path, capsys):
        chain = write_chain(tmp_path / "c.json", [[1.0, 0.0, 0.0, 1.0]])
        parts = self.write_particles(tmp_path / "p.csv", [[1.0, 0.0]])
        prefix = str(tmp_path / "run")
        rc = main(["simulate", "--chain", chain, "--particles", parts,
                   "--dt", "0.05", "--out-prefix", prefix])
        endpoint = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert endpoint["n"] == 2
        assert np.allclose(endpoint["data"], [1.0, 0.0, 0.0, 1.0],
                           atol=1e-14)
        _, body = read_csv(
            (tmp_path / "run_trajectory.csv").read_text(encoding="utf-8")
        )
        assert np.all(body[:, 2] == 1.0)
        assert np.all(body[:, 3] == 0.0)

    def test_intro_chain_endpoint(self, tmp_path, capsys):
        chain = write_chain(tmp_path / "c.json", [
            [0.5, 0.0, 0.0, 2.0],
            [2.0, 1.0, 1.0, 1.0],
            [1.5652, -1.3416, -1.3416, 1.7889],
        ])
        parts = self.write_particles(tmp_path / "p.csv", [[1.0, 0.0]])
        prefix = str(tmp_path / "intro")
        rc = main(["simulate", "--chain", chain, "--particles", parts,
                   "--out-prefix", prefix])
        endpoint = json.loads(capsys.readouterr().out)
        assert rc == 0
        P = np.array(endpoint["data"]).reshape(2, 2)
        assert np.linalg.norm(
            P - [[0.8944, 0.4472], [-0.4472, 0.8944]]
        ) <= 5e-4
        _, body = read_csv(
            (tmp_path / "intro_trajectory.csv").read_text(encoding="utf-8")
        )
        assert np.linalg.norm(body[-1, 2:] - [0.8944, -0.4472]) <= 1e-3
        assert (tmp_path / "intro_covariance.csv").exists()

    def test_half_turn_chain_endpoint(self, tmp_path, capsys):
        target = write_matrix(tmp_path / "m.json", -np.eye(2))
        chain_path = tmp_path / "chain.json"
        assert main(["factor", target, "--max-cond", "30",
                     "--output", str(chain_path)]) == 0
        capsys.readouterr()
        parts = self.write_particles(tmp_path / "p.csv", [[1.0, 1.0]])
        prefix = str(tmp_path / "half")
        rc = main(["simulate", "--chain", str(chain_path),
                   "--particles", parts, "--out-prefix", prefix])
        capsys.readouterr()
        assert rc == 0
        _, body = read_csv(
            (tmp_path / "half_trajectory.csv").read_text(encoding="utf-8")
        )
        assert np.linalg.norm(body[-1, 2:] - [-1.0, -1.0]) <= 1e-6

    def test_durations_keep_endpoint(self, tmp_path, capsys):
        chain = write_chain(tmp_path / "c.json", [
            [3.0, 0.0, 0.0, 1.0 / 3.0],
            [1.0, 0.0, 0.0, 1.0],
        ])
        parts = self.write_particles(tmp_path / "p.csv", [[1.0, 1.0]])
        rc = main(["simulate", "--chain", chain, "--particles", parts,
                   "--dt", "0.01", "--durations", "0.5,2.0",
                   "--out-prefix", str(tmp_path / "d")])
        endpoint = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert np.allclose(
            np.array(endpoint["data"]).reshape(2, 2),
            np.diag([3.0, 1.0 / 3.0]),
            atol=1e-12,
        )

    def test_bad_particle_header(self, tmp_path, capsys):
        chain = write_chain(tmp_path / "c.json", [[1.0, 0.0, 0.0, 1.0]])
        bad = tmp_path / "p.csv"
        bad.write_text("a,b\n1,0\n", encoding="utf-8")
        rc = main(["simulate", "--chain", chain, "--particles", str(bad),
                   "--out-prefix", str(tmp_path / "x")])
        capsys.readouterr()
        assert rc == 1

    def test_oversized_dt(self, tmp_path, capsys):
        chain = write_chain(tmp_path / "c.json", [[1.0, 0.0, 0.0, 1.0]])
        parts = self.write_particles(tmp_path / "p.csv", [[1.0, 0.0]])
        rc = main(["simulate", "--chain", chain, "--particles", parts,
                   "--dt", "2.0", "--out-prefix", str(tmp_path / "x")])
        capsys.readouterr()
        assert rc == 1

    def faulty_run(self, tmp_path, monkeypatch, fault):
        """argv of a simulate run to prefix x that fails as fault says."""
        chain = write_chain(tmp_path / "c.json", [
            [3.0, 0.0, 0.0, 1.0 / 3.0],
            [1.0, 0.0, 0.0, 1.0],
        ])
        parts = self.write_particles(tmp_path / "p.csv", [[1.0, 1.0]])
        argv = ["simulate", "--chain", chain, "--particles", parts,
                "--out-prefix", str(tmp_path / "x")]
        if fault == "oversized_dt":
            argv += ["--dt", "2.0"]
        elif fault == "last_propagator_fails":
            calls = []

            def sym_eig(A):
                # No file may be touched yet: none opened, none removed.
                for kind in ("trajectory", "covariance"):
                    path = tmp_path / f"x_{kind}.csv"
                    assert not path.exists() or path.read_text() == "old\n"
                calls.append(A)
                if len(calls) == 2:  # one eigendecomposition per segment
                    raise errors.NumericalFailure("eigh failed")
                return real_sym_eig(A)

            real_sym_eig = flowsim.sym_eig
            monkeypatch.setattr(flowsim, "sym_eig", sym_eig)
        else:
            # The second segment's remainder step of 1.5e-12 is below half
            # an ulp of the time 20479 it follows, so the pinned end time
            # repeats that sample's time: the last block, of the second
            # segment's two samples, fails after the first segment's blocks
            # were written.
            argv += ["--dt", "1", "--durations", "20478,1.0000000000015"]
        return argv

    @pytest.mark.parametrize("fault, code", [
        ("oversized_dt", 1),
        ("last_propagator_fails", 2),
        ("repeated_sample_time", 1),
    ])
    def test_failed_run_writes_no_files(self, tmp_path, monkeypatch, capsys,
                                        fault, code):
        # Every check and every eigendecomposition comes before the first
        # byte of either CSV; a sample-time check that fails mid-run, after
        # blocks were written, removes both files again.
        assert main(self.faulty_run(tmp_path, monkeypatch, fault)) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x_trajectory.csv").exists()
        assert not (tmp_path / "x_covariance.csv").exists()

    @pytest.mark.parametrize("fault, kept", [
        ("oversized_dt", True),
        ("last_propagator_fails", True),
        ("repeated_sample_time", False),
    ])
    def test_failed_run_over_old_files(self, tmp_path, monkeypatch, capsys,
                                       fault, kept):
        # Old output files are replaced only once every check has passed:
        # a run that fails its checks leaves them as they were, and one
        # that fails mid-write removes both.
        old = [tmp_path / f"x_{kind}.csv" for kind in ("trajectory", "covariance")]
        for path in old:
            path.write_text("old\n")
        assert main(self.faulty_run(tmp_path, monkeypatch, fault)) != 0
        capsys.readouterr()
        for path in old:
            assert path.read_text() == "old\n" if kept else not path.exists()

    def test_second_open_failing_leaves_no_file(self, tmp_path, capsys):
        # The covariance path is a directory, so its open fails after the
        # trajectory file was created: that file is removed again.
        chain = write_chain(tmp_path / "c.json", [[2.0, 0.0, 0.0, 0.5]])
        parts = self.write_particles(tmp_path / "p.csv", [[1.0, 1.0]])
        (tmp_path / "x_covariance.csv").mkdir()
        assert main(["simulate", "--chain", chain, "--particles", parts,
                     "--out-prefix", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x_trajectory.csv").exists()

    def test_old_file_unlinked_and_symlink_written_through(self, tmp_path, capsys):
        # An existing regular file is unlinked and a new one created, not
        # truncated: a hard link to it keeps the old bytes. A symlink is
        # kept, and its target gets the output.
        chain = write_chain(tmp_path / "c.json", [[2.0, 0.0, 0.0, 0.5]])
        parts = self.write_particles(tmp_path / "p.csv", [[1.0, 1.0]])
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        (tmp_path / "x_trajectory.csv").symlink_to(target)
        (tmp_path / "x_covariance.csv").write_text("old\n")
        os.link(tmp_path / "x_covariance.csv", tmp_path / "hard.csv")
        assert main(["simulate", "--chain", chain, "--particles", parts,
                     "--dt", "0.5", "--out-prefix", str(tmp_path / "x")]) == 0
        capsys.readouterr()
        assert (tmp_path / "x_trajectory.csv").is_symlink()
        assert target.read_text().startswith("t,particle_id,x1,x2\n")
        assert len(target.read_text().splitlines()) == 1 + 3
        assert (tmp_path / "x_covariance.csv").read_text().startswith("t,sigma_11")
        assert (tmp_path / "hard.csv").read_text() == "old\n"

    @pytest.mark.parametrize("N, dt, durations", [
        (4100, "0.25", None),
        (7, "0.001", None),
        (3, "0.3", None),
        (5, "0.01", "0.5,2.0,0.75"),
    ], ids=["particles_past_block", "blocks_of_steps", "remainder_step",
            "durations"])
    def test_csvs_match_library_bytes(self, tmp_path, capsys, N, dt, durations):
        # The command streams its samples to disk one block at a time; its
        # files must be the bytes the library writes for the whole run.
        chain = write_chain(tmp_path / "c.json", [
            [0.5, 0.0, 0.0, 2.0],
            [2.0, 1.0, 1.0, 1.0],
            [1.5652, -1.3416, -1.3416, 1.7889],
        ])
        X = rng(15).standard_normal((N, 2))
        parts = self.write_particles(tmp_path / "p.csv", X.tolist())
        argv = ["simulate", "--chain", chain, "--particles", parts,
                "--dt", dt, "--out-prefix", str(tmp_path / "cli")]
        if durations:
            argv += ["--durations", durations]
        assert main(argv) == 0
        capsys.readouterr()
        segs = segments_from_chain(
            load_chain(chain),
            durations and [float(d) for d in durations.split(",")],
        )
        traj = simulate(segs, ParticleCloud(X), dt=float(dt))
        write_trajectory_csv(traj, str(tmp_path / "lib"))
        for kind in ("trajectory", "covariance"):
            cli_bytes = (tmp_path / f"cli_{kind}.csv").read_bytes()
            assert cli_bytes == (tmp_path / f"lib_{kind}.csv").read_bytes()

    def test_memory_does_not_grow_with_run(self, tmp_path, capsys):
        # A run four times as long writes four times the samples, but the
        # command holds one block of them at a time: its peak allocation
        # stays about the same and below one whole trajectory's arrays.
        n, N = 6, 64
        chain = write_chain(tmp_path / "c.json", [
            np.diag(np.linspace(0.5, 2.0, n)).ravel().tolist(),
            np.eye(n).ravel().tolist(),
        ])
        parts = self.write_particles(
            tmp_path / "p.csv", rng(16).standard_normal((N, n)).tolist(), n
        )

        def peak(dt):
            tracemalloc.start()
            try:
                rc = main(["simulate", "--chain", chain, "--particles", parts,
                           "--dt", repr(dt), "--out-prefix", str(tmp_path / "m")])
                peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert rc == 0
            return peak_bytes

        dt = 0.005
        short, long = peak(dt), peak(dt / 4)
        T = 1 + 2 * round(4 / dt)
        trajectory_bytes = 8 * T * (1 + N * n + n * n)
        assert long <= 1.5 * short
        assert long < trajectory_bytes


class TestOutputFiles:
    WRITERS = {
        "save_matrix": lambda path, tmp: save_matrix(path, np.eye(2)),
        "save_chain": lambda path, tmp: save_chain(path, load_chain(
            write_chain(tmp / "c.json", [[2.0, 0.0, 0.0, 0.5]]))),
        "factor": lambda path, tmp: main([
            "factor", write_matrix(tmp / "A.json", -np.eye(2)), "--output", path]),
        "sweep": lambda path, tmp: main([
            "sweep", "--lambda", "2", "--steps", "10", "--output", path]),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_old_file_unlinked_and_symlink_written_through(self, tmp_path, capsys,
                                                           writer):
        # Every output goes to a new file: an existing regular file is
        # unlinked, not truncated, so a hard link to it keeps the old bytes.
        # A symlink is kept, and its target gets the output.
        write = self.WRITERS[writer]
        out, hard = tmp_path / "out", tmp_path / "hard"
        out.write_text("old\n")
        os.link(out, hard)
        write(str(out), tmp_path)
        assert hard.read_text() == "old\n"
        fresh = out.read_bytes()
        assert fresh != b"old\n"
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_text("old\n")
        link.symlink_to(target)
        write(str(link), tmp_path)
        capsys.readouterr()
        assert link.is_symlink()
        assert target.read_bytes() == fresh


class TestErrorMapping:
    NUMERIC = {"NumericalFailure", "TargetUnreachable"}

    @pytest.mark.parametrize("name", sorted(
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.PdfactorError)
        and cls not in (errors.PdfactorError, errors.InputError, errors.NumericError)
    ))
    def test_exit_code_follows_base(self, monkeypatch, capsys, name):
        cls = getattr(errors, name)
        expected = errors.NumericError if name in self.NUMERIC else errors.InputError
        bases = (errors.InputError, errors.NumericError)
        assert [b for b in bases if issubclass(cls, b)] == [expected]

        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_sweep", fail)
        rc = main(["sweep", "--lambda", "2"])
        assert rc == expected.exit_code == (2 if name in self.NUMERIC else 1)
        assert capsys.readouterr().err == "error: boom\n"


    @pytest.mark.parametrize("command", ["factor", "verify", "simulate"])
    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys, command):
        # A matrix or chain file that starts with the bytes FF FE, or a
        # particle CSV with a 0xFF byte, is invalid input: exit 1 and one
        # error line, not a UnicodeDecodeError traceback.
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(b"\xff\xfe" + json.dumps({"n": 1, "data": [1.0]}).encode("utf-16-le"))
        particles = tmp_path / "p.csv"
        particles.write_bytes(b"x1,x2\n1,\xff\n")
        chain = write_chain(tmp_path / "c.json", [[1.0, 0.0, 0.0, 1.0]])
        argv = {
            "factor": ["factor", str(utf16)],
            "verify": ["verify", "--chain", str(utf16), "--target",
                       write_matrix(tmp_path / "t.json", np.eye(2))],
            "simulate": ["simulate", "--chain", chain, "--particles",
                         str(particles), "--out-prefix", str(tmp_path / "x")],
        }[command]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: cannot read") and "utf-8" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestEntryPoints:
    def test_entry_freezes_then_runs_main(self, monkeypatch):
        events = []

        def command(args):
            events.append(args.lam)
            return 3

        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        monkeypatch.setattr(cli, "cmd_sweep", command)
        monkeypatch.setattr(sys, "argv", ["pdfactor", "sweep", "--lambda", "2"])
        assert cli._entry() == 3
        assert events == ["freeze", ["2"]]

    def test_main_leaves_collector_alone(self, tmp_path, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(["factor", write_matrix(tmp_path / "m.json", -np.eye(2))]) == 0
        capsys.readouterr()
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_console_script_runs_entry(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.split() == ["pdfactor", "=", '"pdfactor.cli:_entry"']

    @pytest.mark.parametrize("code", [1, 2, 3])
    def test_module_exit_codes(self, tmp_path, code):
        # One input of each failure kind: invalid input, unreachable target,
        # failed verification.
        minus_identity = write_matrix(tmp_path / "m.json", -np.eye(2))
        argv = {
            1: ["factor", write_matrix(tmp_path / "f.json", np.diag([1.0, -1.0]))],
            2: ["factor", minus_identity, "--factors", "4"],
            3: ["verify", "--chain", write_chain(tmp_path / "d.json", DISPLAY_FACTORS),
                "--target", minus_identity],
        }[code]
        proc = subprocess.run(
            [sys.executable, "-m", "pdfactor", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code
        if code == 3:
            assert proc.stderr == ""
            assert json.loads(proc.stdout)["passed"] is False
        else:
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "pdfactor", "sweep", "--k", "3",
             "--lambda", "2", "--steps", "10"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "theta_deg,lambda,phi_deg"

    def test_cli_module_is_no_launcher(self):
        # python -m pdfactor.cli must not exit 0 without running anything:
        # it fails, prints nothing, and names the launchers that work.
        proc = subprocess.run(
            [sys.executable, "-m", "pdfactor.cli", "sweep", "--lambda", "2",
             "--steps", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "python -m pdfactor" in proc.stderr.splitlines()[-1]

    def test_reader_closing_pipe_early(self, tmp_path):
        # The reader closes the pipe before the command writes. With stdout
        # buffered, the interpreter's own flush at exit meets the broken
        # pipe too; neither may print an error or change the exit code.
        target = write_matrix(tmp_path / "m.json", -np.eye(2))
        out = tmp_path / "chain.json"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "pdfactor", "factor", target, "--output", str(out)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""
        assert len(load_chain(str(out)).factors) == 5

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        capsys.readouterr()
        assert exc.value.code == 0

    def test_no_command(self, capsys):
        rc = main([])
        capsys.readouterr()
        assert rc == 1
