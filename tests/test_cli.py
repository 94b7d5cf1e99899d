import json
import random
from fractions import Fraction

import pytest

from ocpoly.algebra import (AlgebraParams, Octonion, format_octonion,
                            parse_octonion)
from ocpoly.cli import (EXIT_MATH, EXIT_OK, EXIT_PARSE, main)
from ocpoly.opoly import OPolynomial
from ocpoly.scalars import EXACT, REAL


@pytest.fixture
def quad_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("x^2 + ix + 1 - ij\n")
    return str(path)


class TestElementRoundtrip:
    def test_text_1000_exact(self, P):
        rng = random.Random(99)
        for _ in range(1000):
            z = Octonion.make(P, [Fraction(rng.randint(-50, 50),
                                           rng.randint(1, 50))
                                  for _ in range(8)])
            assert parse_octonion(format_octonion(z), P).coords == z.coords

    def test_json_1000_real(self, PR):
        rng = random.Random(98)
        for _ in range(1000):
            z = Octonion.make(PR, [rng.uniform(-1e3, 1e3) for _ in range(8)])
            data = json.loads(json.dumps(z.to_json()))
            back = Octonion.from_json(data, PR)
            assert back.coords == z.coords

    def test_json_exact_preserves_fractions(self, P):
        z = Octonion.make(P, [Fraction(1, 3)] * 8)
        back = Octonion.from_json(z.to_json(), P)
        assert back.coords == z.coords


class TestSubcommands:
    def test_roots_real(self, quad_file, capsys):
        assert main(["roots", quad_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert len(out["isolated"]) == 2

    def test_roots_exact(self, quad_file, capsys):
        assert main(["--mode", "exact", "roots", quad_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert len(out["isolated"]) == 2

    def test_companion(self, quad_file, capsys):
        assert main(["--mode", "exact", "companion", quad_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["coeffs"] == ["2", "0", "3", "0", "1"]

    def test_rmr_contains_and_witness(self, tmp_path, capsys):
        path = tmp_path / "lin.txt"
        path.write_text("ix + j\n")
        assert main(["--mode", "exact", "rmr", str(path),
                     "--element=-ij", "--witness"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["contains"] is True
        assert "witness" in out

    def test_lmr_description(self, quad_file, capsys):
        assert main(["--mode", "exact", "lmr", quad_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        kinds = sorted(d["kind"] for d in out)
        assert kinds == ["parametrized", "parametrized"]

    def test_lmr_contains(self, quad_file, capsys):
        assert main(["lmr", quad_file, "--contains=j"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["contains"] is True

    def test_lmr_sample(self, quad_file, capsys):
        assert main(["--mode", "exact", "lmr", quad_file,
                     "--sample", "5"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert len(out) == 10  # 5 per class, 2 classes

    def test_seed_moves_only_lmr_samples(self, quad_file, capsys):
        """Root finding is deterministic: --seed seeds lmr --sample only."""
        outs = []
        for seed in ("1", "2"):
            assert main(["--seed", seed, "roots", quad_file]) == EXIT_OK
            found = capsys.readouterr().out
            assert main(["--seed", seed, "lmr", quad_file,
                         "--sample", "3"]) == EXIT_OK
            outs.append((found, capsys.readouterr().out))
        (roots_1, sample_1), (roots_2, sample_2) = outs
        assert roots_1 == roots_2
        assert sample_1 != sample_2

    def test_classify_alpha(self, tmp_path, capsys):
        path = tmp_path / "f5.txt"
        path.write_text("x^2 + ix - 1/2i - 1/4\n")
        assert main(["classify", str(path), "--alpha=-1/2i"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "ambivalent"
        assert out["M"] == pytest.approx(1.0)

    def test_classify_pseudo_periodic(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("x^2 - 1\n")
        assert main(["classify", str(path), "--alpha=0"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["order"] == 2
        assert out["verdict"] == "attracting"

    def test_orbit_csv(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("x^2 - 1\n")
        out_path = tmp_path / "orbit.csv"
        assert main(["orbit", str(path), "--start=0",
                     "--out", str(out_path)]) == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("step,")
        assert any(line.startswith("# detected_period,2") for line in lines)

    def test_orbit_eps_sets_revisit_tolerance(self, tmp_path):
        # x + 1e-7 moves every point by 1e-7: a revisit only when the
        # revisit tolerance, fixed_tol = eps at the default, exceeds that
        path = tmp_path / "g.txt"
        path.write_text("x + 0.0000001\n")
        periods = []
        for eps in ("1e-9", "1e-6"):
            out_path = tmp_path / f"orbit{eps}.csv"
            assert main(["--eps", eps, "orbit", str(path), "--start=0",
                         "--max-iter=5", "--out", str(out_path)]) == EXIT_OK
            periods.append("# detected_period,1" in out_path.read_text())
        assert periods == [False, True]

    def test_render(self, tmp_path):
        path = tmp_path / "sq.txt"
        path.write_text("x^2\n")
        out_path = tmp_path / "img.pgm"
        assert main(["render", str(path), "--width", "32", "--height", "32",
                     "--scale", "0.125", "--out", str(out_path)]) == EXIT_OK
        assert out_path.read_bytes().startswith(b"P5\n")

    def test_selftest(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x^^2\n")
        assert main(["roots", str(path)]) == EXIT_PARSE

    def test_missing_file(self, tmp_path):
        assert main(["roots", str(tmp_path / "nope.txt")]) == EXIT_PARSE

    def test_math_error(self, tmp_path):
        # exact mode cannot factor this companion over Q
        path = tmp_path / "f.txt"
        path.write_text("x^2 + ix + 2j\n")
        assert main(["--mode", "exact", "roots", str(path)]) == EXIT_MATH
