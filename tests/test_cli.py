import json
import math
import random
import re
import time
from fractions import Fraction

import pytest

import ocpoly.cli as cli_mod
import ocpoly.roots as roots_mod
from ocpoly.algebra import (AlgebraParams, Octonion, format_octonion,
                            parse_octonion, random_octonion)
from ocpoly.cli import (EXIT_MATH, EXIT_OK, EXIT_PARSE, EXIT_RESOURCE,
                        main)
from ocpoly.errors import NotInRMR
from ocpoly.opoly import OPolynomial, parse_opolynomial
from ocpoly.roots import (class_member, lmr_contains, lmr_describe,
                          lmr_describe_class, lmr_sample, lmr_singular,
                          multiple_root, rmr_contains, roots)
from ocpoly.scalars import REAL, ConjClass


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

    def test_rmr_witness_past_the_degree_cap(self, tmp_path, capsys):
        """(x^2 + jx + 2 + l)(x - lam), lam = 1 + i - 2k + l: its companion
        has degree 6, but the query at l lam l^-1 computes no companion
        roots."""
        path = tmp_path / "cubic.txt"
        path.write_text("x^3 + (-1 - i + j + 2k - l)x^2"
                        " + (2 + 2i - j + k + l - jl)x"
                        " + (-1 - 2i + 4k - 3l + il - 2kl)\n")
        assert main(["--mode", "exact", "rmr", str(path),
                     "--element=1 - i + 2k + l", "--witness"]) == EXIT_OK
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

    def test_rmr_runs_the_witness_once(self, monkeypatch, tmp_path, capsys):
        """Every rmr_witness call, from the command or from inside roots,
        goes through the counter."""
        calls, true_witness = [], roots_mod.rmr_witness

        def counted(f, mu):
            calls.append(mu)
            return true_witness(f, mu)

        for module in (roots_mod, cli_mod):
            monkeypatch.setattr(module, "rmr_witness", counted)
        path = tmp_path / "f.txt"
        path.write_text("x^2 + ix - ij + 1\n")
        assert main(["--mode", "exact", "rmr", str(path), "--element=-ij",
                     "--witness"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["contains"] is True
        assert len(calls) == 1

    def test_lmr_contains_needs_no_companion_roots(self, monkeypatch,
                                                   quad_file, capsys):
        def refuse(p):
            raise AssertionError("central_roots called")

        monkeypatch.setattr(roots_mod, "central_roots", refuse)
        for element, inside in (("j", True), ("i", False), ("2", False)):
            assert main(["lmr", quad_file, f"--contains={element}"]) \
                == EXIT_OK
            assert json.loads(capsys.readouterr().out) == {"contains": inside}

    def test_lmr_contains_builds_no_description(self, monkeypatch,
                                                tmp_path, capsys):
        """lmr --contains calls lmr_singular alone, which refuses on mu's
        class by the class rule (E = 0 with G != 0, or -E^-1 G off the
        class) and then runs its singular-value test: no description is
        built."""
        def refuse(f, cls):
            raise AssertionError("lmr_describe_class called")

        monkeypatch.setattr(roots_mod, "lmr_describe_class", refuse)
        for poly, element, inside in (
                ("x^2 + ix - ij + 1", "j", True),
                ("x^2 + ix - ij + 1", "i", False),
                ("x^2 + ix - ij + 1", "2", False),   # f(2) != 0
                ("x^2 + i", "j", False)):            # E = 0, G = i - 1
            path = tmp_path / "f.txt"
            path.write_text(poly + "\n")
            assert main(["lmr", str(path), f"--contains={element}"]) \
                == EXIT_OK
            assert json.loads(capsys.readouterr().out) == {"contains": inside}

    def test_lmr_contains_past_the_companion(self, tmp_path, capsys):
        """f = g(x)(x - lam), g a random monic quartic: the query at the root
        of c f in lam's class reduces f on that class alone, whether or not
        the companion's degree-10 roots are found."""
        P = AlgebraParams.octonions(REAL)
        rng = random.Random(0)
        g = OPolynomial.make(P, [random_octonion(P, rng) for _ in range(4)]
                             + [1])
        lam, c = random_octonion(P, rng), random_octonion(P, rng)
        f = g * OPolynomial.make(P, [-lam, 1])
        mu = multiple_root(f, ConjClass(lam.trace(), lam.norm()), c, "left")
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f.to_json()))
        assert main(["lmr", str(path),
                     f"--contains={format_octonion(mu)}"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"contains": True}

    @pytest.mark.parametrize("poly,element,inside", [
        ("x^2 - 3ix - 2", "i", True), ("x^2 - 3ix - 2", "2i", True),
        ("x^2 - 3ix - 2", "j", False), ("x^2 - 3ix - 2", "2j", False),
        ("x^2 - 3ix - 2", "-i", False),
        ("x - 2", "2", True), ("x - 2", "1", False), ("x - 2", "2i", False),
        ("x^2 + 1", "j", True), ("x^2 + 1", "-i", True),
        ("x^2 + 1", f"{1 / math.sqrt(2)!r} j + {1 / math.sqrt(2)!r} l", True),
        ("x^2 + 1", "2j", False), ("x^2 + 1", "1", False)])
    def test_lmr_contains_per_kind(self, tmp_path, capsys, poly, element,
                                   inside):
        """The points of test_contains_per_kind in tests/test_roots.py,
        through the command: single-point, central and whole classes."""
        path = tmp_path / "f.txt"
        path.write_text(poly + "\n")
        assert main(["lmr", str(path), f"--contains={element}"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"contains": inside}

    def test_lmr_sample(self, quad_file, capsys):
        assert main(["--mode", "exact", "lmr", quad_file,
                     "--sample", "5"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert len(out) == 10  # 5 per class, 2 classes

    def test_lmr_sample_zero_and_negative(self, quad_file, capsys):
        """--sample 0 printed the descriptions, and --sample -2 printed []
        with exit 0."""
        assert main(["lmr", quad_file, "--sample", "0"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == []
        assert main(["lmr", quad_file, "--sample", "-2"]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sample count must be >= 0, got -2" in captured.err

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

    def test_classify_large_two_cycle(self, tmp_path, capsys):
        # |f(f(alpha)) - alpha| = 7.9e-7 is above fixed_tol but within
        # fixed_tol * (1 + |alpha|): found as a 2-cycle, not refused with
        # "f(alpha) != alpha"
        path = tmp_path / "g.txt"
        path.write_text("x^2 - 2000000\n")
        alpha = repr((-1 + math.sqrt(7999997)) / 2)
        assert main(["classify", str(path), f"--alpha={alpha}"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["order"] == 2

    def test_classify_all_fixed_points(self, tmp_path, capsys):
        """Without --alpha, classify reports every fixed point: x^2 fixes
        0, where f' = 0, and 1, where f' = 2."""
        path = tmp_path / "sq.txt"
        path.write_text("x^2\n")
        assert main(["classify", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        points = [p["root"][0] for p in out["fixed_points"]["isolated"]]
        verdicts = [r["verdict"] for r in out["reports"]]
        assert sorted(zip(points, verdicts)) == [(0.0, "attracting"),
                                                 (1.0, "repelling")]

    def test_orbit_escapes(self, tmp_path, capsys):
        path = tmp_path / "sq.txt"
        path.write_text("x^2\n")
        assert main(["orbit", str(path), "--start=2"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("# escaped,1\n")

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


def _vec(**nonzero):
    """Exact-mode JSON coordinates: "0" except at the named positions."""
    return [nonzero.get(f"c{a}", "0") for a in range(8)]


def _cls(N):
    return {"N": N, "T": "0", "central": False}


def _lmr(N, einv_g, g_einv):
    return {"EinvG": einv_g, "GEinv": g_einv, "class": _cls(N),
            "commNorm": "4", "kind": "parametrized"}


FRONT_DOOR = [
    ("x^2 + ix - ij + 1", ["roots"],
     {"anomalies": [], "spherical": [],
      "isolated": [{"class": _cls("1"), "root": _vec(c2="1")},
                   {"class": _cls("2"), "root": _vec(c1="-1", c2="1")}]}),
    ("x^2 + ix - ij + 1", ["companion"], {"coeffs": ["2", "0", "3", "0", "1"]}),
    ("x^2 + ix - ij + 1", ["rmr"], {"classes": [_cls("1"), _cls("2")]}),
    ("x^2 + ix - ij + 1", ["rmr", "--element=-ij", "--witness"],
     {"contains": True, "witness": _vec(c2="-1/2", c3="1/2")}),
    ("x^2 + ix - ij + 1", ["lmr"],
     [_lmr("1", _vec(c2="-1"), _vec(c2="1")),
      _lmr("2", _vec(c1="1", c2="-1"), _vec(c1="1", c2="1"))]),
    ("ix + j", ["roots"],
     {"anomalies": [], "spherical": [],
      "isolated": [{"class": _cls("1"), "root": _vec(c3="1")}]}),
    ("ix + j", ["companion"], {"coeffs": ["1", "0", "1"]}),
    ("ix + j", ["rmr"], {"classes": [_cls("1")]}),
    ("ix + j", ["rmr", "--element=-ij", "--witness"],
     {"contains": True, "witness": _vec(c2="1/2")}),
    ("ix + j", ["lmr"], [_lmr("1", _vec(c3="-1"), _vec(c3="1"))]),
    ("x^2 + ix - ij + 1", ["rmr", "--element=-ij"], {"contains": True}),
    ("x^2 + ix - ij + 1", ["rmr", "--element=2", "--witness"],
     {"contains": False}),
    # a bare coefficient with a signed exponent, once refused as '1e'
    ("x - 1e-4", ["companion"], {"coeffs": ["1/100000000", "-1/5000", "1"]}),
]


@pytest.mark.parametrize("poly,command,expected", FRONT_DOOR)
def test_front_door_stdout(tmp_path, capsys, poly, command, expected):
    """Exact-mode stdout, byte for byte: sorted keys, indent 2, newline."""
    path = tmp_path / "f.txt"
    path.write_text(poly + "\n")
    assert main(["--mode", "exact", command[0], str(path),
                 *command[1:]]) == EXIT_OK
    assert capsys.readouterr().out == \
        json.dumps(expected, sort_keys=True, indent=2) + "\n"


class TestOneMembershipRule:
    """RMR and LMR membership read one class rule, so the library calls and
    the commands answer alike."""

    # On the class of 10i, E = 0 and G = a_0 = c j, so f(mu) = c j at every
    # member mu, |mu| = s = 10: the class is a sphere when |c| is within
    # witness_tol of the point scale |c| + 100 s + s^3, the point rule of
    # the witness.  With 1e-3 j no multiple has a root in the class; with
    # 5e-5 j it is a sphere.  f(2) = -1e-7 i passes the backward error at
    # witness_tol, not the root rule of roots.  1.0000001 j matches the
    # class of i at class_tol, but no conjugator of i reaches it at
    # witness_tol.  No row's class holds an isolated root, so a non-central
    # mu is inside exactly when roots lists a sphere that it matches.
    @pytest.mark.parametrize("poly,element,inside,refusal", [
        ("x^3 + 100x + (1e-3 j)", "10 i", False,
         "E = 0 but G != 0: residual 1.000e-03 > threshold "
         f"{REAL.witness_tol * (1e-3 + 2 * 10 ** 3):.3e}"),
        ("x^3 + 100x + (5e-5 j)", "10 i", True, None),
        ("x + (-2 - 1e-7 i)", "2", True, "central class: "),
        ("x - i", "1.0000001 j", False, None)])
    def test_margins_agree(self, tmp_path, capsys, poly, element, inside,
                           refusal):
        P = AlgebraParams.octonions(REAL)
        f, mu = parse_opolynomial(poly, P), parse_octonion(element, P)
        assert lmr_singular(f, mu) is inside
        assert rmr_contains(f, mu) is inside
        if not mu.is_central():
            assert any(c.matches(mu) for c in roots(f).spherical) is inside
        cls = ConjClass(mu.trace(), mu.norm(), mu.is_central())
        if refusal is None:
            assert lmr_contains(lmr_describe_class(f, cls), mu) is inside
        else:  # no description of mu's class exists
            with pytest.raises(NotInRMR, match=re.escape(refusal)):
                lmr_describe_class(f, cls)
        path = tmp_path / "f.txt"
        path.write_text(poly + "\n")
        for command in (["lmr", str(path), f"--contains={element}"],
                        ["rmr", str(path), f"--element={element}"]):
            assert main(command) == EXIT_OK
            assert json.loads(capsys.readouterr().out) == {"contains": inside}

    def test_command_is_lmr_singular(self, tmp_path, capsys):
        """50 random quadratics and cubics g(x)(x - lam), g monic, over
        (-1,-1,-1) and (-1,-2,-3), lam real for half of them: at LMR
        sample points, random class members, points moved 1e-3 off their
        class and central scalars, lmr --contains answers lmr_singular(f,
        mu), and at a central mu rmr_contains answers the same."""
        rng = random.Random(2121)
        path = tmp_path / "f.json"
        answers = {True: 0, False: 0, "central": 0, "central member": 0}
        for n in range(50):
            P = AlgebraParams(REAL, *((-1, -1, -1), (-1, -2, -3))[n % 2])
            lam = (Octonion.scalar(P, rng.uniform(-2, 2)) if n % 4 < 2
                   else random_octonion(P, rng, 2))
            g = OPolynomial.make(P, [random_octonion(P, rng, 2)
                                     for _ in range(1 + n // 25)] + [1])
            f = g * OPolynomial.make(P, [-lam, 1])
            path.write_text(json.dumps(f.to_json()))
            points = [Octonion.scalar(P, rng.uniform(-3, 3)) for _ in range(2)]
            for desc in lmr_describe(f):
                if desc.kind != "parametrized":
                    points.append(desc.point)
                    continue
                for p in lmr_sample(desc, 2, seed=n):
                    u = random_octonion(P, rng, 1)
                    points += [p, p + u * (1e-3 / u.abs()),
                               class_member(desc.cls, P, rng)]
            for mu in points:
                assert main(["lmr", str(path),
                             f"--contains={format_octonion(mu)}"]) == EXIT_OK
                inside = json.loads(capsys.readouterr().out)["contains"]
                assert inside is lmr_singular(f, mu), (n, mu)
                answers[inside] += 1
                if mu.is_central():
                    assert inside is rmr_contains(f, mu), (n, mu)
                    answers["central"] += 1
                    answers["central member"] += inside
        assert answers[True] >= 100 and answers[False] >= 200, answers
        assert answers["central"] >= 100, answers
        assert answers["central member"] >= 25, answers


ROW = '{"params": [-1, -1, -1], "coeffs": [[1], %s]}'


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x^^2\n")
        assert main(["roots", str(path)]) == EXIT_PARSE

    def test_term_without_sign(self, tmp_path, capsys):
        """x^2 + ix - 1/2 i - 1/4 was read with the constant -3/4 + i, then
        refused; the terms of each power add up, as in parentheses."""
        outs = []
        for text in ("x^2 + ix - 1/2 i - 1/4", "x^2 + ix + (-1/2 i - 1/4)"):
            path = tmp_path / "f.txt"
            path.write_text(text + "\n")
            assert main(["--mode", "exact", "companion", str(path)]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["coeffs"] == ["5/16", "-1", "1/2", "0", "1"]

    # each exited 3 ("bad scalar literal", "need 1..8 coordinates"), or
    # exited 0: x + 2* was read as x + 2, a boolean as 1, the row "12" as
    # 1 + 2i
    @pytest.mark.parametrize("text,args", [
        ("x + 1/0", []), ("x + 2*", []), ("x^2", ["--element=1/0"]),
        ('{"params": [-1, -1, "1/0"], "coeffs": [[1]]}', []),
        ('{"params": [true, -1, -1], "coeffs": [[1]]}', []),
        *((ROW % row, []) for row in ('["abc"]', "[]", list(range(9)),
                                      "[true]", '"12"'))],
        ids=["text-1/0", "text-star", "element-1/0", "json-param-1/0",
             "json-param-true", "json-abc", "json-0-coordinates",
             "json-9-coordinates", "json-true", "json-string-row"])
    @pytest.mark.parametrize("mode", ["exact", "real"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, text, args,
                                     mode):
        path = tmp_path / "f.txt"
        path.write_text(text + "\n")
        assert main([f"--mode={mode}", "rmr", str(path), *args]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse error: ")

    @pytest.mark.parametrize("text,named", [
        ('{"params": [-1, 0, -1], "coeffs": [[1]]}', "must be nonzero"),
        ('{"params": [-1, -1, -1], "coeffs": [["nan"]]}',
         "'nan' is not a finite scalar")], ids=["zero-constant", "json-nan"])
    def test_unusable_value_exits_3(self, tmp_path, capsys, text, named):
        path = tmp_path / "f.json"
        path.write_text(text + "\n")
        assert main(["roots", str(path)]) == EXIT_MATH
        assert named in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["roots", str(tmp_path / "nope.txt")]) == EXIT_PARSE

    # each raised FileNotFoundError, a traceback with exit 1
    @pytest.mark.parametrize("command", [
        ["render", "--width=8", "--height=8"], ["orbit", "--start=0.5"]],
        ids=["render", "orbit"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "sq.txt"
        path.write_text("x^2\n")
        out = str(tmp_path / "missing" / "o.out")
        assert main([command[0], str(path), *command[1:],
                     "--out", out]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(
            f"parse error: cannot write {out}: ")

    def test_math_error(self, tmp_path):
        # exact mode cannot factor this companion over Q
        path = tmp_path / "f.txt"
        path.write_text("x^2 + ix + 2j\n")
        assert main(["--mode", "exact", "roots", str(path)]) == EXIT_MATH

    def test_lmr_central_class_without_root(self, tmp_path, capsys):
        """Over (2, 3, 5) this quadratic has real companion roots that are
        no roots of f: lmr refuses with the residual and the threshold
        that roots reports for them, 1e-8 * sum_t |a_t| |r|^t at the
        first, r = -0.4329."""
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"params": [2, 3, 5], "coeffs": [
            [3, -3, 2, 0, -1, 2, 3, -2], [1, -3, -1, -3, -3, -3, 2, 1],
            [-3, 0, 2, -2, 0, 2, -3, 1]]}))
        assert main(["lmr", str(path)]) == EXIT_MATH
        err = capsys.readouterr().err
        assert "residual 1.903e+01 > threshold 2.888e-07" in err
        assert main(["roots", str(path)]) == EXIT_OK
        assert "residual 1.903e+01 > threshold 2.888e-07" in \
            capsys.readouterr().out

    # at 1e-3, class_tol reaches 1: a class match within 100%
    @pytest.mark.parametrize("eps", ["-1", "nan", "1e9", "1e-3"])
    def test_eps_out_of_range(self, quad_file, capsys, eps):
        assert main([f"--eps={eps}", "roots", quad_file]) == EXIT_MATH
        assert repr(float(eps)) in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["orbit", "--start=0.5", "--escape-radius=-2"],
        ["orbit", "--start=0.5", "--escape-radius=nan"],
        ["render", "--escape-radius=-2", "--out=img.pgm"],
        ["render", "--escape-radius=nan", "--out=img.pgm"],
        ["render", "--scale=nan", "--out=img.pgm"]])
    def test_bad_radius_or_scale(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)  # where --out=img.pgm would be written
        path = tmp_path / "sq.txt"
        path.write_text("x^2\n")
        assert main([command[0], str(path), *command[1:]]) == EXIT_MATH
        assert not (tmp_path / "img.pgm").exists()

    def test_render_radius_with_infinite_square(self, tmp_path, capsys):
        # the kernel squared 1e200 and died with an OverflowError (exit 1)
        path = tmp_path / "sq.txt"
        path.write_text("x^2\n")
        assert main(["render", str(path), "--escape-radius=1e200",
                     f"--out={tmp_path / 'img.pgm'}"]) == EXIT_MATH
        assert "finite square, got 1e+200" in capsys.readouterr().err
        assert not (tmp_path / "img.pgm").exists()

    # real mode: the first two died with an OverflowError (exit 1), NaN and
    # Infinity ran the solver to its cap, and the last lost its root: the
    # norm of its leading coefficient underflows to 0.0
    @pytest.mark.parametrize("text,named", [
        ("(1e400 i)x + 1", "(401 digits) is beyond float range"),
        ('{"params": [-1, -1, -1], "coeffs": [[1], [0, %d]]}' % 10 ** 400,
         "(401 digits) is beyond float range"),
        ('{"params": [-1, -1, -1], "coeffs": [[1], [NaN, 1]]}',
         "nan is not a finite scalar"),
        ('{"params": [-1, -1, -1], "coeffs": [[1], [1, Infinity]]}',
         "inf is not a finite scalar"),
        ("(1e-200 j)x + 1 + 2i", "leading coefficient 1e-200 j has norm 0.0")],
        ids=["text-1e400", "json-10^400", "json-nan", "json-infinity",
             "text-1e-200"])
    def test_non_finite_input_refused(self, tmp_path, capsys, text, named):
        path = tmp_path / "f.txt"
        path.write_text(text + "\n")
        assert main(["roots", str(path)]) == EXIT_MATH
        assert named in capsys.readouterr().err

    # real-mode sizes are sums of squares, so a size above 1.3e154 was inf
    # and every threshold made from it passed: the first two answered
    # true, the third and fourth true and a split algebra; the real cubic
    # and the exact ones died with an OverflowError (exit 1), and the LMR
    # matrix of a central point beyond float range with an SVD that did
    # not converge.  Each refusal states what is beyond float range.  At j,
    # mu's norm 1 against the class's inf (a nan gap) is no match: false,
    # as exact mode answers.  The rest answer, as they did: at 1e150, and
    # where only a size, not a threshold's square, is beyond float range.
    @pytest.mark.parametrize("mode,text,args,named", [
        ("real", "x - 1e160 i", ["lmr", "--contains=j"], None),
        ("real", "x - 1e160 i", ["lmr", "--contains=5"], "threshold inf"),
        ("real", "x - 1e200 i", ["rmr", "--element=5"], "threshold inf"),
        ("real", "x - 1e200 i", ["rmr", "--element=j"], None),
        ("real", "x^3 + x", ["rmr", "--element=1e120 j"],
         "threshold 5.000e+233"),
        ("real", "x^3 + x", ["lmr", "--contains=1e120 j"],
         "threshold 5.000e+233"),
        ("real", "x^3 + x", ["rmr", "--element=1e120"], "threshold inf"),
        ("real", "x^3 + x", ["lmr", "--contains=1e120"],
         "R(mu) R(E) + R(G) is"),
        ("real", "x^3 + x", ["lmr", "--contains=5e102"],
         "R(mu) R(E) + R(G) is"),
        ("exact", f"x - 1{'0' * 160} i", ["rmr", "--element=j"], None),
        ("exact", f"x - 1{'0' * 160} i", ["rmr", "--element=1"], None),
        ("real", "x - 1e150 i", ["lmr", "--contains=j"], None),
        ("real", "x - 1e150 i", ["rmr", "--element=j"], None),
        ("exact", f"x - 1{'0' * 150} i", ["rmr", "--element=j"], None),
        ("exact", f"x - 1{'0' * 150} i", ["rmr", "--element=1"], None),
        ("real", "x^3 + x", ["lmr", "--contains=1e77 j"], None),
        ("real", "x^3 + x", ["rmr", "--element=1e77 j"], None),
        ("real", "x^3 + x", ["lmr", "--contains=1e60"], None)],
        ids=["lmr-j", "lmr-5", "rmr-5", "rmr-j", "rmr-cubic", "lmr-cubic",
             "rmr-cubic-central", "lmr-cubic-central",
             "lmr-cubic-central-finite-threshold", "exact-j", "exact-1",
             "in-range-lmr-j", "in-range-rmr-j", "in-range-exact-j",
             "in-range-exact-1", "large-class-lmr", "large-class-rmr",
             "large-point-lmr"])
    def test_magnitude_beyond_float_range(self, tmp_path, capsys, mode, text,
                                          args, named):
        """Each query ends in its answer, false, or in a refusal that
        states the threshold beyond float range."""
        path = tmp_path / "f.txt"
        path.write_text(text + "\n")
        code = main([f"--mode={mode}", args[0], str(path), *args[1:]])
        out, err = capsys.readouterr()
        if named is None:
            assert code == EXIT_OK and json.loads(out) == {"contains": False}
        else:
            assert code == EXIT_MATH and named in err
            assert "beyond float range" in err

    def test_degree_cap(self, tmp_path, capsys):
        """A 15-byte text asking for 10^8 powers exits 4 at once; the
        largest degree compose returns reads back."""
        path = tmp_path / "f.txt"
        path.write_text("x^100000000 + 1\n")
        start = time.perf_counter()
        assert main(["--mode", "exact", "roots", str(path)]) == EXIT_RESOURCE
        assert time.perf_counter() - start < 1
        assert "degree 100000000 above the cap 256" \
            in capsys.readouterr().err
        path.write_text("x^256 + 1\n")
        assert main(["companion", str(path)]) == EXIT_OK

    def test_exponent_beyond_int_conversion(self, tmp_path, capsys):
        # int() refused the 5,000 digits with a ValueError (exit 1)
        path = tmp_path / "f.txt"
        path.write_text("x^" + "9" * 5000 + " + 1\n")
        assert main(["roots", str(path)]) == EXIT_RESOURCE
        assert "exponent of 5000 digits" in capsys.readouterr().err

    # each exited 1 with a ValueError of int() or str(), which convert at
    # most 4,300 digits, after 1.7 s (real) or 12.7 s (exact) on 1e3000000;
    # the 5,001-digit text exited 2 ("bad scalar literal")
    @pytest.mark.parametrize("text,args,digits", [
        ("x + 1e5000", [], 5001),
        ("x + 1" + "0" * 5000, [], 5001),
        ("x + 1e3000000", [], 3000001),
        (ROW % "[1e5000]", [], 5001),
        (ROW % f"[1{'0' * 5000}]", [], 5001),
        ("x^2", ["--element=1e5000 j"], 5001)],
        ids=["text-exponent", "text-integer", "text-exponent-3000000",
             "json-exponent", "json-integer", "element"])
    @pytest.mark.parametrize("mode", ["exact", "real"])
    def test_number_beyond_the_digit_limit(self, tmp_path, capsys, text,
                                           args, digits, mode):
        path = tmp_path / "f.txt"
        path.write_text(text + "\n")
        start = time.perf_counter()
        code = main([f"--mode={mode}", "rmr" if args else "roots",
                     str(path), *args])
        assert code == EXIT_RESOURCE
        assert time.perf_counter() - start < 1
        assert f"a number of {digits} digits; at most 4300 are read" \
            in capsys.readouterr().err

    def test_exact_number_written_beyond_the_digit_limit(self, tmp_path,
                                                         capsys):
        # the companion's 6,001-digit constant 10^6000 died in str()
        path = tmp_path / "f.txt"
        path.write_text("x + 1e3000\n")
        assert main(["--mode=exact", "companion", str(path)]) == \
            EXIT_RESOURCE
        assert "a number of 6001 digits; at most 4300 are written" \
            in capsys.readouterr().err

    def test_render_raster_beyond_memory(self, tmp_path, capsys):
        # lattice() died with numpy's _ArrayMemoryError (exit 1)
        path = tmp_path / "sq.txt"
        path.write_text("x^2\n")
        assert main(["render", str(path), "--width=10000000",
                     "--height=10000000",
                     f"--out={tmp_path / 'img.pgm'}"]) == EXIT_RESOURCE
        assert "raster 10000000 x 10000000 above the cap of 4194304 " \
            "pixels" in capsys.readouterr().err
        assert not (tmp_path / "img.pgm").exists()

    def test_orbit_max_iter_beyond_memory(self, tmp_path, capsys):
        # storage grows with the orbit, which revisits at step 17
        path = tmp_path / "g.txt"
        path.write_text("x^2 - 1\n")
        assert main(["orbit", str(path), "--start=0.5",
                     "--max-iter=3000000000"]) == EXIT_OK
        assert "# detected_period,2\n" in capsys.readouterr().out


class TestJSONNumbers:
    """A JSON number with a fraction or an exponent is read by its decimal
    text in exact mode (as the text form reads it) and as json's float in
    real mode."""

    @staticmethod
    def run(tmp_path, capsys, name, text, *args):
        path = tmp_path / name
        path.write_text(text + "\n")
        code = main([*args, str(path)])
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_exponent_as_the_text_form(self, tmp_path, capsys):
        # the JSON root was -99999999999999991611392, the float of 1e23
        json_form = '{"params": [-1, -1, -1], "coeffs": [[1e23], [1]]}'
        got = self.run(tmp_path, capsys, "f.json", json_form,
                       "--mode=exact", "roots")
        want = self.run(tmp_path, capsys, "f.txt", "x + 1e23",
                        "--mode=exact", "roots")
        assert got == want and got[0] == EXIT_OK
        root = json.loads(got[1])["isolated"][0]["root"]
        assert root[0] == str(-10 ** 23)

    def test_decimal_coefficient_and_constant(self, tmp_path, capsys):
        # JSON 0.1 exited 3: "non-integral float 0.1 in exact mode"
        text = '{"params": [-0.5, -1, -1], "coeffs": [[0.1], [0, 1]]}'
        code, out, _ = self.run(tmp_path, capsys, "f.json", text,
                                "--mode=exact", "companion")
        assert code == EXIT_OK
        # n(i x + 1/10) = 1/100 + (1/2) x^2 with i^2 = -1/2
        assert json.loads(out)["coeffs"] == ["1/100", "0", "1/2"]

    @pytest.mark.parametrize("row,named", [
        ("[NaN, 1]", "nan is not a finite scalar"),
        ("[1, Infinity]", "inf is not a finite scalar")],
        ids=["nan", "infinity"])
    def test_non_finite_refused_in_exact_mode(self, tmp_path, capsys, row,
                                              named):
        # the text was "non-integral float nan in exact mode"
        text = '{"params": [-1, -1, -1], "coeffs": [[1], %s]}' % row
        code, _, err = self.run(tmp_path, capsys, "f.json", text,
                                "--mode=exact", "roots")
        assert code == EXIT_MATH and named in err

    def test_real_mode_reads_floats(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"params": [-1, -1, -1], '
                        '"coeffs": [[0.1, -0.0, 1e23, 2.5e-300], [1]]}\n')
        a0 = cli_mod._load_poly(str(path), REAL).coeffs[0].coords
        assert a0[:4] == (0.1, -0.0, 1e23, 2.5e-300)
        assert math.copysign(1.0, a0[1]) == -1.0
