import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aglucas

from aglucas import (ROOT_TOL, ConvexPolygon, Disk, ExclusionBall,
                     ExclusionSet, RationalFunction, Scene, Segment,
                     offset_contour, render_svg)
from aglucas import engine
from aglucas.cli import run
from aglucas.serialize import (function_from_json, function_to_json,
                               region_from_json, region_to_json)

CUBIC = {"zeros": [[0, 0], [1, 0], [0, 1]], "poles": [], "scale": [1, 0]}
SEGMENT = {"segment": {"a": [-1, 0], "b": [1, 0]}}
# the zero at 1 cancels against the pole, leaving one zero in the disk
ZERO_ON_POLE = {"zeros": [[1, 0], [1.05, 0], [5, 0]], "poles": [[1, 0]],
                "scale": [1, 0],
                "region": {"disk": {"center": [1, 0], "radius": 0.1}}}


@pytest.fixture
def instance_file(tmp_path):
    def write(payload, name="instance.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


class TestRoundTrip:
    def test_function_round_trip(self):
        f = RationalFunction((1 + 2j, -0.5), (3j,), 2 - 1j)
        assert function_from_json(function_to_json(f)) == f

    def test_region_round_trips(self):
        for region in (Disk(1 + 1j, 2.5), Segment(0, 1j),
                       ConvexPolygon((0, 2, 1 + 2j))):
            assert region_from_json(region_to_json(region)) == region

    def test_double_round_trip_stable(self):
        f = RationalFunction((0.1 + 0.9j,), (2,), 1)
        once = function_to_json(f)
        twice = function_to_json(function_from_json(once))
        assert once == twice

    def test_bad_region_rejected(self):
        with pytest.raises(ValueError):
            region_from_json({"blob": {}})
        with pytest.raises(ValueError):
            region_from_json({"disk": {"center": [0, 0], "radius": 1},
                              "segment": {"a": [0, 0], "b": [1, 0]}})


class TestCheckCommand:
    def test_holds_exit_zero(self, instance_file, capsys):
        path = instance_file({"zeros": [[1, 0], [-1, 0]], "poles": [],
                              "scale": [1, 0], "region": SEGMENT})
        code = run(["check", "--instance", path, "--k", "2", "--eps", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["holds"] is True
        assert out["required_epsilon"] == 0.0

    def test_failing_verdict_exit_one(self, instance_file, capsys):
        # both critical points sit strictly above the segment
        path = instance_file(dict(CUBIC, region={"segment": {"a": [0, 0],
                                                             "b": [1, 0]}}))
        code = run(["check", "--instance", path, "--k", "2", "--eps",
                    "0.0001"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["holds"] is False

    def test_region_flag_overrides(self, instance_file, capsys):
        path = instance_file(CUBIC)
        code = run(["check", "--instance", path, "--k", "2", "--eps", "0.2",
                    "--region", json.dumps({"disk": {"center": [0.5, 0.5],
                                                     "radius": 1.0}})])
        capsys.readouterr()
        assert code == 0

    def test_missing_region_is_input_error(self, instance_file, capsys):
        path = instance_file(CUBIC)
        code = run(["check", "--instance", path, "--k", "2", "--eps", "0.5"])
        assert code == 2

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = run(["check", "--instance", str(path), "--k", "2",
                    "--eps", "0.5"])
        assert code == 2

    def test_unknown_flag_exit_two(self, capsys):
        assert run(["check", "--wat"]) == 2

    def test_zero_on_a_pole_exit_two(self, instance_file, capsys):
        path = instance_file(ZERO_ON_POLE)
        code = run(["check", "--instance", path, "--k", "2", "--eps", "0.01"])
        assert code == 2
        assert "only 1 zeros" in capsys.readouterr().err

    def test_root_tol_reaches_critical_points(self, instance_file,
                                              monkeypatch, capsys):
        seen = []
        solve = engine.critical_points

        def recorder(f, root_tol):
            seen.append(root_tol)
            return solve(f, root_tol)

        monkeypatch.setattr(engine, "critical_points", recorder)
        path = instance_file(dict(CUBIC, region=SEGMENT))
        args = ["check", "--instance", path, "--k", "2", "--eps", "0.5"]
        assert run(args) == 0
        assert run(args + ["--root-tol", "1e-6"]) == 0
        capsys.readouterr()
        assert seen == [ROOT_TOL, 1e-6]


class TestBoundsCommand:
    def test_csv_row(self, capsys):
        code = run(["bounds", "--n", "100", "--gap", "1", "--s", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,k,s,")
        cells = lines[1].split(",")
        assert cells[0] == "100"
        assert float(cells[8]) == pytest.approx(2 / 99)
        assert cells[9] == "biernacki"

    def test_json_format(self, capsys):
        code = run(["bounds", "--n-values", "10,100", "--gap", "1",
                    "--s", "2", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(rows) == 2
        assert rows[1]["best"] == "biernacki"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code = run(["bounds", "--n", "10", "--gap", "1", "--s", "1",
                    "--out", str(target)])
        assert code == 0
        assert target.read_text().startswith("n,k,s,")


class TestCertifyCommand:
    def test_valid_certificate(self, instance_file, capsys):
        payload = {"zeros": [[0.3, 0], [-0.5, 0], [0, 0.2], [0.6, 0]],
                   "poles": [], "scale": [1, 0],
                   "region": {"disk": {"center": [0, 0], "radius": 1}}}
        path = instance_file(payload)
        code = run(["certify", "--instance", path, "--k", "4",
                    "--eps", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["valid"] is True
        assert out["critical_lower_bound"] == 3
        assert out["failure_reason"] is None

    def test_membership_tol_honoured(self, instance_file, capsys):
        # the zero at 1.05 counts as in the unit disk only with the tolerance
        payload = {"zeros": [[0.1, 0], [-0.2, 0.1], [0.3, -0.2], [1.05, 0]],
                   "poles": [], "scale": [1, 0],
                   "region": {"disk": {"center": [0, 0], "radius": 1}}}
        path = instance_file(payload)
        args = ["certify", "--instance", path, "--k", "4", "--eps", "0.5"]
        assert run(args) == 2
        capsys.readouterr()
        code = run(args + ["--membership-tol", "0.1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["valid"] is True

    def test_zero_on_a_pole_exit_two(self, instance_file, capsys):
        path = instance_file(ZERO_ON_POLE)
        code = run(["certify", "--instance", path, "--k", "2",
                    "--eps", "0.05"])
        assert code == 2
        assert "only 1 zeros" in capsys.readouterr().err

    def test_uncertifiable_exit_one(self, instance_file, capsys):
        # heavy outside pole cloud breaks the margin at this eps
        payload = {"zeros": [[0.0, 0], [0.1, 0]],
                   "poles": [[1.6, 0], [-1.6, 0], [0, 1.6], [0, -1.6],
                             [1.2, 1.2]],
                   "scale": [1, 0],
                   "region": {"disk": {"center": [0, 0], "radius": 1}}}
        path = instance_file(payload)
        code = run(["certify", "--instance", path, "--k", "2",
                    "--eps", "0.7"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["valid"] is False
        assert out["failure_reason"]

    def test_unseparable_points_exit_one(self, instance_file, capsys):
        # 600 coincident zeros: no draw within delta = 1e-7 separates them
        payload = {"zeros": [[0.1, 0]] * 600, "poles": [], "scale": [1, 0],
                   "region": {"disk": {"center": [0, 0], "radius": 1}}}
        path = instance_file(payload)
        code = run(["certify", "--instance", path, "--k", "600",
                    "--eps", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["valid"] is False
        assert out["failure_reason"].startswith("MultiplicityViolation")


class TestEntryPoints:
    def test_membership_tol_only_where_honoured(self):
        assert run(["bounds", "--n", "10", "--gap", "1", "--s", "1",
                    "--membership-tol", "0.1"]) == 2

    @pytest.mark.parametrize("command, flag", [
        ("check", ["--seed", "1"]), ("bounds", ["--seed", "1"]),
        ("certify", ["--format", "csv"]), ("plot", ["--format", "json"]),
        ("search", ["--disk"])])
    def test_unread_options_rejected(self, instance_file, command, flag):
        path = instance_file(dict(CUBIC, region=SEGMENT))
        args = {"check": ["--instance", path, "--k", "2", "--eps", "0.5"],
                "bounds": ["--n", "10", "--gap", "1", "--s", "1"],
                "certify": ["--instance", path, "--k", "2", "--eps", "0.5"],
                "plot": ["--instance", path],
                "search": ["--n", "3", "--k", "2", "--restarts", "1",
                           "--iters", "5"]}[command]
        assert run([command, *args]) in (0, 1)
        assert run([command, *args, *flag]) == 2

    def test_exports_resolve(self):
        assert all(hasattr(aglucas, name) for name in aglucas.__all__)
        deleted = {"Polynomial", "poly_eval", "poly_derivative",
                   "rational_eval"}
        assert not deleted & set(aglucas.__all__)
        assert not any(hasattr(aglucas, name) for name in deleted)
        assert not hasattr(RationalFunction, "numerator")
        assert not hasattr(RationalFunction, "denominator")

    def test_python_dash_m_matches_run(self, instance_file, capsys):
        path = instance_file(dict(CUBIC, region=SEGMENT))
        args = ["check", "--instance", path, "--k", "2", "--eps", "0.5"]
        code = run(args)
        expected = capsys.readouterr().out
        src = str(Path(aglucas.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-m", "aglucas", *args],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert child.returncode == code
        assert child.stdout == expected


class TestSearchCommand:
    @pytest.mark.parametrize("flag", [["--restarts", "0"], ["--iters", "0"]])
    def test_nonpositive_budget_exit_two(self, flag, capsys):
        assert run(["search", "--n", "4", "--k", "2", *flag]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_small_search_json(self, capsys):
        code = run(["search", "--n", "3", "--k", "2",
                    "--restarts", "6", "--iters", "150", "--seed", "3"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["best_required_epsilon"] == pytest.approx(0.1547, abs=2e-3)

    def test_trace_csv(self, capsys):
        code = run(["search", "--n", "3", "--k", "2",
                    "--restarts", "4", "--iters", "100", "--seed", "1",
                    "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("evaluations,best_required_epsilon")


class TestAsymptoticAndProbe:
    def test_asymptotic_csv(self, capsys):
        code = run(["asymptotic", "--region", json.dumps(SEGMENT),
                    "--eps", "0.25", "--n-values", "5,10", "--outside", "1",
                    "--seed", "0"])
        out = capsys.readouterr().out.strip().split("\n")
        assert code == 0
        assert out[0] == "n,zero_fraction,critical_fraction"
        assert len(out) == 3

    def test_probe_csv(self, capsys):
        code = run(["probe", "--region", json.dumps(SEGMENT), "--eps", "0.5",
                    "--ratios", "3,6", "--trials", "3",
                    "--n-values", "6,9", "--seed", "0"])
        out = capsys.readouterr().out.strip().split("\n")
        assert code == 0
        assert out[0].startswith("ratio,n,k,")
        assert len(out) == 5


class TestPlot:
    def test_svg_from_cli(self, instance_file, capsys):
        path = instance_file(dict(CUBIC, region=SEGMENT))
        code = run(["plot", "--instance", path, "--eps", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith('<?xml version="1.0"')
        assert "</svg>" in out


class TestRenderSvg:
    def test_minimal_scene_has_circle(self):
        text = render_svg(Scene(region=Disk(0, 1), eps=0.0))
        assert text.count("<circle") == 1
        assert 'viewBox="' in text

    def test_cubic_scene_triangles_above_segment(self):
        from aglucas import critical_points
        f = RationalFunction((0, 1, 1j), (), 1)
        crit = critical_points(f).points
        scene = Scene(region=Segment(0, 1), eps=0.1, zeros=f.zeros,
                      critical=tuple(crit))
        text = render_svg(scene)
        assert all(z.imag > 0 for z in crit)
        assert text.count('fill="#2d7a3a"') == 2

    def test_byte_determinism(self):
        contour = offset_contour(Disk(0, 1), 0.4, 64)
        excl = ExclusionSet((ExclusionBall(2 + 1j, 0.05),))
        scene = Scene(region=Disk(0, 1), eps=0.5, zeros=(0.5, -0.3j),
                      poles=(2 + 1j,), critical=(0.1 + 0.1j,),
                      contour=contour, exclusions=excl)
        assert render_svg(scene).encode() == render_svg(scene).encode()

    def test_geometry_fits_viewport(self):
        scene = Scene(region=Disk(0, 1), eps=0.5, zeros=(4 + 4j,))
        text = render_svg(scene)
        header = text.split('viewBox="')[1].split('"')[0]
        x0, y0, w, h = (float(v) for v in header.split())
        assert x0 <= -1.5 and x0 + w >= 4 and y0 <= -4 and y0 + h >= 1.5
