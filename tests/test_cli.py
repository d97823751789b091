import json
import math

import pytest

from halfplanepot.cli import main, parse_complex

BASE_SCENARIO = {
    "schema_version": 1,
    "m": 0,
    "alpha": 1.0,
    "density": {"family": "indicator", "a": -1.0, "b": 1.0, "height": 1.0},
    "plan": {
        "rays": [math.pi / 2],
        "radii": {"start": 1.0, "factor": 10.0, "count": 3},
    },
    "quadrature": {"abs_tol": 1e-9, "rel_tol": 1e-8},
    "seed": 3,
    "min_factor_per_decade": 0.5,
}


def write_scenario(tmp_path, name="scenario.json", **overrides):
    data = json.loads(json.dumps(BASE_SCENARIO))
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestComplexParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0+1i", 1j),
            ("1.5-2i", 1.5 - 2j),
            ("-3+0.5i", -3 + 0.5j),
            ("2e2+1e-3i", 200 + 0.001j),
        ],
    )
    def test_good(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["1", "i", "1+i", "1 + 2i", "(1+2j)", "1+2j"])
    def test_bad(self, text):
        from halfplanepot.cli import UsageError

        with pytest.raises(UsageError):
            parse_complex(text)


class TestKernelCommand:
    def test_poisson_print(self, capsys):
        rc = main(["kernel", "--kind", "p", "--z", "0+1i", "--xi", "0"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.31830988618379069"

    def test_pm_order_zero_matches_p(self, capsys):
        main(["kernel", "--kind", "p", "--z", "1+1i", "--xi", "5"])
        p = capsys.readouterr().out.strip()
        main(["kernel", "--kind", "pm", "--m", "0", "--z", "1+1i", "--xi", "5"])
        pm = capsys.readouterr().out.strip()
        assert p == pm

    def test_green_print(self, capsys):
        rc = main(["kernel", "--kind", "g", "--z", "0+1i", "--zeta", "0+2i"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert math.isclose(float(out), -math.log(3) / (2 * math.pi), rel_tol=1e-15)

    def test_gm_mode_flag(self, capsys):
        rc = main(["kernel", "--kind", "gm", "--m", "1", "--z", "0+1i", "--zeta", "0+4i", "--mode", "tail"])
        assert rc == 0
        tail = float(capsys.readouterr().out.strip())
        rc = main(["kernel", "--kind", "gm", "--m", "1", "--z", "0+1i", "--zeta", "0+4i", "--mode", "direct"])
        assert rc == 0
        direct = float(capsys.readouterr().out.strip())
        assert math.isclose(tail, direct, rel_tol=1e-9)

    def test_malformed_flags_exit_1(self, capsys):
        assert main(["kernel", "--kind", "p", "--z", "bogus", "--xi", "0"]) == 1
        assert main(["kernel", "--kind", "nope", "--z", "0+1i", "--xi", "0"]) == 1
        assert main(["kernel", "--kind", "g", "--z", "0+1i"]) == 1

    def test_singularity_exit_2(self, capsys):
        assert main(["kernel", "--kind", "g", "--z", "0+1i", "--zeta", "0+1i"]) == 2

    def test_tail_domain_error_exit_2(self, capsys):
        assert (
            main(["kernel", "--kind", "pm", "--m", "1", "--z", "0+1i", "--xi", "1.5", "--mode", "tail"])
            == 2
        )


class TestSolveCommand:
    def test_zero_scenario_all_zero(self, tmp_path, capsys):
        cfg = write_scenario(
            tmp_path, density={"family": "indicator", "a": 0.0, "b": 0.0, "height": 1.0}
        )
        out = tmp_path / "out.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,abs_z,v,h,u,quad_err,tail_bound"
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[3]) == 0.0 and float(cells[4]) == 0.0 and float(cells[5]) == 0.0

    def test_indicator_v_at_i(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        first = out.read_text().splitlines()[1].split(",")
        # first row is z = i
        assert abs(float(first[0])) < 1e-12 and float(first[1]) == 1.0
        assert abs(float(first[3]) - 0.5) < 1e-6

    def test_byte_identical_rerun(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_scenario_exit_1(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, density={"family": "power", "s": 3.0, "scale": 1.0})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, typo_key=1)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_schema_version_exit_1(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, schema_version=2)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_numerical_failure_exit_2(self, tmp_path, capsys, command):
        # no panel list at depth 8 reaches a 1e-300 tolerance: the quadrature stalls
        cfg = write_scenario(
            tmp_path, quadrature={"abs_tol": 1e-300, "rel_tol": 1e-300, "max_depth": 8}
        )
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure at z=" in err
        assert "quadrature stalled" in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_float_overflow_exit_2(self, tmp_path, capsys, command):
        # |xi|^31.5 passes the float range on [-T, T], T = 2|z| + 1 = 1e10 + 1,
        # while the normalizer y^0.75 |z|^31.25 = 1.3e308 on the ray at 1e-3
        # stays finite
        cfg = write_scenario(
            tmp_path, m=31, alpha=0.25, density={"family": "power", "s": 31.5, "scale": 1.0},
            plan={"rays": [1e-3], "radii": {"start": 5e9, "factor": 10.0, "count": 1}},
        )
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure at z=" in err
        assert "overflows the float range" in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_normalizer_overflow_exit_2(self, tmp_path, capsys, command):
        # the normalizer |z|^33 at |z| = 1e10 passes the float range
        cfg = write_scenario(
            tmp_path, m=32, density={"family": "power", "s": 1.5, "scale": 1.0},
            plan={"rays": [math.pi / 2], "radii": {"start": 1e8, "factor": 10.0, "count": 3}},
        )
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure at z=(6.123233995736766e-07, 10000000000.0): normalizer" in err

    @pytest.mark.parametrize(
        "density",
        [{"family": "indicator", "a": -1.0, "b": 1.0}, {"family": "power", "s": 0.5}],
    )
    def test_truncation_radius_past_float_range_exit_2(self, tmp_path, capsys, density):
        # 2|z| + 1 at |z| = 1e308 is inf
        cfg = write_scenario(
            tmp_path, density=density,
            plan={"rays": [math.pi / 2], "radii": {"start": 1e308, "factor": 10.0, "count": 1}},
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure at z=" in err and "truncation radius" in err

    @pytest.mark.parametrize(
        "command,where,value",
        [
            ("solve", "radii", {"start": math.inf, "factor": 10, "count": 3}),
            ("verify", "radii", {"start": math.inf, "factor": 10, "count": 3}),
            ("verify", "cover", {"lambda": math.inf}),
            ("verify", "cover", {"search_radius": math.inf}),
            ("verify", "cover", {"search_radius": 1e308}),  # 2^(floor(log2 r) + 1) overflows
            ("solve", "radii", {"start": 10, "factor": 10, "count": 400}),  # 1e400 overflows
        ],
        ids=["start-solve", "start-verify", "lambda", "search-radius", "search-radius-1e308", "ladder"],
    )
    def test_numbers_past_the_float_range_exit_1(self, tmp_path, capsys, command, where, value):
        # Python's json writes math.inf as Infinity and reads it back
        if where == "radii":
            overrides = {"plan": {"rays": [1.0], "radii": value}}
        else:
            overrides = {"cover": value}
        cfg = write_scenario(tmp_path, **overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_distant_atom_at_order_32(self, tmp_path, capsys):
        # |zeta|^{m+2} = 1e340 overflows a float; the atom's mass term underflows
        cfg = write_scenario(tmp_path, m=32, measure={"atoms": [[0.0, 1e10, 1.0]]})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0

    def test_cells_match_verify(self, tmp_path, capsys):
        # solve and verify evaluate the same grid through one code path
        cfg = write_scenario(
            tmp_path,
            measure={"atoms": [[0.5, 2.0, 1.0], [-3.0, 7.0, 0.5]]},
            plan={
                "rays": [math.pi / 3, math.pi / 2],
                "radii": {"start": 1.0, "factor": 10.0, "count": 3},
                "annulus_samples": 1,
            },
        )
        solve_out, verify_out = tmp_path / "solve.csv", tmp_path / "verify.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(solve_out)]) == 0
        main(["verify", "--config", str(cfg), "--out", str(verify_out), "--cert-samples", "200"])

        def cells(path):  # x, y, abs_z, v, h, u
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            return [tuple(r[:6]) for r in rows]

        assert len(cells(solve_out)) == 9
        assert cells(solve_out) == cells(verify_out)

    def test_annulus_samples_ordering(self, tmp_path, capsys):
        cfg = write_scenario(
            tmp_path,
            plan={
                "rays": [math.pi / 3, math.pi / 2],
                "radii": {"start": 1.0, "factor": 10.0, "count": 2},
                "annulus_samples": 2,
            },
        )
        out = tmp_path / "out.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 * 2 + 2 * 2  # ray grid then annulus sweep
        # ray block: ordered by (ray, radius); |z| pattern 1, 10, 1, 10
        assert [round(float(r[2])) for r in rows[:4]] == [1, 10, 1, 10]
        # annulus block: ordered by (radius, annulus index)
        assert [round(float(r[2])) for r in rows[4:]] == [1, 1, 10, 10]


class TestCoverCommand:
    def test_empty_measure_cover(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "cover.json"
        assert main(["cover", "--config", str(cfg), "--out", str(out), "--samples", "500"]) == 0
        data = json.loads(out.read_text())
        assert data["balls"] == [] and data["budget"] == 0.0

    def test_atoms_file_and_cover(self, tmp_path, capsys):
        atoms = tmp_path / "atoms.csv"
        atoms.write_text("xi,eta,weight\n4.0,4.0,1.0\n")
        cfg = write_scenario(
            tmp_path,
            measure={"path": "atoms.csv"},
            cover={"lambda": 5.0, "beta": 1.0, "search_radius": 16.0},
        )
        out = tmp_path / "cover.json"
        assert main(["cover", "--config", str(cfg), "--out", str(out), "--samples", "2000"]) == 0
        data = json.loads(out.read_text())
        assert len(data["balls"]) == 1
        assert data["budget"] <= 3.0

    def test_bad_atoms_header_exit_1(self, tmp_path, capsys):
        atoms = tmp_path / "atoms.csv"
        atoms.write_text("x,e,w\n1,1,1\n")
        cfg = write_scenario(tmp_path, measure={"path": "atoms.csv"})
        assert main(["cover", "--config", str(cfg), "--out", str(tmp_path / "c.json")]) == 1


class TestVerifyCommand:
    def test_small_verify_pass(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "growth.csv"
        rc = main(["verify", "--config", str(cfg), "--out", str(out), "--cert-samples", "500"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,abs_z,v,h,u,normalizer,ratio,in_cover"
        assert all(line.split(",")[8] in ("true", "false") for line in lines[1:])
        assert "decay assertion: pass" in capsys.readouterr().out

    def test_verify_detects_non_decay(self, tmp_path, capsys):
        cfg = write_scenario(
            tmp_path,
            m=0,
            alpha=1.95,
            density={"family": "power", "s": 0.95, "scale": 1.0},
            plan={"rays": [math.pi / 4], "radii": {"start": 10.0, "factor": 10.0, "count": 3}},
            quadrature={"abs_tol": 1e-6, "rel_tol": 2e-4, "max_depth": 80},
        )
        out = tmp_path / "growth.csv"
        rc = main(["verify", "--config", str(cfg), "--out", str(out), "--cert-samples", "200"])
        assert rc == 3
        assert "decay assertion: fail" in capsys.readouterr().out

    def test_verify_needs_min_factor(self, tmp_path, capsys):
        data = json.loads(json.dumps(BASE_SCENARIO))
        del data["min_factor_per_decade"]
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(data))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "g.csv")]) == 1

    def test_no_warning_when_cover_reaches_largest_radius(self, tmp_path, capsys):
        # the radius ladder ends at 100 * (10^(1/3))^6 = 10000.000000000004,
        # inside the |z| < 16384 the search radius 1e4 covers
        cfg = write_scenario(
            tmp_path,
            plan={"rays": [math.pi / 2], "radii": {"start": 100.0, "factor": 10.0 ** (1.0 / 3.0), "count": 7}},
            cover={"search_radius": 1e4},
        )
        rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "g.csv"), "--cert-samples", "200"])
        assert rc == 0
        assert "warning" not in capsys.readouterr().err

    def test_warning_when_cover_stops_short(self, tmp_path, capsys):
        cfg = write_scenario(
            tmp_path,
            plan={"rays": [math.pi / 2], "radii": {"start": 1.0, "factor": 10.0, "count": 4}},
            cover={"search_radius": 16.0},
        )
        rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "g.csv"), "--cert-samples", "200"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "warning: cover search radius 16" in err and "largest sampled radius 1000" in err

    def test_verify_byte_identical(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        assert main(["verify", "--config", str(cfg), "--out", str(out1), "--cert-samples", "200"]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(out2), "--cert-samples", "200"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestBoundsCommand:
    def test_case_1_clean(self, capsys):
        rc = main(["bounds", "--case", "1", "--m", "0", "--samples", "500", "--seed", "1"])
        assert rc == 0
        assert "0 violations / 500 samples" in capsys.readouterr().out

    def test_all_cases(self, capsys):
        rc = main(["bounds", "--case", "all", "--m", "2", "--samples", "300", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("violations") == 4

    def test_missing_config_exit_1(self, capsys):
        assert main(["solve", "--config", "/nonexistent.json", "--out", "/tmp/x.csv"]) == 1
