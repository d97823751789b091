"""Self-test of the benchmark at tiny input sizes.

    python3 -m pytest -q benchmarks

Checks that a run prints every metric BENCHMARK.json names, with its unit,
that the output checks pass on real output and fail on corrupted output,
and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import functools
import json

import pytest

import checks
import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _tiny_run(monkeypatch, capsys, name, trace):
    monkeypatch.setattr(run, "run_workload", functools.partial(
        run.run_workload, sizes=workloads.TINY, min_reps=2))
    rc = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                   "--trace", str(trace)])
    assert rc == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, name, trace):
    lines = _tiny_run(monkeypatch, capsys, name, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        printed = [line.split() for line in lines if line.startswith(f"  {m['name']} ")]
        assert len(printed) == 1 and printed[0][2:] == [m["unit"]]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def files(seed, sub):
        inp = workloads.make_inputs("solve_grid", seed, tmp_path / sub, workloads.TINY)
        return inp.config.read_bytes(), (inp.workdir / "atoms.csv").read_bytes()

    assert files(1, "a") == files(1, "b")
    assert files(1, "a") != files(2, "c")


def _run_tiny(tmp_path, name, reps=2):
    inp = workloads.make_inputs(name, SEED, tmp_path, workloads.TINY)
    cmds = run.run_commands(run.load_cli(), inp, 0.0, reps)
    fails, _ = run.check_outputs(inp, cmds, SEED)
    assert not any(fails.values()), fails
    return inp, cmds


def _failures(inp, cmds):
    fails, _ = run.check_outputs(inp, cmds, SEED)
    return [msg for msgs in fails.values() for msg in msgs]


def test_verify_checks_catch_corrupted_cover(tmp_path):
    inp, cmds = _run_tiny(tmp_path, "verify_theorem2")
    path = inp.workdir / "cover_0.json"
    cover = json.loads(path.read_text())
    cover["balls"][0]["r"] *= 100.0
    path.write_text(json.dumps(cover))
    assert any("budget" in msg for msg in _failures(inp, cmds))


def test_verify_checks_catch_a_changed_growth_csv(tmp_path):
    inp, cmds = _run_tiny(tmp_path, "verify_theorem2")
    path = inp.workdir / "out_1.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("1", "2", 1)
    path.write_text("\n".join(lines) + "\n")
    assert any("differs" in msg for msg in _failures(inp, cmds))


def test_verify_checks_catch_a_failed_decay_assertion(tmp_path):
    inp, cmds = _run_tiny(tmp_path, "verify_theorem2")
    cmds[0].stdout = cmds[0].stdout.replace("decay assertion: pass", "decay assertion: fail")
    cmds[1].rc = 3
    msgs = _failures(inp, cmds)
    assert any("decay status" in msg for msg in msgs)
    assert any("exit code 3" in msg for msg in msgs)


def _edit_solve_csv(path, edit):
    header, rows = checks.read_csv(path)
    edit(rows)
    lines = [",".join(header)] + [",".join(repr(float(c)) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_solve_checks_catch_a_wrong_green_potential(tmp_path):
    inp, cmds = _run_tiny(tmp_path, "solve_grid", reps=1)

    def edit(rows):
        rows[2, 4] *= 1.0 + 1e-9
        rows[2, 5] = rows[2, 3] + rows[2, 4]

    _edit_solve_csv(inp.workdir / "out_0.csv", edit)
    assert any("numpy reference" in msg for msg in _failures(inp, cmds))


def test_solve_checks_catch_a_dishonest_error_estimate(tmp_path):
    inp, cmds = _run_tiny(tmp_path, "solve_grid", reps=1)

    def edit(rows):
        rows[:, 3] += 2.0 * (rows[:, 6] + rows[:, 7])
        rows[:, 5] = rows[:, 3] + rows[:, 4]

    _edit_solve_csv(inp.workdir / "out_0.csv", edit)
    msgs = _failures(inp, cmds)
    assert msgs and all("oracle" in msg for msg in msgs)


def test_bounds_checks_catch_a_violation(tmp_path):
    inp, cmds = _run_tiny(tmp_path, "bounds_sweep", reps=1)
    cmds[0].stdout = cmds[0].stdout.replace("case 2 m 4: 0 violations", "case 2 m 4: 1 violations")
    assert _failures(inp, cmds) == [f"case 2: 1 violations / {workloads.TINY.bounds_samples} samples"]


def test_a_crashing_command_fails_and_ends_the_loop(tmp_path):
    inp = workloads.make_inputs("bounds_sweep", SEED, tmp_path, workloads.TINY)

    class Broken:
        @staticmethod
        def main(argv):
            raise ZeroDivisionError("boom")

    cmds = run.run_commands(Broken, inp, 10.0, 3)
    assert [c.rc for c in cmds] == [-1]
    assert "ZeroDivisionError" in _failures(inp, cmds)[0]


def test_refuses_to_run_without_the_package_source(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    rc = run.main(["--workload", "bounds_sweep", "--seed", "1", "--seconds", "1"])
    assert rc != 0
    assert capsys.readouterr().out == ""
