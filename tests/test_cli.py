import hashlib
import json
from pathlib import Path

import pytest

from catdks import cli
from catdks.cli import _write_json, main
from catdks.graphs import load_graph

DATA = Path(__file__).parent / "data"


def run(*args):
    return main(list(args))


# ---------------------------------------------------------------------------
# gen / plant


def test_gen_empty(tmp_path):
    out = tmp_path / "g.el"
    assert run("gen", "--n", "10", "--p", "0", "--out", str(out)) == 0
    assert out.read_text() == "10 0\n"
    sidecar = json.loads((tmp_path / "g.el.json").read_text())
    assert sidecar["model"] == "gnp"


def test_gen_alpha_form_and_round_trip(tmp_path):
    out = tmp_path / "g.el"
    assert run("gen", "--n", "50", "--alpha", "0.5", "--seed", "3",
               "--out", str(out)) == 0
    g = load_graph(out)
    assert run("gen", "--n", "50", "--alpha", "0.5", "--seed", "3",
               "--out", str(out)) == 0
    assert load_graph(out).edges == g.edges


def test_plant_sidecar(tmp_path):
    out = tmp_path / "p.el"
    assert run("plant", "--n", "40", "--alpha", "0.5", "--k", "6",
               "--beta", "1.0", "--seed", "2", "--out", str(out)) == 0
    sidecar = json.loads((tmp_path / "p.el.json").read_text())
    assert len(sidecar["planted"]) == 6
    assert sidecar["ground_truth_density"] == 5.0


def test_plant_empty_planted_set(tmp_path):
    # k = 0 with beta < 1 has no planted part to draw, not a zero division
    out = tmp_path / "p.el"
    assert run("plant", "--n", "10", "--alpha", "0.5", "--k", "0",
               "--beta", "0.5", "--seed", "2", "--out", str(out)) == 0
    sidecar = json.loads((tmp_path / "p.el.json").read_text())
    assert sidecar["planted"] == [] and sidecar["ground_truth_density"] is None


def test_plant_file_bytes_pinned(tmp_path):
    # SHA-256 recorded with the per-edge f-string writer (per_edge_writer in
    # test_graphs.py); the solve-planted benchmark reads files this command makes
    out = tmp_path / "p.el"
    assert run("plant", "--n", "1000", "--alpha", "0.5", "--k", "32",
               "--beta", "0.8", "--seed", "0", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "29c77071cc959c16b2c5a06ed64a35c2fc97277ffc2d4de0d841911f58a378ff"


def test_one_process_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    # main() builds its parser once per process: a usage error, a plant and a
    # solve run in turn here give the exit code, stderr and output files of
    # each command run alone in a fresh interpreter
    import os
    import subprocess
    import sys

    commands = [["gen", "--n", "10", "--no-such-flag", "1"],
                ["plant", "--n", "300", "--alpha", "0.5", "--k", "12", "--beta", "0.8",
                 "--seed", "4", "--out", "p.el"],
                ["solve", "--input", "p.el", "--k", "12", "--seed", "5", "--out", "sol.json"]]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir(), fresh.mkdir()

    def written(d):
        return [(d / f).read_bytes() for f in ("p.el", "p.el.json", "sol.json") if (d / f).exists()]

    monkeypatch.chdir(here)
    ours = []
    for argv in commands:
        rc = main(argv)
        ours.append((rc, capsys.readouterr().err, written(here)))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    theirs = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "catdks.cli", *argv], cwd=fresh,
                              env=env, capture_output=True, text=True, timeout=120)
        theirs.append((proc.returncode, proc.stderr, written(fresh)))
    assert [rc for rc, _, _ in ours] == [1, 0, 0]
    assert ours == theirs
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------------------
# solve


def test_solve_ratio_vs_planted(tmp_path):
    out = tmp_path / "p.el"
    run("plant", "--n", "40", "--alpha", "0.5", "--k", "6", "--beta", "1.0",
        "--seed", "2", "--out", str(out))
    rep = tmp_path / "sol.json"
    assert run("solve", "--input", str(out), "--k", "6", "--out", str(rep)) == 0
    record = json.loads(rep.read_text())
    assert record["ratio_vs"] == "planted"
    assert record["ratio"] <= 40 ** 0.5
    assert (tmp_path / "sol.json.timing.json").exists()


def test_solve_ratio_vs_brute_force(tmp_path):
    g = tmp_path / "g.el"
    run("gen", "--n", "14", "--p", "0.3", "--seed", "5", "--out", str(g))
    rep = tmp_path / "sol.json"
    assert run("solve", "--input", str(g), "--k", "5", "--out", str(rep)) == 0
    record = json.loads(rep.read_text())
    assert record["ratio_vs"] == "brute-force" and record["ratio"] >= 1.0


def test_solve_weighted_has_no_brute_force_ratio(tmp_path):
    g = tmp_path / "g.el"
    lines = [f"{u} {v} 1" for u in range(6) for v in range(u + 1, 6)]
    lines += [f"{6 + 2 * i} {7 + 2 * i} 1000" for i in range(6)]
    g.write_text(f"18 {len(lines)}\n" + "\n".join(lines) + "\n")
    rep = tmp_path / "sol.json"
    assert run("solve", "--input", str(g), "--k", "6", "--out", str(rep)) == 0
    record = _strict_json(rep)
    assert "ratio" not in record and "ratio_vs" not in record
    assert record["density"] >= 2 * 2000 / 6


def test_solve_deterministic_bytes(tmp_path):
    g = tmp_path / "g.el"
    run("gen", "--n", "30", "--p", "0.25", "--seed", "1", "--out", str(g))
    blobs = []
    for i in range(3):
        rep = tmp_path / f"sol{i}.json"
        assert run("solve", "--input", str(g), "--k", "6", "--seed", "9",
                   "--out", str(rep)) == 0
        blobs.append(rep.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def _strict_json(path):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_solve_edgeless_ratio_is_null(tmp_path):
    g = tmp_path / "g.el"
    g.write_text("5 0\n")
    rep = tmp_path / "sol.json"
    assert run("solve", "--input", str(g), "--k", "2", "--out", str(rep)) == 0
    record = _strict_json(rep)
    assert record["density"] == 0.0 and record["provenance"] == "edgeless"
    assert record["ratio"] is None and record["ratio_vs"] == "brute-force"


def test_write_json_refuses_nan_without_partial_file(tmp_path):
    out = tmp_path / "x.json"
    with pytest.raises(ValueError):
        _write_json(str(out), {"a": float("nan")})
    assert not out.exists()


# ---------------------------------------------------------------------------
# distinguish / bench determinism


def test_distinguish_csv_deterministic(tmp_path):
    blobs = []
    for i in range(3):
        out = tmp_path / f"d{i}.csv"
        assert run("distinguish", "--test", "degree", "--n", "150",
                   "--alpha", "0.5", "--k", "12", "--beta", "1.0",
                   "--trials", "4", "--seed", "5", "--out", str(out)) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    summary = json.loads((tmp_path / "d0.csv.summary.json").read_text())
    assert summary["trials"] == 8
    assert summary["accuracy"] >= 0.75


def test_bench_summary_shape(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--n", "40", "--alphas", "0.4,0.5,0.6", "--trials", "2",
               "--seed", "1", "--out", str(out)) == 0
    summary = json.loads((tmp_path / "bench.csv.summary.json").read_text())
    assert [row["alpha"] for row in summary["grid"]] == [0.4, 0.5, 0.6]
    assert out.read_text().splitlines()[0] == \
        "grid,alpha,n,k,seed,null_density,ratio"


# ---------------------------------------------------------------------------
# lp-export


def test_lp_export_matches_golden(tmp_path):
    g = tmp_path / "edge.el"
    g.write_text("2 1\n0 1\n")
    out = tmp_path / "edge.lp"
    assert run("lp-export", "--input", str(g), "--k", "2", "--d", "1",
               "--t", "1", "--out", str(out)) == 0
    assert out.read_text() == (DATA / "lp_edge_t1.lp").read_text()


def test_lp_export_keeps_tiny_coefficients(tmp_path):
    # a coefficient rounded to a denominator bound would write -d as "+ 0"
    g = tmp_path / "edge.el"
    g.write_text("2 1\n0 1\n")
    out = tmp_path / "edge.lp"
    assert run("lp-export", "--input", str(g), "--k", "2", "--d", "1/10000000000000",
               "--t", "1", "--out", str(out)) == 0
    text = out.read_text()
    assert " deg[-|0]: 1 y_0_1 - 1e-13 y_0 >= 0\n" in text
    assert " deg[-|1]: 1 y_1_0 - 1e-13 y_1 >= 0\n" in text
    assert "+ 0 y_" not in text


# ---------------------------------------------------------------------------
# exit codes / config


def test_usage_errors_exit_1(tmp_path):
    assert run("solve", "--k", "3", "--out", str(tmp_path / "x")) == 1  # no input
    assert run("frobnicate") == 1  # unknown subcommand
    assert run("distinguish", "--test", "nope", "--out", str(tmp_path / "y")) == 1


def test_runtime_error_exit_2(tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_text("2 1\n0 0\n")
    assert run("solve", "--input", str(bad), "--k", "2",
               "--out", str(tmp_path / "s.json")) == 2
    assert run("solve", "--input", str(tmp_path / "missing.el"), "--k", "2",
               "--out", str(tmp_path / "s.json")) == 2
    bad.write_text("4 3\n0 1 inf\n1 2 1\n2 3 1\n")
    assert run("solve", "--input", str(bad), "--k", "2",
               "--out", str(tmp_path / "s.json")) == 2
    assert not (tmp_path / "s.json").exists()


def test_budget_exceeded_exit_3(tmp_path):
    g = tmp_path / "g.el"
    run("gen", "--n", "30", "--p", "0.2", "--seed", "0", "--out", str(g))
    assert run("lp-export", "--input", str(g), "--k", "5", "--d", "1",
               "--t", "3", "--budget", "1000",
               "--out", str(tmp_path / "big.lp")) == 3


def test_config_file_fail_closed(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, "n": 10, "p": 0.0}))
    out = tmp_path / "g.el"
    assert run("gen", "--config", str(cfg), "--out", str(out)) == 0
    assert out.read_text() == "10 0\n"
    cfg.write_text(json.dumps({"schema_version": 1, "n": 10, "bogus": 1}))
    assert run("gen", "--config", str(cfg), "--out", str(out)) == 1
    cfg.write_text(json.dumps({"n": 10}))  # missing schema version
    assert run("gen", "--config", str(cfg), "--out", str(out)) == 1


def test_config_integer_n_still_accepted(tmp_path):
    # the JSON type checks reject 30.9 and true, not a plain integer
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, "n": 30}))
    out = tmp_path / "g.el"
    assert run("gen", "--config", str(cfg), "--p", "1", "--out", str(out)) == 0
    assert out.read_text().splitlines()[0] == "30 435"


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, "n": 10, "p": 1.0}))
    out = tmp_path / "g.el"
    assert run("gen", "--config", str(cfg), "--p", "0", "--out", str(out)) == 0
    assert out.read_text() == "10 0\n"


@pytest.mark.parametrize("argv, config, code", [
    (["distinguish", "--test", "degree", "--trials", "0"], None, 2),
    (["bench", "--trials", "0"], None, 2),
    (["gen"], [{"schema_version": 1, "n": 10, "p": 0}], 1),
    (["gen"], {"schema_version": 1, "n": [10], "p": 0}, 2),
    (["gen"], {"schema_version": True, "n": 10, "p": 0}, 1),
    (["solve", "--input", "{graph}", "--k", "2"], None, 2),
    (["distinguish", "--test", "degree", "--n", "0", "--trials", "1"], None, 2),
    (["bench", "--n", "0", "--trials", "1"], None, 2),
    (["gen", "--n", "0", "--alpha", "0.5"], None, 2),
    (["lp-export", "--input", "{graph}", "--k", "2", "--d", "1/0"], None, 2),
    (["lp-export", "--input", "{graph}", "--k", "2"], {"schema_version": 1, "d": True}, 2),
    (["lp-export", "--input", "{graph}", "--k", "-1", "--d", "1"], None, 2),
    (["gen"], {"schema_version": 1, "n": 30.9, "p": True}, 2),
    (["gen"], {"schema_version": 1, "n": 30, "p": True}, 2),
    (["distinguish", "--test", "degree", "--n", "20"], {"schema_version": 1, "trials": 1.9}, 2),
    (["bench", "--n", "20", "--trials", "1"], {"schema_version": 1, "alphas": [True, 0.5]}, 2),
], ids=["distinguish-trials-0", "bench-trials-0", "config-not-object",
        "config-value-wrong-type", "schema-version-bool", "sidecar-not-object",
        "distinguish-n-0", "bench-n-0", "gen-alpha-n-0", "lp-export-d-zero-denominator",
        "lp-export-d-true", "lp-export-k-negative", "config-n-float-p-bool", "config-p-bool",
        "config-trials-float", "config-alphas-bool"])
def test_bad_input_fails_closed_without_output(tmp_path, argv, config, code):
    graph = tmp_path / "g.el"
    graph.write_text("3 1\n0 1\n")
    (tmp_path / "g.el.json").write_text("[1]\n")
    argv = [str(graph) if a == "{graph}" else a for a in argv]
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "c.json")]
    assert run(*argv, "--out", str(tmp_path / "out")) == code
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("density", [
    [5], {"x": 1}, "five", True, "3.5", -1, float("nan"),
    pytest.param(1e400, id="1e400"), pytest.param(10 ** 400, id="10**400")])
def test_bad_sidecar_density_fails_before_solve(tmp_path, monkeypatch, density):
    graph = tmp_path / "g.el"
    graph.write_text("3 1\n0 1\n")
    (tmp_path / "g.el.json").write_text(json.dumps({"ground_truth_density": density}))

    def solve_must_not_run(*args):
        raise AssertionError("approximate ran before the sidecar was checked")

    monkeypatch.setattr(cli, "approximate", solve_must_not_run)
    assert run("solve", "--input", str(graph), "--k", "2",
               "--out", str(tmp_path / "out")) == 2
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("density, ratio, ratio_vs", [
    (None, 1.0, "brute-force"), (0, 1.0, "brute-force"), (0.0, 1.0, "brute-force"),
    (2, 2.0, "planted"), (2.5, 2.5, "planted")])
def test_sidecar_density_null_or_zero_means_no_planted_ratio(tmp_path, density, ratio,
                                                             ratio_vs):
    graph = tmp_path / "g.el"
    graph.write_text("3 1\n0 1\n")
    (tmp_path / "g.el.json").write_text(json.dumps({"ground_truth_density": density}))
    out = tmp_path / "out"
    assert run("solve", "--input", str(graph), "--k", "2", "--out", str(out)) == 0
    record = json.loads(out.read_text())
    assert (record["ratio"], record["ratio_vs"]) == (ratio, ratio_vs)


def test_solve_negative_vertex_count_exits_2(tmp_path, capsys):
    # rejected by load_graph, not by a later check that happens to fail on it
    graph = tmp_path / "g.el"
    graph.write_text("-3 0\n")
    assert run("solve", "--input", str(graph), "--k", "2",
               "--out", str(tmp_path / "out")) == 2
    assert list(tmp_path.glob("out*")) == []
    assert "n = -3 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_one_exits_2(tmp_path, budget):
    graph = tmp_path / "g.el"
    graph.write_text("5 0\n")
    out = tmp_path / "sol.json"
    assert run("solve", "--input", str(graph), "--k", "2", "--leaf-budget", budget,
               "--out", str(out)) == 2
    assert run("distinguish", "--test", "caterpillar", "--trials", "1",
               "--budget", budget, "--out", str(out)) == 2
    assert not out.exists()


# a triangle among six vertices, and two weight buckets that each answer
# (0, 1, 2): greedy decides both, so approximate must check its settings first
_SOLVE_GRAPHS = {"triangle": "6 3\n0 1\n1 2\n0 2\n", "tie": "4 2\n0 1 8.0\n0 2 3.0\n"}


@pytest.mark.parametrize("graph", sorted(_SOLVE_GRAPHS))
@pytest.mark.parametrize("flags", [("--s-max", "1"), ("--s-max", "0"), ("--seed", "-1")])
def test_solve_setting_out_of_range_exits_2(tmp_path, graph, flags):
    path = tmp_path / "g.el"
    path.write_text(_SOLVE_GRAPHS[graph])
    assert run("solve", "--input", str(path), "--k", "3", *flags,
               "--out", str(tmp_path / "out")) == 2
    assert list(tmp_path.glob("out*")) == []


# every parameter of each subcommand, as its config value; {graph} is a
# planted graph with a ground-truth sidecar
_EVERY_PARAM = {
    "gen": {"n": 30, "p": 0.2, "alpha": 0.5},
    "plant": {"n": 40, "alpha": 0.5, "k": 6, "beta": 0.9},
    "solve": {"input": "{graph}", "k": 6, "s_max": 3, "leaf_budget": 100},
    "distinguish": {"test": "spectral", "n": 80, "alpha": 0.5, "k": 10,
                    "beta": 1.0, "trials": 2, "c": 1.5, "r": 2, "s": 3,
                    "rho": 0.4, "budget": 300},
    "lp-export": {"input": "{graph}", "k": 2, "d": "1/2", "t": 1, "budget": 10_000},
    "bench": {"n": 30, "alphas": [0.4, 0.5], "trials": 1, "budget": 50},
}


@pytest.mark.parametrize("sub", sorted(_EVERY_PARAM))
def test_flags_and_config_give_the_same_run(tmp_path, sub):
    graph = tmp_path / "p.el"
    assert run("plant", "--n", "12", "--alpha", "0.5", "--k", "4", "--beta",
               "1.0", "--seed", "2", "--out", str(graph)) == 0
    params = {key: str(graph) if value == "{graph}" else value
              for key, value in _EVERY_PARAM[sub].items()}
    flags = []
    for key, value in params.items():
        flags += ["--" + key.replace("_", "-"),
                  ",".join(map(str, value)) if isinstance(value, list)
                  else str(value)]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, **params}))
    outputs = []
    for source in (flags, ["--config", str(cfg)]):
        out = tmp_path / f"run{len(outputs)}"
        out.mkdir()
        assert run(sub, *source, "--seed", "3", "--out", str(out / "o")) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()
                        if not f.name.endswith(".timing.json")})
    assert outputs[0] == outputs[1] and outputs[0]
