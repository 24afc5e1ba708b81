import json
import os

import pytest

from skewshift.cli import main
from skewshift.model import (
    default_theorem_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    d = model_to_dict(default_theorem_model())
    d["lambda"] = 100.0
    path = tmp_path_factory.mktemp("cli") / "model.json"
    save_model(model_from_dict(d), str(path))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_diophantine_golden(tmp_path, capsys):
    code = run_cli("diophantine", "--omega", "0.6180339887498949",
                   "--epsilon", "0.05", "--nmax", "10000")
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["passes"] is True


def test_lyapunov_jsonl(tmp_path, model_path):
    out = tmp_path / "lyap.jsonl"
    code = run_cli("lyapunov", "--model", model_path, "--E", "0",
                   "--scales", "10,20,40", "--mc", "1000", "--seed", "7",
                   "--out", str(out))
    assert code == 0
    recs = read_jsonl(out)
    assert [r["n"] for r in recs] == [10, 20, 40]
    assert all("running_inf" in r for r in recs)


def test_lyapunov_repeat_byte_identical(tmp_path, model_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    args = ["lyapunov", "--model", model_path, "--E", "0", "--scales",
            "10,20", "--mc", "500", "--seed", "7"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_budget_refusal_exit_3(model_path, capsys):
    code = run_cli("lyapunov", "--model", model_path, "--E", "0",
                   "--scales", "10", "--mc", "1e12")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BudgetError"


def test_initial_scale_budget_exit_3(model_path, capsys):
    code = run_cli("initial-scale", "--model", model_path, "--E", "0",
                   "--n", "10", "--grid", "8", "--budget", "1")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BudgetError"


def test_missing_model_exit_2(capsys):
    code = run_cli("lyapunov", "--model", "/nonexistent/m.json", "--E", "0",
                   "--scales", "10")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_avalanche_demo_diag(capsys):
    code = run_cli("avalanche", "--demo", "diag", "--mu", "1e4", "--n", "100")
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["pass"] is True
    assert abs(rec["lhs"]) < 1e-10


def test_deviation_cmd(tmp_path, model_path):
    out = tmp_path / "dev.jsonl"
    code = run_cli("deviation", "--model", model_path, "--E", "0",
                   "--scales", "10,20", "--grid", "16", "--out", str(out))
    assert code == 0
    recs = read_jsonl(out)
    assert len(recs) == 2
    assert all(0 <= r["measure"] <= 1 for r in recs)


def test_continuity_cmd(tmp_path, model_path):
    out = tmp_path / "cont.json"
    code = run_cli("continuity", "--model", model_path, "--E", "0",
                   "--deltas", "1e-2,1e-3", "--N", "8", "--grid", "16",
                   "--out", str(out))
    assert code == 0
    rec = json.loads(out.read_text())
    assert len(rec["rows"]) == 2


def test_induction_cmd(tmp_path, model_path):
    out = tmp_path / "ind.json"
    code = run_cli("induction", "--model", model_path, "--E", "0",
                   "--n", "4", "--N", "16", "--grid", "16", "--out", str(out))
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["n"] == 4 and rec["N"] == 16


@pytest.fixture(scope="module")
def archive(tmp_path_factory, model_path):
    root = tmp_path_factory.mktemp("arch")
    cfg = {
        "model_path": model_path, "n0": 4, "sigma": 0.02, "seed": 7,
        "mc_samples": 300, "grid": 16, "E_grid": [0.0],
        "scales": [4, 8], "deviation_scales": [8],
        "induction_pairs": [[4, 16]], "continuity_deltas": [1e-2, 1e-3],
        "continuity_N": 8, "diophantine_nmax": 2000,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = root / "archive"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def test_run_archive(archive):
    assert (archive / "MANIFEST").is_file()
    assert (archive / "tables" / "lyapunov.csv").is_file()


def test_plotdata(tmp_path, archive):
    out = tmp_path / "figs"
    assert run_cli("plotdata", "--archive", str(archive), "--out", str(out)) == 0
    for name in ["fig_lyapunov", "fig_deviation", "fig_continuity"]:
        assert (out / f"{name}.csv").is_file()
        svg = (out / f"{name}.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


def test_plotdata_empty_archive(tmp_path, capsys):
    code = run_cli("plotdata", "--archive", str(tmp_path), "--out",
                   str(tmp_path / "o"))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "missing" in err["message"]


def test_plotdata_golden_headers(tmp_path, archive):
    # column schemas are part of the output contract
    out = tmp_path / "figs"
    run_cli("plotdata", "--archive", str(archive), "--out", str(out))
    heads = {
        "fig_lyapunov": "n,L_u",
        "fig_deviation": "n,log10_measure",
        "fig_continuity": "log10_delta,log10_dL",
    }
    for name, head in heads.items():
        first = (out / f"{name}.csv").read_text().splitlines()[0]
        assert first == head
    # archive tables likewise
    assert (archive / "tables" / "lyapunov.csv").read_text().splitlines()[0] \
        == "E,n,L_plain,L_u,L_a,running_inf_u"


def test_threads_env_invariance(tmp_path, model_path, monkeypatch):
    outs = []
    for k in ("1", "4"):
        monkeypatch.setenv("SKEWSHIFT_THREADS", k)
        path = tmp_path / f"t{k}.jsonl"
        assert run_cli("lyapunov", "--model", model_path, "--E", "0",
                       "--scales", "12", "--mc", "2000", "--out", str(path)) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_threads_env_malformed_exit_2(model_path, monkeypatch, capsys):
    monkeypatch.setenv("SKEWSHIFT_THREADS", "two")
    code = run_cli("lyapunov", "--model", model_path, "--E", "0",
                   "--scales", "4", "--grid", "4")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "SKEWSHIFT_THREADS" in err["message"]


def test_run_model_path_default_and_relative(tmp_path, model_path):
    # without model_path the run uses the built-in theorem model; a relative
    # model_path resolves against the config file's directory
    (tmp_path / "rel").mkdir()
    save_model(load_model(model_path), str(tmp_path / "rel" / "m.json"))
    small = {"n0": 4, "sigma": 0.02, "mc_samples": 200, "grid": 8,
             "scales": [4], "deviation_scales": [8],
             "induction_pairs": [[4, 16]], "continuity_deltas": [1e-2],
             "diophantine_nmax": 2000}
    cases = [("empty", {}, default_theorem_model()),
             ("rel", dict(small, model_path="m.json"), load_model(model_path))]
    for name, cfg, want in cases:
        cfg_path = tmp_path / name / "run.json"
        cfg_path.parent.mkdir(exist_ok=True)
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"archive-{name}"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
        got = json.loads((out / "model.json").read_text())
        assert got == model_to_dict(want)
