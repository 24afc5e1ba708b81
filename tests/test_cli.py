import argparse
import json
import math
import os
import re
import shlex
from pathlib import Path

import pytest

from skewshift import cli
from skewshift.cli import main
from skewshift.model import (
    default_theorem_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from skewshift.multiscale import resolve_config


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


def test_model_required_exit_2(capsys):
    # every command that loads a model needs --model (it crashed with a
    # TypeError, exit 1, without it); avalanche may take --demo instead.
    # The usage error is JSON on stderr, as every validation error is
    for argv in (["lyapunov", "--E", "0", "--scales", "10"],
                 ["deviation", "--E", "0", "--scales", "10"],
                 ["induction", "--E", "0", "--n", "4", "--N", "16"],
                 ["continuity", "--E", "0", "--deltas", "1e-2"],
                 ["initial-scale", "--E", "0", "--n", "10"]):
        with pytest.raises(SystemExit) as ei:
            run_cli(*argv)
        assert ei.value.code == 2, argv
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ArgumentError", argv
        assert "--model" in err["message"], argv


def test_unread_flags_refused(model_path, capsys):
    # continuity draws no samples and avalanche runs on one thread
    for argv in (["continuity", "--model", model_path, "--E", "0", "--deltas", "1e-2",
                  "--seed", "3"],
                 ["avalanche", "--demo", "diag", "--threads", "2"]):
        with pytest.raises(SystemExit) as ei:
            run_cli(*argv)
        assert ei.value.code == 2, argv
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ArgumentError", argv
        assert "unrecognized arguments" in err["message"], argv


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


def test_deviation_zero_threshold_exit_2(model_path, capsys):
    # an explicit zero threshold is refused, not replaced by the default
    code = run_cli("deviation", "--model", model_path, "--E", "0",
                   "--scales", "10", "--grid", "8", "--threshold", "0")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "threshold must be positive"


@pytest.mark.parametrize("argv, named", [
    ("lyapunov --E inf --scales 8", "E must be finite"),
    ("lyapunov --E nan --scales 8", "E must be finite"),
    ("lyapunov --E 1e200 --scales 8", "overflows"),
    ("lyapunov --E 0 --scales 8 --budget nan", "budget"),
    ("lyapunov --E 0 --scales 8 --mc inf", "--mc"),
    ("lyapunov --E 0 --scales 8 --mc 2.7", "--mc"),
    ("lyapunov --E 0 --scales ,", "list"),
    ("deviation --E 0 --scales 8 --threshold nan", "threshold"),
    ("deviation --E 0 --scales 8 --threshold inf", "threshold"),
    ("continuity --E 0 --deltas nan", "deltas"),
    ("continuity --E 0 --deltas inf,1e-2", "deltas"),
    ("continuity --E 0 --deltas ,", "list"),
    ("continuity --E 0 --deltas 1e-2 --N 2", "N must be >= 3"),
    ("continuity --E 0 --deltas 1e-2 --N 1", "N must be >= 3"),
    ("induction --E 0 --n 4 --N 16 --gamma -1", "gamma"),
    ("induction --E 0 --n 4 --N 16 --gamma nan", "gamma"),
    ("avalanche --base 0.3,inf", "finite"),
    ("avalanche --budget nan", "budget"),
    ("avalanche --demo diag --mu 0", "--mu"),
    ("avalanche --demo hyperbolic --mu inf", "--mu"),
])
def test_non_finite_or_out_of_range_numbers_exit_2(model_path, capsys, argv, named):
    # refused before any sweep, as JSON on stderr: no traceback, no NaN
    # result, no check switched off
    cmd, *rest = shlex.split(argv)
    assert run_cli(cmd, "--model", model_path, *rest) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and named in err["message"]


def test_large_energy_and_mc_count_in_exponent_form(model_path, capsys):
    # (lambda |v| + |E|)^2 stays below DBL_MAX at E = 1e140; 1e3 is 1000 samples
    code = run_cli("lyapunov", "--model", model_path, "--E", "1e140", "--scales", "8",
                   "--mc", "1e3")
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["sampler"] == "mc:1000:seed=0"
    assert rec["value"] == pytest.approx(321.97, abs=0.01)


def test_avalanche_model_base(model_path, capsys):
    # the README line runs; a --base that is not two numbers is refused
    code = run_cli("avalanche", "--model", model_path, "--E", "0.0",
                   "--n", "16", "--blocks", "8", "--base", "0.31,0.17")
    assert code == 0
    assert "pass" in json.loads(capsys.readouterr().out)
    for base in ("16", "0.1,0.2,0.3", "0.1,x"):
        code = run_cli("avalanche", "--model", model_path, "--E", "0.0",
                       "--blocks", "8", "--base", base)
        assert code == 2
        assert "--base" in json.loads(capsys.readouterr().err)["message"]


def test_avalanche_model_n0_refused(model_path, capsys):
    # products start at n = 1
    code = run_cli("avalanche", "--model", model_path, "--n", "0", "--blocks", "8")
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_avalanche_model_budget(model_path, capsys):
    # --n 16 --blocks 8 multiplies 128 matrix steps
    args = ["avalanche", "--model", model_path, "--n", "16", "--blocks", "8"]
    assert run_cli(*args, "--budget", "127") == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BudgetError"
    assert run_cli(*args, "--budget", "128") == 0
    assert "pass" in json.loads(capsys.readouterr().out)


def test_avalanche_demo_huge_mu(capsys):
    # entries near 2e200 overflow a plain sum of squares
    code = run_cli("avalanche", "--demo", "hyperbolic", "--mu", "1e200", "--n", "4",
                   "--seed", "1")
    assert code == 0
    # valid JSON (no Infinity), and every demo matrix has |det| = 1
    rec = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert rec["hyp_norm"] is True and rec["min_log_norm"] >= math.log(1e200)
    assert abs(rec["max_log_det"]) <= 1e-9


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_emit_writes_non_finite_floats_as_null(tmp_path, capsys):
    rec = {"a": math.inf, "b": [-math.inf, math.nan, 1.5], "c": {"d": math.nan}, "e": 2}
    cli._emit(rec, None)
    cli._emit([rec, rec], str(tmp_path / "recs.jsonl"))
    want = {"a": None, "b": [None, None, 1.5], "c": {"d": None}, "e": 2}
    assert json.loads(capsys.readouterr().out, parse_constant=_refuse_constant) == want
    with open(tmp_path / "recs.jsonl") as fh:
        assert [json.loads(ln, parse_constant=_refuse_constant) for ln in fh] == [want, want]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every `skewshift ...` line of the README's CLI block runs as written,
    # from a directory that holds its model.json and run.json
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [ln for ln in block.splitlines() if ln.startswith("skewshift ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    save_model(default_theorem_model(), "model.json")
    Path("run.json").write_text("{}")
    for line in lines:
        assert run_cli(*shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
    assert Path("archive", "MANIFEST").is_file()
    assert Path("figs", "fig_lyapunov.svg").is_file()


def test_readme_flags_and_config_keys_match_code():
    # the README's flag table lists each subcommand's options, and its
    # "plus any of" list the keys a run config may hold besides the paths
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"\| command \| flags \|\n\|---\|---\|\n(.*?)\n\n", readme, re.S)
    documented = {}
    for row in table.group(1).splitlines():
        command, flags = row.strip("|").split("|")
        documented[command.strip().strip("`")] = set(re.findall(r"`(--\w+)`", flags))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {opt for a in sp._actions for opt in a.option_strings} - {"-h", "--help"}
              for name, sp in sub.choices.items()}
    assert documented == parsed
    keys = re.search(r"plus any of: (.*?)\.\s", readme, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", keys)) == set(resolve_config({}))


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


def test_threads_env_invariance(tmp_path, model_path):
    outs = []
    for k in ("1", "4"):
        path = tmp_path / f"t{k}.jsonl"
        assert run_cli("lyapunov", "--model", model_path, "--E", "0", "--scales", "12",
                       "--mc", "2000", "--threads", k, "--out", str(path)) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


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


def test_run_empty_energy_grid_exit_2(tmp_path, capsys):
    # refused at admission, before the archive directory is made
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"E_grid": []}))
    out = tmp_path / "archive"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["stage"] == "admission"
    assert not out.exists()


def test_non_finite_model_and_epsilon_exit_2(tmp_path, model_path, capsys):
    # a NaN in the model file or on the command line is a validation error
    d = json.loads(Path(model_path).read_text())
    for key, value in (("a_coeffs", [[0, 1.5, 0.0], [1, math.nan, 0.0]]),
                       ("lambda", math.nan)):
        bad = tmp_path / f"{key}.json"
        bad.write_text(json.dumps(dict(d, **{key: value})))
        code = run_cli("lyapunov", "--model", str(bad), "--E", "0",
                       "--scales", "8", "--grid", "4")
        assert code == 2, key
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ModelAdmissionError" and "finite" in err["message"]
    assert run_cli("diophantine", "--omega", "0.618", "--epsilon", "nan") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "epsilon" in err["message"]


@pytest.mark.parametrize("text, named", [
    ("[1, 2]", "object"), ('"x"', "object"),
    ('{"E_grid": 5}', "E_grid"), ('{"mc_samples": "10"}', "mc_samples"),
    ('{"n0": true}', "n0"), ('{"sigma": NaN}', "sigma"),
    ('{"scales": [8, "16"]}', "scales"), ('{"induction_pairs": [[4]]}', "induction_pairs"),
    ('{"model_path": 5}', "model_path"), ('{"output_dir": ["a"]}', "output_dir"),
    ('{"mc_sample": 10}', "unknown config key 'mc_sample'"),
])
def test_run_config_types_exit_2(tmp_path, capsys, text, named):
    # checked before the model is read or any stage runs; nothing is coerced
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    out = tmp_path / "archive"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and named in err["message"]
    assert not out.exists()
