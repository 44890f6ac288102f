import csv
import json
import re
import shutil
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spedgp import SinusoidSpec, gen_sinusoid, synthetic_oracle
from spedgp.cli import CONFIG_KEY_MAP, main

README = Path(__file__).resolve().parents[1] / "README.md"


def write_target(path, spec=SinusoidSpec(1.0, 0.55, 0.3, 2.1), p=21):
    strain = np.linspace(0.003, 0.16, 50)
    stress = synthetic_oracle(gen_sinusoid(spec, p), strain)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strain", "stress"])
        for s, v in zip(strain, stress):
            writer.writerow([repr(float(s)), repr(float(v))])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One full gen -> fit -> predict -> eval -> mimic pipeline run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen", "--n", "10", "--test-n", "4", "--seed", "3",
                 "--p", "21", "--out", str(data)]) == 0
    config = root / "config.json"
    config.write_text(json.dumps({"lambda_i": 0.5, "lambda_o": 0.5,
                                  "restarts": 1, "seed": 0,
                                  "max_sweeps": 25}))
    model = root / "model.json"
    assert main(["fit", "--train", str(data), "--config", str(config),
                 "--out", str(model)]) == 0
    preds = root / "preds.csv"
    assert main(["predict", "--model", str(model),
                 "--designs", str(data / "test_designs.csv"),
                 "--out", str(preds)]) == 0
    report = root / "report.json"
    assert main(["eval", "--model", str(model), "--test", str(data),
                 "--out", str(report)]) == 0
    target = root / "target.csv"
    write_target(target)
    mimic_out = root / "mimic.json"
    assert main(["mimic", "--model", str(model), "--target", str(target),
                 "--starts", "6", "--seed", "0", "--out", str(mimic_out)]) == 0
    return SimpleNamespace(root=root, data=data, config=config, model=model,
                           preds=preds, report=report, mimic=mimic_out)


class TestGen:
    def test_writes_train_and_test_files(self, ws):
        for name in ("designs.csv", "responses.csv", "designs_specs.csv",
                     "test_designs.csv", "test_responses.csv",
                     "test_designs_specs.csv"):
            assert (ws.data / name).is_file()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        argv = ["gen", "--n", "4", "--test-n", "2", "--seed", "5",
                "--p", "17", "--out"]
        assert main(argv + [str(tmp_path / "a")]) == 0
        assert main(argv + [str(tmp_path / "b")]) == 0
        assert "wrote 4 training and 2 test runs" in capsys.readouterr().out
        for name in ("designs.csv", "responses.csv", "designs_specs.csv",
                     "test_designs.csv", "test_responses.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("flag,message", [
        (["--seed", "-1"], "error: seed must be nonnegative"),
        (["--test-n", "-3"], "error: --test-n must be nonnegative"),
    ], ids=["negative_seed", "negative_test_n"])
    def test_negative_value_exits_2(self, tmp_path, capsys, flag, message):
        rc = main(["gen", "--n", "4", "--p", "17", "--out", str(tmp_path / "a"),
                   *flag])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "wrote" not in captured.out
        assert not (tmp_path / "a").exists()

    def test_seed_changes_data(self, tmp_path):
        assert main(["gen", "--n", "4", "--test-n", "0", "--seed", "5",
                     "--p", "17", "--out", str(tmp_path / "a")]) == 0
        assert main(["gen", "--n", "4", "--test-n", "0", "--seed", "6",
                     "--p", "17", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "designs.csv").read_bytes() != \
               (tmp_path / "b" / "designs.csv").read_bytes()
        assert not (tmp_path / "a" / "test_designs.csv").exists()


class TestFit:
    def test_model_and_trace_written(self, ws):
        doc = json.loads(ws.model.read_text())
        assert doc["family"] == "sped"
        assert len(doc["theta"]) == 11  # half spectrum of p=21
        trace = json.loads(ws.model.with_suffix(".trace.json").read_text())
        assert trace["config"]["lambda_I"] == 0.5
        objectives = trace["trace"]["restarts"][0]["objectives"]
        assert all(b <= a + 1e-9 * max(1.0, abs(a))
                   for a, b in zip(objectives, objectives[1:]))

    def test_cv_block_runs_and_is_recorded(self, ws, tmp_path, capsys):
        config = tmp_path / "cv.json"
        config.write_text(json.dumps({
            "restarts": 1, "max_sweeps": 12, "seed": 0,
            "cv": {"folds": 2, "lambda_i_grid": [0.4],
                   "lambda_o_grid": [0.6]}}))
        out = tmp_path / "model.json"
        assert main(["fit", "--train", str(ws.data), "--config", str(config),
                     "--out", str(out)]) == 0
        assert "cross-validation selected lambda_I=0.4" in capsys.readouterr().out
        trace = json.loads(out.with_suffix(".trace.json").read_text())
        assert trace["cv"] == {"lambda_I": 0.4, "lambda_o": 0.6, "folds": 2}
        assert trace["config"]["lambda_I"] == 0.4

    @pytest.mark.parametrize("key", [
        "lambda_eye", "sweep_tol", "glasso_tol", "glasso_max_iter",
        "theta_max_iter", "theta_grad_tol", "theta_memory", "epsilon_beta",
        "cv_score"])
    def test_unknown_config_key_exits_2(self, ws, tmp_path, capsys, key):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: 1.0}))
        rc = main(["fit", "--train", str(ws.data), "--config", str(config),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown config key" in err

    @pytest.mark.parametrize("text", [
        "[]",
        "{lambda",
        '{"restarts": "5"}',
        '{"restarts": 2.5}',
        '{"lambda_i": "1"}',
        '{"cv": {"folds": "x", "lambda_i_grid": [1.0], "lambda_o_grid": [0.5]}}',
        '{"cv": {"folds": 2.7, "lambda_i_grid": [1.0], "lambda_o_grid": [0.5]}}',
        '{"lambda_i": NaN}',
        '{"lambda_o": NaN}',
        '{"lambda_o": Infinity}',
        '{"nugget": NaN}',
        '{"restarts": true}',
        '{"max_sweeps": true}',
        '{"seed": false}',
        '{"lambda_i": true}',
        '{"lambda_o": true}',
        '{"nugget": false}',
        '{"cv": {"folds": true, "lambda_i_grid": [1.0], "lambda_o_grid": [0.5]}}',
        '{"seed": -1}',
        '{"cv": [2, [1.0], [0.5]]}',
        '{"cv": {"folds": 2, "lambda_i_grid": ["one"], "lambda_o_grid": [0.5]}}',
    ], ids=["array", "broken_json", "string_restarts", "float_restarts",
         "string_lambda", "string_folds", "fractional_folds", "nan_lambda_i",
         "nan_lambda_o", "inf_lambda_o", "nan_nugget", "bool_restarts",
         "bool_max_sweeps", "bool_seed", "bool_lambda_i", "bool_lambda_o",
         "bool_nugget", "bool_folds", "negative_seed", "cv_not_an_object",
         "string_cv_grid"])
    def test_malformed_config_exits_2(self, ws, tmp_path, capsys, text):
        config = tmp_path / "bad.json"
        config.write_text(text)
        rc = main(["fit", "--train", str(ws.data), "--config", str(config),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_bool_folds_rejected_as_not_an_integer(self, ws, tmp_path, capsys):
        # true would otherwise load as 1 fold and fail later for another reason
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"cv": {"folds": True, "lambda_i_grid": [1.0],
                                             "lambda_o_grid": [0.5]}}))
        rc = main(["fit", "--train", str(ws.data), "--config", str(config),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "cv folds must be an integer, got True" in capsys.readouterr().err

    def test_missing_config_exits_2(self, ws, tmp_path, capsys):
        rc = main(["fit", "--train", str(ws.data),
                   "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "missing file" in capsys.readouterr().err

    def test_readme_lists_the_accepted_keys(self):
        # the "Accepted keys: ..." sentence, without the parenthesized values
        sentence = re.search(r"Accepted keys:(.*?)\.", README.read_text(), re.S)[1]
        named = re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", sentence, flags=re.S))
        assert sorted(named) == sorted([*CONFIG_KEY_MAP, "cv"])

    def test_incomplete_cv_block_exits_2(self, ws, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"cv": {"folds": 2}}))
        rc = main(["fit", "--train", str(ws.data), "--config", str(config),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "cv block is missing keys" in capsys.readouterr().err

    def test_missing_training_files_exit_2(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("{}")
        rc = main(["fit", "--train", str(tmp_path / "nowhere"),
                   "--config", str(config), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "missing file" in capsys.readouterr().err


class TestPredict:
    def test_table_structure(self, ws):
        with ws.preds.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["design", "strain", "mean", "lower", "upper"]
        grid_len = 41  # default strain grid
        assert len(rows) == 1 + 4 * (grid_len + 1)
        assert rows[1] == ["0", "0.0", "0.0", "0.0", "0.0"]
        body = np.array([[float(v) for v in row[1:]] for row in rows[2:grid_len + 2]])
        assert np.all(body[:, 1] > 0)  # stresses are back-transformed
        assert np.all(body[:, 2] <= body[:, 1]) and np.all(body[:, 1] <= body[:, 3])

    def test_nan_nugget_model_exits_2(self, ws, tmp_path, capsys):
        doc = json.loads(ws.model.read_text())
        doc["nugget"] = float("nan")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert '"nugget": NaN' in model.read_text()
        rc = main(["predict", "--model", str(model),
                   "--designs", str(ws.data / "test_designs.csv"),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "error: nugget must be finite" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_missing_designs_file_exits_2(self, ws, tmp_path, capsys):
        rc = main(["predict", "--model", str(ws.model),
                   "--designs", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "missing file" in capsys.readouterr().err


class TestEval:
    def test_report_contents(self, ws):
        report = json.loads(ws.report.read_text())
        s = report["summary"]
        assert s["n_cases"] == 4
        assert 0.0 <= s["median_mare"]
        assert s["level"] == 0.9
        assert len(report["per_case"]) == 4
        assert {"mare", "kappa_true", "kappa_pred"} <= set(report["per_case"][0])


class TestMimic:
    def test_result_document(self, ws):
        doc = json.loads(ws.mimic.read_text())
        assert {"diameter", "spectrum", "objective", "trace", "active_set",
                "predicted_stress", "strain_grid"} <= set(doc)
        assert len(doc["spectrum"]) == 11
        assert len(doc["trace"]) == 6 + 1  # starts plus incumbent
        assert all(v > 0 for v in doc["predicted_stress"])

    def test_structure_csv_written(self, ws):
        path = ws.mimic.with_name("mimic_structure.csv")
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # header plus the one reconstructed design
        assert len(rows[1]) == 1 + 21  # diameter column plus curve values

    def test_negative_seed_exits_2(self, ws, tmp_path, capsys):
        target = tmp_path / "target.csv"
        write_target(target)
        rc = main(["mimic", "--model", str(ws.model), "--target", str(target),
                   "--starts", "2", "--seed", "-1", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "error: seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_missing_target_exits_2(self, ws, tmp_path, capsys):
        rc = main(["mimic", "--model", str(ws.model),
                   "--target", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "missing file" in capsys.readouterr().err


def broken_path(ws, root, flag, case):
    """A path for flag whose file is broken as case names."""
    name = {"--model": "model.json", "--config": "config.json", "--train": "train",
            "--test": "test", "--designs": "designs.csv", "--target": "target.csv",
            "--out": "out"}[flag]
    root.mkdir()
    path = root / name
    if case == "missing_dir":
        return root / "nodir" / name
    if case == "file_parent":
        path.write_text("")
        return path / name
    if case == "directory":
        path.mkdir()
    elif case == "non_utf8":
        path.write_bytes(b"\xff\xfe\x00")
    elif case == "invalid_json":
        path.write_text(ws.model.read_text()[:200])
    elif case in ("missing_key", "non_pd_sigma"):
        doc = json.loads(ws.model.read_text())
        if case == "missing_key":
            del doc["theta"]
        else:
            doc["Sigma"] = (-np.eye(len(doc["Sigma"]))).tolist()
        path.write_text(json.dumps(doc))
    elif case in ("ragged_specs", "header_only"):
        shutil.copytree(ws.data, path)
        for csv_path in path.glob("*.csv"):
            lines = csv_path.read_text().splitlines()
            if case == "header_only":
                lines = lines[:1]
            elif csv_path.name == "designs_specs.csv":
                lines[1] = lines[1].rsplit(",", 1)[0]
            csv_path.write_text("\n".join(lines) + "\n")
    elif case == "inf_strain":
        path.write_text("strain,stress\n0.001,0.5\ninf,0.5\n")
    return path


MODEL_CASES = {
    "missing_file": "missing file",
    "invalid_json": "model.json is not valid JSON",
    "missing_key": "model.json lacks the key 'theta'",
    "non_pd_sigma": "Sigma must be positive definite",
    "non_utf8": "cannot read",
    "directory": "cannot read",
}
#: (flag, case, command, message); the model cases keep their case-command ids
BOUNDARY_CASES = (
    [("--model", case, command, message) for case, message in MODEL_CASES.items()
     for command in ("predict", "eval", "mimic")]
    + [(flag, case, command, "cannot read")
       for flag, command in (("--config", "fit"), ("--designs", "predict"),
                             ("--target", "mimic"))
       for case in ("non_utf8", "directory")]
    + [("--out", "missing_dir", command, "cannot write")
       for command in ("fit", "predict", "eval", "mimic")]
    # gen creates its missing output directory, so a regular file stands in its way
    + [("--out", "file_parent", "gen", "cannot write"),
       ("--train", "ragged_specs", "fit", "designs_specs.csv: ragged rows: row 0"),
       ("--train", "header_only", "fit", "need at least 2 designs"),
       ("--test", "header_only", "eval", "test dataset is empty"),
       ("--target", "inf_strain", "mimic", "target strain and stress must be finite")]
)


@pytest.mark.parametrize("flag,case,command,message", BOUNDARY_CASES, ids=[
    f"{case}-{command}" if flag == "--model" else f"{flag[2:]}_{case}-{command}"
    for flag, case, command, _ in BOUNDARY_CASES])
def test_unreadable_model_exits_2(ws, tmp_path, capsys, flag, case, command, message):
    # every unreadable input and unwritable output exits 2 with its error
    target = tmp_path / "target.csv"
    write_target(target)
    args = {"gen": {"--n": "4", "--test-n": "0", "--p": "17"},
            "fit": {"--train": ws.data, "--config": ws.config},
            "predict": {"--model": ws.model, "--designs": ws.data / "test_designs.csv"},
            "eval": {"--model": ws.model, "--test": ws.data},
            "mimic": {"--model": ws.model, "--target": target, "--starts": "2"}}[command]
    args["--out"] = tmp_path / "out"
    args[flag] = broken_path(ws, tmp_path / "broken", flag, case)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, *(str(v) for item in args.items() for v in item)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not Path(args["--out"]).exists()
    assert not caught, [str(w.message) for w in caught]
