import json

import numpy as np
import pytest

from greyvar.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    PRESET_NAMES,
    cmd_discriminate,
    cmd_estimate,
    cmd_sample,
    cmd_validate,
    cmd_variation,
    load_preset,
    main,
    run_config,
)
from greyvar.errors import NumericalError
from greyvar.params import GreyParams
from greyvar.sampling import DyadicGrid, UniformGrid, sample_ggbm
from greyvar.serialize import (
    dump_report,
    load_bundle,
    path_from_csv,
    path_to_csv,
    save_bundle,
)



class TestSerialization:
    def test_path_csv_round_trip(self, rng):
        path = sample_ggbm(GreyParams(1.2, 0.7), DyadicGrid(5), rng)
        text = path_to_csv(path)
        back = path_from_csv(text)
        assert np.array_equal(back.values, path.values)
        assert back.grid == path.grid
        assert back.params == path.params
        assert back.seed == path.seed

    def test_uniform_grid_round_trip(self, rng):
        path = sample_ggbm(GreyParams(1.0, 0.5), UniformGrid(12), rng)
        back = path_from_csv(path_to_csv(path))
        assert back.grid == UniformGrid(12)
        assert np.array_equal(back.values, path.values)

    def test_bundle_round_trip(self, tmp_path, rng):
        paths = [
            sample_ggbm(GreyParams(1.2, 0.7), DyadicGrid(4), rng.stream(i)) for i in range(3)
        ]
        out = str(tmp_path / "runs.npz")
        save_bundle(out, paths, config={"note": "test"})
        back, header = load_bundle(out)
        assert len(back) == 3
        for a, b in zip(paths, back):
            assert np.array_equal(a.values, b.values)
            assert a.seed == b.seed
        assert header["params"] == {"alpha": 1.2, "beta": 0.7}
        assert header["config"] == {"note": "test"}

    def test_atomic_write_leaves_no_temp_files(self, tmp_path, rng):
        path = sample_ggbm(GreyParams(1.0, 1.0), DyadicGrid(3), rng)
        out = tmp_path / "p.csv"
        from greyvar.serialize import atomic_write_text

        atomic_write_text(str(out), path_to_csv(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]


class TestSampleCommand:
    def test_single_csv(self, tmp_path):
        cfg = {
            "process": "ggbm",
            "alpha": 1.2,
            "beta": 0.7,
            "grid": "dyadic",
            "level": 4,
            "n_paths": 1,
            "master_seed": 11,
            "out": str(tmp_path / "one.csv"),
            "format": "csv",
        }
        res = cmd_sample(cfg)
        assert res["files"] == [str(tmp_path / "one.csv")]
        back = path_from_csv((tmp_path / "one.csv").read_text())
        assert back.params == GreyParams(1.2, 0.7)

    def test_multi_csv_and_determinism(self, tmp_path):
        cfg = {
            "process": "fbm-circulant",
            "hurst": 0.7,
            "grid": "dyadic",
            "level": 5,
            "n_paths": 3,
            "master_seed": 5,
            "out": str(tmp_path / "p.csv"),
            "format": "csv",
        }
        first = cmd_sample(cfg)
        second = cmd_sample(cfg)
        assert first["checksum"] == second["checksum"]
        assert len(first["files"]) == 3

    def test_bundle_output(self, tmp_path):
        cfg = {
            "process": "fbm-cholesky",
            "hurst": 0.4,
            "grid": "uniform",
            "n": 10,
            "n_paths": 2,
            "master_seed": 9,
            "out": str(tmp_path / "b.npz"),
        }
        res = cmd_sample(cfg)
        paths, header = load_bundle(res["files"][0])
        assert len(paths) == 2 and header["n_paths"] == 2

    def test_unknown_process(self):
        from greyvar.cli import ConfigError

        with pytest.raises(ConfigError):
            cmd_sample({"process": "ou", "master_seed": 1, "level": 3})


class TestVariationCommand:
    def test_table_shape_and_csv(self, tmp_path):
        cfg = {
            "alpha": 1.2,
            "beta": 0.7,
            "level": 10,
            "n_paths": 8,
            "p_values": [1.0, 2.0],
            "levels": [6, 10],
            "master_seed": 3,
            "out": str(tmp_path / "v.csv"),
            "format": "csv",
        }
        res = cmd_variation(cfg)
        assert {t["p"] for t in res["table"]} == {1.0, 2.0}
        assert res["table"][0]["levels"] == [6, 7, 8, 9, 10]
        text = (tmp_path / "v.csv").read_text()
        assert text.splitlines()[0] == "level,p,value"
        assert len(text.splitlines()) == 1 + 2 * 5

    def test_regimes_reported(self):
        cfg = {
            "alpha": 1.0,
            "beta": 1.0,
            "level": 8,
            "n_paths": 2,
            "p_values": [1.0, 2.0, 3.0],
            "master_seed": 3,
        }
        res = cmd_variation(cfg)
        regimes = {t["p"]: t["regime"] for t in res["table"]}
        assert regimes == {1.0: "infinite", 2.0: "critical-finite", 3.0: "zero"}


class TestEstimateCommand:
    def test_summary_fields(self):
        cfg = {
            "alpha": 1.0,
            "beta": 1.0,
            "level": 10,
            "n_paths": 20,
            "p": 1.0,
            "fit_levels": [6, 10],
            "beta_region": "high",
            "master_seed": 7,
        }
        res = cmd_estimate(cfg)
        assert len(res["rows"]) == 20
        assert abs(res["summary"]["alpha_bias"]) < 0.2
        assert res["summary"]["beta_region"] == "high"
        assert "pooled_beta" in res["summary"]

    def test_csv_output(self, tmp_path):
        cfg = {
            "alpha": 1.2,
            "beta": 0.7,
            "level": 10,
            "n_paths": 5,
            "fit_levels": [6, 10],
            "master_seed": 7,
            "out": str(tmp_path / "est.csv"),
            "format": "csv",
        }
        cmd_estimate(cfg)
        lines = (tmp_path / "est.csv").read_text().splitlines()
        assert lines[0].startswith("path,alpha_hat")
        assert len(lines) == 6


class TestDiscriminateCommand:
    def test_confusion_matrix(self):
        cfg = {
            "candidates": [[1.0, 1.0], [1.6, 1.0]],
            "level": 10,
            "n_paths": 10,
            "threshold": 0.5,
            "master_seed": 13,
        }
        res = cmd_discriminate(cfg)
        assert len(res["matrix"]) == 2
        for entry in res["matrix"]:
            counts = entry["counts"]
            assert counts["first"] + counts["second"] + counts["inconclusive"] == 10

    def test_decision_records_on_request(self):
        cfg = {
            "candidates": [[1.0, 1.0], [1.6, 1.0]],
            "level": 10,
            "n_paths": 3,
            "record_decisions": True,
            "master_seed": 13,
        }
        res = cmd_discriminate(cfg)
        decisions = res["matrix"][0]["decisions"]
        assert len(decisions) == 3
        assert {"label", "v1", "v2", "mu1", "mu2", "d1", "d2", "threshold"} <= set(decisions[0])

    def test_indistinguishable_pairs_skipped(self):
        cfg = {
            "candidates": [[1.0, 0.5], [1.0, 0.5]],
            "level": 10,
            "n_paths": 4,
            "master_seed": 13,
        }
        res = cmd_discriminate(cfg)
        assert res["matrix"] == []
        assert len(res["skipped_pairs"]) == 1


class TestValidateCommand:
    def test_small_run(self):
        cfg = {
            "param_sets": [[1.0, 1.0]],
            "n_paths": 12000,
            "thetas": [0.0, 1.0],
            "s": 0.5,
            "t": 1.0,
            "moment_orders": [2],
            "moment_t": 1.0,
            "lags": [1, 8],
            "master_seed": 21,
        }
        res = cmd_validate(cfg)
        kinds = [c["check"] for c in res["checks"]]
        assert kinds == ["special-identities", "increment-cf", "moments", "mixing-decay"]
        assert res["all_passed"]


class TestValidateThreads:
    def test_threads_do_not_change_results(self):
        cfg = {
            "param_sets": [[1.0, 1.0], [1.2, 0.6]],
            "n_paths": 10_000,
            "thetas": [1.0],
            "moment_orders": [2],
            "lags": [1, 8],
            "master_seed": 21,
        }
        a = run_config("validate", dict(cfg), threads=1)
        b = run_config("validate", dict(cfg), threads=2)
        assert dump_report(a["results"]) == dump_report(b["results"])
        assert len(a["results"]["checks"]) == 7


class TestPathCount:
    @pytest.mark.parametrize(
        ("command", "cfg"),
        [
            ("estimate", {"alpha": 1.0, "beta": 1.0, "level": 10, "fit_levels": [6, 10]}),
            ("variation", {"alpha": 1.0, "beta": 1.0, "level": 8, "p_values": [2.0]}),
            ("discriminate", {"candidates": [[1.0, 1.0], [1.6, 1.0]], "level": 8}),
        ],
    )
    def test_zero_paths_is_usage_error(self, command, cfg, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(cfg, n_paths=0, master_seed=3)))
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        assert "n_paths" in capsys.readouterr().err

    def test_report_rejects_nan(self):
        with pytest.raises(NumericalError):
            dump_report({"alpha_mean": float("nan")})


class TestShell:
    def test_requires_config_or_preset(self, capsys):
        assert main(["sample"]) == EXIT_USAGE

    def test_rejects_both_config_and_preset(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        assert main(["sample", "--config", str(cfg), "--preset", "thm10-grid"]) == EXIT_USAGE

    def test_missing_config_file_is_io_error(self):
        assert main(["sample", "--config", "/nonexistent/c.json"]) == EXIT_IO

    def test_invalid_json_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert main(["sample", "--config", str(cfg)]) == EXIT_USAGE

    def test_missing_seed_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"process": "ggbm", "alpha": 1.0, "beta": 1.0, "level": 3}))
        assert main(["sample", "--config", str(cfg)]) == EXIT_USAGE

    def test_bad_field_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"alpha": 3.0, "beta": 1.0, "level": 8,
                                   "p_values": [1.0], "master_seed": 1}))
        assert main(["variation", "--config", str(cfg)]) == EXIT_USAGE

    def test_end_to_end_sample(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": "ggbm",
                    "alpha": 1.2,
                    "beta": 0.7,
                    "grid": "dyadic",
                    "level": 4,
                    "n_paths": 2,
                    "master_seed": 2,
                    "format": "csv",
                }
            )
        )
        code = main(
            ["sample", "--config", str(cfg), "--out", str(tmp_path / "s.csv"), "--seed", "4"]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["master_seed"] == 4
        assert report["version"]

    def test_results_section_byte_reproducible(self):
        cfg = {
            "alpha": 1.2,
            "beta": 0.7,
            "level": 9,
            "n_paths": 6,
            "p_values": [1.0, 2.0],
            "master_seed": 99,
        }
        a = run_config("variation", dict(cfg))
        b = run_config("variation", dict(cfg))
        assert dump_report(a["results"]) == dump_report(b["results"])
        assert dump_report(a["config"]) == dump_report(b["config"])

    def test_threads_do_not_change_results(self):
        cfg = {
            "candidates": [[1.0, 1.0], [1.6, 1.0]],
            "level": 9,
            "n_paths": 8,
            "master_seed": 42,
        }
        a = run_config("discriminate", dict(cfg), threads=1)
        b = run_config("discriminate", dict(cfg), threads=4)
        assert dump_report(a["results"]) == dump_report(b["results"])

    def test_env_thread_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("GREYVAR_THREADS", "2")
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "process": "ggbm",
                    "alpha": 1.0,
                    "beta": 1.0,
                    "grid": "dyadic",
                    "level": 3,
                    "n_paths": 2,
                    "master_seed": 8,
                }
            )
        )
        assert main(["sample", "--config", str(cfg)]) == EXIT_OK

    def test_config_echo_round_trip(self, capsys, tmp_path):
        payload = {
            "alpha": 1.0,
            "beta": 1.0,
            "level": 8,
            "n_paths": 2,
            "p_values": [2.0],
            "master_seed": 31,
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(payload))
        assert main(["variation", "--config", str(cfg)]) == EXIT_OK
        echoed = json.loads(capsys.readouterr().out)["config"]
        assert echoed == payload


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_load(self, name):
        cfg = load_preset(name)
        assert cfg["master_seed"] == 20260810
        assert cfg["command"] in ("variation", "discriminate", "validate")

    def test_unknown_preset(self):
        from greyvar.cli import ConfigError

        with pytest.raises(ConfigError):
            load_preset("nope")

    def test_shrunken_preset_runs(self):
        cfg = load_preset("prop7-trichotomy")
        cfg.update(level=10, n_paths=4, levels=[8, 10])
        command = cfg.pop("command")
        report = run_config(command, cfg)
        assert {t["regime"] for t in report["results"]["table"]} == {
            "zero",
            "infinite",
            "critical-finite",
        }

    def test_shrunken_discrimination_grid(self):
        cfg = load_preset("thm10-grid")
        cfg.update(level=9, n_paths=4)
        command = cfg.pop("command")
        report = run_config(command, cfg)
        pairs = {tuple(m["pair"]) for m in report["results"]["matrix"]}
        # 4 candidates, all pairs distinguishable
        assert len(pairs) == 6
