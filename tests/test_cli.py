import csv
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import zipfile
from concurrent.futures import Executor, Future

import numpy as np
import pytest

import greyvar
from greyvar.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    PRESET_NAMES,
    ConfigError,
    _pmap,
    cmd_discriminate,
    cmd_estimate,
    cmd_sample,
    cmd_validate,
    cmd_variation,
    load_preset,
    main,
    run_config,
)
from greyvar.errors import GreyVarError, InputError, NumericalError, ParameterError, PreconditionError
from greyvar.inference import (
    BetaRegion,
    Candidate,
    discriminate,
    distinguishability_check,
    estimate_alpha,
    estimate_beta,
    estimate_beta_pooled,
    region_for,
)
from greyvar.params import GreyParams
from greyvar.sampling import (
    DyadicGrid,
    RngSpec,
    SamplePath,
    UniformGrid,
    sample_ggbm,
    sample_ggbm_batch,
)
from greyvar.serialize import (
    atomic_write_bytes,
    dump_report,
    load_bundle,
    path_from_csv,
    path_to_csv,
    save_bundle,
    table_csv,
)
from greyvar.validation import check_even_moments, check_increment_cf, check_mixing_decay
from greyvar.variation import variation_sequence

from conftest import traced_peak



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

    def _paths(self, rng, n=3, level=4, params=GreyParams(1.2, 0.7)):
        return [sample_ggbm(params, DyadicGrid(level), rng.stream(i)) for i in range(n)]

    def test_loaded_paths_are_contiguous(self, tmp_path, rng):
        out = str(tmp_path / "runs.npz")
        save_bundle(out, self._paths(rng))
        back, _ = load_bundle(out)
        assert all(p.values.flags.c_contiguous for p in back)

    def test_bundle_members_are_stored_uncompressed(self, tmp_path, rng):
        out = str(tmp_path / "runs.npz")
        save_bundle(out, self._paths(rng))
        with zipfile.ZipFile(out) as zf:
            infos = zf.infolist()
        assert sorted(i.filename for i in infos) == ["header.npy", "times.npy", "values.npy"]
        assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)

    def test_compressed_row_major_bundle_still_loads(self, tmp_path, rng):
        paths = self._paths(rng)
        bundle = str(tmp_path / "new.npz")
        save_bundle(bundle, paths)
        with np.load(bundle) as data:
            header = data["header"]
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            values=np.stack([p.values for p in paths], axis=1),
            times=paths[0].grid.times(),
            header=header,
        )
        old = str(tmp_path / "old.npz")
        atomic_write_bytes(old, buf.getvalue())
        back, _ = load_bundle(old)
        for a, b in zip(paths, back):
            assert np.array_equal(a.values, b.values)
            assert b.values.flags.c_contiguous
            assert a.seed == b.seed

    def test_mixed_params_rejected(self, tmp_path, rng):
        paths = self._paths(rng, n=1) + self._paths(rng, n=1, params=GreyParams(1.6, 0.3))
        out = tmp_path / "runs.npz"
        with pytest.raises(InputError, match="params"):
            save_bundle(str(out), paths)
        assert not out.exists()

    @pytest.mark.parametrize(
        ("values", "n_seeds"),
        [(np.zeros((17, 3)), 2), (np.zeros(17), 1)],
        ids=["short-seeds", "one-dimensional"],
    )
    def test_malformed_bundle_names_file(self, values, n_seeds, tmp_path):
        header = {
            "grid": {"grid": "dyadic", "level": "4"},
            "n_paths": 3,
            "params": None,
            "seeds": [{"master_seed": 1, "stream_id": i} for i in range(n_seeds)],
            "config": None,
        }
        out = str(tmp_path / "bad.npz")
        buf = io.BytesIO()
        np.savez(
            buf,
            values=values,
            times=DyadicGrid(4).times(),
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        )
        atomic_write_bytes(out, buf.getvalue())
        with pytest.raises(InputError, match="bad.npz"):
            load_bundle(out)

    @pytest.mark.parametrize(
        ("edit", "match"),
        [
            (lambda t: t.replace("\n0.125,", "\n0.125,1.0,"), "line 4"),
            (lambda t: t.replace("\n0.25,", "\n0.25,x"), "line 5"),
            (lambda t: t.replace(" level=3", ""), "level= must be an integer, got None"),
            (lambda t: t.replace("grid=dyadic", "grid=sparse"), "grid= must be 'dyadic' or 'uniform'"),
            (lambda t: t.replace("level=3", "level=x"), "level= must be an integer, got 'x'"),
            (lambda t: t.replace("alpha=1.2", "alpha=?"), "alpha= must be a number, got '\\?'"),
        ],
        ids=["three-columns", "non-float", "no-level", "grid-unknown", "level-not-int", "alpha-not-float"],
    )
    def test_malformed_path_csv_names_line_or_field(self, edit, match, rng):
        text = path_to_csv(sample_ggbm(GreyParams(1.2, 0.7), DyadicGrid(3), rng))
        with pytest.raises(InputError, match=match):
            path_from_csv(edit(text))

    @pytest.mark.parametrize(
        "content",
        [b"t,value\n0.0,0.0\n", b"", b"PK\x03\x04 truncated"],
        ids=["text", "empty", "broken-zip"],
    )
    def test_non_bundle_file_names_file(self, content, tmp_path):
        out = tmp_path / "notes.npz"
        out.write_bytes(content)
        with pytest.raises(InputError, match="notes.npz"):
            load_bundle(str(out))

    @pytest.mark.parametrize(
        "header",
        [
            None,
            {"n_paths": 2},
            {"grid": {"grid": "dyadic", "level": "x"}},
            {"grid": {"grid": "dyadic", "level": 3}, "seeds": [1, 2]},
            {"grid": {"grid": "dyadic", "level": 3}, "seeds": [{"master_seed": 1}, None]},
            {"grid": {"grid": "dyadic", "level": 3}, "params": {"alpha": 1.0}},
            {"grid": {"grid": "dyadic", "level": 3}, "params": [1.0, 0.5]},
            {"grid": "dyadic"},
        ],
        ids=["no-header", "no-grid", "level-not-int", "seeds-not-objects", "seed-without-stream_id",
             "params-without-beta", "params-not-object", "grid-not-object"],
    )
    def test_bundle_without_usable_header_names_file(self, header, tmp_path):
        out = str(tmp_path / "bare.npz")
        members = {"values": np.zeros((9, 2))}
        if header is not None:
            members["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(out, **members)
        with pytest.raises(InputError, match="bare.npz"):
            load_bundle(out)

    @pytest.mark.parametrize(
        ("field", "header"),
        [
            ("master_seed", {"seeds": [{"master_seed": -1, "stream_id": 0}, None]}),
            ("alpha", {"params": {"alpha": 3.0, "beta": 0.5}}),
        ],
        ids=["negative-master_seed", "alpha-out-of-range"],
    )
    def test_out_of_range_header_value_names_field(self, field, header, tmp_path):
        out = str(tmp_path / "bare.npz")
        header = np.frombuffer(json.dumps({"grid": {"grid": "dyadic", "level": 3}, **header}).encode(), dtype=np.uint8)
        np.savez(out, values=np.zeros((9, 2)), header=header)
        with pytest.raises(ParameterError, match=f"^{field} "):
            load_bundle(out)

    def test_strided_column_gives_equal_statistics(self, rng):
        params = GreyParams(1.2, 0.7)
        stacked = np.stack([p.values for p in self._paths(rng, n=4, level=10)], axis=1)
        column = stacked[:, 2]
        assert not column.flags.c_contiguous
        strided = SamplePath(DyadicGrid(10), column, params)
        contiguous = SamplePath(DyadicGrid(10), column.copy(), params)
        assert strided.values.flags.c_contiguous
        own = Candidate(params)
        rival_alpha, rival_beta = Candidate(GreyParams(1.6, 0.7)), Candidate(GreyParams(1.2, 0.3))

        def stats(path):
            return (
                [r.value for r in variation_sequence(path, 2.0 / 1.2, range(11))],
                estimate_alpha(path, 1.0, (4, 10)),
                estimate_beta(path, 1.2, BetaRegion.LOW),
                discriminate(path, own, rival_alpha).to_dict(),
                discriminate(path, own, rival_beta).to_dict(),
            )

        assert stats(strided) == stats(contiguous)

    def test_zero_d_values_rejected(self):
        with pytest.raises(InputError):
            SamplePath(DyadicGrid(0), np.float64(0.0))

    def test_atomic_write_leaves_no_temp_files(self, tmp_path, rng):
        path = sample_ggbm(GreyParams(1.0, 1.0), DyadicGrid(3), rng)
        out = tmp_path / "p.csv"
        atomic_write_bytes(str(out), path_to_csv(path).encode())
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
            "process": "ggbm",
            "alpha": 1.4,
            "beta": 1.0,
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
            "process": "ggbm",
            "alpha": 0.8,
            "beta": 1.0,
            "grid": "uniform",
            "n": 10,
            "n_paths": 2,
            "master_seed": 9,
            "out": str(tmp_path / "b.npz"),
        }
        res = cmd_sample(cfg)
        paths, header = load_bundle(res["files"][0])
        assert len(paths) == 2 and header["n_paths"] == 2

    @pytest.mark.parametrize("process", ["fbm-cholesky", "fbm-circulant"])
    def test_retired_fbm_process_exits_2(self, process, tmp_path, capsys, monkeypatch):
        # A config of the old form names its 'hurst' field as unknown and the
        # replacement in one message; without it, the process error does.
        monkeypatch.setattr("greyvar.cli.sample_ggbm", _forbidden)
        old = {"process": process, "hurst": 0.6, "grid": "uniform", "n": 999, "n_paths": 2, "master_seed": 13}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(old))
        assert main(["sample", "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'hurst'" in err and "'ggbm'" in err and "alpha = 2 * hurst" in err and "beta: 1" in err
        del old["hurst"]
        path.write_text(json.dumps(old))
        assert main(["sample", "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'ggbm'" in err and "alpha = 2 * hurst" in err and "beta: 1" in err

    def test_checksum_does_not_depend_on_blas_threads(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"process": "ggbm", "alpha": 1.2, "beta": 0.7, "grid": "uniform", "n": 999, "n_paths": 2, "master_seed": 5}
        ))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        checksums = []
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-m", "greyvar.cli", "sample", "--config", str(cfg)],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            checksums.append(json.loads(run.stdout)["results"]["checksum"])
        assert checksums[0] == checksums[1]

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

    @pytest.mark.parametrize("level", [0, 1, 5, 10])
    def test_default_levels_end_at_level(self, level):
        cfg = {"alpha": 1.2, "beta": 0.7, "level": level, "n_paths": 2, "p_values": [2.0], "master_seed": 3}
        lo = min(level, max(1, level - 8))
        res = cmd_variation(cfg)
        assert res["table"][0]["levels"] == list(range(lo, level + 1))
        assert dump_report(res) == dump_report(cmd_variation(dict(cfg, levels=[lo, level])))


class TestEstimateCommand:
    def test_summary_fields(self):
        cfg = {
            "alpha": 1.0,
            "beta": 1.0,
            "level": 10,
            "n_paths": 20,
            "fit_levels": [6, 10],
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

    def test_decision_records_on_request(self, tmp_path, monkeypatch, capsys):
        # Per-path records are not part of results: discriminate(...).to_dict()
        # gives them, and the retired field is an unknown one before any path.
        monkeypatch.setattr("greyvar.cli.sample_ggbm", _forbidden)
        cfg = {
            "candidates": [[1.0, 1.0], [1.6, 1.0]],
            "level": 10,
            "n_paths": 3,
            "record_decisions": True,
            "master_seed": 13,
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["discriminate", "--config", str(path)]) == EXIT_USAGE
        assert "unknown config field(s) for discriminate: 'record_decisions'" in capsys.readouterr().err

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
            "master_seed": 21,
        }
        res = cmd_validate(cfg)
        kinds = [c["check"] for c in res["checks"]]
        assert kinds == ["special-identities", "increment-cf", "moments", "mixing-decay"]
        assert res["all_passed"]

    @pytest.mark.parametrize(
        ("key", "threads"),
        [
            pytest.param("thetas", "1", id="thetas"),
            pytest.param("moment_orders", "1", id="moment_orders"),
            pytest.param("thetas", "2", id="thetas-threads-2"),
            pytest.param("moment_orders", "2", id="moment_orders-threads-2"),
        ],
    )
    def test_check_without_rows_is_usage_error(self, key, threads, tmp_path, monkeypatch, capsys):
        # A battery whose check has no rows stops with the check's own
        # message, raised in a worker thread at 2 threads.
        battery = {"thetas": "_THETAS", "moment_orders": "_MOMENT_ORDERS"}
        monkeypatch.setattr(f"greyvar.cli.{battery[key]}", ())
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"param_sets": [[1.0, 1.0]], "n_paths": 10_000, "master_seed": 1}))
        assert main(["validate", "--config", str(path), "--threads", threads]) == EXIT_USAGE
        message = {"thetas": "thetas must hold at least one frequency",
                   "moment_orders": "orders must hold at least one moment order"}[key]
        assert capsys.readouterr().err == f"usage error: {message}\n"


class TestValidateThreads:
    def test_threads_do_not_change_results(self, monkeypatch):
        cfg = {
            "param_sets": [[1.0, 1.0], [1.2, 0.6]],
            "n_paths": 10_000,
            "master_seed": 21,
        }
        a = run_config("validate", dict(cfg), threads=1)
        b = run_config("validate", dict(cfg), threads=2)
        assert dump_report(a["results"]) == dump_report(b["results"])
        assert len(a["results"]["checks"]) == 7
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        c = run_config("validate", dict(cfg), threads=4)
        assert dump_report(a["results"]) == dump_report(c["results"])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_failing_check_in_battery_order_raises(self, threads, monkeypatch):
        # At 2 workers both checks run, but the cf check comes first in the
        # battery, so its error is the one raised.
        monkeypatch.setattr("greyvar.cli.check_increment_cf", _cf_fails)
        monkeypatch.setattr("greyvar.cli.check_mixing_decay", _mixing_fails)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = {"param_sets": [[1.0, 1.0]], "n_paths": 10_000, "master_seed": 21}
        with pytest.raises(ParameterError, match="^increment-cf failed$"):
            run_config("validate", cfg, threads=threads)
        assert multiprocessing.active_children() == []


def _cf_fails(*args):
    raise ParameterError("increment-cf failed")


def _mixing_fails(*args):
    raise InputError("mixing-decay failed")


def _in_process_pool(sizes: list):
    """An executor class that records each pool's max_workers in sizes and
    runs every task at submit, in the calling process."""

    class Pool(Executor):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    return Pool


class TestPoolBound:
    """A pool has at most min(threads, items, CPU count) workers, whatever
    --threads is; the pools are stubs, so no thread starts."""

    @pytest.mark.parametrize(
        ("threads", "n_items", "cpus", "workers"),
        [(100_000, 3, 8, 3), (100_000, 10, 4, 4), (3, 10, 8, 3), (2, 10, None, None)],
    )
    def test_pmap_bound(self, threads, n_items, cpus, workers, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes = []
        monkeypatch.setattr("greyvar.cli.ThreadPoolExecutor", _in_process_pool(sizes))
        out = _pmap(lambda x: x * x, range(n_items), threads)
        assert out == [x * x for x in range(n_items)]
        # cpu_count() None counts as one CPU: the items run in a loop, no pool.
        assert sizes == ([workers] if workers else [])

    def test_validate_bound(self, monkeypatch):
        sizes = []
        monkeypatch.setattr("greyvar.cli.ThreadPoolExecutor", _in_process_pool(sizes))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        cfg = {"param_sets": [[1.0, 1.0], [1.2, 0.6]], "n_paths": 10_000, "master_seed": 21}
        stub = run_config("validate", dict(cfg), threads=100_000)["results"]
        assert sizes == [7]
        assert dump_report(stub) == dump_report(run_config("validate", cfg)["results"])

    def test_sample_bound(self, monkeypatch):
        sizes = []
        monkeypatch.setattr("greyvar.cli.ThreadPoolExecutor", _in_process_pool(sizes))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = {"alpha": 1.0, "beta": 1.0, "level": 3, "n_paths": 5, "master_seed": 1}
        assert run_config("sample", dict(cfg), threads=100_000)["results"] == run_config("sample", cfg)["results"]
        assert sizes == [2]


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

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        ("command", "cfg"),
        [
            ("sample", {"alpha": 1.0, "beta": 1.0, "level": 3, "n_paths": 10 ** 19}),
            ("variation", {"alpha": 1.0, "beta": 1.0, "level": 8, "p_values": [2.0], "n_paths": 10 ** 19}),
            ("estimate", {"alpha": 1.0, "beta": 1.0, "level": 10, "n_paths": 10 ** 19}),
            # Two candidates of 2^62 paths each make 2^63 tasks, one past sys.maxsize.
            ("discriminate", {"candidates": [[1.0, 1.0], [1.6, 1.0]], "level": 8, "n_paths": 2 ** 62}),
        ],
        ids=["sample", "variation", "estimate", "discriminate"],
    )
    def test_count_past_maxsize_is_usage_error(self, command, cfg, threads, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("greyvar.cli.sample_ggbm", _forbidden)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(cfg, master_seed=3)))
        assert main([command, "--config", str(path), "--threads", threads]) == EXIT_USAGE
        assert "config field 'n_paths'" in capsys.readouterr().err

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
        for text in ("{not json", "[1]", "null"):
            cfg.write_text(text)
            assert main(["sample", "--config", str(cfg)]) == EXIT_USAGE

    def test_layer_import_loads_no_other_layer(self):
        # The package re-exports nothing, so a layer loads only what it imports.
        probe = "import sys, greyvar.sampling; print(' '.join(m for m in sys.modules if m.startswith('greyvar')))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        loaded = set(out.stdout.split())
        assert "greyvar.sampling" in loaded
        assert not loaded & {"greyvar.inference", "greyvar.validation", "greyvar.cli"}

    def test_missing_seed_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"process": "ggbm", "alpha": 1.0, "beta": 1.0, "level": 3}))
        assert main(["sample", "--config", str(cfg)]) == EXIT_USAGE

    def test_config_for_another_command_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = {"command": "estimate", "alpha": 1.2, "beta": 0.7, "level": 10, "n_paths": 2, "master_seed": 5}
        (tmp_path / "c.json").write_text(json.dumps(payload))
        assert main(["sample", "--config", "c.json", "--out", "s.csv"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'estimate'" in err and "'sample'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        assert main(["variation", "--preset", "thm10-grid"]) == EXIT_USAGE
        assert "'discriminate'" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="'estimate'"):
            run_config("sample", payload)
        for cfg in ([payload], None, "sample"):
            with pytest.raises(ConfigError, match="^config must be a JSON object$"):
                run_config("sample", cfg)

    def test_config_naming_its_command_runs_and_echoes_it(self, tmp_path, capsys):
        payload = {"command": "sample", "alpha": 1.2, "beta": 0.7, "level": 4, "n_paths": 2, "master_seed": 5}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(payload))
        assert main(["sample", "--config", str(cfg)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"] == payload

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
        assert report["version"] == greyvar.__version__

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

    def test_environment_sets_no_thread_count(self, monkeypatch, tmp_path):
        # GREYVAR_THREADS is retired: only --threads sets the thread count.
        monkeypatch.setenv("GREYVAR_THREADS", "0")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"alpha": 1.0, "beta": 1.0, "level": 3, "n_paths": 2, "master_seed": 8}))
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

    # sha256 of dump_report(results) for each full preset, at threads 1 and
    # 2 alike: a change to these bytes is an RNG-stream or rounding change
    # to declare.
    DIGESTS = {
        "prop7-trichotomy": "433b7e26ab33536b469b7846cfb36a0ebff3fa558825ef6f26e4791dc80dad90",
        "thm10-grid": "4bb845f546c6a84353e6eada452bf8d6042310f72148d19e9ee15fd957cf937c",
        "fbm-singularity": "36f2dfb09b17145822ec2a1db667006451aff29c0f0b25aeab14b06dab0a01ab",
        "validate-all": "9ae81d50f8efcd2274d1f1c161b7527bad0bebf4ced827ced4b04dca0d2defcc",
    }

    def test_digests_cover_every_preset(self):
        assert sorted(self.DIGESTS) == sorted(PRESET_NAMES)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_full_preset_bytes_are_pinned(self, name, threads):
        cfg = load_preset(name)
        results = run_config(cfg["command"], cfg, threads=threads)["results"]
        assert hashlib.sha256(dump_report(results).encode()).hexdigest() == self.DIGESTS[name]

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


class TestConfigKeys:
    VALID = {
        "sample": {"process": "ggbm", "alpha": 1.0, "beta": 1.0, "level": 3},
        "variation": {"alpha": 1.0, "beta": 1.0, "level": 8, "p_values": [2.0]},
        "estimate": {"alpha": 1.0, "beta": 1.0, "level": 10, "fit_levels": [6, 10]},
        "discriminate": {"candidates": [[1.0, 1.0], [1.6, 1.0]], "level": 8},
        "validate": {"param_sets": [[1.0, 1.0]], "n_paths": 10_000},
    }
    TYPOS = {"sample": "n_path", "variation": "levl", "estimate": "fit_level",
             "discriminate": "tresh", "validate": "moment_order"}

    @pytest.mark.parametrize("command", sorted(VALID))
    def test_unknown_key_names_it(self, command):
        from greyvar.cli import ConfigError

        cfg = dict(self.VALID[command], master_seed=1, **{self.TYPOS[command]: 3})
        with pytest.raises(ConfigError, match=repr(self.TYPOS[command])):
            run_config(command, cfg)

    def test_sample_typo_no_longer_ignored(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(self.VALID["sample"], master_seed=1, n_path=3, levl=9)))
        assert main(["sample", "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'levl'" in err and "'n_path'" in err

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_use_known_keys(self, name):
        from greyvar.cli import _COMMANDS, _SHARED_KEYS

        cfg = load_preset(name)
        assert set(cfg) <= _SHARED_KEYS | _COMMANDS[cfg["command"]].keys

    # With VALID, these reach every branch that reads a field.
    BRANCHES = [
        ("sample", {"process": "ggbm", "grid": "uniform", "n": 5, "alpha": 1.0, "beta": 1.0}),
    ]

    class _Recorder(dict):
        """A config that records every field looked up in it."""

        def __init__(self, cfg):
            super().__init__(cfg)
            self.read = set()

        def __contains__(self, key):
            self.read.add(key)
            return super().__contains__(key)

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            self.read.add(key)
            return super().get(key, default)

    def test_declared_keys_are_the_keys_read(self):
        from greyvar.cli import _COMMANDS, _SHARED_KEYS

        read = {command: set() for command in _COMMANDS}
        for command, cfg in [*self.VALID.items(), *self.BRANCHES]:
            recorder = self._Recorder(dict(cfg, master_seed=1))
            _COMMANDS[command](recorder)
            read[command] |= recorder.read
        for command, cmd in _COMMANDS.items():
            assert read[command] - _SHARED_KEYS == cmd.keys, command

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(self.VALID["sample"], master_seed=1)))
        assert main(["sample", "--config", str(path), "--seed", "-1"]) == EXIT_USAGE
        assert "master_seed" in capsys.readouterr().err


def _forbidden(*args, **kwargs):
    raise AssertionError("called before the config was checked")


class TestMalformedConfig:
    BASE = {
        "sample": {"process": "ggbm", "alpha": 1.0, "beta": 1.0, "level": 3},
        "variation": {"alpha": 1.2, "beta": 0.7, "level": 6, "p_values": [2.0], "levels": [2, 6]},
        "estimate": {"alpha": 1.0, "beta": 1.0, "level": 8, "n_paths": 2, "fit_levels": [4, 8]},
        "discriminate": {"candidates": [[1.0, 1.0], [1.6, 1.0]], "level": 8, "n_paths": 2},
        "validate": {"param_sets": [[1.0, 1.0]], "n_paths": 10_000},
    }

    @pytest.mark.parametrize(
        ("command", "key", "value"),
        [
            pytest.param("variation", "levels", [1, 2, 3], id="levels-three"),
            pytest.param("estimate", "fit_levels", [6], id="fit_levels-one"),
            pytest.param("estimate", "fit_levels", [6.5, 10], id="fit_levels-fraction"),
            pytest.param("variation", "p_values", ["a"], id="p_values-string"),
            pytest.param("discriminate", "candidates", [[1.0, 1.0], [1.6]], id="candidates-short"),
            pytest.param("discriminate", "candidates", [[1.0, 1.0], [1.6, "x"]], id="candidates-string"),
            pytest.param("validate", "param_sets", [[1.0]], id="param_sets-short"),
            pytest.param("validate", "lags", ["a"], id="lags-string"),
            pytest.param("sample", "out", 5, id="out-int"),
            pytest.param("variation", "format", "xml", id="format-xml"),
            pytest.param("variation", "alpha", "1.2", id="alpha-string"),
            pytest.param("variation", "beta", True, id="beta-bool"),
            pytest.param("variation", "p_values", [2.0, "2.0"], id="p_values-numeric-string"),
            pytest.param(
                "discriminate", "candidates", [[1.0, 1.0], [1.6, "1.0"]], id="candidates-numeric-string"
            ),
            pytest.param("variation", "p_values", [], id="p_values-empty"),
            pytest.param("validate", "param_sets", [], id="param_sets-empty"),
            pytest.param("validate", "moment_orders", [], id="moment_orders-empty"),
            pytest.param("validate", "lags", [], id="lags-empty"),
            # validate runs one battery, and estimate fits at p = 1 in region_for(params).
            pytest.param("validate", "thetas", [1.0], id="thetas-retired"),
            pytest.param("validate", "s", 0.5, id="s-retired"),
            pytest.param("validate", "t", 1.0, id="t-retired"),
            pytest.param("validate", "moment_t", 1.0, id="moment_t-retired"),
            pytest.param("estimate", "p", 1.0, id="p-retired"),
            pytest.param("estimate", "beta_region", "high", id="beta_region-retired"),
        ],
    )
    def test_usage_error_names_field(self, command, key, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("greyvar.cli.sample_ggbm", _forbidden)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        cfg = {**self.BASE[command], "master_seed": 1, "out": str(out_dir / "o.csv"), key: value}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        assert repr(key) in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("process", ["ou", "fbm-cholesky", "fbm-circulant"])
    def test_sample_checks_process_before_any_path(self, process, monkeypatch):
        monkeypatch.setattr("greyvar.cli.ThreadPoolExecutor", _forbidden)
        cfg = {"process": process, "level": 3, "n_paths": 2, "master_seed": 1}
        with pytest.raises(ConfigError, match="process") as raised:
            run_config("sample", cfg, threads=2)
        assert "'ggbm'" in str(raised.value) and "beta: 1" in str(raised.value)

    @pytest.mark.parametrize("command", ["sample", "estimate"])
    @pytest.mark.parametrize("level", [25, 14_285, 10 ** 9])
    def test_level_past_the_cap_is_usage_error(self, command, level, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**self.BASE[command], "level": level, "master_seed": 1}))
        code = []
        peak = traced_peak(lambda: code.append(main([command, "--config", str(path)])))
        assert code == [EXIT_USAGE]
        assert f"grid size 2^{level} exceeds the circulant cap 2^24" in capsys.readouterr().err
        assert peak < 2 ** 20

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int conversion limit")
    def test_integer_too_long_to_convert_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("greyvar.cli.sample_ggbm", _forbidden)
        path = tmp_path / "c.json"
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        path.write_text(json.dumps({**self.BASE["sample"], "master_seed": 1})[:-1] + f', "n_paths": {digits}}}')
        assert main(["sample", "--config", str(path)]) == EXIT_USAGE
        assert "config is not valid JSON" in capsys.readouterr().err

    def test_validate_rejects_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("greyvar.cli._pmap", _forbidden)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(self.BASE["validate"], master_seed=1)))
        out = tmp_path / "v.csv"
        assert main(["validate", "--config", str(path), "--format", "csv", "--out", str(out)]) == EXIT_USAGE
        assert "'format'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", [0, -2, True, 2.5, "2", None], ids=repr)
    def test_run_config_thread_count(self, threads, monkeypatch):
        # 0 and -2 ran serially and True and 2.5 ran; "2" and None raised a
        # bare TypeError from _pmap.
        monkeypatch.setattr("greyvar.cli.ThreadPoolExecutor", _forbidden)
        monkeypatch.setattr("greyvar.cli.sample_ggbm", _forbidden)
        cfg = dict(self.BASE["sample"], n_paths=2, master_seed=1)
        with pytest.raises(ConfigError, match="threads must be an integer >= 1"):
            run_config("sample", cfg, threads=threads)

    @pytest.mark.parametrize(
        "flags", [["--threads", "0"], ["--threads", "-4"]], ids=["flag-0", "flag-negative"]
    )
    def test_thread_count_below_one(self, flags, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("greyvar.cli.ThreadPoolExecutor", _forbidden)
        monkeypatch.setattr("greyvar.cli.sample_ggbm", _forbidden)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(self.BASE["sample"], master_seed=1)))
        assert main(["sample", "--config", str(path), *flags]) == EXIT_USAGE
        assert "threads must be an integer >= 1" in capsys.readouterr().err

    def test_validate_single_set_fields_are_retired(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("greyvar.cli.special_identity_report", _forbidden)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"alpha": 1.0, "beta": 1.0, "n_paths": 10_000, "master_seed": 1}))
        assert main(["validate", "--config", str(path)]) == EXIT_USAGE
        assert "'alpha'" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [None, "s.json", "s.npz"])
    def test_sample_writes_no_json(self, out, tmp_path, monkeypatch):
        monkeypatch.setattr("greyvar.cli.ThreadPoolExecutor", _forbidden)
        monkeypatch.setattr("greyvar.cli.sample_ggbm", _forbidden)
        cfg = dict(self.BASE["sample"], n_paths=2, master_seed=1, format="json")
        if out:
            cfg["out"] = str(tmp_path / out)
        with pytest.raises(ConfigError, match="CSV files or a .npz bundle"):
            run_config("sample", cfg, threads=2)
        assert list(tmp_path.iterdir()) == []


def _cell_is(cell: str, value) -> bool:
    if value is None:
        return cell == ""
    if isinstance(value, (bool, str)):
        return cell == str(value)
    return float(cell) == value


class TestCsvTables:
    def _round_trip(self, command, cfg, tmp_path):
        """Run `command` with a CSV `out`; return its results, CSV header and rows."""
        out = tmp_path / f"{command}.csv"
        report = run_config(command, dict(cfg, master_seed=1, out=str(out), format="csv"))
        with open(out, newline="") as handle:
            header, *rows = csv.reader(handle)
        return report["results"], header, rows

    @staticmethod
    def _assert_cells(rows, expected):
        assert len(rows) == len(expected)
        for row, values in zip(rows, expected):
            assert len(row) == len(values)
            assert all(_cell_is(c, v) for c, v in zip(row, values)), (row, values)

    def test_variation(self, tmp_path):
        cfg = {"alpha": 1.2, "beta": 0.7, "level": 8, "n_paths": 3, "p_values": [1.0, 2.0], "levels": [5, 8]}
        results, header, rows = self._round_trip("variation", cfg, tmp_path)
        assert header == ["level", "p", "value"]
        expected = [
            (level, entry["p"], mean)
            for entry in results["table"]
            for level, mean in zip(entry["levels"], entry["mean"])
        ]
        self._assert_cells(rows, expected)

    def test_estimate_with_unsolved_rows(self, tmp_path):
        cfg = {"alpha": 1.0, "beta": 0.5, "level": 10, "n_paths": 12, "fit_levels": [6, 10]}
        results, header, rows = self._round_trip("estimate", cfg, tmp_path)
        assert header == [
            "path", "alpha_hat", "alpha_se", "alpha_boundary", "beta_hat", "beta_boundary", "beta_error",
        ]
        assert any(r["beta_error"] == "NoSolutionError" for r in results["rows"])
        assert any(r["beta_error"] is None for r in results["rows"])
        self._assert_cells(rows, [[r[c] for c in header] for r in results["rows"]])

    def test_discriminate(self, tmp_path):
        cfg = {"candidates": [[1.0, 1.0], [1.6, 1.0], [1.2, 0.5]], "level": 8, "n_paths": 4}
        results, header, rows = self._round_trip("discriminate", cfg, tmp_path)
        assert header == ["pair_j", "pair_k", "truth", "first", "second", "inconclusive", "accuracy"]
        expected = [
            (*m["pair"], m["truth"], m["counts"]["first"], m["counts"]["second"],
             m["counts"]["inconclusive"], m["accuracy"])
            for m in results["matrix"]
        ]
        assert len(expected) == 6
        self._assert_cells(rows, expected)

    def test_table_csv_cells(self):
        rows = [
            (np.float64(0.1), np.bool_(True), np.int64(3), None, "x"),
            (1e-300, False, 7, None, ""),
        ]
        text = table_csv(("f", "b", "i", "none", "s"), rows)
        assert text == "f,b,i,none,s\n0.1,True,3,,x\n1e-300,False,7,,\n"


class TestValidateChecksSettingsFirst:
    """validate checks its param_sets, and each check of its battery checks
    its own settings, before any path is drawn."""

    @pytest.mark.parametrize(
        ("key", "value", "error", "match"),
        [
            ("moment_orders", [3], ParameterError, "orders"),
            ("moment_t", 2.0, ParameterError, "t must lie"),
            ("moment_t", 0.3, InputError, "dyadic"),
            ("lags", [256], InputError, "capped"),
            ("lags", [0], InputError, r"lags\[0\] must be an integer >= 1, got 0"),
            ("s", 0.3, InputError, "dyadic"),
            ("thetas", [float("nan")], ParameterError, "thetas"),
            ("thetas", [1e300], ParameterError, "thetas"),
            ("param_sets", [[1.0, 1.0], [3.0, 0.5]], ParameterError, "alpha"),
            ("lags", 5, InputError, "lags must be a sequence"),
        ],
    )
    def test_no_path_drawn_before_error(self, key, value, error, match, monkeypatch):
        drawn = []

        def spy(params, grid, rng, n_paths):
            drawn.append(n_paths)
            return sample_ggbm_batch(params, grid, rng, n_paths)

        monkeypatch.setattr("greyvar.validation.sample_ggbm_batch", spy)
        monkeypatch.setattr("greyvar.cli.special_identity_report", _forbidden)
        params, rng = GreyParams(1.0, 1.0), RngSpec(1)
        runs = {
            "moment_orders": lambda v: check_even_moments(params, 1.0, v, 10_000, rng),
            "moment_t": lambda v: check_even_moments(params, v, [2], 10_000, rng),
            "lags": lambda v: check_mixing_decay(params, v, 10_000, rng),
            "s": lambda v: check_increment_cf(params, [1.0], v, 1.0, 10_000, rng),
            "thetas": lambda v: check_increment_cf(params, v, 0.5, 1.0, 10_000, rng),
            "param_sets": lambda v: run_config("validate", {"param_sets": v, "n_paths": 10_000, "master_seed": 1}),
        }
        with pytest.raises(error, match=match):
            runs[key](value)
        assert sum(drawn) == 0

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("n_paths", 9_999, "n_paths must be an integer >= 10000, got 9999"),
            ("n_paths", 1, "n_paths must be an integer >= 10000, got 1"),
            ("param_sets", [[1.0, 1.0], [3.0, 0.5]], "alpha"),
        ],
        ids=["n_paths-9999", "n_paths-1", "param_sets-alpha-3"],
    )
    def test_no_worker_starts_before_error(self, key, value, message, threads, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("greyvar.validation.sample_ggbm_batch", _forbidden)
        monkeypatch.setattr("greyvar.cli.special_identity_report", _forbidden)
        monkeypatch.setattr("greyvar.cli.ThreadPoolExecutor", _forbidden)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"param_sets": [[1.0, 1.0]], "n_paths": 10_000, "master_seed": 1, key: value}))
        assert main(["validate", "--config", str(path), "--threads", threads]) == EXIT_USAGE
        assert message in capsys.readouterr().err


class TestCommandsCheckSettingsFirst:
    """variation, estimate and discriminate reject a malformed setting
    before any path is drawn, with the error the library would raise."""

    @pytest.mark.parametrize(
        ("command", "cfg", "error", "match"),
        [
            ("variation", {"levels": [5, 20]}, InputError, "outside"),
            ("variation", {"levels": [8, 5]}, ConfigError, "levels"),
            ("variation", {"p_values": [2.0, -1.0]}, ParameterError, "p must be"),
            ("estimate", {"fit_levels": [8, 10]}, InputError, "3 octaves"),
            ("estimate", {}, InputError, r"3 octaves: config field 'fit_levels' is unset, .* \[8, 10\]"),
            ("estimate", {"fit_levels": [4, 11]}, InputError, "exceeds"),
            ("estimate", {"fit_levels": [-1, 8]}, InputError, "outside"),
            ("variation", {"level": -1}, ParameterError, "level must be an integer >= 0"),
            ("estimate", {"level": -1}, ParameterError, "level must be an integer >= 0"),
            ("estimate", {"level": -1, "fit_levels": [0, 3]}, ParameterError, "level must be an integer >= 0"),
            ("discriminate", {"level": 6}, PreconditionError, "level >= 8"),
            ("discriminate", {"threshold": -1.0}, ParameterError, "threshold"),
            ("discriminate", {"threshold": float("inf")}, ParameterError, "threshold"),
        ],
        ids=[
            "levels-above-level",
            "levels-descending",
            "p_values-negative",
            "fit_levels-short",
            "fit_levels-default",
            "fit_levels-above-level",
            "fit_levels-negative",
            "variation-level-negative",
            "estimate-level-negative",
            "estimate-level-negative-fit_levels",
            "discriminate-level-6",
            "threshold-negative",
            "threshold-inf",
        ],
    )
    def test_no_path_drawn_before_error(self, command, cfg, error, match, monkeypatch):
        drawn = []

        def spy(params, grid, rng):
            drawn.append(rng)
            return sample_ggbm(params, grid, rng)

        monkeypatch.setattr("greyvar.cli.sample_ggbm", spy)
        base = {
            "variation": {"alpha": 1.2, "beta": 0.7, "level": 10, "p_values": [2.0]},
            "estimate": {"alpha": 1.0, "beta": 0.5, "level": 10, "n_paths": 2},
            "discriminate": {"candidates": [[1.0, 1.0], [1.6, 1.0]], "level": 8, "n_paths": 2},
        }[command]
        with pytest.raises(error, match=match):
            run_config(command, {**base, **cfg, "master_seed": 1})
        assert drawn == []


# Pair (0, 3) is identical and skipped; (0, 1) has equal alpha.
_FOUR = [[1.0, 0.3], [1.0, 0.9], [1.4, 0.7], [1.0, 0.3]]


def _discriminate_cfg(candidates, n_paths=3) -> dict:
    return {
        "candidates": candidates,
        "level": 8,
        "n_paths": n_paths,
        "threshold": 0.5,
        "master_seed": 19,
    }


class TestCandidateMajorDiscrimination:
    """Path i of candidate c comes from substream c * n_paths + i; it is
    drawn once and serves every pair that holds c."""

    @staticmethod
    def _reference(cfg, offset):
        """The matrix from a loop over `discriminate`, in (pair, truth) order,
        where entry e reads its truth's paths from substreams offset(e, truth) + i:
        each entry's counts and accuracy."""
        cands = [Candidate(GreyParams(a, b)) for a, b in cfg["candidates"]]
        base = RngSpec(cfg["master_seed"])
        n = cfg["n_paths"]
        matrix = []
        for j in range(len(cands)):
            for k in range(j + 1, len(cands)):
                if not distinguishability_check(cands[j], cands[k]):
                    continue
                for truth in (j, k):
                    start = offset(len(matrix), truth)
                    decisions = [
                        discriminate(
                            sample_ggbm(cands[truth].params, DyadicGrid(cfg["level"]), base.stream(start + i)),
                            cands[j],
                            cands[k],
                            cfg["threshold"],
                        )
                        for i in range(n)
                    ]
                    labels = [d.label.value for d in decisions]
                    counts = {v: labels.count(v) for v in ("first", "second", "inconclusive")}
                    matrix.append(
                        {
                            "pair": [j, k],
                            "truth": truth,
                            "counts": counts,
                            "accuracy": counts["first" if truth == j else "second"] / n,
                        }
                    )
        return matrix

    def test_four_candidates_equal_a_loop_over_candidate_substreams(self):
        cfg = _discriminate_cfg(_FOUR)
        res = cmd_discriminate(cfg)
        assert res["matrix"] == self._reference(cfg, lambda entry, truth: truth * 3)
        assert [s["pair"] for s in res["skipped_pairs"]] == [[0, 3]]

    def test_two_candidates_keep_the_pair_major_layout(self):
        # Pair-major draws read substreams entry * n_paths + i for matrix entry e.
        cfg = _discriminate_cfg([[1.0, 1.0], [1.6, 1.0]], n_paths=4)
        assert cmd_discriminate(cfg)["matrix"] == self._reference(cfg, lambda entry, truth: entry * 4)

    @pytest.mark.parametrize(
        ("candidates", "drawn_candidates"),
        [(_FOUR, [0, 1, 2, 3]), ([[1.0, 0.5], [1.0, 0.5], [1.0, 0.5]], [])],
        ids=["four-candidates", "no-distinguishable-pair"],
    )
    def test_each_candidate_path_drawn_once(self, candidates, drawn_candidates, monkeypatch):
        drawn = []

        def spy(params, grid, rng):
            drawn.append((params, rng.stream_id))
            return sample_ggbm(params, grid, rng)

        monkeypatch.setattr("greyvar.cli.sample_ggbm", spy)
        cmd_discriminate(_discriminate_cfg(candidates))
        assert drawn == [(GreyParams(*candidates[c]), 3 * c + i) for c in drawn_candidates for i in range(3)]

    def test_threads_do_not_change_results(self):
        cfg = _discriminate_cfg(_FOUR)
        assert len({dump_report(cmd_discriminate(cfg, threads=t)) for t in (1, 2, 4)}) == 1

    def test_traced_peak_holds_labels_not_decisions(self):
        # Keeping a Decision per (path, pair) here peaks at about 5.8 MiB.
        cfg = load_preset("thm10-grid")
        cfg.pop("command")
        cfg.update(level=8, n_paths=1000)
        assert traced_peak(lambda: cmd_discriminate(cfg)) < 4 * 2**20


class TestEstimateKeepsCriticalSums:
    @pytest.mark.parametrize(
        "alpha, beta, seed, pooled_error",
        [(1.0, 0.5, 22, None), (1.0, 0.5, 25, "NoSolutionError"), (0.002, 1.0, 5, "NumericalError")],
        ids=["pooled-solved", "pooled-no-solution", "critical-sum-overflows"],
    )
    def test_results_equal_the_library_on_each_path(self, alpha, beta, seed, pooled_error):
        cfg = {"alpha": alpha, "beta": beta, "level": 10, "n_paths": 6, "fit_levels": [6, 10], "master_seed": seed}
        res = cmd_estimate(cfg)
        params = GreyParams(alpha, beta)
        region = region_for(params)
        paths = [sample_ggbm(params, DyadicGrid(10), RngSpec(seed).stream(i)) for i in range(6)]
        for row, path in zip(res["rows"], paths):
            a = estimate_alpha(path, 1.0, (6, 10))
            assert (row["alpha_hat"], row["alpha_se"], row["alpha_boundary"]) == (
                a.alpha_hat,
                a.std_error,
                a.boundary,
            )
            try:
                b = estimate_beta(path, alpha, region)
                assert (row["beta_hat"], row["beta_boundary"], row["beta_error"]) == (b.beta_hat, b.boundary, None)
            except GreyVarError as exc:
                assert (row["beta_hat"], row["beta_error"]) == (None, type(exc).__name__)
        assert res["summary"]["pooled_beta"].get("error") == pooled_error
        try:
            pooled = estimate_beta_pooled(paths, alpha, region)
            expected = {"beta_hat": pooled.beta_hat, "boundary": pooled.boundary}
        except GreyVarError as exc:
            expected = {"error": type(exc).__name__}
        assert res["summary"]["pooled_beta"] == expected

    def test_traced_peak_is_below_the_paths(self):
        # 100 level-14 paths alone hold 12.5 MiB.
        cfg = {"alpha": 1.2, "beta": 0.6, "level": 14, "n_paths": 100, "master_seed": 23}
        assert traced_peak(lambda: cmd_estimate(cfg)) < 4 * 2**20


class TestCsvBytes:
    """sha256 of each CSV file the commands write for a fixed config and
    seed: a change to these bytes is a formatting change to declare."""

    SAMPLES = {
        "dyadic": {"grid": "dyadic", "level": 6, "n_paths": 3},
        "uniform": {"grid": "uniform", "n": 999, "n_paths": 2},
    }
    TABLES = {
        "variation": {"alpha": 1.2, "beta": 0.7, "level": 8, "n_paths": 3, "p_values": [1.0, 2.0], "levels": [5, 8]},
        # Some rows have no beta solution: empty beta_hat and beta_boundary cells.
        "estimate": {"alpha": 1.0, "beta": 0.5, "level": 10, "n_paths": 12, "fit_levels": [6, 10]},
        # Pair (0, 3) is skipped and writes no row.
        "discriminate": _discriminate_cfg(_FOUR),
    }
    DIGESTS = {
        "sample-dyadic": [
            "551fb28232c6eff0fd66b0b766018c805058c3d8441ba16eb542f0b24fff2995",
            "ea81bf0e758447e3619004454364809c3604e1c9082d226ba52dde036f382e90",
            "ee55ae89f4d18095a70729510b41a6b8427e7cd214e806f68fe82ee450e45de5",
        ],
        "sample-uniform": [
            "1ff0808142f07d68894f1ccc70ae89e4e07da7ee161837e3536f0ba2992ceffd",
            "646cfd988fde80c26bcad9f65e3d39a383b200c41469bb806b1d5cd22d64191d",
        ],
        "variation": "c1abc600dd68ed6392f6eb5ea4fb3f909689e937dcc77332193bd4c56ec15666",
        "estimate": "36fbc2659375b05a1ab0e818e11eedc14a4811d9d722bcd1d40c96ceb68fac91",
        "discriminate": "76c855164d71edcd0c24d57f8b0858e76d5d2b689042f0546dbbb8fe8827336e",
    }

    @staticmethod
    def _sha256(path) -> str:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()

    @pytest.mark.parametrize("grid", sorted(SAMPLES))
    def test_sample_files(self, grid, tmp_path):
        cfg = dict(self.SAMPLES[grid], alpha=1.2, beta=0.7, master_seed=5, out=str(tmp_path / "p.csv"))
        files = run_config("sample", cfg)["results"]["files"]
        assert [self._sha256(f) for f in files] == self.DIGESTS[f"sample-{grid}"]

    @pytest.mark.parametrize("command", sorted(TABLES))
    def test_table(self, command, tmp_path):
        out = tmp_path / f"{command}.csv"
        results = run_config(command, dict(self.TABLES[command], master_seed=1, out=str(out), format="csv"))["results"]
        if command == "estimate":
            assert any(r["beta_error"] == "NoSolutionError" for r in results["rows"])
        if command == "discriminate":
            assert [s["pair"] for s in results["skipped_pairs"]] == [[0, 3]]
        assert self._sha256(out) == self.DIGESTS[command]
