import csv
import json

import numpy as np
import pytest

from wavereg import cli, serialize
from wavereg.cli import RunConfig, sect5_config


def small_config(tmp_path, **controller):
    cfg = RunConfig.from_dict(
        {
            "plant": {"n_radial": 3, "m_angular": 4},
            "exosystem": {
                "preset": None,
                "reference": [
                    {"profile_type": "fourier", "profile_data": [0.0, 1.0], "temporal": "sin", "omega_over_pi": 1.0}
                ],
                "disturbance": [
                    {"profile_type": "fourier", "profile_data": [0.0, 0.0, 0.5], "temporal": "cos", "omega_over_pi": 2.0}
                ],
            },
            "controller": {"kind": "approx", "N": 2, "epsilon": 0.15, **controller},
            "simulation": {"t_end": 4.0, "dt": 0.01, "window": 1.0},
            "output": {"directory": str(tmp_path / "out")},
        }
    )
    return cfg


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        path = tmp_path / "cfg.json"
        cli.save_config(cfg, path)
        loaded = cli.load_config(path)
        assert loaded == cfg

    def test_preset_round_trip(self, tmp_path):
        cfg = sect5_config()
        path = tmp_path / "cfg.json"
        cli.save_config(cfg, path)
        assert cli.load_config(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"plant": {"radials": 3}})

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"controller": {"kind": "approx", "N": 0}})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"controller": {"kind": "sliding-mode"}})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"plant": {"inner_bc": "mixed"}})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"simulation": {"dt": -0.01}})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"plant": {"damping_q": -1.0}})


class TestMatrixFormat:
    def test_real_round_trip(self, tmp_path):
        M = np.array([[1.0, -2.5], [0.25, 1e-17]])
        path = tmp_path / "m.mtx"
        serialize.save_matrix(path, M)
        assert np.array_equal(serialize.load_matrix(path), M)

    def test_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        path = tmp_path / "m.mtx"
        serialize.save_matrix(path, M)
        assert np.array_equal(serialize.load_matrix(path), M)

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.0 + 2.0j, -0.5j])
        path = tmp_path / "v.mtx"
        serialize.save_matrix(path, v)
        assert np.array_equal(serialize.load_vector(path), v)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError):
            serialize.load_matrix(path)


class TestEigsCommand:
    def test_sect5_table(self, tmp_path):
        path = cli.cmd_eigs(sect5_config(), tmp_path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 * 12
        assert list(rows[0].keys()) == ["m", "n", "k", "mu", "cross_residual"]
        keys = [(int(r["m"]), int(r["n"])) for r in rows]
        assert keys == sorted(keys)
        by_m = {}
        for r in rows:
            by_m.setdefault(int(r["m"]), []).append(float(r["k"]))
            assert float(r["cross_residual"]) < 1e-10
            assert float(r["mu"]) == pytest.approx(float(r["k"]) ** 2, rel=1e-12)
        for ks in by_m.values():
            assert all(a < b for a, b in zip(ks, ks[1:]))


class TestSynthCommand:
    def test_robust_report(self, tmp_path):
        cfg = small_config(tmp_path, kind="robust")
        payload = cli.cmd_synth(cfg, tmp_path)
        assert payload["g_conditions"]["passed"] is True
        assert (tmp_path / "controller_G1.mtx").exists()
        G2 = serialize.load_matrix(tmp_path / "controller_G2.mtx")
        assert G2.shape == (4 * 7, 7)

    def test_approx_report_delta(self, tmp_path):
        cfg = small_config(tmp_path)
        payload = cli.cmd_synth(cfg, tmp_path)
        assert payload["g_conditions"]["passed"] is False
        assert payload["g_conditions"]["kernel_dim_G2"] == 7 - 5
        assert payload["delta"] <= payload["delta_coarse"] + 1e-15
        assert payload["regulator_residual1"] < 1e-8

    def test_zero_signals_give_zero_delta(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg.exosystem.reference[0].profile_data = [0.0]
        cfg.exosystem.disturbance[0].profile_data = [0.0]
        payload = cli.cmd_synth(cfg, tmp_path)
        assert payload["delta"] == 0.0 and payload["delta_coarse"] == 0.0

    def test_sect5_delta_below_target(self, tmp_path):
        payload = cli.cmd_synth(sect5_config(), tmp_path)
        assert payload["delta"] < 0.01
        assert payload["closed_loop_abscissa"] < 0


class TestSimulateCommand:
    def test_csv_schema_and_tail(self, tmp_path):
        cfg = small_config(tmp_path)
        result = cli.cmd_simulate(cfg, tmp_path)
        with open(result["csv"]) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["t", "J", "err_sq", "pn_err_sq", "energy"]
        assert len(rows) == 401
        assert rows[-1][1] == ""  # J undefined within the trailing window
        assert rows[0][1] != ""

    def test_deterministic_output(self, tmp_path):
        cfg = small_config(tmp_path)
        r1 = cli.cmd_simulate(cfg, tmp_path / "a")
        r2 = cli.cmd_simulate(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "simulation.csv").read_bytes() == (
            tmp_path / "b" / "simulation.csv"
        ).read_bytes()

    def test_zero_signals_give_zero_error(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg.exosystem.reference[0].profile_data = [0.0]
        cfg.exosystem.disturbance[0].profile_data = [0.0]
        result = cli.cmd_simulate(cfg, tmp_path)
        with open(result["csv"]) as fh:
            rows = list(csv.DictReader(fh))
        assert max(float(r["err_sq"]) for r in rows) < 1e-24
        assert result["J_final"] < 1e-12

    def test_initial_state_from_file(self, tmp_path):
        cfg = small_config(tmp_path)
        x0 = np.zeros(42)
        x0[0] = 1.0
        serialize.save_matrix(tmp_path / "x0.mtx", x0)
        cfg.simulation.x0 = {"file": str(tmp_path / "x0.mtx")}
        result = cli.cmd_simulate(cfg, tmp_path)
        with open(result["csv"]) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["energy"]) > 0

    def test_svg_emission(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg.output.emit_svg = True
        cli.cmd_simulate(cfg, tmp_path)
        svg = (tmp_path / "windowed_error.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestReproduce:
    def test_figure4_disturbance_grid(self, tmp_path):
        result = cli.cmd_reproduce(4, out_dir=tmp_path)
        with open(result["csv"]) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["t", "theta", "d"]
        at_zero = [float(r["d"]) for r in rows if float(r["t"]) == 0.0]
        assert max(abs(v) for v in at_zero) < 1e-9
        # spot-check d(pi/2, 0.25) = cos sin(pi/2) + sin sin(pi/4) at theta=pi/2
        target = np.sin(np.pi / 4.0)
        candidates = [
            float(r["d"])
            for r in rows
            if abs(float(r["t"]) - 0.25) < 1e-9 and abs(float(r["theta"]) - np.pi / 2) < 0.03
        ]
        assert candidates and abs(candidates[0] - target) < 1e-2

    def test_figure_validation(self):
        with pytest.raises(ValueError):
            cli.cmd_reproduce(7)


class TestVerifyAndMain:
    def test_verify_linalg_suite(self):
        ok, lines = cli.cmd_verify("linalg")
        assert ok and all(line.startswith("[PASS]") for line in lines)

    def test_verify_unknown_suite(self):
        with pytest.raises(ValueError):
            cli.cmd_verify("quantum")

    def test_verify_reports_broken_config_as_failure(self, tmp_path):
        # N = 5 needs an 11-dimensional output subspace but this plant only
        # has 7 outputs: the suite must fail, not crash
        cfg = small_config(tmp_path, N=5)
        ok, lines = cli.cmd_verify("synth", cfg)
        assert not ok
        assert any(line.startswith("[FAIL]") for line in lines)

    def test_main_verify_exit_code(self, capsys):
        assert cli.main(["verify", "--suite", "linalg"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_main_eigs_with_config(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cli.save_config(cfg, cfg_path)
        assert cli.main(["eigs", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "eigenvalues.csv").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"controller": {"N": 12}},
            {"simulation": {"t_end": 1.005, "dt": 0.01}},
            {"simulation": {"window": 2.0, "t_end": 1.0}},
            {"plant": {"m_angular": 5}},
            {"plant": {"damping_q": -1.0}},
            {"plant": {"damping_q": 0.0}},
            {"controller": {"epsilon": 2.0}},
        ],
    )
    def test_main_reports_invalid_run_in_one_line(self, tmp_path, capsys, overrides):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(overrides))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavereg: error: ") and err.count("\n") == 1

    def test_simulate_refuses_unstable_loop(self, tmp_path):
        # without the boundary damper the preset loop has abscissa +0.618
        cfg = sect5_config()
        cfg.plant.damping_q = 0.0
        with pytest.raises(ValueError, match=r"abscissa \+6\.1779e-01"):
            cli.cmd_simulate(cfg, tmp_path)
        assert not (tmp_path / "simulation.csv").exists()
