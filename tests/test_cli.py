import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavereg import checks, cli, linalg, loop, serialize, synthesis
from wavereg.cli import RunConfig, sect5_config
from wavereg.exosystem import SignalTerm, build_exosystem
from wavereg.plant import ModalWavePlant, assemble_wave_plant

from conftest import sequential_reference


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def custom_term(signal, **term):
    return {"exosystem": {"preset": None, signal: [term]}}


# term data the preset plant (23 outputs, max order 11) cannot take, by message
TERM_DATA_ERRORS = {
    "fourier profile has more coefficients than the output basis":
        custom_term("reference", profile_data=[1.0] * 24),
    "grid of 2 points too coarse for max_order=11":
        custom_term("reference", profile_type="samples", profile_data=[0.0, 1.0]),
    "exosystem.disturbance: profile_data must be a list of finite numbers":
        custom_term("disturbance", profile_data=[1.0, "a"]),
}


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        loaded = cli.load_config(path)
        assert loaded == cfg

    def test_preset_round_trip(self, tmp_path):
        cfg = sect5_config()
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert cli.load_config(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"plant": {"radials": 3}})

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"controller": {"kind": "approx", "N": -1}})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"controller": {"kind": "sliding-mode"}})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"plant": {"inner_bc": "mixed"}})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"simulation": {"dt": -0.01}})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"plant": {"damping_q": -1.0}})

    @pytest.mark.parametrize("name, value", [("n_radial", 0), ("m_angular", 0), ("rho", 0.0),
                                             ("t_mod", -1.0), ("t_mod", 0.0),
                                             ("damping_q", -1.0), ("inner_bc", "mixed")])
    def test_plant_parameter_message_is_the_library_one(self, name, value):
        # the config and the plant assembly share one check of these parameters
        p = {**dataclasses.asdict(cli.PlantConfig()), name: value}
        with pytest.raises(ValueError) as from_config:
            RunConfig.from_dict({"plant": {name: value}})
        with pytest.raises(ValueError) as from_library:
            assemble_wave_plant(**p)
        assert str(from_config.value) == str(from_library.value)
        assert str(value) in str(from_config.value) and name in str(from_config.value)

    def test_unknown_kind_refused_by_the_builder_too(self, sect5_plant, sect5_exo):
        # a kind set past validation must not fall back to another synthesis
        cfg = RunConfig(controller=cli.ControllerConfig(kind="sliding-mode"))
        with pytest.raises(ValueError) as from_builder:
            cli.build_controller(cfg, sect5_plant, sect5_exo)
        with pytest.raises(ValueError) as from_config:
            RunConfig.from_dict({"controller": {"kind": "sliding-mode"}})
        assert str(from_builder.value) == str(from_config.value)
        assert str(from_builder.value).startswith("controller.kind must be one of (")

    @pytest.mark.parametrize("name, value", [("N", -1), ("epsilon", -0.1)])
    def test_controller_parameter_message_is_the_library_one(self, sect5_plant, sect5_exo,
                                                             name, value):
        # the config and the synthesis share one check of N and of the gain
        c = {**dataclasses.asdict(cli.ControllerConfig()), name: value}
        with pytest.raises(ValueError) as from_config:
            RunConfig.from_dict({"controller": {name: value}})
        with pytest.raises(ValueError) as from_library:
            synthesis.synth_approx_robust(sect5_plant, sect5_exo, c["N"], c["epsilon"])
        assert str(from_config.value) == str(from_library.value)
        assert str(value) in str(from_config.value) and name in str(from_config.value)

    @pytest.mark.parametrize("name", ["reference", "disturbance"])
    def test_preset_refuses_signal_terms(self, name):
        # the preset fixes its signals, so terms beside it would be ignored
        with pytest.raises(ValueError, match=rf"exosystem\.{name} .*preset 'sect5'"):
            RunConfig.from_dict({"exosystem": {name: [{"bogus": 1}]}})

    @pytest.mark.parametrize("message", TERM_DATA_ERRORS)
    def test_term_data_rejected_by_name(self, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig.from_dict(TERM_DATA_ERRORS[message])

    @pytest.mark.parametrize("n", [96, 1000])
    def test_sampled_terms_match_fourier_terms(self, sect5_plant, n):
        # a band-limited profile of order 11 sampled on n >= 8 * 12 points
        # projects back to its coefficients up to roundoff
        basis = sect5_plant.basis
        rng = np.random.default_rng(n)
        ref, dist = rng.uniform(-1.0, 1.0, (2, basis.dim))
        theta = 2 * np.pi * np.arange(n) / n

        def exo(profile_type, to_data):
            def term(coeffs, temporal, omega_over_pi):
                return {"profile_type": profile_type, "profile_data": to_data(coeffs).tolist(),
                        "temporal": temporal, "omega_over_pi": omega_over_pi}

            signals = {"reference": [term(ref, "sin", 1.0)], "disturbance": [term(dist, "cos", 2.0)]}
            cfg = RunConfig.from_dict({"exosystem": {"preset": None, **signals}})
            return cli.build_exo(cfg, sect5_plant)

        sampled = exo("samples", lambda c: basis.synthesize(c, theta))
        fourier = exo("fourier", lambda c: c)
        assert np.array_equal(sampled.omegas, fourier.omegas)
        assert np.abs(sampled.E - fourier.E).max() < 1e-12
        assert np.abs(sampled.F - fourier.F).max() < 1e-12


# the values of each plant and controller number that its rule accepts, at and
# away from the bound, and those beside the bound that it refuses
ACCEPTED = {
    "n_radial": [1, 2], "m_angular": [1, 2, 3], "damping_q": [0.0, 2.0], "rho": [0.5, 1.0],
    "t_mod": [0.5, 1.0], "inner_bc": ["neumann", "dirichlet"],
    "kind": ["regulating", "approx", "robust"], "N": [0, 1, 2, 3, 4], "epsilon": [0.0, 0.15],
}
REFUSED = {
    "n_radial": [0], "m_angular": [0], "damping_q": [-0.5], "rho": [-0.5, 0.0], "t_mod": [0.0],
    "inner_bc": ["mixed", "Neumann"], "kind": ["sliding-mode"], "N": [-1], "epsilon": [-0.1],
}


@st.composite
def bound_draws(draw):
    """Run values with up to two of them moved past their bounds."""
    broken = draw(st.sets(st.sampled_from(sorted(ACCEPTED)), max_size=2))
    return {name: draw(st.sampled_from((REFUSED if name in broken else ACCEPTED)[name]))
            for name in ACCEPTED}


def _refusal(build):
    """The message of the ValueError ``build()`` raises, or None if it raises none."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


EDGE_RUN = {name: values[0] for name, values in ACCEPTED.items()}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(bound_draws())
@example({**EDGE_RUN, "inner_bc": "mixed"})
@example({**EDGE_RUN, "kind": "approx", "N": -1, "epsilon": -0.1})
def test_config_refuses_exactly_what_the_library_refuses(values):
    # a custom constant-profile reference and disturbance, which fit every
    # output basis; no rule on a plant or controller number lives in the config
    p = {name: values[name] for name in ("n_radial", "m_angular", "damping_q", "rho", "t_mod",
                                         "inner_bc")}
    c = {name: values[name] for name in ("kind", "N", "epsilon")}
    signals = [("reference", "sin", 1.0), ("disturbance", "cos", 2.0)]
    config = {
        "plant": p, "controller": c,
        "exosystem": {"preset": None, **{name: [{"profile_data": [1.0], "temporal": temporal,
                                                 "omega_over_pi": w}]
                                         for name, temporal, w in signals}},
    }

    def build():
        plant = assemble_wave_plant(**p)
        coeffs = np.eye(plant.basis.dim)[0]
        terms = ([SignalTerm(coeffs, temporal, w * np.pi)] for _, temporal, w in signals)
        exo = build_exosystem(*terms, plant.basis.max_order)
        cli.build_controller(RunConfig(controller=cli.ControllerConfig(**c)), plant, exo)

    assert _refusal(lambda: RunConfig.from_dict(config)) == _refusal(build)


class TestMatrixFormat:
    def test_real_round_trip(self, tmp_path):
        # bit for bit, with the sign of -0.0, the smallest subnormal and both
        # infinities; an integer matrix comes back as its float values
        floats = np.array([[1.0, -2.5, -0.0, np.inf], [0.25, 1e-17, 5e-324, -np.inf]])
        path = tmp_path / "m.mtx"
        for M in (floats, np.arange(-3, 3).reshape(2, 3)):
            serialize.save_matrix(path, M)
            loaded = serialize.load_matrix(path)
            assert loaded.dtype == float and loaded.shape == M.shape
            assert loaded.tobytes() == M.astype(float).tobytes()

    def test_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        M[0, 0], M[1, 1], M[2, 2] = complex(1.0, np.inf), complex(-0.0, -0.0), complex(5e-324, -np.inf)
        path = tmp_path / "m.mtx"
        serialize.save_matrix(path, M)
        loaded = serialize.load_matrix(path)
        assert loaded.dtype == complex and loaded.shape == M.shape
        assert loaded.tobytes() == M.tobytes()

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.0 + 2.0j, -0.5j])
        path = tmp_path / "v.mtx"
        serialize.save_matrix(path, v)
        assert np.array_equal(serialize.load_vector(path), v)

    def test_zero_row_round_trip(self, tmp_path):
        M = np.zeros((0, 3))
        path = tmp_path / "empty.mtx"
        serialize.save_matrix(path, M)
        loaded = serialize.load_matrix(path)
        assert loaded.shape == (0, 3) and loaded.dtype == M.dtype

    def test_zero_column_round_trip(self, tmp_path):
        M = np.zeros((3, 0))
        path = tmp_path / "empty.mtx"
        serialize.save_matrix(path, M)
        loaded = serialize.load_matrix(path)
        assert loaded.shape == (3, 0) and loaded.dtype == M.dtype

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError):
            serialize.load_matrix(path)


def test_csv_golden_bytes(tmp_path):
    # named columns in order, CRLF line ends, 17-digit floats, integers with
    # str, and a short column that ends in empty cells
    path = tmp_path / "table.csv"
    serialize.save_csv(path, {"n": np.arange(1, 4), "x": np.array([0.1, -0.0, 1e300]),
                              "J": np.array([2.0 / 3.0])})
    assert path.read_bytes() == (
        b"n,x,J\r\n"
        b"1,0.10000000000000001,0.66666666666666663\r\n"
        b"2,-0,\r\n"
        b"3,1.0000000000000001e+300,\r\n"
    )


def test_csv_in_pieces_is_the_whole_table(tmp_path):
    # the row writer of save_csv, called once per piece of the columns
    columns = {"n": np.arange(1, 4), "x": np.array([0.1, -0.0, 1e300])}
    serialize.save_csv(tmp_path / "whole.csv", columns)
    with serialize.csv_table(tmp_path / "pieces.csv", columns) as write_rows:
        write_rows({name: col[:1] for name, col in columns.items()})
        write_rows({name: col[1:] for name, col in columns.items()})
    assert (tmp_path / "pieces.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_csv_table_removes_its_file_when_writing_fails(tmp_path):
    # a table cut off after its first piece would read as a complete one
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="column 'x' has 3 entries, the first has 2"):
        with serialize.csv_table(path, ["n", "x"]) as write_rows:
            write_rows({"n": np.arange(2), "x": np.ones(2)})
            write_rows({"n": np.arange(2), "x": np.ones(3)})
    assert not path.exists()


def test_csv_refuses_column_longer_than_the_first(tmp_path):
    # a longer column would be cut short without a word
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="column 'b' has 2 entries, the first has 1"):
        serialize.save_csv(path, {"a": np.array([1.0]), "b": np.array([1.0, 2.0])})
    assert not path.exists()


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

    def test_approx_with_n_zero_regulates_the_constant_channel(self, tmp_path):
        # Y_0 is the constant profile: one scalar copy at each of +-pi and +-2 pi
        payload = cli.cmd_synth(small_config(tmp_path, N=0), tmp_path)
        assert payload["block_dim"] == 1 and payload["dim_Z"] == 4
        assert payload["closed_loop_abscissa"] < 0

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


    def test_sect5_report_records_closed_loop_blocks(self, tmp_path):
        # per channel 16 plant states, plus 4 controller states for the 11 channels in Y_5
        payload = cli.cmd_synth(sect5_config(), tmp_path / "a")
        assert payload["closed_loop_blocks"] == [20] * 11 + [16] * 12
        cli.cmd_synth(sect5_config(), tmp_path / "b")
        report = "synth_report.json"
        assert (tmp_path / "a" / report).read_bytes() == (tmp_path / "b" / report).read_bytes()


@pytest.mark.parametrize("command", [
    pytest.param(cli.cmd_simulate, id="simulate"),
    pytest.param(cli.cmd_synth, id="synth"),
])
def test_preset_command_partitions_its_loop_once(tmp_path, monkeypatch, command):
    # the spectrum, the sampler and the report all read cl.blocks
    partition, calls = linalg._diagonal_blocks, []

    def counted(M):
        calls.append(M.shape)
        return partition(M)

    monkeypatch.setattr(linalg, "_diagonal_blocks", counted)
    command(sect5_config(), tmp_path)
    assert len(calls) == 1


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

    def test_run_meta_records_stage_timings(self, tmp_path):
        cli.cmd_simulate(small_config(tmp_path), tmp_path)
        timings = json.loads((tmp_path / "run_meta.json").read_text())["timings"]
        stages = {"plant", "exosystem", "controller", "assemble", "simulate", "csv"}
        assert set(timings) == stages
        assert all(seconds >= 0.0 for seconds in timings.values())

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
        # window == t_end leaves J(t) a single point, t = 0
        cfg.simulation.t_end = cfg.simulation.window = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli.cmd_simulate(cfg.validate(), tmp_path / "one_point")
        svg = (tmp_path / "one_point" / "windowed_error.svg").read_text()
        assert "polyline" in svg and "nan" not in svg


class TestStreamedSimulation:
    @pytest.mark.parametrize("window", [1.0, 25.0])
    def test_csv_matches_the_whole_trajectory(self, tmp_path, window):
        # 50 s are 5,001 samples, three chunks; a 25 s window outlasts a chunk.
        # The whole-trajectory path reduces the same samples after the run.
        cfg = small_config(tmp_path)
        cfg.simulation.t_end, cfg.simulation.window = 50.0, window
        cfg = cfg.validate()
        assert 5001 > 2 * loop._CHUNK
        streamed = cli.cmd_simulate(cfg, tmp_path / "streamed")
        run = cli.Run(cfg)
        traj = loop.simulate_exact(run.closed_loop, run.exo, t_end=50.0, dt=0.01)
        series = loop.windowed_error(traj, window=window)
        whole = tmp_path / "whole.csv"
        serialize.save_csv(whole, {"t": traj.t, "J": series.values, "err_sq": traj.error_norms_sq(),
                                   "pn_err_sq": traj.error_norms_sq(run.controller.projector()),
                                   "energy": traj.energies})
        (header, *rows), (whole_header, *whole_rows) = (
            list(csv.reader(open(path, newline=""))) for path in (streamed["csv"], whole))
        assert header == whole_header and len(rows) == len(whole_rows) == 5001
        for name, col, whole_col in zip(header, zip(*rows), zip(*whole_rows)):
            if name == "t":
                assert col == whole_col
                continue
            filled = [cell != "" for cell in col]
            assert filled == [cell != "" for cell in whole_col]  # J ends on the same row
            values = np.array([float(c) for c in col if c])
            np.testing.assert_allclose(values, [float(c) for c in whole_col if c], rtol=1e-13,
                                       atol=0.0, err_msg=name)
        assert sum(cell != "" for cell in list(zip(*rows))[1]) == 5001 - round(window / 0.01)
        assert streamed["J_final"] == series.values[-1]

    def test_svg_series_thinned_beyond_its_point_count(self, tmp_path):
        # 5,001 samples are more than an SVG series holds: every second one
        cfg = small_config(tmp_path)
        cfg.simulation.t_end, cfg.output.emit_svg = 50.0, True
        cli.cmd_simulate(cfg.validate(), tmp_path)
        assert 2 * cli._SVG_POINTS >= 5001 > cli._SVG_POINTS
        for name, n_samples in (("energy.svg", 5001), ("windowed_error.svg", 4901)):
            svg = (tmp_path / name).read_text()
            points = re.search(r'points="([^"]*)"', svg).group(1).split()
            assert len(points) == (n_samples + 1) // 2

    def test_peak_allocation_does_not_grow_with_the_horizon(self, tmp_path):
        # the samples are reduced and written chunk by chunk: ten times the
        # horizon, 200,001 samples, adds at most 2 MB to the traced peak
        cli.cmd_simulate(small_config(tmp_path), tmp_path / "warm")  # lazy imports
        peaks = []
        for t_end in (200.0, 2000.0):
            cfg = small_config(tmp_path)
            cfg.simulation.t_end = t_end
            tracemalloc.start()
            try:
                cli.cmd_simulate(cfg.validate(), tmp_path / f"t{t_end:g}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2e6

    def test_refuses_a_csv_larger_than_the_free_space(self, tmp_path, capsys, monkeypatch):
        # 401 rows of at least 10 bytes do not fit into 4,000 free bytes: one
        # line names both numbers, before any plant is built or file written
        cfg_path = tmp_path / "cfg.json"
        save_config(small_config(tmp_path), cfg_path)

        def no_plant(cfg):
            raise AssertionError("plant built for a run that cannot be written")

        monkeypatch.setattr(cli, "build_plant", no_plant)
        monkeypatch.setattr(cli.shutil, "disk_usage", lambda path: SimpleNamespace(free=4000))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavereg: error: ") and err.count("\n") == 1
        assert "needs at least 4010 bytes" in err and "has 4000 bytes free" in err
        assert list(out.iterdir()) == []


@pytest.fixture(scope="module")
def preset_run():
    """The preset loop and its first 10 s of states from the per-step oracle."""
    cfg = sect5_config()
    plant = cli.build_plant(cfg)
    exo = cli.build_exo(cfg, plant)
    cl = loop.assemble_direct(plant, cli.build_controller(cfg, plant, exo), exo)
    states, _, _ = sequential_reference(cl, exo, np.zeros(cl.state_dim), 1000, 0.01)
    return cl, states


def read_rows(path):
    with open(path) as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


class TestReproduce:
    def test_figure1_output_is_real_part_of_c_x(self, tmp_path, preset_run):
        cl, states = preset_run
        rows = read_rows(cli.cmd_reproduce(1, out_dir=tmp_path)["csv"])
        theta = np.linspace(0.0, 2.0 * np.pi, 129)
        assert len(rows) == 101 * theta.size  # profiles every 0.1 s up to t = 10
        for i in (0, 370, 1000):
            block = np.array(rows[(i // 10) * theta.size : (i // 10 + 1) * theta.size])
            y = cl.plant.basis.synthesize(np.real(cl.Ccl @ states[i]), theta)
            assert np.all(block[:, 0] == pytest.approx(0.01 * i, abs=1e-12))
            assert np.abs(block[:, 1] - theta).max() == 0.0
            assert np.abs(block[:, 2] - y).max() < 1e-10 * max(1.0, np.abs(y).max())

    def test_figure3_profile_is_state_at_t9(self, tmp_path, preset_run):
        cl, states = preset_run
        rows = np.array(read_rows(cli.cmd_reproduce(3, out_dir=tmp_path)["csv"]))
        radii, theta = np.linspace(1.0, 2.0, 33), np.linspace(0.0, 2.0 * np.pi, 129)
        w = cl.plant.displacement_profile(states[900], radii, theta)
        assert rows.shape == (radii.size * theta.size, 3)
        assert np.abs(rows[:, 0] - np.repeat(radii, theta.size)).max() == 0.0
        assert np.abs(rows[:, 2] - w.ravel()).max() < 1e-10 * max(1.0, np.abs(w).max())

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

    def test_figure_validation(self, monkeypatch):
        # an unknown figure is rejected before any plant is built
        def no_plant(cfg):
            raise AssertionError("plant built for an unknown figure")

        monkeypatch.setattr(cli, "build_plant", no_plant)
        with pytest.raises(ValueError):
            cli.cmd_reproduce(7)

    @pytest.mark.parametrize("figure", [1, 3, 4])
    def test_svg_refused_for_figures_without_one(self, tmp_path, capsys, monkeypatch, figure):
        # only figure 2 renders SVG; the others refuse --svg before any plant is built
        def no_plant(cfg):
            raise AssertionError("plant built for a refused --svg")

        monkeypatch.setattr(cli, "build_plant", no_plant)
        argv = ["reproduce", "--figure", str(figure), "--svg", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavereg: error:") and len(err.splitlines()) == 1
        assert "figure 2 only" in err and not any(tmp_path.iterdir())


# Each table maps a case's test id to its configuration. The ids are pinned to
# the names the cases had when they were numbered by position, so that adding
# a case renames no other; a new case takes an id that names its config.
CONFIG_ERRORS = {
    "overrides0": {"controller": {"N": 12}},
    "overrides1": {"simulation": {"t_end": 1.005, "dt": 0.01}},
    "overrides2": {"simulation": {"window": 2.0, "t_end": 1.0}},
    "overrides3": {"plant": {"m_angular": 5}},
    "overrides4": {"plant": {"damping_q": -1.0}},
    "n_radial-zero": {"plant": {"n_radial": 0}},
    "t_mod-zero": {"plant": {"t_mod": 0.0}},
    "dt-zero": {"simulation": {"dt": 0}},
    "window-zero": {"simulation": {"window": 0}},
    "window-negative": {"simulation": {"window": -1}},
    "t_end-below-dt": {"simulation": {"t_end": 0.005}},
    "epsilon-negative": {"controller": {"epsilon": -0.1}},
    "N-negative": {"controller": {"N": -1}},
}
UNSTABLE_LOOPS = {
    "overrides5": {"plant": {"damping_q": 0.0}},
    "overrides6": {"controller": {"epsilon": 2.0}},
}
UNKNOWN_NAMES = {
    "overrides7": {"controler": {"kind": "robust"}},
    "overrides8": {"exosystem": {"preset": "bogus"}},
    "overrides9": {"exosystem": {"grid_size": 64}},
}
WRONG_TYPES = {
    "overrides10": {"plant": 5},
    "overrides11": {"plant": {"n_radial": "eight"}},
    "overrides12": {"controller": {"N": 2.5}},
    "overrides13": {"simulation": {"dt": True}},
    "overrides14": {"exosystem": {"preset": None, "reference": [5]}},
    "overrides15": [],
}
EXOSYSTEM_ERRORS = {
    "overrides16": {"exosystem": {"preset": None, "reference": [{"temporal": "tan"}]}},
    "overrides17": {"exosystem": {"preset": None, "disturbance": [{"profile_type": "spline"}]}},
    "overrides18": {
        "exosystem": {"preset": None, "reference": [{"temporal": "sin", "omega_over_pi": 0}]}
    },
    "overrides19": {"exosystem": {"preset": None}},
    "preset-with-terms": {"exosystem": {"reference": [{"bogus": 1}], "disturbance": [42]}},
    **dict(zip(["overrides20", "overrides21", "overrides22"], TERM_DATA_ERRORS.values())),
}
# valid configurations the library rejects while it builds the run
COS_AT_ZERO = custom_term("reference", temporal="cos", omega_over_pi=0, profile_data=[1.0])
LIBRARY_ERRORS = {
    # ValueError "found only 127 of 150 roots": 127 roots of order 0 below k = 400
    "overrides23": {"plant": {"n_radial": 150}},
    # ValueError "not surjective": every velocity channel gain is 0 at omega = 0
    "overrides24": COS_AT_ZERO,
    # ValueError "outside range of P_s"
    "overrides25": {**COS_AT_ZERO, "controller": {"kind": "regulating"}},
    # OSError: the CSV of a 1e14-sample time grid needs more bytes than the
    # output directory has free; refused before any sampling
    "overrides26": {"simulation": {"t_end": 1e12}},
}
# values the config layer refuses that used to fail only once the run was built
LATE_ERRORS = {
    "overrides27": {"simulation": {"t_end": float("inf")}},
    "overrides28": {"plant": {"damping_q": float("nan")}},
    "overrides29": {"simulation": {"x0": {"file": 0}}},
    "overrides30": {"simulation": {"x0": {"file": ["a"]}}},
    "overrides31": {"simulation": {"x0": 5}},
}
INVALID_RUNS = [
    pytest.param(overrides, id=name)
    for table in (CONFIG_ERRORS, UNSTABLE_LOOPS, UNKNOWN_NAMES, WRONG_TYPES, EXOSYSTEM_ERRORS,
                  LIBRARY_ERRORS, LATE_ERRORS)
    for name, overrides in table.items()
]
BUILT_RUNS = [*UNSTABLE_LOOPS.values(), *LIBRARY_ERRORS.values()]
FLOAT_FIELDS = {"plant": ("damping_q", "rho", "t_mod"), "controller": ("epsilon",),
                "simulation": ("dt", "t_end", "window")}
EXTREME_FLOATS = (1e308, -1e308, 1e300, 1e-300, 1e-320, 5e-324)
# the extreme values refused by a rule that names the key that was written:
# every extreme rho and t_mod, and damping_q and epsilon of magnitude 1e308
KEYED_REFUSALS = {"rho": EXTREME_FLOATS, "t_mod": EXTREME_FLOATS,
                  "damping_q": (1e308, -1e308), "epsilon": (1e308, -1e308)}


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
        cfg = small_config(tmp_path)
        cfg.controller.N = 5  # past RunConfig.validate, which rejects it
        ok, lines = cli.cmd_verify("synth", cfg)
        assert not ok
        assert any(line.startswith("[FAIL]") for line in lines)

    def test_main_verify_all_on_small_config(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        save_config(small_config(tmp_path), cfg_path)
        builds = []
        build_plant = cli.build_plant

        def counting_build_plant(cfg):
            builds.append(cfg)
            return build_plant(cfg)

        monkeypatch.setattr(cli, "build_plant", counting_build_plant)
        code = cli.main(["verify", "--suite", "all", "--config", str(cfg_path)])
        lines = capsys.readouterr().out.splitlines()
        assert len(builds) == 1
        assert len(lines) == len(checks.REGISTRY)
        assert all(line.startswith(("[PASS] ", "[FAIL] ")) for line in lines)
        assert all(line.startswith("[PASS]") for line in lines)
        assert code == 0
        # every signal of small_config drives one channel, so K0 scaled entrywise
        # still regulates and criterion 4's negative control says it was skipped
        assert any("perturbation control skipped" in line for line in lines)

    def test_main_verify_exit_code(self, capsys):
        assert cli.main(["verify", "--suite", "linalg"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_main_eigs_with_config(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        assert cli.main(["eigs", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "eigenvalues.csv").exists()

    @pytest.mark.parametrize("overrides", INVALID_RUNS)
    def test_main_reports_invalid_run_in_one_line(self, tmp_path, capsys, monkeypatch, overrides):
        if overrides not in BUILT_RUNS:
            # rejected while the configuration is loaded, before any plant is built
            def no_plant(cfg):
                raise AssertionError("plant built for an invalid configuration")

            monkeypatch.setattr(cli, "build_plant", no_plant)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(overrides))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavereg: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        *((key, value) for keys in FLOAT_FIELDS.values() for key in keys for value in EXTREME_FLOATS),
        ("omega_over_pi", 1e154), ("omega_over_pi", -1e300),
    ])
    def test_no_finite_value_ends_in_a_traceback(self, tmp_path, capsys, key, value):
        # each float field at the ends of the double range, and custom frequencies
        # whose square overflows: every run writes its result or one error line
        data = small_config(tmp_path).to_dict()
        section = next((name for name, keys in FLOAT_FIELDS.items() if key in keys), None)
        (data[section] if section else data["exosystem"]["reference"][0])[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        for command in ("synth", "simulate"):
            code = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert (code, err) == (0, "") or (
                code == 2 and err.startswith("wavereg: error: ") and err.count("\n") == 1)
            if key == "omega_over_pi":
                assert code == 2 and "lambda^2 overflows" in err
            if value in KEYED_REFUSALS.get(key, ()):
                assert code == 2 and key in err

    @pytest.mark.parametrize("command", ["eigs", "synth", "simulate", "verify"])
    @pytest.mark.parametrize("key, value", [("dt", 1e-320), ("t_end", 1e308), ("window", 1e308)])
    def test_step_count_overflow_is_refused_by_key(self, tmp_path, capsys, command, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"simulation": {key: value}}))
        out = [] if command == "verify" else ["--out", str(tmp_path)]
        assert cli.main([command, "--config", str(cfg_path), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavereg: error: ") and err.count("\n") == 1
        assert f"{key}={value}" in err and "not a finite step count" in err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_main_reports_missing_config_in_one_line(self, tmp_path, capsys, command):
        assert cli.main([command, "--config", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavereg: error: ") and err.count("\n") == 1
        assert "missing.json" in err

    @pytest.mark.parametrize(
        "name, size, entry, message",
        [
            ("x0", None, None, "missing.mtx"),
            ("z0", None, None, "missing.mtx"),
            ("x0", 42, np.nan, "finite"),
            ("z0", 20, np.inf, "finite"),
            # an entry of text is the whole file: a header of the magic line only,
            # and one whose dimension line is short
            pytest.param("x0", None, "# wavereg matrix v1\n", "x0.mtx: missing or malformed",
                         id="x0-magic-line-only"),
            pytest.param("z0", None, "# wavereg matrix v1\n20 1\n", "z0.mtx: missing or malformed",
                         id="z0-short-dimension-line"),
            # the iscomplex flag is 0 or 1, not any digit
            pytest.param("x0", None, "# wavereg matrix v1\n1 2 7\n0 0 0 0\n",
                         "x0.mtx: missing or malformed", id="x0-complex-flag-7"),
        ],
    )
    def test_simulate_reports_bad_initial_state_in_one_line(
        self, tmp_path, capsys, name, size, entry, message
    ):
        cfg = small_config(tmp_path)
        path = tmp_path / "missing.mtx"
        if isinstance(entry, str):
            path = tmp_path / f"{name}.mtx"
            path.write_text(entry)
        elif size is not None:
            path = tmp_path / f"{name}.mtx"
            vec = np.zeros(size)
            vec[1] = entry
            serialize.save_matrix(path, vec)
        setattr(cfg.simulation, name, {"file": str(path)})
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavereg: error: ") and err.count("\n") == 1
        assert message in err
        if size is not None:  # a non-finite entry: named by its key, not the loop's x0
            assert f"{name} from " in err
        assert not (tmp_path / "simulation.csv").exists()

    def test_simulate_refuses_unstable_loop(self, tmp_path):
        # without the boundary damper the preset loop has abscissa +0.618
        cfg = sect5_config()
        cfg.plant.damping_q = 0.0
        with pytest.raises(ValueError, match=r"abscissa \+6\.1779e-01"):
            cli.cmd_simulate(cfg, tmp_path)
        assert not (tmp_path / "simulation.csv").exists()

    def test_synth_refuses_unstable_loop(self, tmp_path):
        # the delta of an unstable loop bounds nothing; simulate's refusal, word for word
        cfg = sect5_config()
        cfg.plant.damping_q = 0.0
        message = r"^closed loop is unstable \(spectral abscissa \+6\.1779e-01 >= 0\)$"
        with pytest.raises(ValueError, match=message):
            cli.cmd_synth(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []  # no synth_report.json, no controller matrices

    def test_energy_check_judges_undamped_plant(self):
        # at Q = 0 the admissibility bound E0/(2Q) is infinite, so only
        # conservation and non-increase are judged, and nothing divides by Q
        cfg = sect5_config()
        cfg.plant.damping_q = 0.0
        ok, lines = cli.cmd_verify("wave", cfg)
        (line,) = [line for line in lines if "conserves energy" in line]
        assert ok and line.startswith("[PASS]") and "Q=0: no admissibility bound" in line

    # one heavily damped mode: ||y||^2 decays fast and convex, so the
    # trapezoid rule at dt = 0.002 overestimates its integral by about 1.2e-4
    # of E0/(2Q), and the ratio reads 1.0001 although 2Q int ||y||^2 <= E0
    DAMPED_ONE_MODE = {
        "plant": {"n_radial": 1, "m_angular": 1, "damping_q": 10.0, "t_mod": 2.0},
        "exosystem": {"preset": None, "reference": [{
            "profile_type": "fourier", "profile_data": [0.1], "temporal": "cos",
            "omega_over_pi": 2.0}]},
        "controller": {"kind": "robust"},
    }

    def test_energy_check_judges_within_trapezoid_error(self):
        ok, lines = cli.cmd_verify("wave", RunConfig.from_dict(self.DAMPED_ONE_MODE))
        (line,) = [line for line in lines if "conserves energy" in line]
        assert ok and line.startswith("[PASS]")
        assert "admissibility ratio=1.0001 within its trapezoid error 3.7e-04" in line

    def test_energy_check_fails_beyond_trapezoid_error(self, monkeypatch):
        # negative control: E0 read 0.1 % low lifts the ratio about 1e-3 above
        # 1, several times the trapezoid's error
        energy = ModalWavePlant.energy
        monkeypatch.setattr(ModalWavePlant, "energy", lambda self, x: 0.999 * energy(self, x))
        ok, lines = cli.cmd_verify("wave", RunConfig.from_dict(self.DAMPED_ONE_MODE))
        (line,) = [line for line in lines if "conserves energy" in line]
        assert not ok and line.startswith("[FAIL]") and "admissibility ratio=1.0011" in line

    def test_delta_check_fails_on_unstable_loop(self):
        cfg = sect5_config()
        cfg.plant.damping_q = 0.0
        ok, lines = cli.cmd_verify("synth", cfg)
        (line,) = [line for line in lines if "error bound delta" in line]
        assert not ok and line.startswith("[FAIL]") and "abscissa +6.1779e-01" in line


def _probe(code):
    """stdout lines of ``code`` run in a fresh interpreter on this checkout's ``wavereg``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_cli_import_loads_no_verification_code():
    # only `wavereg verify` imports the oracles of wavereg.checks, and no module imports scipy
    path, loaded = _probe(
        "import sys, wavereg.cli; print(wavereg.cli.__file__); "
        "print([m for m in ('scipy', 'scipy.optimize', 'wavereg.checks') if m in sys.modules])"
    )
    assert Path(path).resolve() == Path(cli.__file__).resolve()
    assert loaded == "[]"


def test_checks_import_loads_no_cli():
    # the checks read the run they are handed and build none themselves
    path, loaded = _probe("import sys, wavereg.checks; print(wavereg.checks.__file__); "
                          "print('wavereg.cli' in sys.modules)")
    assert Path(path).resolve() == Path(checks.__file__).resolve()
    assert loaded == "False"


def test_preset_verify_loads_no_scipy():
    # numpy is the one runtime dependency: criterion 6 matches spectra without scipy.optimize
    lines = _probe("import sys; from wavereg import cli; print(cli.main(['verify', '--suite', 'all'])); "
                   "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert lines[-2:] == ["0", "[]"]


def test_preset_runs_load_no_scipy_sparse(tmp_path):
    """The preset ``simulate`` and ``synth`` load no scipy module at all, so in
    particular neither scipy.sparse nor scipy.linalg: expm, the block partition
    and the regulator solve run in numpy, only the oracles of ``wavereg
    verify`` call ``linalg.solve_dense``, and the Bessel values come from the
    C math library."""
    lines = _probe(
        "import sys; from wavereg import cli; cfg = cli.sect5_config(); "
        f"cli.cmd_simulate(cfg, {str(tmp_path)!r}); cli.cmd_synth(cfg, {str(tmp_path)!r}); "
        "print([m for m in sys.modules if m.split('.')[:2] in (['scipy', 'sparse'], "
        "['scipy', 'linalg'])]); "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert lines[-2] == "[]"
    assert lines[-1] == "[]"
    assert (tmp_path / "simulation.csv").exists() and (tmp_path / "synth_report.json").exists()
