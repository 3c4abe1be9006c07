import dataclasses

import numpy as np
import pytest

from corrchan import analysis
from corrchan.cli import main
from corrchan.config import ConfigError, build_channel, load_config


def write_cfg(tmp_path, name="exp.cfg", **overrides):
    base = {
        "dim": 2,
        "channel": "qubit_ixz",
        "probs": "0.3,0.2,0.5",
        "mu_start": 0.0,
        "mu_end": 1.0,
        "mu_points": 5,
        "mode": "full",
        "restarts": 3,
        "seed": 7,
        "outputs": "csv,svg",
        "out_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    path = tmp_path / name
    lines = ["# test configuration"]
    lines += [f"{k}={v}" for k, v in base.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = write_cfg(tmp_path, seed=123, mu_points=11)
        cfg = load_config(path)
        cfg.validate()
        assert cfg.seed == 123
        assert cfg.mu_points == 11
        assert cfg.probs == [0.3, 0.2, 0.5]
        assert cfg.outputs == {"csv", "svg"}

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\ndim=2\nchannel=qubit_ixz\n"
                        "probs=1,0,0  # inline comment\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.probs == [1.0, 0.0, 0.0]

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("nonsense=1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown"):
            load_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("dim=two\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_grid_validation(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, mu_start=0.5, mu_end=0.2))
        with pytest.raises(ConfigError, match="grid"):
            cfg.validate()

    def test_probs_count_validation(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, probs="0.5,0.5"))
        with pytest.raises(ConfigError, match="needs 3"):
            cfg.validate()

    def test_build_channel_rejects_bad_sum(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, probs="0.3,0.2,0.4"))
        cfg.validate()
        with pytest.raises(ConfigError, match="sum"):
            build_channel(cfg)

    def test_pauli_symmetric_rescales_published_decimals(self, tmp_path, capsys):
        cfg = load_config(write_cfg(tmp_path, dim=3, channel="pauli_symmetric",
                                    probs="0.08,0.18,0.0733", mode="ansatz"))
        cfg.validate()
        ch = build_channel(cfg)
        assert abs(ch.probs.sum() - 1.0) < 1e-12
        assert "rescaling" in capsys.readouterr().err

    @pytest.mark.parametrize("channel,dim,probs", [
        ("qubit_ixz", 2, "-0.1,0.6,0.5"),
        ("pauli_general", 2, "0.5,0.6,-0.1,0"),
        ("pauli_symmetric", 2, "0.6,-0.1")])
    def test_build_channel_rejects_negative_entry(self, tmp_path, channel, dim,
                                                  probs):
        cfg = load_config(write_cfg(tmp_path, channel=channel, dim=dim,
                                    probs=probs))
        cfg.validate()
        with pytest.raises(ConfigError, match="nonnegative"):
            build_channel(cfg)

    def test_pauli_symmetric_rejects_garbage_sum(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, dim=3, channel="pauli_symmetric",
                                    probs="0.3,0.3,0.3", mode="ansatz"))
        cfg.validate()
        with pytest.raises(ConfigError, match="expected about"):
            build_channel(cfg)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_corrupted_probabilities(self, tmp_path, capsys):
        path = write_cfg(tmp_path, probs="0.3,0.2,0.4")  # sums to 0.9
        assert main(["sweep", "--config", str(path)]) == 2

    def test_mu_outside_unit_interval(self, tmp_path):
        path = write_cfg(tmp_path, mu_end=1.4)
        assert main(["sweep", "--config", str(path)]) == 2

    def test_estimate_requires_symmetric_channel(self, tmp_path):
        path = write_cfg(tmp_path)  # qubit_ixz
        assert main(["estimate", "--config", str(path)]) == 2

    def test_retired_real_ansatz_mode_in_config(self, tmp_path, capsys):
        path = write_cfg(tmp_path, mode="real_ansatz")
        assert main(["sweep", "--config", str(path)]) == 2
        assert "mode must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "check", "validate"])
    @pytest.mark.parametrize("setting", [
        {"restarts": 0}, {"ftol": 0}, {"ftol": "nan"}, {"max_iters": 0},
        {"probs": "nan,0.5,0.5"},
        {"dim": 3, "channel": "pauli_symmetric", "probs": "nan,0.1,0.1"},
        {"mode": "ansatz"},  # the band search needs a column-symmetric channel
    ], ids=["restarts=0", "ftol=0", "ftol=nan", "max_iters=0", "qubit-nan",
            "qutrit-nan", "ansatz-qubit_ixz"])
    def test_invalid_setting(self, tmp_path, capsys, command, setting):
        path = write_cfg(tmp_path, **setting)
        assert main([command, "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_retired_real_ansatz_mode_flag(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(path), "--mode", "real_ansatz"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCheckCommand:
    def test_ixz_predicts_transition(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        assert main(["check", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "transition_predicted=true" in out

    def test_xz_prints_witness(self, tmp_path, capsys):
        path = write_cfg(tmp_path, probs="0.0,0.4,0.6")
        assert main(["check", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "transition_predicted=false" in out
        witness_line = [l for l in out.splitlines() if l.startswith("witness=")]
        assert len(witness_line) == 1
        amps = np.array([float(v) for v in witness_line[0].split("=")[1].split(",")])
        vec = amps[0::2] + 1j * amps[1::2]
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


class TestSweepCommand:
    def test_noiseless_channel(self, tmp_path, capsys):
        path = write_cfg(tmp_path, probs="1,0,0", mu_points=4)
        assert main(["sweep", "--config", str(path)]) == 0
        assert "mu_c=none" in capsys.readouterr().out
        csv = (tmp_path / "out" / "sweep.csv").read_text(encoding="utf-8")
        header = csv.splitlines()[0]
        assert header.startswith("mu,s_min_bits,entanglement_bits,i2_bits,"
                                 "amp_re_0,amp_im_0")
        rows = csv.strip().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            cells = row.split(",")
            assert float(cells[1]) <= 1e-8          # zero output entropy
            assert abs(float(cells[3]) - 2.0) < 1e-6  # i2 at capacity

    def test_csv_is_deterministic_and_svg_free(self, tmp_path, capsys):
        path = write_cfg(tmp_path, probs="1,0,0", mu_points=3)
        assert main(["sweep", "--config", str(path)]) == 0
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        svg = (tmp_path / "out" / "sweep.svg")
        assert svg.exists()
        svg.unlink()
        assert main(["sweep", "--config", str(path), "--no-svg"]) == 0
        second = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert first == second
        assert not svg.exists()
        capsys.readouterr()

    def test_override_flags(self, tmp_path, capsys):
        path = write_cfg(tmp_path, probs="1,0,0", mu_points=3)
        out2 = tmp_path / "elsewhere"
        assert main(["sweep", "--config", str(path), "--mu-points", "4",
                     "--out", str(out2), "--seed", "9"]) == 0
        csv = (out2 / "sweep.csv").read_text(encoding="utf-8")
        assert len(csv.strip().splitlines()) == 5
        capsys.readouterr()

    def test_prints_the_exact_root_and_no_warning(self, tmp_path, capsys):
        path = write_cfg(tmp_path, outputs="csv")
        assert main(["sweep", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "mu_c=0.559581\n"
        assert "warning" not in err

    def test_warns_on_a_search_below_both_basin_curves(self, tmp_path, capsys,
                                                       monkeypatch):
        search = analysis.minimize_full

        def below_at_half(ch, cfg):
            res = search(ch, cfg)
            if ch.mu != 0.5:
                return res
            return dataclasses.replace(res, entropy_bits=res.entropy_bits - 1e-6)
        monkeypatch.setattr(analysis, "minimize_full", below_at_half)
        path = write_cfg(tmp_path, outputs="csv")
        assert main(["sweep", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "mu_c=0.559581\n"
        warnings = [l for l in err.splitlines() if l.startswith("warning:")]
        assert len(warnings) == 1 and "mu=0.5 " in warnings[0]

    def test_pure_output_prints_positive_zero(self, tmp_path, capsys):
        # at mu = 1 the maximally entangled input has a pure output
        path = write_cfg(tmp_path, dim=3, channel="pauli_symmetric",
                         probs="0.08,0.18,0.0733", mode="ansatz",
                         mu_start=0.9, mu_points=2, restarts=1,
                         outputs="csv")
        assert main(["sweep", "--config", str(path)]) == 0
        capsys.readouterr()
        csv = (tmp_path / "out" / "sweep.csv").read_text(encoding="utf-8")
        mu, s_min = csv.splitlines()[-1].split(",")[:2]
        assert (mu, s_min) == ("1", "0")


class TestEstimateCommand:
    def test_bundled_parameters(self, tmp_path, capsys):
        path = write_cfg(tmp_path, dim=3, channel="pauli_symmetric",
                         probs="0.08,0.18,0.0733", mode="ansatz",
                         mu_points=21)
        assert main(["estimate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("mu_c_estimate=")][0]
        value = float(line.split("=")[1])
        assert abs(value - 0.26860) < 1e-3
        csv = (tmp_path / "out" / "estimates.csv").read_text(encoding="utf-8")
        lines = csv.strip().splitlines()
        assert lines[0] == "mu,f_me,f_s,r_me,r_s"
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == 1.0 and abs(last[1] - 1.0) < 1e-12
        # above the crossing the entangled input has the purer output
        for row in lines[1:]:
            mu, f_me, f_s, r_me, r_s = (float(v) for v in row.split(","))
            assert f_me >= f_s - 1e-12
            if mu > value + 1e-9:
                assert r_me <= r_s + 1e-12
        assert (tmp_path / "out" / "estimates.svg").exists()


class TestValidateCommand:
    def test_qubit_preset_passes(self, tmp_path, capsys):
        path = write_cfg(tmp_path, restarts=4)
        assert main(["validate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "validate=pass" in out
        assert out.count("status=pass") >= 8

    def test_qutrit_preset_passes(self, tmp_path, capsys):
        path = write_cfg(tmp_path, dim=3, channel="pauli_symmetric",
                         probs="0.08,0.18,0.0733", mode="ansatz", restarts=4)
        assert main(["validate", "--config", str(path)]) == 0
        assert "validate=pass" in capsys.readouterr().out
