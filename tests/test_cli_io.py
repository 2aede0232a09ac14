"""Configuration parsing, binary snapshots, CSV output, and the CLI."""

import csv
import dataclasses
import io
import os
import pathlib
import re
import stat
import struct
import warnings

import numpy as np
import pytest

from euleralign.cli import main
from euleralign.config import _KEYS, ConfigError, parse_config
from euleralign.grid import Grid, SpectralField
from euleralign.model import VACUUM_THRESHOLD, ModelParams, State, sigma_from_rho
from euleralign.simulation import SimConfig, initial_state, run
from euleralign.snapshot import (
    _HEADER,
    MAGIC,
    SnapshotError,
    atomic_open,
    read_snapshot,
    write_snapshot,
)


@pytest.fixture
def umask_027():
    """Run the test under umask 027, so a new file's normal mode is 0o640."""
    old = os.umask(0o027)
    try:
        yield 0o640
    finally:
        os.umask(old)


MINIMAL = """
[grid]
n = 64

[time]
t_end = 0.5
dt = 0.015625
"""


class TestParseConfig:
    def test_minimal(self):
        c = parse_config(MINIMAL)
        assert c.n == 64 and c.dim == 1
        assert c.t_end == 0.5 and c.dt == 0.015625
        assert c.alpha == 1.5 and c.gamma == 1.0
        assert c.ic == "gaussian_bump"

    def test_empty_uses_defaults(self):
        c = parse_config("")
        assert c.n == 256 and c.L == pytest.approx(2 * np.pi)
        # every default lives in SimConfig; the parser adds none of its own
        assert c == SimConfig()

    def test_case_preserved_for_L(self):
        c = parse_config("[grid]\nL = 12.5\n")
        assert c.L == 12.5

    def test_full_sections(self):
        text = """
[grid]
dim = 1
n = 128
L = 6.283185307179586

[model]
alpha = 1.8
kappa = 2.0
gamma = 1.4
mu = 0.7

[time]
t_end = 2.0
cfl = 0.3
cadence = 4

[ic]
preset = random_smooth
amplitude = 0.005
seed = 11

[output]
snapshot = out.snap
norms = extra sigma homogeneous 0.5 1; hi u high 1.0 4 inf

[decay]
t_a = 1.0
t_b = 2.0
kind = power
"""
        c = parse_config(text)
        assert c.alpha == 1.8 and c.mu == 0.7
        assert c.snapshot_path == "out.snap"
        assert len(c.norms) == 2
        name, target, spec = c.norms[1]
        assert name == "hi" and target == "u"
        assert spec.kind == "high" and spec.j0 == 4 and spec.r == np.inf
        assert c.decay_window == (1.0, 2.0)

    def test_invalid_alpha_rejected_at_parse(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("[model]\nalpha = 2.5\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"\[physics\]"):
            parse_config("[physics]\nx = 1\n")

    def test_unknown_key_path(self):
        with pytest.raises(ConfigError, match="grid.m"):
            parse_config("[grid]\nm = 4\n")

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match="grid.n"):
            parse_config("[grid]\nn = many\n")

    def test_bad_norm_entries(self):
        with pytest.raises(ConfigError, match="norms"):
            parse_config("[output]\nnorms = too few\n")
        with pytest.raises(ConfigError, match="norms"):
            parse_config("[output]\nnorms = x rho homogeneous 0.5\n")
        with pytest.raises(ConfigError, match="norms"):
            parse_config("[output]\nnorms = x sigma fancy 0.5\n")

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("a u homogeneous 0.5 1 7", "too many arguments for a homogeneous norm"),
            ("a u hybrid 0.5 1 2 9 9", "too many arguments for a hybrid norm"),
            ("a u low 0.5 2 1 extra", "too many arguments for a low norm"),
            ("a u low 0.5", "too few arguments for a low norm"),
        ],
    )
    def test_norm_entry_argument_count(self, entry, message):
        # an extra token, even a non-number, is no longer dropped silently
        with pytest.raises(ConfigError, match=re.escape(f"{message} in {entry!r}")):
            parse_config(f"[output]\nnorms = {entry}\n")

    def test_norm_entries_take_a_trailing_semicolon(self):
        c = parse_config("[output]\nnorms = a u homogeneous 0.5 1; b sigma high 1 2;\n")
        assert [name for name, _, _ in c.norms] == ["a", "b"]

    @pytest.mark.parametrize(
        "entries",
        ["mass u homogeneous 0 1", "X1_sigma_sup sigma homogeneous 0 1",
         "a u homogeneous 0 1; a sigma homogeneous 1 1"],
    )
    def test_norm_column_names_must_be_new(self, entries, tmp_path, capsys):
        # a repeated name would overwrite that column of the trace
        text = f"[grid]\nn = 32\n[time]\nt_end = 0.1\n[output]\nnorms = {entries}\n"
        with pytest.raises(ConfigError, match="repeats another trace column"):
            parse_config(text)
        out = tmp_path / "trace.csv"
        assert main(["run", "--config", _write_config(tmp_path, text), "--output", str(out)]) == 2
        assert "repeats another trace column" in capsys.readouterr().err
        assert not out.exists()

    def test_decay_validation(self):
        with pytest.raises(ConfigError, match="decay"):
            parse_config("[decay]\nt_a = 5.0\n")
        with pytest.raises(ConfigError, match="decay"):
            parse_config("[decay]\nt_a = 5.0\nt_b = 1.0\n")
        with pytest.raises(ConfigError, match="kind"):
            parse_config("[decay]\nkind = linear\n")

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("not an ini file at all\n")

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[grid]\nn = 24\n")

    def test_key_table_names_simconfig_fields(self):
        fields = {f.name for f in dataclasses.fields(SimConfig)}
        for section, keys in _KEYS.items():
            for key, (name, _) in keys.items():
                assert name in fields, f"{section}.{key} -> {name}"

    def test_readme_sample_config_parses(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = text.split("## Configuration format", 1)[1]
        block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
        c = parse_config(block)
        assert c.decay_window is not None and c.snapshot_path == "final.snap"


class TestSnapshot:
    def _state(self):
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, mu=1.0)
        g = Grid(1, 64, 2 * np.pi)
        x = g.axis_points()
        sig = SpectralField.from_physical(g, 0.01 * np.cos(x))
        u = SpectralField.from_physical(g, 0.02 * np.sin(x))
        return State(sig, u, t=1.25), p

    def test_round_trip_bit_exact(self, tmp_path):
        st, p = self._state()
        path = str(tmp_path / "s.snap")
        write_snapshot(path, st, p)
        back, p2 = read_snapshot(path)
        assert back.t == st.t
        assert np.array_equal(back.scalar.to_physical(), st.scalar.to_physical())
        assert np.array_equal(back.u.to_physical(), st.u.to_physical())
        assert (p2.alpha, p2.kappa, p2.gamma, p2.mu) == (p.alpha, p.kappa, p.gamma, p.mu)

    def test_rewrite_is_byte_identical(self, tmp_path):
        st, p = self._state()
        a, b = str(tmp_path / "a.snap"), str(tmp_path / "b.snap")
        write_snapshot(a, st, p)
        back, p2 = read_snapshot(a)
        write_snapshot(b, back, p2)
        assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()

    def test_snapshot_gets_the_normal_file_mode(self, tmp_path, umask_027):
        # the mode of a plain open(): 0o666 less the umask, also when the
        # snapshot replaces a file of another mode
        st, p = self._state()
        path = tmp_path / "s.snap"
        path.write_bytes(b"old")
        os.chmod(path, 0o600)
        write_snapshot(str(path), st, p)
        assert stat.S_IMODE(path.stat().st_mode) == umask_027

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # a block that raises leaves the old bytes and no temp file behind
        path = tmp_path / "s.snap"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_open(str(path)) as fh:
                fh.write(b"partial")
                raise RuntimeError("mid-write")
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.snap"]

    def test_2d_round_trip(self, tmp_path):
        g = Grid(2, 16, 1.0)
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, dim=2, mu=1.0)
        rng = np.random.default_rng(0)
        st = State(
            SpectralField.from_physical(g, rng.standard_normal(g.shape)),
            SpectralField.from_physical(g, rng.standard_normal((2,) + g.shape)),
        )
        path = str(tmp_path / "s2.snap")
        write_snapshot(path, st, p)
        back, _ = read_snapshot(path)
        assert np.array_equal(back.u.to_physical(), st.u.to_physical())

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(str(path))

    def test_bad_magic(self, tmp_path):
        st, p = self._state()
        path = tmp_path / "bad.snap"
        write_snapshot(str(path), st, p)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTASNAP"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(str(path))

    def test_bad_version(self, tmp_path):
        st, p = self._state()
        path = tmp_path / "bad.snap"
        write_snapshot(str(path), st, p)
        data = bytearray(path.read_bytes())
        data[8] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(str(path))

    def _legacy_rho_file(self, path, code=0):
        """A file as older versions wrote it for a density-velocity state."""
        st, p = self._state()
        g = st.grid
        rho = 1.0 + 0.2 * np.cos(g.axis_points())
        header = _HEADER.pack(MAGIC, 1, 1, g.n, g.L, st.t, p.alpha, p.kappa, p.gamma, p.mu, code)
        body = np.concatenate([rho, st.u.to_physical()[0]]).astype("<f8").tobytes()
        path.write_bytes(header + body)
        return rho, st, p

    def test_legacy_rho_file_reads_as_sigma(self, tmp_path):
        rho, st, p = self._legacy_rho_file(tmp_path / "rho.snap")
        back, _ = read_snapshot(str(tmp_path / "rho.snap"))
        assert np.array_equal(back.scalar.to_physical()[0], sigma_from_rho(rho, p))
        assert np.array_equal(back.u.to_physical(), st.u.to_physical())

        # cli analyze sees the same state as in a sigma file
        sig = SpectralField.from_physical(st.grid, sigma_from_rho(rho, p))
        write_snapshot(str(tmp_path / "sigma.snap"), State(sig, st.u, st.t), p)
        for name in ("rho", "sigma"):
            snap, out = str(tmp_path / f"{name}.snap"), str(tmp_path / f"{name}.csv")
            assert main(["analyze", snap, "--output", out]) == 0
        assert (tmp_path / "rho.csv").read_bytes() == (tmp_path / "sigma.csv").read_bytes()

    @pytest.mark.parametrize("code", ["rho", "sigma"])
    def test_non_positive_rho_is_a_validation_error(self, tmp_path, capsys, code):
        path = tmp_path / "bad.snap"
        if code == "rho":
            self._legacy_rho_file(path)
            data = bytearray(path.read_bytes())
            data[_HEADER.size + 8 * 3 : _HEADER.size + 8 * 4] = struct.pack("<d", -1.0)
            path.write_bytes(bytes(data))
        else:
            # at gamma = 2, rho = 1 + sigma / lam: sigma = -2 is rho < 0, not a vacuum abort
            g = Grid(1, 32, 2.0 * np.pi)
            p = ModelParams(alpha=1.5, kappa=1.0, gamma=2.0)
            sig = np.full(g.shape, -2.0)
            sig[0] = 0.0
            st = State(SpectralField.from_physical(g, sig), SpectralField.zeros(g))
            write_snapshot(str(path), st, p)
        with pytest.raises(SnapshotError, match="rho must be > 0"):
            read_snapshot(str(path))
        out = tmp_path / "bad.csv"
        assert main(["analyze", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, gamma, value",
        [
            ("sigma", 1.0, np.nan),
            ("sigma", 2.0, np.nan),
            ("rho", 1.0, np.nan),
            ("u", 1.0, np.nan),
            ("t", 1.0, np.nan),
            ("sigma", 1.0, np.inf),
        ],
        ids=["sigma_nan_gamma1", "sigma_nan_gamma2", "rho_nan", "u_nan", "t_nan", "sigma_inf"],
    )
    def test_non_finite_value_is_a_validation_error(self, tmp_path, capsys, field, gamma, value):
        # a non-finite sample is bad input, not data for a row of nan
        g = Grid(1, 32, 2 * np.pi)
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=gamma, mu=1.0)
        x = g.axis_points()
        scalar = 1.0 + 0.2 * np.cos(x) if field == "rho" else 0.01 * np.cos(x)
        u, t = 0.02 * np.sin(x), 1.25
        if field == "t":
            t = value
        else:
            (u if field == "u" else scalar)[3] = value
        code = 0 if field == "rho" else 1
        header = _HEADER.pack(MAGIC, 1, 1, g.n, g.L, t, p.alpha, p.kappa, p.gamma, p.mu, code)
        path = tmp_path / "bad.snap"
        path.write_bytes(header + np.concatenate([scalar, u]).astype("<f8").tobytes())
        with pytest.raises(SnapshotError, match="must be finite"):
            read_snapshot(str(path))
        out = tmp_path / "bad.csv"
        assert main(["analyze", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "dim, n, L, alpha, mu, match",
        [
            (1, 32, np.nan, 1.5, 1.0, "L must be finite"),
            (1, 32, 2 * np.pi, 1.5, np.nan, "mu must be finite"),
            (1, 32, 2 * np.pi, 2.5, 1.0, "alpha must lie in"),
            (2, 2**31, 2 * np.pi, 1.5, 1.0, "truncated field data"),
        ],
        ids=["L_nan", "mu_nan", "alpha_2.5", "2d_n_2**31"],
    )
    def test_bad_header_is_a_validation_error(self, tmp_path, capsys, dim, n, L, alpha, mu, match):
        # a 1D n = 32 body follows each header; the 2D one declares 2**62 samples
        # per field, which must be refused before any of them is read
        header = _HEADER.pack(MAGIC, 1, dim, n, L, 0.5, alpha, 1.0, 1.0, mu, 1)
        path = tmp_path / "bad.snap"
        path.write_bytes(header + np.zeros(2 * 32).astype("<f8").tobytes())
        with pytest.raises(SnapshotError, match=match):
            read_snapshot(str(path))
        out = tmp_path / "bad.csv"
        assert main(["analyze", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_scalar_code(self, tmp_path):
        self._legacy_rho_file(tmp_path / "bad.snap", code=2)
        with pytest.raises(SnapshotError, match="code 2"):
            read_snapshot(str(tmp_path / "bad.snap"))

    def test_truncated_body(self, tmp_path):
        st, p = self._state()
        path = tmp_path / "bad.snap"
        write_snapshot(str(path), st, p)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(str(path))


def _write_config(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


RUN_INI = """
[grid]
n = 64

[time]
t_end = 0.25
dt = 0.015625

[ic]
preset = single_mode
amplitude = 0.01

[output]
snapshot = {snap}
"""


class TestCLI:
    def test_run_writes_rfc4180_csv(self, tmp_path, capsys):
        snap = str(tmp_path / "final.snap")
        cfg = _write_config(tmp_path, RUN_INI.format(snap=snap))
        out = str(tmp_path / "trace.csv")
        assert main(["run", "--config", cfg, "--output", out]) == 0
        banner = capsys.readouterr().out
        assert "lambda=1" in banner
        raw = pathlib.Path(out).read_bytes()
        assert b"\r\n" in raw
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
        assert rows[0][0] == "t"
        assert len(rows) > 2
        # every data cell parses as a float
        for row in rows[1:]:
            for cell in row:
                float(cell)

    def test_run_then_analyze_matches(self, tmp_path):
        snap = str(tmp_path / "final.snap")
        cfg = _write_config(tmp_path, RUN_INI.format(snap=snap))
        trace_path = str(tmp_path / "trace.csv")
        assert main(["run", "--config", cfg, "--output", trace_path]) == 0
        an_path = str(tmp_path / "an.csv")
        assert main(["analyze", snap, "--output", an_path]) == 0

        def load(path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            return rows[0], rows[1:]

        thdr, trows = load(trace_path)
        ahdr, arows = load(an_path)
        final = dict(zip(thdr, trows[-1]))
        ana = dict(zip(ahdr, arows[0]))
        for col in ahdr:
            assert abs(float(final[col]) - float(ana[col])) <= 1e-12 * max(
                abs(float(final[col])), 1.0
            )

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)])
    def test_analyze_rejects_mixed_dimensions(self, tmp_path, capsys, order):
        snaps = []
        for dim in order:
            st = initial_state(SimConfig(dim=dim, n=16, ic="random_smooth", seed=dim))
            snaps.append(str(tmp_path / f"{dim}d.snap"))
            write_snapshot(snaps[-1], st, ModelParams(1.5, 1.0, 1.0, dim=dim))
        out = tmp_path / "an.csv"
        assert main(["analyze", *snaps, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert snaps[1] in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.ini"), "--output", "-"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "alpha", "2.5"),
            ("ic", "seed", "-1"),
            ("ic", "mode", "0"),
            ("ic", "mode", "12"),  # above n/3 = 10: dealiased to a zero field
            ("ic", "mode", "100"),  # aliased onto mode 4
        ],
    )
    def test_invalid_config_exits_2(self, tmp_path, capsys, section, key, value):
        # rejected at parse time: no banner, no trace
        cfg = _write_config(tmp_path, f"[grid]\nn = 32\n\n[{section}]\n{key} = {value}\n")
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "t.csv")]) == 2
        out, err = capsys.readouterr()
        assert key in err and "Traceback" not in err
        assert out == "" and not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "line", ["dt = -0.01", "dt = 0", "cfl = -0.4", "cfl = 0", "cadence = -1", "cadence = 0"]
    )
    def test_non_positive_time_step_exits_2(self, tmp_path, capsys, line):
        cfg = _write_config(tmp_path, f"[grid]\nn = 32\n\n[time]\nt_end = 0.1\n{line}\n")
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert line.split()[0] in err and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("time", "t_end", "inf"),
            ("model", "kappa", "inf"),
            ("model", "mu", "inf"),
            ("model", "gamma", "inf"),
            ("grid", "L", "inf"),
            ("ic", "amplitude", "inf"),
            ("time", "t_end", "nan"),
            ("model", "kappa", "nan"),
            ("model", "mu", "nan"),
            ("model", "gamma", "nan"),
            ("ic", "amplitude", "nan"),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, section, key, value):
        sections = {"grid": {"n": "32"}, "time": {"t_end": "0.1"}}
        sections.setdefault(section, {})[key] = value
        text = "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()
        )
        cfg = _write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("norms", "x sigma homogeneous inf 1"),
            ("norms", "x u hybrid 0.5 nan 2"),
            ("norms", "x sigma low -inf 2 1"),
            ("snapshot", ""),
        ],
    )
    def test_bad_output_value_exits_2_before_the_run(self, tmp_path, capsys, key, value):
        text = f"[grid]\nn = 32\n\n[time]\nt_end = 0.1\n\n[output]\n{key} = {value}\n"
        cfg = _write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert f"output.{key}" in err and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    def test_snapshot_path_with_percent_is_written(self, tmp_path):
        # a '%' is part of the path, not configparser interpolation
        snap = tmp_path / "run%1.snap"
        cfg = _write_config(tmp_path, RUN_INI.format(snap=snap))
        assert parse_config(RUN_INI.format(snap=snap)).snapshot_path == str(snap)
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "t.csv")]) == 0
        assert snap.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "time, amplitude, code",
        [
            ("t_end = 0.25\ndt = 0.015625", 0.01, 0),
            ("t_end = 10.0\ndt = 0.2\ncadence = 1", 0.01, 4),  # CFL abort
            ("t_end = 5.0\ndt = 0.05\ncfl = 1e9", 30.0, 3),  # vacuum abort
        ],
    )
    def test_snapshot_is_the_last_recorded_state(self, tmp_path, time, amplitude, code):
        # run keeps only its last record; the snapshot must have the bytes of
        # the last of all the records that store_states keeps
        snap = tmp_path / "final.snap"
        text = (
            f"[grid]\nn = 64\n\n[time]\n{time}\n\n"
            f"[ic]\npreset = single_mode\namplitude = {amplitude}\n\n"
            f"[output]\nsnapshot = {snap}\n"
        )
        cfg = _write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "t.csv")]) == code
        config = parse_config(text)
        _, states = run(config, store_states=True)
        write_snapshot(str(tmp_path / "all.snap"), states[-1], config.model_params())
        assert snap.read_bytes() == (tmp_path / "all.snap").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "body, initial_row",
        [
            # rho ~ e^{-30} in the troughs: step 1 refuses the initial data
            ("[time]\nt_end = 5.0\ndt = 0.05\ncfl = 1e9\n\n"
             "[ic]\npreset = single_mode\namplitude = 30.0\n", True),
            # rho <= 0 in the initial data: the first record stops the run
            ("[model]\ngamma = 2\n\n[time]\nt_end = 0.1\n\n"
             "[ic]\npreset = random_smooth\namplitude = 2\n", False),
        ],
        ids=["single_mode", "no_initial_density"],
    )
    def test_vacuum_exits_3_with_partial_trace(self, tmp_path, capsys, body, initial_row):
        snap = tmp_path / "final.snap"
        cfg = _write_config(
            tmp_path, f"[grid]\nn = 64\n\n{body}\n[output]\nsnapshot = {snap}\n"
        )
        out = str(tmp_path / "trace.csv")
        assert main(["run", "--config", cfg, "--output", out]) == 3
        assert "vacuum abort: partial trace written" in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t" and snap.exists()
        if initial_row:
            assert len(rows) >= 2  # header + at least the t=0 row
        else:
            assert len(rows) == 1  # the header alone
            # the snapshot of the initial data is bad input for analyze
            assert main(["analyze", str(snap), "--output", str(tmp_path / "an.csv")]) == 2
            assert "rho must be > 0" in capsys.readouterr().err

    def test_cfl_exits_4_with_partial_trace(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            """
[grid]
n = 64

[time]
t_end = 10.0
dt = 0.2
cadence = 1

[ic]
preset = single_mode
""",
        )
        out = str(tmp_path / "trace.csv")
        with pytest.warns(RuntimeWarning, match="CFL violation"):
            assert main(["run", "--config", cfg, "--output", out]) == 4
        assert "cfl abort" in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        # header, the t=0 row and the three strike records
        assert [float(r[0]) for r in rows[1:]] == pytest.approx([0.0, 0.2, 0.4, 0.6])

    def test_cfl_strike_at_the_last_record_exits_4(self, tmp_path, capsys):
        # one step of dt = t_end = 0.1 against a limit of about 0.078: the
        # only strike is the final record, and it must not end "ok"
        cfg = _write_config(
            tmp_path,
            """
[grid]
n = 32

[time]
t_end = 0.1
dt = 1e9
""",
        )
        out = str(tmp_path / "trace.csv")
        with pytest.warns(RuntimeWarning, match="CFL violation"):
            assert main(["run", "--config", cfg, "--output", out]) == 4
        assert "cfl abort" in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [float(r[0]) for r in rows[1:]] == pytest.approx([0.0, 0.1])

    def test_linear_row_values(self, tmp_path):
        out = str(tmp_path / "lin.csv")
        rc = main(
            [
                "linear",
                "--alpha", "1.5",
                "--lambda", "1.0",
                "--mu", "1.0",
                "--xi", "1",
                "--xi", "16",
                "--output", out,
            ]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["|xi|", "re_fast", "re_slow", "im", "regime", "rate_floor"]
        r1 = rows[1]
        assert float(r1[1]) == pytest.approx(-0.5)
        assert float(r1[2]) == pytest.approx(-0.5)
        assert float(r1[3]) == pytest.approx(np.sqrt(3) / 2)
        assert r1[4] == "low" and float(r1[5]) == pytest.approx(0.125)
        r2 = rows[2]
        assert float(r2[1]) == pytest.approx(-32.0 - 16 * np.sqrt(3))
        assert float(r2[2]) == pytest.approx(-32.0 + 16 * np.sqrt(3))
        assert r2[4] == "low"

    def test_linear_default_range_is_log_spaced(self, tmp_path):
        out = str(tmp_path / "lin.csv")
        argv = ["linear", "--alpha", "1.5", "--lambda", "1", "--mu", "1",
                "--xi-min", "0.5", "--xi-max", "8", "--xi-count", "5", "--output", out]
        assert main(argv) == 0
        with open(out, newline="") as fh:
            xis = np.array([float(r[0]) for r in list(csv.reader(fh))[1:]])
        assert xis.size == 5
        np.testing.assert_allclose(xis[[0, -1]], [0.5, 8.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(xis[1:] / xis[:-1], 2.0, rtol=1e-15)

    def test_linear_rejects_bad_params(self, capsys):
        assert main(["linear", "--alpha", "2.5", "--lambda", "1", "--mu", "1"]) == 2
        assert main(["linear", "--alpha", "1.5", "--lambda", "-1", "--mu", "1"]) == 2
        assert (
            main(["linear", "--alpha", "1.5", "--lambda", "1", "--mu", "1", "--xi", "-2"])
            == 2
        )
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--lambda", "nan"),
            ("--lambda", "0"),
            ("--mu", "inf"),
            ("--mu", "-1"),
            ("--xi", "nan"),
            ("--xi-min", "-1"),
            ("--xi-max", "inf"),
            ("--xi-count", "0"),
            ("--xi-count", "-3"),
        ],
    )
    def test_linear_rejects_a_non_finite_or_non_positive_flag(self, capsys, flag, value):
        argv = ["linear", "--alpha", "1.5", "--lambda", "1", "--mu", "1", flag, value]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert f"{flag} must be finite and > 0" in err and out == ""

    _BAD_HEAT_DECAY = [("--mu", "nan")] + [("--width", v) for v in ("0", "-1", "nan", "inf")]
    _BAD_HEAT_DECAY += [("--samples", v) for v in ("0", "5")]

    @pytest.mark.parametrize(
        "flag, value", _BAD_HEAT_DECAY, ids=[f"{f}={v}" for f, v in _BAD_HEAT_DECAY]
    )
    def test_heat_decay_rejects_a_bad_value(self, capsys, flag, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check comes before any arithmetic
            assert main(["heat-decay", "--n", "64", flag, value, "--output", "-"]) == 2
        message = {"--mu": "mu must be > 0", "--width": "width must be finite and > 0",
                   "--samples": "decay_fit needs at least 10 samples"}[flag]
        assert message in capsys.readouterr().err

    def test_heat_decay_small(self, tmp_path, capsys):
        out = str(tmp_path / "hd.csv")
        rc = main(
            [
                "heat-decay",
                "--n", "1024",
                "--L", str(64 * np.pi),
                "--t-a", "2.0",
                "--t-b", "10.0",
                "--samples", "50",
                "--output", out,
            ]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[5] for r in rows[1:]] == ["l2", "b_s1"]
        # l2 target column carries -N/(2 alpha)
        assert float(rows[1][7]) == pytest.approx(-1.0 / 3.0)

    def test_decay_fit_printed(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            """
[grid]
n = 64

[time]
t_end = 3.0
dt = 0.03

[ic]
preset = single_mode
amplitude = 0.001

[decay]
t_a = 0.5
t_b = 3.0
kind = exp
column = l2_u
""",
        )
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "t.csv")]) == 0
        assert "decay fit" in capsys.readouterr().out

    def test_removed_decay_target_is_an_unknown_key(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "[grid]\nn = 32\n\n[decay]\ns0 = 0.25\n")
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert "unknown key decay.s0" in err and "Traceback" not in err

    def test_unknown_decay_column_exits_2_before_the_run(self, tmp_path, capsys):
        # the config check names every trace column, and nothing runs
        text = (
            "[grid]\nn = 32\n\n[time]\nt_end = 0.5\n\n"
            "[output]\nnorms = extra sigma homogeneous 0.5 1\n\n"
            "[decay]\nt_a = 0.1\nt_b = 0.5\ncolumn = {}\n"
        )
        good = tmp_path / "good.csv"
        cfg = _write_config(tmp_path, text.format("extra"), name="good.ini")
        assert main(["run", "--config", cfg, "--output", str(good)]) == 0
        capsys.readouterr()
        out = tmp_path / "t.csv"
        cfg = _write_config(tmp_path, text.format("l2_sgima"))
        assert main(["run", "--config", cfg, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = captured.err
        assert "decay.column" in err and "l2_sgima" in err and "Traceback" not in err
        with open(good, newline="") as fh:
            header = next(csv.reader(fh))
        assert "extra" in header and all(col in err for col in header)

    def test_run_to_stdout_writes_only_the_csv(self, tmp_path, capsys):
        # the banner and the decay fit go to stderr, so stdout parses as CSV
        cfg = _write_config(
            tmp_path,
            "[grid]\nn = 32\n\n[time]\nt_end = 0.5\ndt = 0.02\n\n"
            "[decay]\nt_a = 0.0\nt_b = 0.5\n",
        )
        assert main(["run", "--config", cfg, "--output", "-"]) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out, newline="")))
        assert rows[0][0] == "t" and len(rows) == 27
        assert all(float(cell) == float(cell) for row in rows[1:] for cell in row)
        assert "lambda=1" in captured.err and "decay fit [l2_sigma]" in captured.err

    def test_heat_decay_to_stdout_writes_only_the_csv(self, capsys):
        args = ["heat-decay", "--n", "1024", "--L", str(64 * np.pi), "--t-a", "2.0",
                "--t-b", "10.0", "--samples", "50"]
        assert main(args) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out, newline="")))
        assert rows[0][0] == "alpha" and [r[5] for r in rows[1:]] == ["l2", "b_s1"]
        assert "l2 exponent=" in captured.err

    def test_trace_csv_gets_the_normal_file_mode(self, tmp_path, umask_027):
        out = tmp_path / "trace.csv"
        out.write_text("old")
        os.chmod(out, 0o600)
        cfg = _write_config(tmp_path, RUN_INI.format(snap=tmp_path / "final.snap"))
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == umask_027

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "body",
        [
            # the density collapses at step 29, between two records
            "[grid]\nn = 64\n\n[time]\nt_end = 5.0\ndt = 0.02\ncfl = 1e9\ncadence = 5\n\n"
            "[ic]\npreset = single_mode\namplitude = 1.2\n",
            # sigma turns NaN at step 1
            "[grid]\nn = 32\n\n[time]\nt_end = 0.01\ndt = 0.001\ncfl = 1e9\ncadence = 2\n\n"
            "[ic]\namplitude = 800.0\n",
        ],
    )
    def test_vacuum_between_records_exits_3(self, tmp_path, capsys, body):
        snap = tmp_path / "final.snap"
        cfg = _write_config(tmp_path, body + f"\n[output]\nsnapshot = {snap}\n")
        out = tmp_path / "trace.csv"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 3
        assert "vacuum" in capsys.readouterr().err and snap.exists()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        min_rho = [float(row["min_rho"]) for row in rows]
        assert min_rho and all(m >= VACUUM_THRESHOLD for m in min_rho)
        assert read_snapshot(str(snap))[0].t == float(rows[-1]["t"])
