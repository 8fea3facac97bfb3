"""Tests for the command-line interface."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from torustab import THR2, TorusConfig, is_stable
from torustab.cli import CSV_HEADER, main


@pytest.fixture
def runner():
    return CliRunner()


def grid_text(a):
    return TorusConfig(a).to_text()


ALL_ZERO_8 = grid_text(np.zeros((8, 8), np.uint8))


class TestStable:
    def test_all_zero_accepts(self, runner):
        res = runner.invoke(main, ["stable", "--rule", "thr2"], input=ALL_ZERO_8)
        assert res.exit_code == 0 and "stable" in res.output

    def test_unstable_exits_one(self, runner):
        a = np.zeros((8, 8), np.uint8)
        a[3, 3] = 1
        res = runner.invoke(main, ["stable", "--rule", "thr2"], input=grid_text(a))
        assert res.exit_code == 1

    def test_json_verdict(self, runner):
        res = runner.invoke(main, ["stable", "--json"], input=ALL_ZERO_8)
        assert json.loads(res.output)["result"] == "Stable"

    def test_malformed_grid_usage_error(self, runner):
        res = runner.invoke(main, ["stable"], input="4 4\n0000\n0000\n")
        assert res.exit_code == 2

    def test_bad_characters_usage_error(self, runner):
        res = runner.invoke(main, ["stable"], input="1 4\n01x0\n")
        assert res.exit_code == 2


class TestStep:
    def test_single_step(self, runner):
        a = np.zeros((6, 6), np.uint8)
        a[2, 2:4] = 1
        a[3, 2:4] = 1
        res = runner.invoke(main, ["step", "--rule", "thr2"], input=grid_text(a))
        assert res.exit_code == 0
        from torustab.grid import apply_rule

        assert TorusConfig.from_text(res.output) == apply_rule(TorusConfig(a), THR2)

    def test_zero_steps_identity(self, runner):
        res = runner.invoke(main, ["step", "--steps", "0"], input=ALL_ZERO_8)
        assert res.output == ALL_ZERO_8

    def test_negative_steps_rejected(self, runner):
        res = runner.invoke(main, ["step", "--steps", "-1"], input=ALL_ZERO_8)
        assert res.exit_code == 2


class TestStructure:
    def test_thr2_verdict_json(self, runner):
        a = np.zeros((6, 6), np.uint8)
        a[2, 2] = 1
        res = runner.invoke(main, ["structure", "--rule", "thr2", "--json"], input=grid_text(a))
        assert res.exit_code == 1
        payload = json.loads(res.output)
        assert payload["result"] == "Violation" and payload["witness_cells"] == [[2, 2]]

    def test_majority_ok(self, runner):
        a = np.zeros((8, 8), np.uint8)
        a[2:5, :] = 1
        res = runner.invoke(main, ["structure", "--rule", "maj"], input=grid_text(a))
        assert res.exit_code == 0

    def test_unsupported_rule(self, runner):
        res = runner.invoke(main, ["structure", "--rule", "thr4"], input=ALL_ZERO_8)
        assert res.exit_code == 2


class TestTest:
    def test_stable_accepts(self, runner):
        res = runner.invoke(main, ["test", "--eps", "0.2", "--seed", "5", "--json"], input=ALL_ZERO_8)
        assert res.exit_code == 0
        assert json.loads(res.output)["result"] == "Accept"

    def test_reject_carries_witness(self, runner):
        a = np.zeros((8, 8), np.uint8)
        a[3, 3] = 1
        res = runner.invoke(main, ["test", "--eps", "0.2", "--json"], input=grid_text(a))
        assert res.exit_code == 1
        payload = json.loads(res.output)
        assert payload["result"] == "Reject" and "witness" in payload

    def test_bad_eps(self, runner):
        res = runner.invoke(main, ["test", "--eps", "1.7"], input=ALL_ZERO_8)
        assert res.exit_code == 2


class TestStabilize:
    def test_output_is_stable(self, runner, tmp_path):
        rng = np.random.default_rng(71)
        a = (rng.random((12, 12)) < 0.4).astype(np.uint8)
        out_file = tmp_path / "out.grid"
        res = runner.invoke(
            main,
            ["stabilize", "--eps", "0.3", "--out", str(out_file)],
            input=grid_text(a),
        )
        assert res.exit_code == 0
        cfg = TorusConfig.from_text(out_file.read_text())
        assert is_stable(cfg, THR2)

    def test_json_report(self, runner):
        res = runner.invoke(main, ["stabilize", "--eps", "0.3", "--json"], input=ALL_ZERO_8)
        assert res.exit_code == 0
        # The grid goes to stdout, the report to stderr.
        payload = json.loads(res.stderr.strip().split("\n")[-1])
        assert payload["modified"]["total"] == 0

    def test_side_of_two(self, runner):
        res = runner.invoke(main, ["stabilize", "--eps", "0.5"], input="2 2\n10\n00\n")
        assert res.exit_code == 0, res.output
        assert is_stable(TorusConfig.from_text(res.stdout), THR2)


class TestGen:
    def test_stable_instance_roundtrip(self, runner):
        res = runner.invoke(main, ["gen", "--instance", "stable-thr2", "--n", "24", "--seed", "2"])
        assert res.exit_code == 0
        cfg = TorusConfig.from_text(res.output)
        assert is_stable(cfg, THR2)

    def test_hard_instance_bad_n(self, runner):
        res = runner.invoke(main, ["gen", "--instance", "hard-thr2", "--n", "13"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("instance", ["hard-thr2", "hard-maj"])
    def test_hard_instance_other_m_rejected(self, runner, instance):
        res = runner.invoke(main, ["gen", "--instance", instance, "--n", "20", "--m", "4"])
        assert res.exit_code == 2 and "m must equal n" in res.output

    def test_deterministic_given_seed(self, runner):
        args = ["gen", "--instance", "stable-thr2", "--n", "20", "--seed", "9"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2


class TestBench:
    def test_csv_shape(self, runner, tmp_path):
        out = tmp_path / "r.csv"
        res = runner.invoke(
            main,
            [
                "bench",
                "--instance",
                "hard-thr2",
                "--n",
                "32",
                "--eps",
                "0.2",
                "--trials",
                "7",
                "--out",
                str(out),
            ],
        )
        assert res.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 8
        decisions = {line.split(",")[6] for line in lines[1:]}
        assert decisions <= {"accept", "reject"}

    def test_deterministic_csv(self, runner, tmp_path):
        args = lambda p: [
            "bench",
            "--instance",
            "hard-thr2",
            "--n",
            "32",
            "--eps",
            "0.2",
            "--trials",
            "5",
            "--seed",
            "3",
            "--algorithm",
            "naive",
            "--out",
            str(p),
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        runner.invoke(main, args(p1))
        runner.invoke(main, args(p2))
        c1 = [line.rsplit(",", 1)[0] for line in p1.read_text().split("\n")]
        c2 = [line.rsplit(",", 1)[0] for line in p2.read_text().split("\n")]
        assert c1 == c2  # identical apart from wall-clock column

    BASE = ["bench", "--instance", "hard-thr2", "--n", "32", "--eps", "0.2", "--trials", "5"]
    # Rows without wall_ms, the one column that varies from run to run.
    PINNED = {
        "structural": [
            "0,32,32,0.2,3,structural,reject,1024",
            "1,32,32,0.2,4,structural,reject,1024",
            "2,32,32,0.2,5,structural,reject,1024",
            "3,32,32,0.2,6,structural,reject,1024",
            "4,32,32,0.2,7,structural,reject,1024",
        ],
        "naive": [
            "0,32,32,0.2,3,naive,reject,183",
            "1,32,32,0.2,4,naive,reject,64",
            "2,32,32,0.2,5,naive,reject,145",
            "3,32,32,0.2,6,naive,reject,215",
            "4,32,32,0.2,7,naive,reject,248",
        ],
    }

    @pytest.mark.parametrize("algorithm", ["structural", "naive"])
    def test_pinned_csv(self, runner, tmp_path, algorithm):
        out = tmp_path / "r.csv"
        args = ["--seed", "3", "--algorithm", algorithm, "--out", str(out)]
        res = runner.invoke(main, self.BASE + args)
        assert res.exit_code == 0
        lines = [line.rsplit(",", 1)[0] for line in out.read_text().strip().split("\n")]
        assert lines == ["trial,m,n,eps,seed,algorithm,decision,queries"] + self.PINNED[algorithm]
        assert res.stderr == "5 trials, reject rate 1.000\n"

    def test_trial_ids_in_order(self, runner, tmp_path):
        out = tmp_path / "r.csv"
        runner.invoke(main, self.BASE + ["--trials", "12", "--out", str(out)])
        trials = [line.split(",")[0] for line in out.read_text().strip().split("\n")[1:]]
        assert trials == [str(t) for t in range(12)]

    def test_out_dash_writes_stdout(self, runner, tmp_path):
        out = tmp_path / "r.csv"
        runner.invoke(main, self.BASE + ["--out", str(out)])
        res = runner.invoke(main, self.BASE + ["--out", "-"])
        assert res.exit_code == 0
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.split("\n")]
        assert strip(res.stdout) == strip(out.read_text())

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--trials", "0"], "trials must be >= 1"),
            (["--eps", "2.0"], "eps must be in (0, 1]"),
            (["--eps", "0"], "eps must be in (0, 1]"),
        ],
        ids=["trials-0", "eps-2", "eps-0"],
    )
    def test_bad_parameters_rejected(self, runner, tmp_path, args, message):
        out = tmp_path / "r.csv"
        res = runner.invoke(main, self.BASE + args + ["--out", str(out)])
        assert res.exit_code == 2 and message in res.output and not out.exists()


class TestUsageErrors:
    def test_naive_zero_sample_size(self, runner, tmp_path):
        args = ["bench", "--instance", "hard-thr2", "--n", "12", "--algorithm", "naive"]
        res = runner.invoke(main, args + ["--sample-size", "0", "--out", str(tmp_path / "r.csv")])
        assert res.exit_code == 2 and "sample_size" in res.output

    @pytest.mark.parametrize(
        "args",
        [
            ["step"],
            ["stabilize", "--eps", "0.5"],
            ["gen", "--instance", "stable-thr2", "--n", "24"],
            ["bench", "--instance", "hard-thr2", "--n", "12", "--trials", "1"],
        ],
    )
    def test_unwritable_out(self, runner, tmp_path, args):
        out = tmp_path / "missing" / "out"
        res = runner.invoke(main, args + ["--out", str(out)], input=ALL_ZERO_8)
        assert res.exit_code == 2 and "cannot write output" in res.output

    @pytest.mark.parametrize(
        "args",
        [
            ["stabilize", "--eps", "0.5"],
            ["bench", "--instance", "hard-thr2", "--n", "12", "--trials", "1"],
        ],
    )
    def test_out_opened_before_work(self, runner, tmp_path, monkeypatch, args):
        def work(*_args, **_kwargs):
            raise AssertionError("work started before --out was opened")

        monkeypatch.setattr("torustab.cli.stabilize", work)
        monkeypatch.setattr("torustab.cli.run_tester", work)
        out = tmp_path / "missing" / "out"
        res = runner.invoke(main, args + ["--out", str(out)], input=ALL_ZERO_8)
        assert res.exit_code == 2 and "cannot write output" in res.output


GRID_COMMANDS = [
    ["step"],
    ["step", "--rule", "maj", "--steps", "2"],
    ["stable", "--json"],
    ["structure", "--json"],
    ["structure", "--rule", "maj"],
    ["test", "--eps", "0.5", "--json"],
    ["stabilize", "--eps", "0.5", "--json"],
]

MALFORMED_GRIDS = [
    "",
    "3 3\n",
    "3 x\n000\n000\n000\n",
    "0 3\n",
    "-2 3\n000\n000\n",
    "2 2\r\n01\r\n10\r\n",
    "2 2\n01\n10",
    "2 2\n01\n10\n11\n",
]


def test_fuzz_exit_codes(runner, tmp_path):
    """Every command on small and malformed inputs exits 0, 1 or 2, never
    with a traceback."""
    rng = np.random.default_rng(17)
    texts = [
        grid_text(rng.integers(0, 2, (m, n), dtype=np.uint8))
        for m in range(1, 8)
        for n in range(1, 8)
        for _ in range(3)
    ]
    runs = [(cmd, text) for text in texts + MALFORMED_GRIDS for cmd in GRID_COMMANDS]
    for m in range(1, 8):
        for n in range(1, 8):
            for inst in ("stable-thr2", "stable-maj", "hard-thr2", "hard-maj"):
                runs.append((["gen", "--instance", inst, "--n", str(n), "--m", str(m)], ""))
        for inst in ("stable-thr2", "hard-thr2", "hard-maj"):
            for alg in ("structural", "naive"):
                bench = ["bench", "--instance", inst, "--n", str(m), "--eps", "0.5", "--trials", "1"]
                runs.append((bench + ["--algorithm", alg, "--out", str(tmp_path / "r.csv")], ""))
    for args, text in runs:
        res = runner.invoke(main, args, input=text)
        assert res.exit_code in (0, 1, 2), (args, text, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), (args, text)
