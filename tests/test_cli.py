import json
import subprocess
import sys

import pytest

from deltamod.cli import run
from deltamod.families import build_A, sporadic_rank3
from deltamod.intmatrix import IntMatrix
from deltamod.lines import line_length_multiset
from deltamod.modularity import modularity_level


@pytest.fixture()
def sporadic_file(tmp_path):
    path = tmp_path / "sporadic.mat"
    path.write_text(sporadic_rank3().to_text())
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_holds(self, capsys, sporadic_file):
        code, out, _ = run_cli(capsys, "check", "--delta", "3", sporadic_file)
        assert code == 0

    def test_violated_prints_witness(self, capsys, sporadic_file):
        code, out, _ = run_cli(capsys, "check", "--delta", "2", sporadic_file)
        assert code == 1
        data = json.loads(out)
        assert data["holds"] is False
        assert abs(data["witness"]["detValue"]) == 3

    def test_bad_input_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 2\n")
        code, _, err = run_cli(capsys, "check", "--delta", "1", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--delta", "1", "/nonexistent.mat")
        assert code == 2

    def test_stdin_dash(self, sporadic_file, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(sporadic_rank3().to_text()))
        code, _, _ = run_cli(capsys, "check", "--delta", "3", "-")
        assert code == 0


class TestDelta:
    def test_matches_library(self, capsys, sporadic_file):
        code, out, _ = run_cli(capsys, "delta", sporadic_file)
        assert code == 0
        assert out.strip() == str(modularity_level(sporadic_rank3()).delta)

    def test_json_report(self, capsys, sporadic_file):
        code, out, _ = run_cli(capsys, "delta", "--json", sporadic_file)
        data = json.loads(out)
        assert data["delta"] == 3
        assert data["pairwiseNonParallel"] is True


class TestConstruct:
    def test_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--delta", "3",
                               "--partition", "2", "--rank", "4")
        assert code == 0
        m = IntMatrix.from_text(out)
        assert m == build_A(3, (2,), 4).matrix
        assert m.labels is not None

    def test_lee(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--delta", "2",
                               "--rank", "4", "--lee")
        assert code == 0
        assert IntMatrix.from_text(out).cols == 13

    def test_unsorted_partition_rejected(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--delta", "4",
                               "--partition", "1,2", "--rank", "5")
        assert code == 2
        assert "non-increasing" in err

    def test_partition_or_lee_required(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "--delta", "3", "--rank", "4")
        assert code == 2


class TestSmallCommands:
    def test_partitions(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "4")
        assert code == 0
        assert out.splitlines() == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]

    def test_recover(self, capsys):
        code, out, _ = run_cli(capsys, "recover", "--delta", "3", "--rank", "4",
                               "--nu", "3:3,4:3")
        assert code == 0
        assert out.strip() == "1,1"

    def test_recover_invalid_profile(self, capsys):
        code, _, _ = run_cli(capsys, "recover", "--delta", "3", "--rank", "4",
                             "--nu", "3:1")
        assert code == 2

    def test_nu_formula_vs_matrix(self, capsys, tmp_path):
        fam = build_A(3, (1, 1), 4)
        path = tmp_path / "fam.mat"
        path.write_text(fam.matrix.to_text())
        code, out1, _ = run_cli(capsys, "nu", "--delta", "3",
                                "--partition", "1,1", "--rank", "4")
        code2, out2, _ = run_cli(capsys, "nu", "--from-matrix", str(path),
                                 "--element", "0")
        assert code == code2 == 0
        assert out1 == out2
        assert out1.strip() == str(line_length_multiset(fam.matrix, 0))

    @pytest.mark.parametrize("element", ["99", "-1"])
    def test_nu_element_out_of_range_exits_2(self, capsys, tmp_path, element):
        path = tmp_path / "fam.mat"
        path.write_text(build_A(3, (1, 1), 4).matrix.to_text())
        code, _, err = run_cli(capsys, "nu", "--from-matrix", str(path),
                               "--element", element)
        assert code == 2
        assert "out of range" in err

    def test_extensions_json(self, capsys):
        code, out, _ = run_cli(capsys, "extensions", "--arity", "2", "--json")
        assert code == 0
        pairs = json.loads(out)
        assert len(pairs) == 8

    def test_distinguish(self, capsys):
        code, out, _ = run_cli(capsys, "distinguish", "--delta", "3",
                               "--rank", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["allDistinct"] is True
        assert len(data["pairs"]) == 3


class TestSearchCommand:
    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--delta", "1", "--rank", "3",
                               "--mode", "hnf")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"bestCount", "optimal", "matrix", "nodes", "ceiling"}
        assert data["bestCount"] == 6 and data["optimal"] is True

    def test_stats_go_to_stderr(self, capsys):
        args = ("search", "--delta", "2", "--rank", "2", "--mode", "hnf")
        code, plain, err = run_cli(capsys, *args)
        assert code == 0 and err == ""
        code, out, err = run_cli(capsys, *args, "--stats")
        assert code == 0 and out == plain
        stats = json.loads(err)
        assert stats["nodes"] == json.loads(out)["nodes"] and stats["stop"] == "exhausted"
        assert set(stats["checkers"]) == {"identity-anchored", "general"}
        calls = sum(c["tryAdd"] for c in stats["checkers"].values())
        assert stats["orbitSkips"] > 0
        assert (stats["pairFilterSkips"] + stats["orbitSkips"] + stats["colourSkips"]
                + stats["conflictSkips"] + calls == stats["nodes"])

    def test_stats_name_the_node_limit(self, capsys):
        code, out, err = run_cli(capsys, "search", "--delta", "2", "--rank", "4",
                                 "--mode", "identity", "--node-limit", "3000", "--stats")
        assert code == 0 and json.loads(out)["optimal"] is False
        stats = json.loads(err)
        assert stats["stop"] == "node-limit" and stats["nodes"] == 3001
        ident = stats["checkers"]["identity-anchored"]
        assert ident["minorFills"] > 0 and ident["minorHits"] > 0
        # the node whose charge exceeded the limit neither skipped nor called try_add
        assert stats["colourSkips"] > 0
        assert (stats["pairFilterSkips"] + stats["orbitSkips"] + stats["colourSkips"]
                + stats["conflictSkips"] + ident["tryAdd"] + 1 == stats["nodes"])

    def test_greedy_with_seed_file(self, capsys, sporadic_file):
        code, out, _ = run_cli(capsys, "search", "--delta", "3", "--rank", "3",
                               "--mode", "greedy", "--seed", sporadic_file)
        assert code == 0
        assert json.loads(out)["bestCount"] >= 11


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["bogus"]) == 2

    def test_missing_subcommand(self, capsys):
        assert run([]) == 2

    def test_bad_threads(self, capsys):
        assert run(["--threads", "0", "partitions", "3"]) == 2

    def test_bad_threads_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTAMOD_THREADS", "abc")
        code, out, err = run_cli(capsys, "partitions", "3")
        assert code == 2 and out == ""
        assert err == "error: DELTAMOD_THREADS must be an integer, not 'abc'\n"

    def test_nan_time_limit(self, capsys):
        code, out, err = run_cli(capsys, "search", "--delta", "1", "--rank", "2",
                                 "--time-limit", "nan")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_seed_outside_greedy_mode(self, capsys, sporadic_file):
        code, out, err = run_cli(capsys, "search", "--delta", "2", "--rank", "2",
                                 "--mode", "identity", "--seed", sporadic_file)
        assert code == 2 and out == ""
        assert "greedy-seeded" in err

    def test_greedy_without_a_seed(self, capsys):
        code, out, err = run_cli(capsys, "search", "--delta", "3", "--rank", "3",
                                 "--mode", "greedy")
        assert code == 2 and out == ""
        assert err == "error: greedy-seeded mode requires a seed matrix\n"

    def test_greedy_seed_of_other_rank(self, capsys, sporadic_file):
        code, out, err = run_cli(capsys, "search", "--delta", "3", "--rank", "4",
                                 "--mode", "greedy", "--seed", sporadic_file)
        assert code == 2 and out == ""
        assert err == "error: the seed matrix must have rank rows\n"

    def test_search_grid_too_large(self, capsys):
        code, out, err = run_cli(capsys, "search", "--delta", "2", "--rank", "13")
        assert code == 2 and out == ""
        assert err.startswith("error: the candidate grid")

    def test_search_grid_and_image_too_large(self, capsys):
        code, out, err = run_cli(capsys, "search", "--delta", "2", "--rank", "10")
        assert code == 2 and out == ""
        assert err.startswith("error: the candidate grid [-2, 2]^10 needs 1.5 GiB")

    def test_nu_requires_arguments(self, capsys):
        assert run(["nu", "--partition", "2"]) == 2


class TestVerifySuiteCommand:
    def test_fast_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-suite", "--scope", "fast")
        assert code == 0
        assert "all passed" in out

    def test_json_is_stable_and_thread_independent(self, capsys):
        outputs = []
        for argv in (["verify-suite", "--json"],
                     ["--threads", "1", "verify-suite", "--json"],
                     ["--threads", "4", "verify-suite", "--json"]):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        report = json.loads(outputs[0])
        assert report["allPassed"] is True
        assert all("elapsed" not in c for c in report["checks"])


def test_console_entry_point(tmp_path):
    path = tmp_path / "sp.mat"
    path.write_text(sporadic_rank3().to_text())
    proc = subprocess.run([sys.executable, "-m", "deltamod.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2  # usage error without a subcommand
    proc = subprocess.run([sys.executable, "-m", "deltamod.cli", "delta", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"
