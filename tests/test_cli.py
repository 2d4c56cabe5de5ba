import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from alphatree import cli
from alphatree.cli import EXIT_DIVERGENCE, EXIT_ENGINE, EXIT_FUZZ_ERRORS, EXIT_INPUT, main
from alphatree.ternary import general_solve
from tests.conftest import shallow_recursion

SRC = str(Path(__file__).resolve().parents[1] / "src")
# the crossing-circle crash: the pure-ternary engine raises EngineError on
# the 13-leaf input, the general solver on the 15-leaf one
CRASH_13 = "31 0 1 30 0 1 31 0 43 0 1 42 20"
CRASH_15 = "31 1 47 30 45 15 75 1 92 60 94 74 42 89 66"
# the greedy misses the mixed-arity optimum by one: engine 61, DP 60
GAP_11 = (1, 1, 1, 3, 1, 4, 1, 7, 1, 5, 4)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv, stdin=None):
    """Run a fresh interpreter that imports alphatree from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_import_loads_no_numpy():
    code, out, err = run_python(
        "-c", 'import sys, alphatree; print("numpy" in sys.modules, alphatree.__file__)'
    )
    assert code == 0, err
    loaded, path = out.split()
    assert path.startswith(SRC)
    assert loaded == "False"


def test_benchmark_traced_layers_resolve():
    """Every layer the benchmark's tracer wraps is still defined where
    perfbench/tracing.py looks for it, so deleting or moving a traced symbol
    fails here and not only in a traced benchmark run."""
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, qualname in tracing.LAYERS:
        owner = importlib.import_module(module)
        *parents, attr = qualname.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"{module}.{qualname}"


class TestSolve:
    def test_pure_ternary_levels(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--algo", "ternary", "--arity", "pure-ternary",
            "6 6 1 10 1 6 6", "--emit", "levels",
        )
        assert code == 0
        assert "2 2 2 1 2 2 2" in out
        assert "cost 62" in out

    def test_dp_json(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--algo", "dp", "--arity", "ternary",
            "1 1 100 1 1", "--emit", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["cost"] == 108
        assert obj["tree"] == [[1, 1], 100, [1, 1]]

    def test_hu_tucker_trace(self, capsys):
        code, out, _ = run(capsys, "solve", "--algo", "hu-tucker", "4 2 3 4", "--emit", "trace")
        assert code == 0
        steps = json.loads(out)
        assert [s["weight"] for s in steps] == [5, 8, 13]

    def test_commas_and_files(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("6, 6, 1\n10, 1, 6, 6\n")
        code, out, _ = run(capsys, "solve", "--input", str(path), "--emit", "levels")
        assert code == 0
        assert "cost 62" in out

    def test_pretty_shows_accordion_signs(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--algo", "ternary", "--arity", "pure-ternary",
            "6 6 1 10 1 6 6", "--emit", "pretty",
        )
        assert code == 0
        assert "- 10" in out and "[+ " in out

    def test_stdin_is_read_once(self):
        # --input /dev/stdin: a second read of the pipe would find it empty
        code, out, err = run_python(
            "-m", "alphatree", "solve", "--input", "/dev/stdin", "--emit", "levels",
            stdin="4 2 3 4\n",
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["1 2 2 1", "cost 18"]

    def test_malformed_inputs(self, capsys):
        assert run(capsys, "solve", "abc")[0] == 1
        # plain decimal only: int() alone would read these as 20 and 2
        assert run(capsys, "solve", "1 2_0 3")[0] == 1
        assert run(capsys, "solve", "1 +2 3")[0] == 1
        assert run(capsys, "solve", "1 -2 3")[0] == 1
        assert run(capsys, "solve", "  ")[0] == 1
        assert run(capsys, "solve", "1 2", "--algo", "hu-tucker", "--arity", "ternary")[0] == 1

    def test_ternary_refuses_binary_arity(self, capsys):
        code, out, err = run(capsys, "solve", "--algo", "ternary", "--arity", "binary", "1 2 3")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: --algo ternary supports --arity ternary or pure-ternary\n"

    def test_engine_error_has_its_own_exit_code(self, capsys):
        code, out, err = run(
            capsys, "solve", "--algo", "ternary", "--arity", "pure-ternary", CRASH_13
        )
        assert (code, out) == (EXIT_ENGINE, "")
        levels = "[2, 1, 1, 1, 2, 2, 1, 1, 0, 1, 1, 1, 0]"
        assert err == (
            f"engine error: cannot realise forest for unit levels {levels}: cannot reduce "
            f"levels {levels} in pure-ternary mode; stuck with 5 node(s) above level 0\n"
        )
        assert EXIT_ENGINE not in (EXIT_INPUT, EXIT_FUZZ_ERRORS)

    def test_infeasible_mode(self, capsys):
        code, _, err = run(
            capsys, "solve", "--algo", "ternary", "--arity", "pure-ternary", "1 2"
        )
        assert code == 3
        code, _, err = run(capsys, "solve", "--algo", "dp", "--arity", "pure-ternary", "1 2")
        assert code == 3

    def test_json_round_trips(self, capsys):
        from alphatree.core import AlphaTree, CombinationTrace

        code, out, _ = run(
            capsys, "solve", "--algo", "ternary", "5 5 6 6 1 10 1 11 1 10 1 6 6 5 5",
            "--emit", "json",
        )
        obj = json.loads(out)
        assert out == json.dumps(obj) + "\n"  # json.dumps's layout, byte for byte
        tree = AlphaTree.from_nested(obj["tree"])
        assert tree.to_nested() == obj["tree"]
        trace = CombinationTrace.from_json_obj(obj["trace"])
        assert trace.to_json_obj() == obj["trace"]
        assert obj["levels"] == [2, 2, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3, 2, 2]

    @pytest.mark.parametrize("emit", ("json", "pretty"))
    def test_deep_tree_needs_no_deep_recursion(self, capsys, emit):
        # Hu-Tucker pairs tied zeros leftmost first, so its tree over 1 200
        # zeros is a caterpillar 1 199 levels deep; each of its levels would
        # cost one level of the recursion limit in json.dumps
        zeros = " ".join(["0"] * 1200)
        with shallow_recursion():
            code, out, _ = run(capsys, "solve", "--algo", "hu-tucker", "--emit", emit, zeros)
        assert code == 0
        if emit == "json":
            tree = out[out.index('"tree": ') + 8 : out.index(', "trace": ')]
        else:
            tree = out.split("tree: ")[1].splitlines()[0]
        nesting = list(itertools.accumulate({"[": 1, "]": -1}.get(char, 0) for char in tree))
        assert max(nesting) == 1199 and nesting[-1] == 0


DOT_NODE = re.compile(r'^\s*n\d+ \[shape=(box|circle), label="\d+"\];$')
DOT_EDGE = re.compile(r"^\s*n(\d+) -> n(\d+);$")


class TestDot:
    def test_dot_is_well_formed_and_ordered(self, capsys):
        code, out, _ = run(capsys, "solve", "4 2 3 4", "--algo", "hu-tucker", "--emit", "dot")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "digraph alphatree {"
        assert lines[-1] == "}"
        assert "ordering=out" in out
        node_lines = [l for l in lines if "[shape=" in l]
        edge_lines = [l for l in lines if "->" in l]
        assert all(DOT_NODE.match(l) for l in node_lines)
        assert all(DOT_EDGE.match(l) for l in edge_lines)
        # leaves n0..n3 appear in sequence order
        leaf_ids = [l.split()[0] for l in node_lines if "shape=box" in l]
        assert leaf_ids == ["n0", "n1", "n2", "n3"]


class TestVerify:
    def test_fifteen_node_agrees(self, capsys):
        code, out, _ = run(capsys, "verify", "5 5 6 6 1 10 1 11 1 10 1 6 6 5 5")
        assert code == 0
        assert "197" in out

    def test_double_heavy_agrees(self, capsys):
        code, out, _ = run(capsys, "verify", "1 1 100 100 1 1", "--against", "dp")
        assert code == 0
        assert "308" in out

    def test_single_weight(self, capsys):
        code, out, _ = run(capsys, "verify", "9")
        assert code == 0
        assert "cost 0" in out

    def test_exhaustive_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", "1 1 100 1 1", "--against", "exhaustive")
        assert code == 0

    def test_exhaustive_refuses_large(self, capsys):
        code, _, err = run(
            capsys, "verify", "1 2 3 4 5 6 7 8 9 10 11 12", "--against", "exhaustive"
        )
        assert code == 1

    def test_exhaustive_refuses_before_the_engine_runs(self, capsys, monkeypatch):
        def engine_must_not_run(ws):
            raise AssertionError("general_solve ran before the size check")

        monkeypatch.setattr("alphatree.cli.general_solve", engine_must_not_run)
        ws = " ".join(str(w) for w in random.Random(40).choices(range(101), k=40))
        code, _, err = run(capsys, "verify", ws, "--against", "exhaustive")
        assert code == EXIT_INPUT
        assert "enumeration limit" in err

    def test_malformed(self, capsys):
        assert run(capsys, "verify", "x y")[0] == 1

    def test_divergence(self, capsys):
        code, out, _ = run(capsys, "verify", " ".join(map(str, GAP_11)))
        assert code == EXIT_DIVERGENCE == 2
        assert out == (
            '{"weights": [1, 1, 1, 3, 1, 4, 1, 7, 1, 5, 4], '
            '"engine_cost": 61, "oracle_cost": 60, "gap": 1}\n'
        )

    def test_engine_error(self, capsys):
        code, out, err = run(capsys, "verify", CRASH_15)
        assert (code, out) == (EXIT_ENGINE, "")
        assert err.startswith("engine error: cannot realise forest")


class TestFuzzCommand:
    def test_fuzz_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.jsonl"
        code, out, _ = run(
            capsys, "fuzz", "--n", "5..9", "--count", "20", "--seed", "7",
            "--out", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["instances"] == 20
        assert out_path.exists()
        assert len(out_path.read_text().splitlines()) == len(summary["divergences"])

    def test_fuzz_writes_a_divergence(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "PAPER_FAMILY", (GAP_11,) + cli.PAPER_FAMILY)
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run(capsys, "fuzz", "--paper-family", "--out", str(out_path))
        assert code == 0
        (line,) = out_path.read_text().splitlines()
        record = json.loads(line)
        assert (record["weights"], record["engine_cost"], record["oracle_cost"], record["gap"]) == (
            list(GAP_11), 61, 60, 1,
        )
        trace = json.dumps(general_solve(GAP_11).trace.to_json_obj(), sort_keys=True)
        assert record["trace_digest"] == hashlib.sha256(trace.encode()).hexdigest()

    def test_fuzz_draws_only_the_listed_sizes(self, capsys, monkeypatch):
        drawn = []
        fuzz_compare = cli.fuzz_compare

        def record(instances):
            drawn.extend(instances)
            return fuzz_compare(instances[:1])

        monkeypatch.setattr(cli, "fuzz_compare", record)
        code, _, _ = run(capsys, "fuzz", "--n", "3,5,7", "--count", "200", "--seed", "1")
        assert code == 0
        assert len(drawn) == 200
        assert {len(ws) for ws in drawn} == {3, 5, 7}

    def test_fuzz_deterministic(self, capsys):
        a = run(capsys, "fuzz", "--n", "3..7", "--count", "15", "--seed", "3")
        b = run(capsys, "fuzz", "--n", "3..7", "--count", "15", "--seed", "3")
        assert a == b

    def test_paper_family_rate_one(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--paper-family")
        assert code == 0
        assert json.loads(out)["equality_rate"] == 1.0

    def test_paper_family_refuses_instance_options(self, capsys):
        # the built-in sequences would run and the options be ignored
        for extra in (["--n", "50..60", "--count", "3", "--seed", "9"], ["--odd"], ["--wlo", "0"]):
            code, out, err = run(capsys, "fuzz", "--paper-family", *extra)
            assert (code, out) == (EXIT_INPUT, "")
            assert err.startswith("error: --paper-family")

    def test_bad_flags(self, capsys):
        assert run(capsys, "fuzz", "--n", "")[0] == 1

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["fuzz", "--n", "3,x"], "x"),
            (["bench", "--n", "a"], "a"),
            (["fuzz", "--n", "3..y"], "3..y"),
            (["fuzz", "--n", " , "], " , "),
        ],
    )
    def test_bad_size_names_the_option_and_token(self, capsys, argv, token):
        message = f"error: --n takes sizes such as 5,9 or 3..7, got {token!r}\n"
        assert run(capsys, *argv) == (EXIT_INPUT, "", message)

    @pytest.mark.parametrize(
        "argv, part",
        [
            (["fuzz", "--n", "5..3"], "5..3"),
            # the forward part alone would run five size-3 instances
            (["fuzz", "--n", "3,9..5", "--count", "5"], "9..5"),
            (["bench", "--n", "7..5"], "7..5"),
        ],
    )
    def test_reversed_range_names_the_option_and_part(self, capsys, argv, part):
        lo, hi = part.split("..")
        message = f"error: --n range {part!r} runs backwards; write {hi}..{lo}\n"
        assert run(capsys, *argv) == (EXIT_INPUT, "", message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "3", "--count", "-1"], "count must be at least 0, got -1"),
            (["--n", "0"], "sizes must be at least 1, got 0"),
            (["--n=-3"], "sizes must be at least 1, got -3"),
            (["--n", "3", "--wlo", "-1"], "weight_lo must be at least 0, got -1"),
            (["--n", "3", "--wlo", "5", "--whi", "2"], "weight_lo 5 exceeds weight_hi 2"),
            (
                ["--n", "5", "--count", "2", "--dist", "monotone", "--wlo", "10", "--whi", "12"],
                "monotone instances of size 5 need 5 distinct weights, "
                "but weight_lo 10 to weight_hi 12 holds 3",
            ),
            (["--n", "2", "--odd"], "sizes [2] with odd_only=True leave no size to draw"),
        ],
    )
    def test_out_of_range_instance_options(self, capsys, argv, message):
        assert run(capsys, "fuzz", *argv) == (EXIT_INPUT, "", f"error: {message}\n")

    def test_errors_exit_after_the_summary(self, capsys, monkeypatch):
        # an EngineError on one instance neither ends the run nor hides the
        # summary; the exit code tells that some instance raised
        crash = (31, 1, 47, 30, 45, 15, 75, 1, 92, 60, 94, 74, 42, 89, 66)
        monkeypatch.setattr(cli, "PAPER_FAMILY", (crash,) + cli.PAPER_FAMILY)
        code, out, _ = run(capsys, "fuzz", "--paper-family")
        assert code == EXIT_FUZZ_ERRORS == 4
        summary = json.loads(out)
        assert summary["instances"] == summary["equal"] + 1
        assert [(e["weights"], e["type"]) for e in summary["errors"]] == [(list(crash), "EngineError")]


class TestBenchCommand:
    def test_bench_csv_rows(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--n", "5,9,13", "--seed", "1", "--repeats", "1",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per size
        assert "slope" in out

    def test_bench_stdout(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "5,9", "--repeats", "1")
        assert code == 0
        assert out.startswith("n,median_ns")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "3", "--repeats", "0"], "repeats must be at least 1, got 0"),
            (["--n", "3", "--repeats", "-4"], "repeats must be at least 1, got -4"),
            (["--n", "0", "--engine", "binary"], "sizes must be at least 1, got 0"),
            (["--n", "801,802"], "the ternary combination benchmark needs odd sizes, got [802]"),
        ],
    )
    def test_out_of_range_options(self, capsys, argv, message):
        assert run(capsys, "bench", *argv) == (EXIT_INPUT, "", f"error: {message}\n")
