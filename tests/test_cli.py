import hashlib
import json

import pytest

from dagcover import cli, covering, graphio
from dagcover.digraph import Digraph, make_directed_path, make_transitive_tournament
from dagcover.experiments import sample_digraph


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph_file(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(graphio.format_edge_list(g))
    return str(path)


def complete(n):
    from oracles import complete_digraph

    return complete_digraph(n)


def test_catalog_round_trip(capsys):
    for args in (["figure1"], ["Th", "5"], ["star", "4", "sink"], ["path", "3"]):
        code, out, _ = run_cli(capsys, "catalog", *args)
        assert code == 0
        g = graphio.parse_edge_list(out)
        assert graphio.format_edge_list(g) == out


def test_params_from_stdin(capsys, monkeypatch):
    import io

    code, out, _ = run_cli(capsys, "catalog", "Th", "3")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run_cli(capsys, "params", "-")
    assert code == 0
    assert out.splitlines()[0].startswith("a = 3/2")


def test_params_text_and_json(capsys, tmp_path):
    path = graph_file(tmp_path, "t3.txt", make_transitive_tournament(3))
    code, out, _ = run_cli(capsys, "params", path)
    assert code == 0
    assert out.splitlines()[0].startswith("a = 3/2")

    code, out, _ = run_cli(capsys, "params", path, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["arboricity"]["value"] == "3/2"
    assert obj["arboricity"]["totally_balanced"] is True
    assert obj["density"]["value"] == "1/1"


def test_skewness_cli(capsys, tmp_path):
    path = graph_file(tmp_path, "t4.txt", make_transitive_tournament(4))
    code, out, _ = run_cli(capsys, "skewness", path, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["skewness"] == 4
    assert sorted(v for block in obj["coloring"] for v in block) == [0, 1, 2, 3]

    code, out, _ = run_cli(capsys, "skewness", path, "--random", "--trials", "50", "--seed", "3")
    assert code == 0
    # --random without seed is invalid input
    code, _, err = run_cli(capsys, "skewness", path, "--random", "--trials", "5")
    assert code == 2 and "seed" in err


def test_tau_cli(capsys, tmp_path):
    host = graph_file(tmp_path, "d3.txt", complete(3))
    pattern = graph_file(tmp_path, "t3.txt", make_transitive_tournament(3))

    code, out, _ = run_cli(capsys, "tau", host, pattern, "--exact", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["tau"] == 6 and obj["exact"] is True
    assert len(obj["perms"]) == 6 and len(obj["assignment"]) == 6

    code, out, _ = run_cli(capsys, "tau", host, pattern, "--greedy", "--seed", "1")
    assert code == 0 and out.startswith("tau <=")

    code, _, err = run_cli(capsys, "tau", host, pattern, "--greedy")
    assert code == 2

    code, out, _ = run_cli(capsys, "tau", host, pattern, "--bounds", "--seed", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] <= 6 <= obj["upper"]


def test_tau_budget_bounds_exit(capsys, tmp_path):
    host = graph_file(tmp_path, "d4.txt", complete(4))
    pattern = graph_file(tmp_path, "p3.txt", __import__("dagcover").make_directed_path(2))
    code, out, _ = run_cli(capsys, "tau", host, pattern, "--exact", "--budget", "1", "--format", "json")
    obj = json.loads(out)
    if code == 4:
        assert obj["exact"] is False and obj["lower"] <= obj["upper"]
    else:
        assert code == 0


def test_gh_cli(capsys, tmp_path):
    host = graph_file(tmp_path, "host.txt", make_transitive_tournament(4))
    pattern = graph_file(tmp_path, "pat.txt", make_transitive_tournament(3))
    code, out, _ = run_cli(capsys, "gh", host, pattern)
    assert code == 0
    g = graphio.parse_edge_list(out)  # comment lines are ignored by the parser
    assert g.edge_count == 6
    assert "# dag: yes" in out

    code, out, _ = run_cli(capsys, "gh", host, pattern, "--format", "json")
    obj = json.loads(out)
    assert obj["dag"] is True and len(obj["certificate"]) == 4


def test_consistent_cli(capsys, tmp_path):
    perms = tmp_path / "perms.txt"
    perms.write_text("0 1 2 3 4 5 6 7\n")
    code, out, _ = run_cli(capsys, "consistent", str(perms), "--t", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"sets": [[0, 1, 2, 3], [4, 5, 6, 7]]}

    # n < r**x is a size error
    small = tmp_path / "small.txt"
    small.write_text("0 1 2\n2 1 0\n")
    code, _, err = run_cli(capsys, "consistent", str(small), "--t", "1")
    assert code == 3

    # r**x = 2**15000 is never built, nor printed
    four = tmp_path / "four.txt"
    four.write_text("0 1 2 3\n3 2 1 0\n1 0 3 2\n")
    code, out, err = run_cli(capsys, "consistent", str(four), "--t", "5000")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "2**15000" in err


def test_pipeline_cli(capsys, tmp_path):
    host = graph_file(tmp_path, "host.txt", complete(16))
    pattern = graph_file(tmp_path, "pat.txt", make_transitive_tournament(3))
    perms = tmp_path / "perms.txt"
    perms.write_text(" ".join(str(v) for v in range(16)) + "\n")
    code, out, _ = run_cli(capsys, "pipeline", host, pattern, str(perms), "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert all(c <= 2 for c in obj["profile"])


def test_sweep_cli(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "pattern": "Th 3",
                "a_star": "5/4",
                "n_values": [20, 40],
                "samples": 5,
                "seed": 12,
                "mode": "dagness",
            }
        )
    )
    code, out, _ = run_cli(capsys, "sweep", str(config))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,p,samples,")
    assert len(lines) == 3

    code2, out2, _ = run_cli(capsys, "sweep", str(config), "--jobs", "2")
    assert code2 == code and out2 == out



def test_sweep_tau_stats_pinned(capsys, tmp_path):
    # runs enumeration, the clique bound and the greedy cover on hosts
    # whose groups keep reachability snapshots; recorded before they did
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"pattern": "Th 3", "a_star": 2, "n_values": [100, 300],
                                  "samples": 2, "seed": 606, "mode": "tau_stats"}))
    code, out, _ = run_cli(capsys, "sweep", str(config))
    assert code == 0
    assert out == (
        "n,p,samples,frac_gh_dag,mean_copies,tau_greedy_mean,tau_lower_mean,pipeline_success,censored\n"
        "100,0.1,2,,971.0,5.5,2.0,,0\n"
        "300,0.057735026918962574,2,,5148.5,7.0,2.0,,0\n"
    )


def test_sweeps_and_cover_commands_build_no_copy(capsys, tmp_path, monkeypatch):
    # they read the copy set's key rows; only .copies builds Copy objects
    host = graph_file(tmp_path, "host.txt", sample_digraph(80, 0.2, 606, 0))
    small = graph_file(tmp_path, "small.txt", sample_digraph(8, 0.45, 24))  # 25 T3 copies
    over = graph_file(tmp_path, "d10.txt", complete(10))  # 720 T3 copies, above MAX_EXACT_COPIES
    pattern = graph_file(tmp_path, "t3.txt", make_transitive_tournament(3))
    commands = [["tau", host, pattern, "--greedy", "--seed", "1", "--format", "json"],
                ["tau", host, pattern, "--bounds", "--seed", "1", "--format", "json"],
                ["gh", host, pattern, "--format", "json"],
                ["tau", small, pattern, "--exact"],
                ["tau", small, pattern, "--exact", "--format", "json"]]
    for mode in ("tau_stats", "dagness", "copy_count"):
        config = tmp_path / f"{mode}.json"
        config.write_text(json.dumps({"pattern": "Th 3", "a_star": 2, "n_values": [60, 120],
                                      "samples": 2, "seed": 606, "mode": mode}))
        commands.append(["sweep", str(config), "--jobs", "1"])
    plain = [run_cli(capsys, *argv) for argv in commands]
    assert all(code == 0 for code, _, _ in plain)
    assert json.loads(plain[1][1])["upper"] >= 2
    assert json.loads(plain[4][1])["exact"] is True
    commands.append(["tau", over, pattern, "--exact"])
    plain.append(run_cli(capsys, *commands[-1]))
    code, out, err = plain[-1]
    assert code == 3 and out == "" and err.count("\n") == 1 and "limited to 512 copies" in err

    def refuse(*args, **kwargs):
        raise AssertionError("a Copy was built")

    monkeypatch.setattr(covering, "Copy", refuse)
    for argv, want in zip(commands, plain):
        assert run_cli(capsys, *argv) == want, argv


def test_census_cli(capsys):
    code, out, _ = run_cli(capsys, "census", "--h", "3", "--samples", "50", "--seed", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["samples"] == 50
    assert 0.0 <= obj["fraction"] <= 1.0


def test_census_json_pinned(capsys):
    # recorded before the min cuts moved from the token network to the vertex network
    code, out, _ = run_cli(capsys, "census", "--h", "24", "--samples", "20", "--seed", "1", "--format", "json")
    assert code == 0
    assert out == (
        '{"h": 24, "samples": 20, "fraction": 0.85, "histogram": {"59/11": 1, "125/23": 1, '
        '"126/23": 1, "128/23": 1, "118/21": 1, "130/23": 3, "134/23": 1, "135/23": 1, '
        '"6/1": 3, "142/23": 1, "143/23": 1, "145/23": 2, "154/23": 1, "149/22": 1, '
        '"162/23": 1}, "isolated": 0, "edgeless": 0}\n'
    )


def test_params_host_pinned(capsys, tmp_path):
    # the n = 80 host of the params benchmark; recorded before the vertex network
    from dagcover import sample_digraph

    path = graph_file(tmp_path, "d80.txt", sample_digraph(80, 0.1, 1))
    code, out, _ = run_cli(capsys, "params", path, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    all_but_19 = [v for v in range(80) if v != 19]
    assert obj["arboricity"] == {"value": "319/39", "witness": all_but_19, "totally_balanced": False}
    assert obj["density"] == {"value": "638/79", "witness": all_but_19, "totally_balanced": False}
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "802fc03426f68b6f"


def test_invalid_inputs_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    code, _, err = run_cli(capsys, "params", str(bad))
    assert code == 2 and err

    code, _, err = run_cli(capsys, "params", str(tmp_path / "missing.txt"))
    assert code == 2

    with pytest.raises(SystemExit) as exc:
        cli.run(["params", "x", "--bogus-flag"])
    assert exc.value.code == 2


def test_size_limit_exit_3(capsys, tmp_path):
    big = graph_file(tmp_path, "big.txt", __import__("dagcover").make_directed_path(11))
    code, _, err = run_cli(capsys, "skewness", big)
    assert code == 3 and err


def assert_one_line_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_huge_host_exit_3(capsys, tmp_path, monkeypatch):
    # a host declaring 10^11 vertices is refused before any per-vertex array
    # is built; the stand-in fails the test instead of allocating one
    from dagcover import digraph

    def no_arrays(cls, n, edges):
        raise AssertionError(f"built per-vertex arrays for n = {n}")

    monkeypatch.setattr(digraph.EdgeIndex, "build", classmethod(no_arrays))
    host = tmp_path / "huge.json"
    host.write_text('{"n": 100000000000, "edges": [[0, 1]]}')
    pattern = graph_file(tmp_path, "t3.txt", make_transitive_tournament(3))
    for argv in (["gh"], ["tau", "--greedy", "--seed", "1"], ["tau", "--bounds", "--seed", "1"], ["tau", "--exact"]):
        code, out, err = run_cli(capsys, argv[0], str(host), pattern, *argv[1:])
        assert code == 3 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    code, out, _ = run_cli(capsys, "params", str(host))  # reads only the non-isolated vertices
    assert code == 0 and out.startswith("a = 1/1 (witness: 0 1)")


def test_huge_host_pipeline_without_permutations_exit_3(capsys, tmp_path, monkeypatch):
    # the pipeline's copy search refuses the host as enumeration does
    from dagcover import digraph

    def no_arrays(cls, n, edges):
        raise AssertionError(f"built per-vertex arrays for n = {n}")

    monkeypatch.setattr(digraph.EdgeIndex, "build", classmethod(no_arrays))
    host = tmp_path / "huge.json"
    host.write_text('{"n": 100000000000, "edges": [[0, 1]]}')
    pattern = graph_file(tmp_path, "p2.txt", make_directed_path(2))
    perms = tmp_path / "none.txt"
    perms.write_text("")
    code, out, err = run_cli(capsys, "pipeline", str(host), pattern, str(perms))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class _Drew(Exception):
    """Raised by a stand-in for the first random draw past a size check."""


def _drew(*args, **kwargs):
    raise _Drew


def test_huge_random_skewness_exit_3(capsys, tmp_path, monkeypatch):
    # a pattern above the limit is refused before any color is drawn; the
    # stand-in fails the test instead of drawing 10^11 colors
    from dagcover import skewness

    monkeypatch.setattr(skewness, "substream", _drew)
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 100000000000, "edges": [[0, 1]]}')
    code, out, err = run_cli(capsys, "skewness", str(huge), "--random", "--trials", "2", "--seed", "1")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(_Drew):  # the limit itself is allowed
        skewness.skewness_upper_random(Digraph(skewness.MAX_RANDOM_VERTICES, [(0, 1)]), 2, 1)


def test_huge_census_exit_3(capsys, monkeypatch):
    # h above the limit is refused before any draw; the stand-in fails the
    # test instead of building the h = 200000 pair grid
    from dagcover import experiments

    monkeypatch.setattr(experiments, "sample_undirected", _drew)
    code, out, err = run_cli(capsys, "census", "--h", "200000", "--samples", "1", "--seed", "1")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(_Drew):  # the limit itself is allowed
        experiments.balanced_census(experiments.MAX_CENSUS_H, 1, 1)


@pytest.mark.parametrize(
    "config",
    [{"n_values": [20, 20000001], "samples": 2},
     {"pattern": "Th 2000"},
     {"pattern": {"n": 11, "edges": [[v, v + 1] for v in range(10)]}, "n_values": [4000]}],
    ids=["host", "catalog_pattern", "json_pattern"],
)
def test_huge_sweep_exit_3(capsys, tmp_path, monkeypatch, config):
    # an n above the host limit, or a pattern above the pattern limit, is
    # refused before any host is drawn or any worker started, and a
    # catalog pattern before it is built; the stand-in fails the test
    # instead of drawing
    from dagcover import experiments

    monkeypatch.setattr(experiments, "sample_digraph", _drew)
    path = write_sweep(tmp_path, **config)
    code, out, err = run_cli(capsys, "sweep", path, "--jobs", "2")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(_Drew):  # the limits themselves are allowed
        cli.run(["sweep", write_sweep(tmp_path, pattern="path 9", n_values=[covering.MAX_HOST_VERTICES])])


@pytest.mark.parametrize(
    "args, limit",
    [(["Th", "20000"], ["Th", "1414"]), (["star", "1000002", "sink"], ["star", "1000001"]),
     (["path", "1000001"], ["path", "1000000"])],
    ids=["Th", "star", "path"],
)
def test_huge_catalog_exit_3(capsys, monkeypatch, args, limit):
    # a graph above the edge limit is refused before it is built; the
    # stand-ins fail the test instead of building 2 x 10^8 edges
    for build in ("make_transitive_tournament", "make_rooted_star", "make_directed_path"):
        monkeypatch.setattr(cli, build, _drew)
    code, out, err = run_cli(capsys, "catalog", *args)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(_Drew):  # the limit itself is allowed
        cli.catalog_graph(limit[0], limit[1:])


@pytest.mark.parametrize(
    "flags",
    [["--seed", "1"], ["--exact", "--seed", "1"], ["--exact", "--seed", str(5 + 2**128)],
     ["--greedy", "--seed", "1", "--budget", "5"], ["--bounds", "--seed", "1", "--budget", "5"]],
)
def test_tau_rejects_flags_of_other_modes(capsys, tmp_path, flags):
    host = graph_file(tmp_path, "t4.txt", make_transitive_tournament(4))
    pattern = graph_file(tmp_path, "t3.txt", make_transitive_tournament(3))
    code, out, err = run_cli(capsys, "tau", host, pattern, *flags)
    assert_one_line_error(code, err)
    assert out == ""


@pytest.mark.parametrize("flags", [["--trials", "3", "--seed", "1"], ["--seed", "1"], ["--trials", "3"]])
def test_skewness_exact_rejects_random_flags(capsys, tmp_path, flags):
    path = graph_file(tmp_path, "t4.txt", make_transitive_tournament(4))
    code, out, err = run_cli(capsys, "skewness", path, *flags)
    assert_one_line_error(code, err)
    assert out == ""


def test_params_edgeless_exit_2(capsys, tmp_path):
    path = tmp_path / "edgeless.txt"
    path.write_text("3 0\n")
    code, out, err = run_cli(capsys, "params", str(path))
    assert_one_line_error(code, err)
    assert out == ""


@pytest.mark.parametrize("mode", [["--greedy", "--seed", "1"], ["--bounds", "--seed", "1"], ["--exact"]])
def test_tau_truncated_exits_4(capsys, tmp_path, mode):
    host = graph_file(tmp_path, "k6.txt", complete(6))  # 120 T3 copies, tau >= 6
    pattern = graph_file(tmp_path, "t3.txt", make_transitive_tournament(3))
    code, out, _ = run_cli(capsys, "tau", host, pattern, *mode, "--cap", "2")
    assert code == 4
    assert out.splitlines()[-1].startswith("# truncated: copy cap hit")
    assert not out.startswith("tau =")

    code, out, _ = run_cli(capsys, "tau", host, pattern, *mode, "--cap", "2", "--format", "json")
    assert code == 4
    obj = json.loads(out)
    assert obj["truncated"] is True and obj.get("exact") is not True


@pytest.mark.parametrize("args", [["Th", "x"], ["star", "4.5"], ["star", "x", "sink"], ["path", "two"]])
def test_catalog_non_integer_exit_2(capsys, args):
    code, out, err = run_cli(capsys, "catalog", *args)
    assert_one_line_error(code, err)
    assert out == ""


def write_sweep(tmp_path, **overrides):
    config = {"pattern": "Th 3", "a_star": "5/4", "n_values": [20], "samples": 1, "seed": 1,
              "mode": "dagness"}
    config.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_sweep_empty_pattern_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", write_sweep(tmp_path, pattern=""))
    assert_one_line_error(code, err)


@pytest.mark.parametrize("n_values", [[0, 20], [-5, 20]])
def test_sweep_nonpositive_n_exit_2(capsys, tmp_path, n_values):
    code, _, err = run_cli(capsys, "sweep", write_sweep(tmp_path, n_values=n_values))
    assert_one_line_error(code, err)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exit_2(capsys, tmp_path, jobs):
    code, out, err = run_cli(capsys, "sweep", write_sweep(tmp_path), "--jobs", jobs)
    assert_one_line_error(code, err)
    assert out == ""


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_values": [20.9]},
        {"samples": True},
        {"seed": 1.7},
        {"cap": 5.0},
        {"perm_factor": "nan", "mode": "skew_pipeline"},
        {"perm_factor": 0, "mode": "skew_pipeline"},
        {"a_star": "1/0"},
    ],
)
def test_sweep_config_bad_value_exit_2(capsys, tmp_path, overrides):
    code, out, err = run_cli(capsys, "sweep", write_sweep(tmp_path, **overrides))
    assert_one_line_error(code, err)
    assert out == ""


def test_sweep_config_not_an_object_exit_2(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "sweep", str(path))
    assert_one_line_error(code, err)
    assert out == ""


def test_sweep_huge_perm_factor_finishes(capsys, tmp_path):
    # n < 2**x_count: no consistent family exists, so no permutation is drawn
    path = write_sweep(tmp_path, perm_factor=1e300, mode="skew_pipeline", samples=3)
    code, out, _ = run_cli(capsys, "sweep", path)
    assert code == 0
    assert out.splitlines()[1].split(",")[-2:] == ["0.0", "0"]


def test_tau_negative_budget_exit_2(capsys, tmp_path):
    host = graph_file(tmp_path, "k6.txt", complete(6))
    pattern = graph_file(tmp_path, "t3.txt", make_transitive_tournament(3))
    code, out, err = run_cli(capsys, "tau", host, pattern, "--exact", "--budget", "-3")
    assert_one_line_error(code, err)
    assert out == ""


def test_tau_negative_cap_exit_2(capsys, tmp_path):
    host = graph_file(tmp_path, "t4.txt", make_transitive_tournament(4))
    pattern = graph_file(tmp_path, "t3.txt", make_transitive_tournament(3))
    code, out, err = run_cli(capsys, "tau", host, pattern, "--greedy", "--seed", "1", "--cap", "-1")
    assert_one_line_error(code, err)
    assert out == ""


def test_gh_negative_cap_exit_2(capsys, tmp_path):
    host = graph_file(tmp_path, "t4.txt", make_transitive_tournament(4))
    pattern = graph_file(tmp_path, "t3.txt", make_transitive_tournament(3))
    code, out, err = run_cli(capsys, "gh", host, pattern, "--cap", "-1")
    assert_one_line_error(code, err)
    assert out == ""


def test_sweep_negative_cap_exit_2(capsys, tmp_path):
    # skew_pipeline never enumerates copies, so the config itself must reject the cap
    path = write_sweep(tmp_path, cap=-1, mode="skew_pipeline")
    code, out, err = run_cli(capsys, "sweep", path)
    assert_one_line_error(code, err)
    assert out == ""


@pytest.mark.parametrize(
    "text",
    [
        '{"n": "abc", "edges": []}',
        '{"n": true, "edges": [[0, 1]]}',
        '{"n": 3, "edges": [1, 2]}',
        '{"n": 3, "edges": [[0.7, 1.2], [1, 2]]}',
        '{"n": 3, "edges": [[0, true], [1, 2]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": {"0": 1}}',
    ],
)
def test_params_malformed_json_exit_2(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "params", str(path))
    assert_one_line_error(code, err)
    assert out == ""


def test_params_non_utf8_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe2 1\n0 1\n")
    code, out, err = run_cli(capsys, "params", str(path))
    assert_one_line_error(code, err)
    assert out == ""


@pytest.mark.parametrize("mode", ["--greedy", "--bounds"])
@pytest.mark.parametrize("host_graph", [make_transitive_tournament(4), make_directed_path(2)])
def test_tau_seed_beyond_key_width_exit_2(capsys, tmp_path, mode, host_graph):
    # the path has no T3 copy, so the seed must be checked even with nothing to shuffle
    host = graph_file(tmp_path, "host.txt", host_graph)
    pattern = graph_file(tmp_path, "t3.txt", make_transitive_tournament(3))
    seed = str(5 + 2**128)  # would alias seed 5
    code, out, err = run_cli(capsys, "tau", host, pattern, mode, "--seed", seed)
    assert_one_line_error(code, err)
    assert out == ""
