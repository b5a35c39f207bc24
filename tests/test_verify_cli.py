import json
from pathlib import Path

import pytest

from kforcing.cli import main, read_graph
from kforcing.corpus import (
    CorpusEntry,
    CorpusSpec,
    corpus_from_dict,
    default_corpus,
    make_graph_id,
    circulant_corpus,
)
from kforcing.errors import InvalidParametersError
from kforcing.generators import FamilySpec, generate, is_bipartite
from kforcing.graph import is_connected, serialize_edge_list, serialize_graph6
from kforcing.verify import CSV_HEADER, report_csv, report_json, run_corpus


@pytest.fixture(scope="module")
def small_corpus():
    entries = (
        CorpusEntry("petersen", FamilySpec("petersen", ())),
        CorpusEntry("cycle_6", FamilySpec("cycle", (6,))),
        CorpusEntry("complete_5", FamilySpec("complete", (5,))),
    )
    return CorpusSpec(name="small", ks=(1, 2), budget=10**8, entries=entries)


@pytest.fixture(scope="module")
def small_report(small_corpus):
    return run_corpus(small_corpus, workers=2)


def test_run_corpus_rows_and_order(small_report):
    ids = [(r.graph_id, r.k) for r in small_report.rows]
    assert ids == [
        ("petersen", 1),
        ("petersen", 2),
        ("cycle_6", 1),
        ("cycle_6", 2),
        ("complete_5", 1),
        ("complete_5", 2),
    ]
    assert small_report.summary["flagged_rows"] == 0


def test_petersen_row_contents(small_report):
    row = small_report.rows[0]
    assert (row.n, row.m, row.delta, row.Delta) == (10, 15, 3, 3)
    assert row.exact == 5
    assert row.greedy_size >= row.exact
    assert row.case == "THM_III"
    assert str(row.values["thm2iii"]) == "6"


def test_cycle_case_dispatch(small_report):
    by_key = {(r.graph_id, r.k): r for r in small_report.rows}
    assert by_key[("cycle_6", 1)].case == "THM_II"  # delta = Delta = 2 = k+1
    assert by_key[("cycle_6", 2)].case == "PROP1"
    assert by_key[("cycle_6", 2)].exact == 1


def test_equality_log_has_complete_5_at_k2(small_report):
    hits = [
        e
        for e in small_report.equality_log
        if e["graph_id"] == "complete_5" and e["k"] == 2 and e["bound"] == "cor2"
    ]
    assert hits and hits[0]["regular"] is True
    assert hits[0]["degree_is_k_plus_2"] is True


def test_csv_shape(small_report):
    text = report_csv(small_report)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == (
        "graph_id,family,n,m,delta,Delta,k,exact,greedy,case,"
        "thm2iii,cor1,cor2,cor3,acdp4,acdp5,flags"
    )
    assert len(lines) == 1 + len(small_report.rows)
    pet = lines[1].split(",")
    assert pet[:10] == [
        "petersen", "petersen", "10", "15", "3", "3", "1", "5",
        str(small_report.rows[0].greedy_size), "THM_III",
    ]
    assert pet[10] == "6"  # thm2iii
    assert pet[14] == "15/2"  # acdp4 as an exact fraction
    assert pet[16] == ""  # no flags


def test_csv_deterministic_across_workers(small_corpus):
    a = report_csv(run_corpus(small_corpus, workers=1))
    b = report_csv(run_corpus(small_corpus, workers=4))
    assert a == b


def test_report_json_parses(small_report):
    doc = json.loads(report_json(small_report))
    assert doc["corpus"] == "small"
    assert doc["summary"]["runs"] == 6
    row = doc["rows"][0]
    assert row["graph_id"] == "petersen"
    assert row["bounds"]["acdp4"] == "15/2"
    assert "equalities" not in row["observations"]


def test_default_corpus_structure():
    corpus = default_corpus()
    assert corpus.ks == (1, 2, 3)
    assert len(corpus.entries) == 78
    ids = [e.graph_id for e in corpus.entries]
    assert len(set(ids)) == len(ids)
    families = {e.spec.family for e in corpus.entries}
    assert {"path", "cycle", "complete", "complete_bipartite", "circulant",
            "hypercube", "petersen", "random_regular", "gnp_connected"} <= families


def test_default_corpus_generates():
    # every entry must actually build; sizes stay in the exact solver's range
    for entry in default_corpus().entries:
        g = generate(entry.spec)
        assert 1 <= g.n <= 16


def test_circulant_corpus_is_bipartite_and_connected():
    corpus = circulant_corpus()
    assert corpus.ks == (1,)
    assert len(corpus.entries) == 15
    for entry in corpus.entries:
        g = generate(entry.spec)
        assert is_bipartite(g), entry.graph_id
        assert is_connected(g), entry.graph_id


def test_make_graph_id():
    assert make_graph_id(FamilySpec("cycle", (8,))) == "cycle_8"
    assert make_graph_id(FamilySpec("circulant", (10, (1, 5)))) == "circulant_10_1-5"
    assert make_graph_id(FamilySpec("random_regular", (10, 3), seed=104)) == (
        "random_regular_10_3_s104"
    )
    assert make_graph_id(FamilySpec("gnp_connected", (12, 0.4), seed=207)) == (
        "gnp_connected_12_0.4_s207"
    )


def test_corpus_from_dict_seed_range():
    corpus = corpus_from_dict(
        {
            "name": "demo",
            "ks": [1],
            "entries": [
                {"family": "cycle", "parameters": [5]},
                {"family": "random_regular", "parameters": [8, 3], "seeds": [101, 103]},
                {"family": "circulant", "parameters": [10, [1, 5]]},
            ],
        }
    )
    assert [e.graph_id for e in corpus.entries] == [
        "cycle_5",
        "random_regular_8_3_s101",
        "random_regular_8_3_s102",
        "random_regular_8_3_s103",
        "circulant_10_1-5",
    ]


def test_corpus_from_dict_errors():
    with pytest.raises(InvalidParametersError):
        corpus_from_dict({"ks": [1], "entries": [{"family": "nonsense"}]})
    with pytest.raises(InvalidParametersError):
        corpus_from_dict({"entries": []})  # ks missing
    with pytest.raises(InvalidParametersError):
        corpus_from_dict({"ks": [0], "entries": []})
    with pytest.raises(InvalidParametersError):
        corpus_from_dict(
            {"ks": [1], "entries": [{"family": "cycle", "parameters": [5], "seeds": [9, 3]}]}
        )


# --- CLI ----------------------------------------------------------------


@pytest.fixture
def path4_file(tmp_path):
    g = generate(FamilySpec("path", (4,)))
    p = tmp_path / "p4.txt"
    p.write_text(serialize_edge_list(g))
    return str(p)


def test_cli_force_exit_codes(path4_file, capsys):
    assert main(["force", path4_file, "--k", "1", "--set", "0"]) == 0
    out = capsys.readouterr().out
    assert "forcing: true" in out
    assert out.startswith("initial 0\n")
    assert main(["force", path4_file, "--k", "1", "--set", ""]) == 1
    assert "forcing: false" in capsys.readouterr().out


def test_cli_force_json(path4_file, capsys):
    assert main(["force", path4_file, "--k", "1", "--set", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["forcing"] is True
    assert doc["final"] == [0, 1, 2, 3]
    assert doc["events"][0] == {"round": 1, "forcer": 0, "forced": [1]}


def test_cli_greedy(tmp_path, capsys):
    g = generate(FamilySpec("complete", (5,)))
    p = tmp_path / "k5.g6"
    p.write_text(serialize_graph6(g) + "\n")
    assert main(["greedy", str(p), "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "case: THM_III" in out
    assert "T = [0, 1, 2, 3]" in out
    assert "bound:" in out and "ok" in out
    assert main(["greedy", str(p), "--k", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_size"] == 4
    assert doc["components"][0]["case"] == "THM_III"


def test_cli_exact(path4_file, capsys):
    assert main(["exact", path4_file, "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "F_1 = 1" in out and "witness: [0]" in out


def test_cli_exact_budget_truncation(tmp_path, capsys):
    g = generate(FamilySpec("cycle", (8,)))
    p = tmp_path / "c8.txt"
    p.write_text(serialize_edge_list(g))
    assert main(["exact", str(p), "--k", "1", "--budget", "8", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["certification"] == "budget-truncated"
    assert doc["no_set_of_size_le"] == 1
    assert doc["subsets_tested"] == 8


def test_cli_bounds_table(tmp_path, capsys):
    g = generate(FamilySpec("petersen", ()))
    p = tmp_path / "pet.txt"
    p.write_text(serialize_edge_list(g))
    assert main(["bounds", str(p), "--k", "1", "--exact"]) == 0
    out = capsys.readouterr().out
    assert "n=10 m=15 delta=3 Delta=3 k=1" in out
    assert "15/2" in out
    assert "exact" in out and "5" in out
    assert main(["bounds", str(p), "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "n/a" in out  # thm2iii needs Delta >= k+2


def test_cli_bounds_disconnected_note(tmp_path, capsys):
    p = tmp_path / "disc.txt"
    p.write_text("4 2\n0 1\n2 3\n")
    assert main(["bounds", str(p), "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "disconnected" in out
    assert "graph not connected" in out


def test_cli_bounds_equality_candidate(tmp_path, capsys):
    g = generate(FamilySpec("complete", (5,)))
    p = tmp_path / "k5.txt"
    p.write_text(serialize_edge_list(g))
    assert main(["bounds", str(p), "--k", "2"]) == 0
    assert "equality candidate" in capsys.readouterr().out


BOUNDS_GOLDEN_GRAPHS = {
    "petersen": serialize_edge_list(generate(FamilySpec("petersen", ()))),
    "path_5": serialize_edge_list(generate(FamilySpec("path", (5,)))),
    "two_edges": "4 2\n0 1\n2 3\n",
}


@pytest.mark.parametrize(
    ("graph", "k"),
    [("petersen", 1), ("petersen", 2), ("petersen", 3), ("path_5", 2), ("two_edges", 1)],
)
def test_cli_bounds_json_golden(tmp_path, capsys, graph, k):
    # byte-for-byte: bound order, reasons, values and the k-connectivity record
    p = tmp_path / "g.txt"
    p.write_text(BOUNDS_GOLDEN_GRAPHS[graph])
    assert main(["bounds", str(p), "--k", str(k), "--json"]) == 0
    golden = Path(__file__).parent / "golden" / f"bounds_{graph}_k{k}.json"
    assert capsys.readouterr().out == golden.read_text()


def test_cli_gen_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "c10.g6"
    assert main(["gen", "circulant", "10", "1,5", "--format", "graph6",
                 "-o", str(out_path)]) == 0
    g = read_graph(str(out_path), None)
    assert g.n == 10 and all(len(g.adjacency[v]) == 3 for v in range(10))
    assert main(["gen", "petersen"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("10 15\n")


def test_cli_gen_bad_params(capsys):
    assert main(["gen", "circulant", "10"]) == 2
    assert "circulant takes" in capsys.readouterr().err


def test_cli_missing_file_is_exit_2(capsys):
    assert main(["exact", "/nonexistent/graph.txt", "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_graph6_is_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.g6"
    p.write_text("~??\n")
    assert main(["exact", str(p), "--format", "graph6", "--k", "1"]) == 2


def test_cli_verify_circulant(tmp_path, capsys):
    csv_path = tmp_path / "circulant.csv"
    assert main(["verify", "--corpus", "circulant", "--csv", str(csv_path),
                 "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "corpus: circulant (15 graphs, 15 runs)" in out
    assert "flagged rows: 0" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 16


def test_cli_verify_corpus_file_deterministic(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(
        json.dumps(
            {
                "name": "tiny",
                "ks": [1, 2],
                "entries": [
                    {"family": "cycle", "parameters": [6]},
                    {"family": "gnp_connected", "parameters": [8, 0.4], "seeds": [201, 202]},
                ],
            }
        )
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["verify", str(corpus_path), "--csv", str(out_a), "--workers", "1"]) == 0
    assert main(["verify", str(corpus_path), "--csv", str(out_b), "--workers", "3"]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_verify_json_report(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(
        json.dumps({"name": "one", "ks": [1], "entries": [{"family": "petersen"}]})
    )
    json_path = tmp_path / "report.json"
    assert main(["verify", str(corpus_path), "--json", str(json_path)]) == 0
    capsys.readouterr()
    doc = json.loads(json_path.read_text())
    assert doc["rows"][0]["exact"] == 5


def test_cli_bench_smoke(capsys):
    assert main(["bench", "--max-n", "8"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "n f_k subsets states seconds"
    assert len(out.splitlines()) == 4  # header x2 + n=6 + n=8
    for line in out.splitlines()[2:]:
        assert len(line.split()) == 5 and int(line.split()[3]) > 0


def test_cli_stdin_graph(monkeypatch, capsys):
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO("3 2\n0 1\n1 2\n"))
    assert main(["exact", "-", "--k", "1"]) == 0
    assert "F_1 = 1" in capsys.readouterr().out
