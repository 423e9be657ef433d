"""The command-line interface: verdict exit codes and report shapes."""

import json

import pytest

from pmkit.catalog import disjoint_union, nonregular_chain3, q, q6
from pmkit.cli import main
from pmkit.document import MAX_ELEMENTS, format_space
from support import ROOT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_catalog_token(capsys):
    code, out, _ = run(capsys, "validate", "q6:2,4")
    assert code == 0
    assert "valid: true" in out


def test_validate_bad_document(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps({"elements": ["a", "b", "c"], "leq": [], "zeta": ["b", "c", "a"]})
    )
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "InvolutionBroken" in out


def _directory(tmp_path):
    path = tmp_path / "space.json"
    path.mkdir()
    return path


def _utf16_document(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"elements": []}'.encode("utf-16-le"))
    return path


def _list_as_name(tmp_path):
    path = tmp_path / "list_name.json"
    doc = {"elements": ["a", "b"], "leq": [[["a"], "b"]], "zeta": [["a", "b"]]}
    path.write_text(json.dumps(doc))
    return path


def _deeply_nested(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


@pytest.mark.parametrize(
    "make", [_directory, _utf16_document, _list_as_name, _deeply_nested]
)
def test_unreadable_or_malformed_document_is_a_parse_error(tmp_path, capsys, make):
    path = str(make(tmp_path))
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert "valid: false" in out and "ParseError" in out
    code, _, err = run(capsys, "kind", path)
    assert code == 2
    assert "ParseError" in err


def test_document_above_the_element_cap_is_a_parse_error(tmp_path, capsys):
    names = [f"e{i}" for i in range(MAX_ELEMENTS + 1)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"elements": names, "leq": [], "zeta": names}))
    code, _, err = run(capsys, "kind", str(path))
    assert code == 2
    assert f"ParseError: a document may list at most {MAX_ELEMENTS} elements" in err


def test_catalog_tokens_are_capped_like_documents(capsys):
    """A token may name MAX_ELEMENTS points and no more; a larger one, and
    growth past that size, exit 2 before the space is built."""
    for token in ("q6:0,512", "crown:256"):
        code, out, _ = run(capsys, "validate", token)
        assert (code, out) == (0, f"valid: true\nelements: {MAX_ELEMENTS}\n")
    for token, size in (("q6:0,513", 1026), ("grid:513", 1026), ("crown:257", 1028)):
        code, out, err = run(capsys, "kind", token)
        assert code == 2 and out == ""
        assert err == (
            f"error: BadParams: a catalog space may have at most {MAX_ELEMENTS} points,"
            f" {token!r} has {size}\n"
        )
    code, out, err = run(capsys, "grow", "513")
    assert code == 2 and out == ""
    assert err == (
        f"error: BadParams: a catalog space may have at most {MAX_ELEMENTS} points,"
        " 'grid:513' has 1026\n"
    )


def test_validate_unknown_token(capsys):
    code, out, _ = run(capsys, "validate", "qq9")
    assert code == 1


def test_kind_reports_all_fields(capsys):
    code, out, _ = run(capsys, "kind", "grid:5")
    assert code == 0
    assert "regular: true" in out
    assert "kleene: true" in out
    assert "width: 2" in out
    assert "range: 2" in out


def test_simple_verdicts(capsys):
    code, out, _ = run(capsys, "simple", "q3")
    assert code == 0 and "simple: true" in out and "component:" in out


def test_simple_false_on_two_disjoint_copies(tmp_path, capsys):
    """No catalog space is non-simple; two copies of ``q2`` side by side
    have no component whose involution image covers the rest."""
    path = tmp_path / "two_q2.json"
    path.write_text(format_space(disjoint_union(q(2), q(2))))
    code, out, err = run(capsys, "simple", str(path))
    assert (code, out, err) == (1, "simple: false\n", "")


def test_simple_error_on_nonregular(capsys):
    code, _, err = run(capsys, "simple", "chain3")
    assert code == 2
    assert "NotRegular" in err


def test_components(capsys):
    code, out, _ = run(capsys, "components", "q3")
    assert code == 0
    assert "count: 2" in out


def test_dual_with_tables(capsys):
    code, out, _ = run(capsys, "dual", "q2", "--tables")
    assert code == 0
    assert "size: 3" in out
    assert "star:" in out and "prime:" in out


def test_dual_counts_past_the_listing_limit(capsys):
    """q6:5,40 has 2**41 + 4 downsets: the size is counted, and only the
    tables, which list the elements, stop at the limit."""
    code, out, err = run(capsys, "dual", "q6:5,40")
    assert code == 0 and err == ""
    assert out == "size: 2199023255556\n"
    code, out, err = run(capsys, "dual", "q6:5,40", "--tables")
    assert code == 2 and out == ""
    assert "SizeLimitExceeded: more than 1048576 downsets (2199023255556 exist)" in err


def test_congruences(capsys):
    code, out, _ = run(capsys, "congruences", "q2")
    assert code == 0
    assert "count: 2" in out


def test_morphism_found(capsys):
    code, out, _ = run(capsys, "morphism", "q6:0,3", "q5")
    assert code == 0
    assert "found: true" in out and "witness:" in out


def test_morphism_not_found(capsys):
    code, out, _ = run(capsys, "morphism", "q5", "q6:0,3")
    assert code == 1
    assert "found: false" in out


def test_iso_exit_codes(capsys):
    assert run(capsys, "iso", "q6:1,4", "q6:1,4")[0] == 0
    assert run(capsys, "iso", "q6:1,4", "q6:2,4")[0] == 1


def test_member_true_false_and_oracle(capsys):
    code, out, _ = run(capsys, "member", "--p", "3", "--q", "6", "--m", "7", "--n", "8")
    assert code == 0 and "member: true" in out
    code, out, _ = run(capsys, "member", "--p", "2", "--q", "6", "--m", "7", "--n", "8")
    assert code == 1 and "member: false" in out
    code, out, _ = run(
        capsys, "member", "--p", "0", "--q", "3", "--m", "0", "--n", "4", "--oracle"
    )
    assert code == 0 and "oracle: true" in out


def test_member_bad_label_is_usage_error(capsys):
    code, _, err = run(capsys, "member", "--p", "0", "--q", "2", "--m", "0", "--n", "3")
    assert code == 2
    assert "BadLabel" in err


def test_lattice_reports_fourteen(capsys):
    code, out, _ = run(capsys, "lattice", "q0", "q1", "q2", "q3", "q4", "q5")
    assert code == 0
    assert "nontrivial subvarieties: 14" in out
    assert "digraph" in out


def test_lattice_rejects_generators_that_are_not_simple(tmp_path, capsys):
    # two fixed points side by side: regular, but no component covers both
    doc = {"elements": ["a", "b"], "leq": [], "zeta": [["a", "a"], ["b", "b"]]}
    path = tmp_path / "two_points.json"
    path.write_text(json.dumps(doc))
    for token, message in (("chain3", "height <= 1"), (str(path), "is not simple")):
        code, out, err = run(capsys, "lattice", token, "q1")
        assert code == 2 and out == ""
        assert "NotRegular" in err and message in err, token


def test_subalg(capsys):
    code, out, _ = run(capsys, "subalg", "grid:5", "--gens", "x0")
    assert code == 0
    size = int(out.split("size: ")[1].split()[0])
    assert size >= 5


def test_subalg_prints_the_closure_counts(capsys):
    code, out, err = run(capsys, "subalg", "grid:7", "--gens", "x0")
    assert code == 0 and err == ""
    assert out.splitlines() == ["size: 277", "op_applications: 334"]


def test_subalg_lists_the_members(capsys):
    code, out, err = run(capsys, "subalg", "q1", "--gens", "x", "--list")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "size: 4",
        "op_applications: 9",
        "member: {}",
        "member: {x}",
        "member: {zx}",
        "member: {x, zx}",
    ]


def test_subalg_repeated_flags_accumulate(capsys):
    code, out, _ = run(
        capsys, "subalg", "grid:5", "--gens", "x0", "--gens", "x1,x2"
    )
    assert code == 0
    # the single-singleton closure is already large; two generators at least match it
    size = int(out.split("size: ")[1].split()[0])
    assert size >= 77


def test_subalg_rejects_unknown_names(capsys):
    code, _, err = run(capsys, "subalg", "grid:5", "--gens", "bogus")
    assert code == 2


def test_subalg_rejects_generators_that_are_not_downsets(capsys):
    """y0 (point 5) lies above x2, so {x0, y0} is no element."""
    code, out, err = run(capsys, "subalg", "grid:5", "--gens", "x0", "--gens", "y0,x0")
    assert code == 2 and out == ""
    assert err == "error: NotAnElement: [0, 5] is not a downset of this space\n"


def test_grow(capsys):
    code, out, _ = run(capsys, "grow", "12")
    assert code == 0
    assert "size: 8233" in out
    code, out, _ = run(capsys, "grow", "16")
    assert code == 0
    assert "size: 131129" in out


def test_grow_past_the_limit_is_a_size_error(capsys):
    """grid:30 generates billions of members; the listing stops once it
    passes the default limit of 2**20."""
    code, _, err = run(capsys, "grow", "30")
    assert code == 2
    assert "SizeLimitExceeded: more than 1048576 subalgebra members" in err


def test_congruences_past_the_limit_is_a_size_error(tmp_path, capsys):
    """The 42-chain reversed by the involution has 2**20 + 1 congruence sets."""
    names = [f"e{i}" for i in range(42)]
    doc = {"elements": names, "leq": list(zip(names, names[1:])), "zeta": names[::-1]}
    path = tmp_path / "chain42.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "congruences", str(path))
    assert code == 2 and out == ""
    assert "SizeLimitExceeded: more than 1048576 congruence sets" in err


def test_congruences_list_no_downsets(capsys):
    """q6:0,21 has 2**22 - 1 downsets, past the limit, but 42 points and two
    congruence sets: the sets are read off the space alone."""
    code, out, err = run(capsys, "congruences", "q6:0,21")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "count: 2"


def test_kind_prints_nothing_when_it_fails(tmp_path, capsys):
    """Beside the three-chain, of height 2, the range of q6:0,21 needs all
    4 * (2**22 - 1) downsets of the union; the report fails whole, with no
    partial lines before the error."""
    path = tmp_path / "chain3-q6.json"
    path.write_text(format_space(disjoint_union(nonregular_chain3(), q6(0, 21))))
    code, out, err = run(capsys, "kind", str(path))
    assert code == 2 and out == ""
    assert "SizeLimitExceeded: more than 1048576 downsets" in err


def test_kind_size_error_states_the_count(tmp_path, capsys):
    """The three-chain has 4 downsets and q6:0,21 has 2**22 - 1."""
    path = tmp_path / "chain3-q6.json"
    path.write_text(format_space(disjoint_union(nonregular_chain3(), q6(0, 21))))
    code, out, err = run(capsys, "kind", str(path))
    assert code == 2 and out == ""
    assert "more than 1048576 downsets (16777212 exist)" in err


def test_kind_reads_the_range_of_a_regular_space_off_its_width(capsys):
    """q6:0,21 is regular, so its range is its zeta-width and none of its
    2**22 - 1 downsets is listed."""
    code, out, err = run(capsys, "kind", "q6:0,21")
    assert code == 0 and err == ""
    assert out.splitlines() == ["regular: true", "kleene: true", "width: 1", "range: 1"]


def test_subalg_lists_no_downsets(capsys):
    """The closure of one minimal singleton in q6:0,21 runs on the space
    alone, past the 2**22 - 1 downsets of its algebra."""
    code, out, err = run(capsys, "subalg", "q6:0,21", "--gens", "s0")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "size: 7"


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PMKIT_BUDGET", "1")
    code, _, err = run(capsys, "morphism", "q6:0,4", "q6:0,3")
    assert code == 2
    assert "SearchBudgetExceeded" in err


def test_budget_zero_answers_a_question_refuted_at_the_root(capsys, monkeypatch):
    """The candidate masks refute q6:7,7 onto q6:3,7 before any attempt."""
    monkeypatch.setenv("PMKIT_BUDGET", "0")
    code, out, err = run(capsys, "morphism", "q6:7,7", "q6:3,7")
    assert code == 1 and err == ""
    assert out.splitlines() == ["found: false", "nodes: 0"]


def test_budget_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("PMKIT_BUDGET", "lots")
    code, _, err = run(capsys, "morphism", "q2", "q0")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [("morphism", "crown:3", "crown:2"), ("iso", "q6:1,4", "q6:2,4")],
    ids=["morphism", "iso"],
)
def test_budget_env_must_be_natural(capsys, monkeypatch, argv):
    monkeypatch.setenv("PMKIT_BUDGET", "-3")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "BadParams: budget must be a natural number, got -3" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "member", "--p", "1")[0] == 2


def test_file_space_through_cli(tmp_path, capsys):
    doc = {"elements": ["x", "zx"], "leq": [["x", "zx"]], "zeta": [["x", "zx"]]}
    path = tmp_path / "two_chain.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "iso", str(path), "q2")
    assert code == 0


def test_bad_catalog_params_reported(capsys):
    code, _, err = run(capsys, "kind", "q6:9,2")
    assert code == 2
    assert "BadParams" in err
    code, _, err = run(capsys, "kind", "crown:x")
    assert code == 2
    assert "expected crown:n with an integer" in err


def test_family_name_without_colon_is_not_a_catalog_token(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "kind", "q6")
    assert code == 2
    assert "neither a catalog token nor an existing file" in err


def test_verify_paper_exit_codes(capsys, monkeypatch):
    from pmkit import acceptance

    monkeypatch.setattr(
        acceptance, "CRITERIA", [("stub", lambda budget: (True, "ok"))]
    )
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "PASS" in out and "summary: 1/1 passed" in out

    monkeypatch.setattr(
        acceptance, "CRITERIA", [("stub", lambda budget: (False, "broken"))]
    )
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1
    assert "FAIL" in out


def _gate_stubs():
    """The real criterion titles, each answering the detail that
    ``perfbench/gate_expected.txt`` holds for it, and that file's text."""
    from pmkit import acceptance

    expected = (ROOT / "perfbench" / "gate_expected.txt").read_text()
    stubs = []
    for i, ((title, _), line) in enumerate(zip(acceptance.CRITERIA, expected.splitlines()), 1):
        prefix = f"criterion {i:2d} PASS {title} ("
        assert line.startswith(prefix) and line.endswith(")")
        stubs.append((title, lambda budget, detail=line[len(prefix):-1]: (True, detail)))
    return stubs, expected


def test_verify_paper_text_matches_the_gate(capsys, monkeypatch):
    """Without ``--json`` the report is byte for byte the gate's expected text."""
    from pmkit import acceptance

    stubs, expected = _gate_stubs()
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert out == expected


def test_verify_paper_json(capsys, monkeypatch):
    """``--json`` prints each criterion's number, title, verdict, detail and
    time, and keeps the exit codes of the text report."""
    from pmkit import acceptance

    stubs, expected = _gate_stubs()
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    report = json.loads(out)
    assert [list(r) for r in report] == [["number", "title", "ok", "detail", "seconds"]] * 14
    lines = [
        f"criterion {r['number']:2d} {'PASS' if r['ok'] else 'FAIL'} {r['title']} ({r['detail']})"
        for r in report
    ]
    assert "\n".join(lines) + "\nsummary: 14/14 passed\n" == expected
    assert all(isinstance(r["seconds"], float) and r["seconds"] >= 0 for r in report)

    monkeypatch.setattr(acceptance, "CRITERIA", [("stub", lambda budget: (False, "broken"))])
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 1
    assert json.loads(out)[0]["ok"] is False
