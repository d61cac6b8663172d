"""The bit-identity digest of tests/corpus_digest.py imports, names each
corpus mesh once and digests a mesh the same way twice: a plain, a
drilled and a glued one; a comparison names the parts that differ; and
--against-rev's extraction of a revision."""

import pytest

import corpus_digest

CORPUS = dict(corpus_digest.corpus())


def test_corpus_names_are_unique():
    names = [name for name, _ in corpus_digest.corpus()]
    assert len(set(names)) == len(names)


# cho-k2 drills the faces (4, 5) that the cubohemioctahedron names,
# q3-18-k2 drills a glued chain and minimal-5 is a glued chain
@pytest.mark.parametrize("name", ["tetrahedron-None-{}", "p2-24-k2",
                                  "cho-k2", "q3-18-k2", "minimal-5"])
def test_digest_is_repeatable(tmp_path, name):
    first = corpus_digest.digest(CORPUS[name](), tmp_path)
    assert len(first) == 64
    assert corpus_digest.digest(CORPUS[name](), tmp_path) == first


@pytest.mark.skipif(not (corpus_digest.HERE.parent / ".git").exists(),
                    reason="not a git checkout")
def test_extract_writes_the_files_of_a_revision(tmp_path):
    """--against-rev digests the files git archive gives for the revision."""
    corpus_digest.extract("HEAD", tmp_path)
    assert (tmp_path / "tests" / "corpus_digest.py").is_file()
    assert (tmp_path / "src" / "ccpforge" / "surgery.py").is_file()


def first_meshes(monkeypatch, n=3):
    """Cut the corpus to its first n meshes, on either side."""
    real = corpus_digest.corpus
    monkeypatch.setattr(corpus_digest, "corpus",
                        lambda lib=None: real(lib)[:n])


def test_a_checkout_matches_itself(monkeypatch, capsys):
    """--against this checkout digests it as package ccpforge_a and as
    itself; every part of every mesh matches."""
    first_meshes(monkeypatch)
    assert corpus_digest.compare(corpus_digest.HERE.parent, "itself") == 0
    assert capsys.readouterr().out.splitlines() == [
        "3 of 3 digests match itself's (3 there)"]


def test_a_comparison_names_the_parts_that_differ(monkeypatch, capsys):
    """When the other side's planarity residual differs on every mesh,
    the comparison names that part for each mesh and counts it."""
    first_meshes(monkeypatch)
    real = corpus_digest.parts

    def parts(p, workdir, lib=None):
        out = real(p, workdir, lib)
        if lib is not None and lib.verify.__name__.startswith("ccpforge_a"):
            out["report.max_planarity_residual"] = "moved"
        return out
    monkeypatch.setattr(corpus_digest, "parts", parts)
    assert corpus_digest.compare(corpus_digest.HERE.parent, "itself") == 1
    names = [name for name, _ in corpus_digest.corpus()]
    assert capsys.readouterr().out.splitlines() == [
        f"differs: {name}: report.max_planarity_residual" for name in names
    ] + ["part report.max_planarity_residual differs in 3 meshes",
         "0 of 3 digests match itself's (3 there)"]


def test_parts_cover_the_report_entry_by_entry(tmp_path):
    p = CORPUS["p2-24-k2"]()
    names = corpus_digest.parts(p, tmp_path)
    assert {"vertices", "faces", "edge_slots", "seams", "provenance",
            "defects", "triangulation", "witness_pairs", "witness_points",
            "json", "stl", "report.verdict",
            "report.max_planarity_residual"} <= names.keys()
    report = corpus_digest.library().verify.verify(p).to_dict()
    assert {name for name in names if name.startswith("report.")} == \
        {f"report.{key}" for key in report}
