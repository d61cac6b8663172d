"""The bit-identity digest of tests/corpus_digest.py imports, names each
corpus mesh once and digests a mesh the same way twice: a plain, a
drilled and a glued one; and --against-rev's extraction of a revision."""

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
