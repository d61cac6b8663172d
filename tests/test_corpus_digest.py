"""The bit-identity digest of tests/corpus_digest.py imports, names each
corpus mesh once and digests a mesh the same way twice: a plain, a
drilled and a glued one."""

import pytest

import corpus_digest

CORPUS = dict(corpus_digest.corpus())


def test_corpus_names_are_unique():
    names = [name for name, _ in corpus_digest.corpus()]
    assert len(set(names)) == len(names)


# cho-k2 drills the faces (4, 5) that the cubohemioctahedron names, and
# minimal-5 is a glued chain
@pytest.mark.parametrize("name", ["tetrahedron-None-{}", "p2-24-k2",
                                  "cho-k2", "minimal-5"])
def test_digest_is_repeatable(tmp_path, name):
    first = corpus_digest.digest(CORPUS[name](), tmp_path)
    assert len(first) == 64
    assert corpus_digest.digest(CORPUS[name](), tmp_path) == first
