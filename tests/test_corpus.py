"""The committed reference corpus (see tests/corpus.py): each config, run
in process, reproduces its committed output."""

import pytest

import corpus


@pytest.mark.parametrize("name", corpus.names())
def test_output_matches_the_corpus(tmp_path, name):
    assert corpus.compare(name, tmp_path) <= corpus.TOL


def test_corpus_is_small_and_paired():
    files = list(corpus.CORPUS.iterdir())
    assert sum(f.stat().st_size for f in files) < corpus.MAX_BYTES
    assert sorted(f.name for f in files) == sorted(
        f"{name}.{part}.json" for name in corpus.names() for part in ("cfg", "out"))
