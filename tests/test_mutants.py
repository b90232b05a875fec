"""The mutation gate's tables stay applicable without its minutes-long run."""

import mutants


def test_every_mutant_text_occurs_exactly_once():
    assert mutants.misplaced() == []


def test_every_digest_test_names_a_test_function():
    for test in mutants.DIGEST_TESTS:
        path, name = test.split("::")
        assert f"\ndef {name}(" in (mutants.ROOT / path).read_text(encoding="utf-8"), test
