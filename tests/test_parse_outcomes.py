"""What the parser makes of seeded mutations of the shipped specs, and the
token texts it reads against the tokens :func:`frontend._tokenize` places.

``golden/parse_outcomes.json`` holds, for each of 1,000 seeded mutations
(``helpers.mutate_spec``) of ``pa``, ``examples``, ``loops`` and
``gen40``, a digest of the mutated text and the parse outcome
(``helpers.parse_outcome``): the error's class and message, with its line
and column, or the rule count and a digest of the printed document.  It
was written by the lexer that built a positioned token per piece, so it
pins every outcome of that parser.  Regenerate it only for a deliberate
change of outcome::

    PYTHONPATH=src:tests python -c "import test_parse_outcomes as t; t.write_golden()"
"""

import hashlib
import json
import random
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsos.errors import SpecSyntaxError
from pgsos.frontend import _Parser, _tokenize, parse_spec

from helpers import mutate_spec, parse_outcome

GOLDEN = Path(__file__).parent / "golden" / "parse_outcomes.json"
MUTATIONS = 1000


def _texts() -> dict[str, str]:
    data = resources.files("pgsos").joinpath("data")
    texts = {name: data.joinpath(f"{name}.pgsos").read_text(encoding="utf-8")
             for name in ("pa", "examples", "loops")}
    texts["gen40"] = (GOLDEN.parent / "gen40.pgsos").read_text(encoding="utf-8")
    return texts


def mutation_outcomes() -> list[dict]:
    """Mutation ``k`` edits spec ``k % 4`` with ``random.Random(k)``."""
    texts = _texts()
    names = sorted(texts)
    out = []
    for k in range(MUTATIONS):
        name = names[k % len(names)]
        text = mutate_spec(random.Random(k), texts[name])
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        out.append({"spec": name, "text_sha256": digest,
                    **parse_outcome(text)})
    return out


def write_golden() -> None:
    GOLDEN.write_text(json.dumps(mutation_outcomes(), indent=1,
                                 ensure_ascii=False) + "\n", encoding="utf-8")


def test_mutated_specs_parse_as_the_golden_file_records():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outcomes = mutation_outcomes()
    assert len(outcomes) == len(golden) == MUTATIONS
    for k, (got, want) in enumerate(zip(outcomes, golden)):
        assert got == want, k


def _texts_read(read, text):
    """The token texts ``read(text)`` gives up to the end and the names
    among them, or the message of its syntax error."""
    try:
        return read(text)
    except SpecSyntaxError as err:
        return str(err)


def parser_texts(text):
    parser = _Parser(text)
    return parser.toks[:parser.toks.index("")], parser.idents


def tokenize_texts(text):
    toks = _tokenize(text)[:-1]
    return ([tok.text for tok in toks],
            {tok.text for tok in toks if tok.kind == "ident"})


# the characters at which tokens and comments start and end, and some the
# lexer refuses: a digit that is no decimal, a fraction, a form feed and a
# next-line character
SPEC_TEXT = st.text(st.sampled_from(" \t\r\n#-/>.;(1a_²½٣é\f\x85"))


@settings(max_examples=500, deadline=None)
@given(st.text() | SPEC_TEXT)
def test_the_parser_reads_the_texts_of_the_placed_tokens(text):
    assert (_texts_read(parser_texts, text)
            == _texts_read(tokenize_texts, text))


@pytest.mark.parametrize("tail, position", [
    pytest.param(" " * 10 ** 5, "line 1, column 100010", id="blanks"),
    pytest.param("\n" * 10 ** 5, "line 100001, column 1", id="newlines"),
    pytest.param(" # note" + " " * 10 ** 5, "line 1, column 11", id="comment"),
])
def test_a_long_blank_tail_is_read_once(tail, position):
    # no match fails after the blanks and comments it has read, so the end
    # of a text is not read again from each of its blanks
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("actions a" + tail)
    assert str(err.value) == f"expected ;, found '' ({position})"
