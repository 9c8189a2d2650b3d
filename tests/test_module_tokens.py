"""Every library module stays below the size at which CPython's parser
needs more memory to compile it."""

import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "percop"
# compiling a module of this many parser tokens or more takes about 0.45 MB
# more, which every workload that imports it pays in peak RSS
TOKEN_STEP = 8192


def parser_tokens(path):
    """The tokens of ``path`` that the parser reads: all but COMMENT and NL."""
    with tokenize.open(path) as f:
        return sum(1 for tok in tokenize.generate_tokens(f.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_below_the_token_step(path):
    count = parser_tokens(path)
    assert count < TOKEN_STEP, (
        "%s holds %d parser tokens, at or past CPython's %d-token step; see "
        "ROADMAP.md, measured negatives, 'Growing search.py past 8,192 parser "
        "tokens', and take code out of the module" % (path.name, count, TOKEN_STEP))
