"""Object semantics: evaluation, classification, return-value decoding."""

import pytest

from gsclab import Op, get_semantics
from gsclab.semantics import REGISTER, SEMANTICS, SEQUENCE


def test_sequence_eval():
    ops = (Op("append", 1), Op("append", 2))
    assert SEQUENCE.eval(ops, Op("read")) == (1, 2)
    assert SEQUENCE.eval((), Op("read")) == ()
    assert SEQUENCE.eval(ops, Op("append", 3)) is None
    assert SEQUENCE.eval((Op("append", 2), Op("append", 1)), Op("read")) == (2, 1)


def test_sequence_classify_and_context():
    assert SEQUENCE.classify(Op("append", 1)) == "update"
    assert SEQUENCE.classify(Op("read")) == "read-only"
    assert SEQUENCE.is_update(Op("append", 1))
    assert not SEQUENCE.is_update(Op("read"))
    assert SEQUENCE.context_sensitive(Op("read"))
    assert not SEQUENCE.context_sensitive(Op("append", 1))


def test_register_eval():
    ops = (Op("write", 1), Op("write", 2))
    assert REGISTER.eval(ops, Op("read")) == 2
    assert REGISTER.eval((), Op("read")) is None
    assert REGISTER.eval(ops, Op("write", 3)) is None
    assert REGISTER.classify(Op("write", 1)) == "update"


@pytest.mark.parametrize("use", [lambda op: REGISTER.eval((), op), REGISTER.classify],
                         ids=["eval", "classify"])
def test_register_refuses_unknown_ops(use):
    with pytest.raises(ValueError, match="^register does not implement 'increment'$"):
        use(Op("increment"))


def test_registry():
    assert set(SEMANTICS) == {"sequence", "register"}
    assert get_semantics("sequence") is SEQUENCE
    assert get_semantics("register") is REGISTER
    with pytest.raises(Exception):
        get_semantics("bogus")


def test_sequence_decoder_on_unknown_ops():
    with pytest.raises(Exception):
        SEQUENCE.eval((), Op("increment"))
