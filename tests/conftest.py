import sys
from pathlib import Path

import pytest

from duplexsim import DialogueStyle, Vocab

# the experiment scripts are importable, so a test can run them as written
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))


@pytest.fixture
def vocab() -> Vocab:
    return Vocab(size=501, frame_ms=40, silence_tokens=frozenset({0}))


@pytest.fixture
def tiny_vocab() -> Vocab:
    return Vocab(size=12, frame_ms=40, silence_tokens=frozenset({0}))


@pytest.fixture
def tiny_style(tiny_vocab) -> DialogueStyle:
    return DialogueStyle(
        vocab=tiny_vocab,
        ipu_ms=(800.0, 200.0),
        pause_ms=(400.0, 100.0),
        fto_ms=(200.0, 80.0),
        turn_continue_prob=0.3,
        backchannel_prob=0.1,
        backchannel_ms=(160.0, 40.0),
        p_self=0.4,
    )
