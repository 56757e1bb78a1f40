"""duplexsim: chunk-synchronous two-channel token streams.

Codec for the deduplicated wire format, a trainable n-gram predictor,
synthetic dialogue generation, a latency-tolerant interaction engine, and
turn-taking/perplexity evaluation.
"""

from . import errors
from .interaction import (
    InteractionConfig,
    InteractionTranscript,
    continue_dialogue,
    estimate_user_chunk,
    simulate_interaction,
)
from .metrics import (
    CorpusStats,
    CorrelationReport,
    EventParams,
    EventRecord,
    VadSegment,
    corpus_stats,
    correlation_report,
    pearson,
    per_dialogue_perplexities,
    turn_events,
    vad,
)
from .ngram import (
    NgramModel,
    SamplerConfig,
    perplexity,
    sample_constrained,
    train,
)
from .synth import (
    DialogueStyle,
    generate_corpus,
    generate_dialogue,
    generate_stage2_dialogue,
)
from .tokens import (
    DedupChunk,
    DedupDialogue,
    Vocab,
    chunk_streams,
    deduplicate,
    encode,
    encode_dialogue,
    flatten,
    interpolate,
    parse,
)

__version__ = "0.1.0"
