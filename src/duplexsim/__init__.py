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
    CorrelationReport,
    EventParams,
    EventRecord,
    VadSegment,
    correlation_report,
    pearson,
    turn_events,
    vad,
)
from .ngram import (
    NgramModel,
    SamplerConfig,
    corpus_perplexity,
    perplexity,
    sample_constrained,
    sample_next,
    train,
)
from .synth import (
    CorpusStats,
    DialogueStyle,
    build_stage2_corpus,
    corpus_stats,
    generate_corpus,
    generate_dialogue,
    generate_stage2_dialogue,
)
from .tokens import (
    ChunkedDialogue,
    DedupChunk,
    DedupDialogue,
    Vocab,
    chunk_streams,
    chunk_wire,
    deduplicate,
    encode,
    flatten,
    interpolate,
    parse,
)

__version__ = "0.1.0"
