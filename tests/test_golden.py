"""Golden digests of every generation path under fixed seeds.

Each test hashes canonical JSON (sorted keys, no spaces) of what one path
produces: continuation, user-chunk estimation, the interaction loop with
scripted and model users, perplexity as ``float.hex()``, and the bytes
``NgramModel.save`` writes. The interaction digests cover every step's
in-memory ``context_snapshot``, i.e. the exact context each chunk was
sampled from. The values were recorded from the reference engine, which
rebuilt every context from chunk 0 at each step, except two sets. The
model-file digests (``save-*`` and the CLI's ``model.json``) were recorded
again when the model file moved to the columnar version 2, and again when
the model moved to sorted arrays and ``save`` began to write rows in
context-code order and each row's tokens in increasing order: each earlier
file, loaded and saved by the array model, hashes to its new digest. They
were recorded a third time when the model file became version 3, a stream
of ``.npy`` records: each version-2 file, its columns written as those
records, hashes to its new digest. The
``interact-*`` digests and the CLI's ``scripted.json`` and ``model_b.json``
were recorded again when a serialised transcript stopped writing four
derivable values: ``config.chunk_ms`` (the dialogue's), the constant
``config.overflow_policy``, the top-level ``seed`` (``config.sampler.seed``)
and each step's ``user_estimated`` (the last of its ``estimate_history``);
put back, they give the old digests. A change that moves one of them
changes behaviour and must say why.
"""

import hashlib
import json

import numpy as np
import pytest

from duplexsim import (
    DedupDialogue,
    DialogueStyle,
    InteractionConfig,
    NgramModel,
    SamplerConfig,
    Vocab,
    chunk_streams,
    chunk_wire,
    continue_dialogue,
    corpus_perplexity,
    deduplicate,
    estimate_user_chunk,
    flatten,
    generate_corpus,
    perplexity,
    simulate_interaction,
    train,
)
from duplexsim.cli import main
from duplexsim.errors import ModelFormatError

CHUNK_MS = 160
PROMPT = 3
RUN = 14

SAMPLERS = {
    "default": dict(),
    "top5": dict(top_k=5),
    "greedy": dict(top_k=1),
    "temp07": dict(temperature=0.7),
}

DIGESTS = {
    "continue-v12": "4cc76c1bdbd1c658d336d0291d67a2071fe4328664059db3f4aa1d114bdf2cff",
    "continue-v501": "e8cf751ad0357a523fabbd845276c40caaad5327f4ba9063fbffd80b799c5822",
    "estimate-v12": "192100187ad78e72c877c7a2cb800af5c77cdba2ac04a5e88fe4491c1adf1ca0",
    "estimate-v501": "67820d34a716a814e097ff0faad2a2e6414825d33441b1114f792d4ebc508788",
    "interact-v12-model-L0": "7e926961611a190453a4db205b3e5e42a0fd7301e311e6e1b2f8e09c9fbc6cb3",
    "interact-v12-model-L1": "14fd7bcfe3b36f40352e2dcc472a6fdb15f01f9a42a1613a382f18ad25b73f78",
    "interact-v12-model-L3": "1837aeb902cdec0f513c285d70d4afbd82ee35eddb6bd5a1556a999d4017e60a",
    "interact-v12-scripted-L0": "5e1a92770d70461ec175333f54a5cb1a4306377308e4f1254daf548844bb0593",
    "interact-v12-scripted-L1": "c9e4bcbaf99f0fe36a19386c15fdacf1f4074e0d8402963ec9b67822ec83512b",
    "interact-v12-scripted-L3": "00be0b8b74db60635dff48abacff5e095895b8893d87fc3fc0e4c918c6b109b5",
    "interact-v501-model-L0": "2b6a703457d21395024b865b4a849b44c3bce778ed0c2379ba6ae47cb966dc24",
    "interact-v501-model-L1": "4dab3fc703959b783bc718564855b213f501f88195a784f912786cf00b45955e",
    "interact-v501-model-L3": "8f16be23a260c834f89f1c2f6ce7b69c3c88056bb2db5faf28a27362240a6e2b",
    "interact-v501-scripted-L0": "d4b2802c1948817b1bf47d8b5b3fef6bd1fb368d3a9665679289a7fcf9231fa4",
    "interact-v501-scripted-L1": "ccaa064e7ca54f6d8997a458be956b987d5341f4e06c1a54d2e5b9cec4fbcd68",
    "interact-v501-scripted-L3": "fcbabfa6c978d8a8ce51e3207400c5447b8ced88211c154ae96cee6184ac8e24",
    "ppl-v12": "8be9b35f5471021311b1901e5775c99693b818dcf51907756294d87e6ab9e8e4",
    "ppl-v501": "64583f908da96ecd7a1413562b650d7f23314082466847cc4a672d97af26d8c1",
    "save-v12": "36d19ab6d6da5dc36a167e513fac593a7e7aff5752a9fea4ee5df4cdd1e1d7c7",
    "save-v501": "f08f70145368a8d54b8db0658db4dec6d628ef784eec86433876ea0e99f7fb7a",
}


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _world(size: int):
    vocab = Vocab(size=size, frame_ms=40, silence_tokens=frozenset({0}))
    style = DialogueStyle(
        vocab=vocab,
        ipu_ms=(800.0, 200.0),
        pause_ms=(400.0, 100.0),
        fto_ms=(200.0, 80.0),
        turn_continue_prob=0.3,
        backchannel_prob=0.1,
        backchannel_ms=(160.0, 40.0),
        p_self=0.4,
    )
    corpus = generate_corpus(style, 9, 12000, seed=size)
    dialogues = [
        deduplicate(chunk_streams(s0, s1, CHUNK_MS, vocab)) for s0, s1 in corpus.values()
    ]
    order = 3 if size < 100 else 4
    model = train([flatten(d) for d in dialogues[:-1]], order=order, alpha=0.1,
                  vocab_ext=vocab.extended_size)
    return vocab, model, dialogues[-1]


@pytest.fixture(scope="module", params=[12, 501], ids=lambda v: f"v{v}")
def world(request):
    return request.param, *_world(request.param)


def _sampler(name: str, seed: int) -> SamplerConfig:
    return SamplerConfig(seed=seed, **SAMPLERS[name])


def _prompt(script: DedupDialogue, n: int) -> DedupDialogue:
    return DedupDialogue(script.vocab, script.chunk_ms, script.chunks[:n])


def _chunks(d: DedupDialogue) -> list:
    return [[list(c.s0_novel), list(c.s1_novel)] for c in d.chunks]


def _check(name: str, obj) -> None:
    assert _digest(obj) == DIGESTS[name], name


def test_save_bytes(world, tmp_path):
    size, _, model, _ = world
    path = tmp_path / "model.json"
    model.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[f"save-v{size}"]


ARRAYS = ("codes", "offsets", "tokens", "freqs", "row_totals")


def test_load_inverts_save(world, tmp_path):
    _, _, model, _ = world
    first, second, third, reversed_rows = (tmp_path / f"{n}.json" for n in "abcd")
    model.save(first)
    model.save(second)
    assert second.read_bytes() == first.read_bytes()
    loaded = NgramModel.load(first)
    for name in ARRAYS:
        assert np.array_equal(getattr(loaded, name), getattr(model, name)), name
    assert loaded.totals == model.totals
    loaded.save(third)
    assert third.read_bytes() == first.read_bytes()
    # only save writes the format, so load takes rows in code order only
    with open(first, "rb") as fh:
        header, alpha, codes, sizes, tokens, counts = (np.load(fh) for _ in range(6))
    rows = np.split(np.arange(len(tokens)), np.cumsum(sizes)[:-1])[::-1]
    with open(reversed_rows, "wb") as fh:
        for record in (header, alpha, codes[::-1], sizes[::-1],
                       *(column[np.concatenate(rows)] for column in (tokens, counts))):
            np.save(fh, record)
    with pytest.raises(ModelFormatError, match="not strictly increasing"):
        NgramModel.load(reversed_rows)


def test_perplexity(world):
    size, _, model, script = world
    seq = flatten(script)
    values = [perplexity(model, seq, skip=k).hex() for k in (0, 1, 7, len(seq) - 1)]
    values.append(corpus_perplexity(model, [seq[:40], seq[40:]], skip=2).hex())
    _check(f"ppl-v{size}", values)


def test_continue_dialogue(world):
    size, _, model, script = world
    prompt = _prompt(script, PROMPT)
    forced = [list(c.s1_novel) for c in script.chunks[PROMPT:PROMPT + RUN]]
    out = {}
    for name in SAMPLERS:
        cfg = _sampler(name, 11)
        out[name] = {
            "free": _chunks(continue_dialogue(model, prompt, RUN, cfg)),
            "forced": _chunks(continue_dialogue(model, prompt, RUN, cfg,
                                                forced_user=forced)),
        }
    _check(f"continue-v{size}", out)


def test_estimate_user_chunk(world):
    size, vocab, model, script = world
    wire = flatten(script)
    # contexts ending right after a chunk's channel-0 content
    cuts, pos = [], 0
    for chunk in script.chunks:
        cuts.append(pos + 1 + len(chunk.s0_novel))
        pos += len(chunk_wire(vocab, chunk))
    cuts = cuts[1::5]
    out = {}
    for name in SAMPLERS:
        own = [estimate_user_chunk(model, wire[:i], vocab, CHUNK_MS, _sampler(name, i))
               for i in cuts]
        rng = np.random.default_rng(5)
        shared = [estimate_user_chunk(model, wire[:i], vocab, CHUNK_MS,
                                      _sampler(name, 0), rng=rng) for i in cuts]
        out[name] = {"own": own, "shared": shared}
    _check(f"estimate-v{size}", out)


def _transcript(tr) -> dict:
    # the serialised form, minus the snapshots that only the in-memory
    # records are required to carry
    doc = tr.to_json_dict()
    for step in doc["steps"]:
        step.pop("context_snapshot", None)
    return {
        "json": doc,
        "steps": [
            {
                "index": s.index,
                "llm_chunk": s.llm_chunk,
                "user_actual": s.user_actual,
                "user_estimated": s.user_estimated,
                "estimate_history": s.estimate_history,
                "context_snapshot": s.context_snapshot,
                "context_snapshot_len": s.context_snapshot_len,
                "truncations": s.truncations,
            }
            for s in tr.steps
        ],
        "dialogue": _chunks(tr.dialogue),
        "prompt_chunks": tr.prompt_chunks,
        "user_truncations": tr.user_truncations,
    }


@pytest.mark.parametrize("latency", [0, 1, 3])
@pytest.mark.parametrize("user", ["scripted", "model"])
def test_simulate_interaction(world, user, latency):
    size, _, model, script = world
    source = script if user == "scripted" else model
    out = {}
    for name in SAMPLERS:
        for p in (0, PROMPT):
            cfg = InteractionConfig(latency_chunks=latency,
                                    max_chunks=p + RUN, sampler=_sampler(name, 3))
            tr = simulate_interaction(model, source, cfg, _prompt(script, p))
            out[f"{name}-p{p}"] = _transcript(tr)
    _check(f"interact-v{size}-{user}-L{latency}", out)


# sha256 of every file a tiny CLI pipeline writes: synth (with its stats),
# train, continue, interact with a scripted user and with a
# second model (both after a prompt), and eval in both modes. The
# dialogues are 4840 ms, not a whole number of 160 or 240 ms chunks. The
# values were recorded when each command still encoded prompts, loaded
# models and checked vocabularies along its own path.
CLI_DIGESTS = {
    "corpus.jsonl": "89ba56c52881c5cc86a6fe8b0ff5435f9f1203a340a5f76514095d11382441e2",
    "stats.json": "49a87fba62ada72c96a9833c0f2db3d57ee7db502ecdb0880b4a2dfdcc931ab3",
    "model.json": "5674f8ee383de19756077945e5a93e2c3f7ac78c48e33f16722be953a136c9bf",
    "cont.jsonl": "be70d51dbf91029c900a25b04aaf895c794096bd26676d00b9be91b504ac5eb0",
    "cont.json": "b9991c3e38017187b73f44d790f978bc80974c2079909f2066c1fa2e10eaeb3e",
    "scripted.json": "2bc0026683afd2b22935cd362d6dfd3c93fdf6cf6a76bb2bfa86ad23e615c81d",
    "scripted.jsonl": "5e5280db01e0c05d80c5209f4f227126d28b7c65338c80283964dcf7c517f81d",
    "model_b.json": "32bc1b93439b2c1729bbce827667e11392d04133de8621849e9d4dfd2f9f4d17",
    "model_b.jsonl": "0f3f29edabe09792529c1ad92407e91f39fae77b4843eb35d8e59ff576f0da30",
    "turns.json": "081ca2110c7da32338aabbbc34cd6328656ed77436ce9a1d810d499bf3692d90",
    "turns.csv": "1814ee3076267472fcac112c1c983658627fc803a2bed3daaf3a7f5db2818920",
    "ppl.json": "08959fe36df08169d09db9fd9cc64f64f78f454d75ceccc441d81dcc8e976f9e",
    "ppl.csv": "b198110b8bc91b78d8e32e0d97ddaf0cf39eb4e157632eef18679de3c77a41d6",
}

CLI_STAGES = [
    ["synth", "--vocab", "10", "--count", "5", "--duration-ms", "4840", "--seed", "3",
     "--out", "corpus.jsonl", "--stats-out", "stats.json"],
    ["train", "--corpus", "corpus.jsonl", "--order", "3", "--out", "model.json"],
    ["continue", "--model", "model.json", "--prompts", "corpus.jsonl",
     "--prompt-ms", "1600", "--continue-ms", "1600", "--seed", "5",
     "--out", "cont.jsonl", "--transcript", "cont.json"],
    ["interact", "--model-a", "model.json", "--scripted", "corpus.jsonl",
     "--prompt-ms", "960", "--latency", "1", "--max-chunks", "12", "--seed", "6",
     "--out", "scripted.json", "--corpus-out", "scripted.jsonl"],
    ["interact", "--model-a", "model.json", "--model-b", "model.json",
     "--prompts", "corpus.jsonl", "--prompt-ms", "960", "--latency", "2",
     "--max-chunks", "12", "--seed", "7", "--top-k", "4",
     "--out", "model_b.json", "--corpus-out", "model_b.jsonl"],
    ["eval", "--mode", "turns", "--generated", "cont.jsonl",
     "--reference", "corpus.jsonl", "--out", "turns"],
    ["eval", "--mode", "ppl", "--generated", "model_b.jsonl", "--model", "model.json",
     "--prompt-ms", "960", "--chunk-ms", "240", "--out", "ppl"],
]


def test_cli_pipeline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in CLI_STAGES:
        assert main(argv) == 0, argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in CLI_DIGESTS}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(CLI_DIGESTS)
    assert got == CLI_DIGESTS
