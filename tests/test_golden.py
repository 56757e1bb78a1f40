"""Golden digests of every generation path under fixed seeds.

Each test hashes canonical JSON (sorted keys, no spaces) of what one path
produces: continuation, user-chunk estimation, the interaction loop with
scripted and model users, perplexity as ``float.hex()``, and the bytes
``NgramModel.save`` writes. The interaction digests cover every step's
in-memory ``context_snapshot``, i.e. the exact context each chunk was
sampled from. The values were recorded from the reference engine, which
rebuilt every context from chunk 0 at each step, except the model-file
digests (``save-*`` and the CLI's ``model.json``), which were recorded
again when the model file moved to the columnar version 2. A change that
moves one of them changes behaviour and must say why.
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
    "interact-v12-model-L0": "00ec13255ce4d6fa9eeaed7fe54ae72fcd5b9d85d858f3b39d54647fb3462985",
    "interact-v12-model-L1": "505c453ec059c0e2be3415eae08d6aabd452ff6d7b074767f737aed5713fdf14",
    "interact-v12-model-L3": "77eaa89e9a65462a1ab9bf0dbcfee80c30924d9875514e384266be76cb95c7aa",
    "interact-v12-scripted-L0": "319865fc1f7f4fdc0e3e780ca9a62ac1a58f5d6f5aa6564877ee822040afd5d9",
    "interact-v12-scripted-L1": "c6a6112a10c4807870604a0368ab9796c46c8a19c5a1cced60828efe1b04a1a7",
    "interact-v12-scripted-L3": "5947593a2bf2209002c5663404be1ad8df116f61ae77d07348be7557ef1d0d25",
    "interact-v501-model-L0": "76c10911bdfcaaad6d344d679c799a2c38a3a63fcb07e8ccf06897362a2c3ea6",
    "interact-v501-model-L1": "0fcb6f1adb522216f05eeced4c3fc83450f6694d5c9dd50a1caf78bedac6318c",
    "interact-v501-model-L3": "749b9d5dcbf7819e36a027c2e3b97748a1832a3be2867a24a943657352e53eeb",
    "interact-v501-scripted-L0": "3b335f7016bf8bee380fbcd470df480101dba41e2fd3bbf5995fa28ee6b85e4a",
    "interact-v501-scripted-L1": "42e83b873346b8ef0cd12ca3ca15fbee3e7045c4a7d3ad06df0d1f98b3a18960",
    "interact-v501-scripted-L3": "fa27a9f53f51a3e7938a21af17e43f968607c355b1aaabfe1aca366b16bc8e91",
    "ppl-v12": "8be9b35f5471021311b1901e5775c99693b818dcf51907756294d87e6ab9e8e4",
    "ppl-v501": "64583f908da96ecd7a1413562b650d7f23314082466847cc4a672d97af26d8c1",
    "save-v12": "31952f955fa70459d5ce49676b99294386ac04d3bb557bb5d5176bbd8f725968",
    "save-v501": "8ccb37dddf3e43d324caa5b268ef3e72d497e18184380df7b6d2d18be0b7e9c0",
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


def test_load_keeps_file_order(world, tmp_path):
    _, _, model, _ = world
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    model.save(first)
    loaded = NgramModel.load(first)
    assert list(loaded.counts.items()) == list(model.counts.items())
    assert list(loaded.totals.items()) == list(model.totals.items())
    assert [list(row) for row in loaded.counts.values()] == \
        [list(row) for row in model.counts.values()]
    loaded.save(second)
    assert second.read_bytes() == first.read_bytes()


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
            cfg = InteractionConfig(chunk_ms=CHUNK_MS, latency_chunks=latency,
                                    max_chunks=p + RUN, sampler=_sampler(name, 3))
            tr = simulate_interaction(model, source, cfg, _prompt(script, p))
            out[f"{name}-p{p}"] = _transcript(tr)
    _check(f"interact-v{size}-{user}-L{latency}", out)


# sha256 of every file a tiny CLI pipeline writes: synth (with flat and
# stats dumps), train, continue, interact with a scripted user and with a
# second model (both after a prompt), and eval in both modes. The
# dialogues are 4840 ms, not a whole number of 160 or 240 ms chunks. The
# values were recorded when each command still encoded prompts, loaded
# models and checked vocabularies along its own path.
CLI_DIGESTS = {
    "corpus.jsonl": "89ba56c52881c5cc86a6fe8b0ff5435f9f1203a340a5f76514095d11382441e2",
    "flat.txt": "d02209be40e9cc7c78a352973b254f9db6612b9ea9c9bfd10b6a4c30da1b25c6",
    "stats.json": "49a87fba62ada72c96a9833c0f2db3d57ee7db502ecdb0880b4a2dfdcc931ab3",
    "model.json": "626ba5fc234d9ab066bc46bc0e11dca0e6b53c11c9df648b680b9876a8d33006",
    "dump.txt": "d02209be40e9cc7c78a352973b254f9db6612b9ea9c9bfd10b6a4c30da1b25c6",
    "cont.jsonl": "be70d51dbf91029c900a25b04aaf895c794096bd26676d00b9be91b504ac5eb0",
    "cont.json": "b9991c3e38017187b73f44d790f978bc80974c2079909f2066c1fa2e10eaeb3e",
    "scripted.json": "34643de9640fe7a9b1c6ab951e3d725a7ec2d8e15f57694161cf6196bcdeb4a3",
    "scripted.jsonl": "5e5280db01e0c05d80c5209f4f227126d28b7c65338c80283964dcf7c517f81d",
    "model_b.json": "e69e793ab1c6758e6a75a3bd9d29999578ebaeede9f9e3352ec6ba1332035386",
    "model_b.jsonl": "0f3f29edabe09792529c1ad92407e91f39fae77b4843eb35d8e59ff576f0da30",
    "turns.json": "081ca2110c7da32338aabbbc34cd6328656ed77436ce9a1d810d499bf3692d90",
    "turns.csv": "1814ee3076267472fcac112c1c983658627fc803a2bed3daaf3a7f5db2818920",
    "ppl.json": "08959fe36df08169d09db9fd9cc64f64f78f454d75ceccc441d81dcc8e976f9e",
    "ppl.csv": "b198110b8bc91b78d8e32e0d97ddaf0cf39eb4e157632eef18679de3c77a41d6",
}

CLI_STAGES = [
    ["synth", "--vocab", "10", "--count", "5", "--duration-ms", "4840", "--seed", "3",
     "--out", "corpus.jsonl", "--flat-out", "flat.txt", "--stats-out", "stats.json"],
    ["train", "--corpus", "corpus.jsonl", "--order", "3", "--out", "model.json",
     "--flat-dump", "dump.txt"],
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
